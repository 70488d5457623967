"""CLI contract: exit codes, report shapes, re-checkable apply output,
summary determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import promrep

from promrep import (
    FnMap,
    Preorder,
    Prom,
    Rel,
    Representation,
    finset,
    full,
    identity,
    identity_prom_morphism,
    identity_rep_morphism,
    prom_to_rep,
    prommor_to_repmor,
    rep_to_prom,
    unit,
    workspace,
)
from promrep.cli import main
from seeded import gen_prom, gen_representation


SAMPLE = {
    "sets": {"A": ["a0"], "B": ["b0", "b1"], "M": ["m0"], "S": ["s0"]},
    "relations": {
        "x": {"from": "A", "to": "A", "pairs": [["a0", "a0"]]},
        "y": {
            "from": "B",
            "to": "B",
            "pairs": [["b0", "b0"], ["b1", "b1"], ["b0", "b1"]],
        },
        "sat": {"from": "M", "to": "S", "pairs": [["m0", "s0"]]},
        "ord": {"from": "S", "to": "S", "pairs": [["s0", "s0"]]},
        "bad": {"from": "B", "to": "B", "pairs": [["b0", "b1"]]},
    },
    "functions": {"f": {"from": "A", "to": "B", "map": {"a0": "b0"}}},
    "structures": {
        "p": {"kind": "prom", "x": "x", "y": "y", "f": "f"},
        "R0": {"kind": "representation", "sat": "sat", "ord": "ord"},
        "notpre": {"kind": "preorder", "rel": "bad"},
    },
}


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(SAMPLE))
    return str(path)


# --- check ------------------------------------------------------------------

def test_check_valid_structure(sample_file, capsys):
    assert main(["check", sample_file, "p"]) == 0
    out = capsys.readouterr().out
    assert "order preservation: ok" in out
    assert "result: ok" in out


def test_check_invalid_structure(sample_file, capsys):
    assert main(["check", sample_file, "notpre"]) == 1
    out = capsys.readouterr().out
    assert "axiom: reflexivity" in out
    assert "result: fail" in out


def test_check_names_transitivity_witness_on_subset_order(tmp_path, capsys):
    """M(r) at |M| = 8 with the pair (∅, M) taken out of ⊆ on 2^M."""
    p = rep_to_prom(gen_representation(3, 8, 3))
    y = p.y.rel
    rows = (y.rows[0] & ~(1 << 255),) + y.rows[1:]
    bad = Prom(p.x, Preorder(Rel(y.src, y.dst, rows)), p.f)
    path = tmp_path / "ws.json"
    path.write_text(workspace.dumps(workspace.build({"p": bad})))
    assert main(["check", str(path), "p"]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        "axiom: y transitivity",
        "witness: ('{}', '{m0,m1,m2,m3,m4,m5,m6,m7}')",
        "result: fail",
    ]


def test_check_subset_order_where_transitivity_takes_single_bit_extensions(tmp_path, capsys):
    """M(r) at |M| = 7, the first size where ⊆'s transitivity ORs each row's
    single-bit extensions: valid as built, and refuted with the pair
    ({m0}, {m1}) added, which misses ({m0}, {m1,m2})."""
    p = rep_to_prom(gen_representation(3, 7, 3))
    y = p.y.rel
    rows = (y.rows[0], y.rows[1] | 1 << 2) + y.rows[2:]
    bad = Prom(p.x, Preorder(Rel(y.src, y.dst, rows)), p.f)
    path = tmp_path / "ws.json"
    path.write_text(workspace.dumps(workspace.build({"p": p, "bad": bad})))
    assert main(["check", str(path), "p"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["order preservation: ok", "result: ok"]
    assert main(["check", str(path), "bad"]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        "axiom: y transitivity",
        "witness: ('{m0}', '{m1,m2}')",
        "result: fail",
    ]


def test_check_morphism_names_a_broken_end(tmp_path, capsys):
    """Identity morphisms on a prom whose f breaks order and on an unsound
    representation: only the ends are invalid."""
    A, B, M = finset("A", 2, "a"), finset("B", 2, "b"), finset("M", 1, "m")
    chain = Preorder(Rel.from_pairs(B, B, [("b0", "b0"), ("b1", "b1"), ("b0", "b1")]))
    p = Prom(Preorder(full(A, A)), chain, FnMap(A, B, (1, 0)))
    r = Representation(Rel.from_pairs(M, B, [("m0", "b0")]), chain)
    good = Prom(Preorder(identity(A)), chain, p.f)
    ws = {"pm": identity_prom_morphism(p), "rm": identity_rep_morphism(r), "ok": identity_prom_morphism(good)}
    path = tmp_path / "ws.json"
    path.write_text(workspace.dumps(workspace.build(ws)))
    for name, axiom, witness in (
        ("pm", "src order preservation", "('a0', 'a1')"),
        ("rm", "src soundness", "('m0', 'b1')"),
    ):
        assert main(["check", str(path), name]) == 1
        assert capsys.readouterr().out.splitlines()[2:] == [f"axiom: {axiom}", f"witness: {witness}", "result: fail"]
    assert main(["check", str(path), "ok"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2:5] == ["src x preorder: ok", "src y preorder: ok", "src order preservation: ok"]
    assert out[-2:] == ["commuting square: ok", "result: ok"]


def test_check_names_a_representations_broken_order_ord(tmp_path, capsys):
    """A representation's order fails as `ord …`, and a representation
    morphism's end as `src ord …`, as a prom's orders fail as `x …` and `y …`."""
    M, S = finset("M", 1, "m"), finset("S", 2, "s")
    r = Representation(Rel(M, S, (0,)), Preorder(Rel(S, S, (1, 0))))
    path = tmp_path / "ws.json"
    path.write_text(workspace.dumps(workspace.build({"r": r, "rm": identity_rep_morphism(r)})))
    for name, axiom in (("r", "ord reflexivity"), ("rm", "src ord reflexivity")):
        assert main(["check", str(path), name]) == 1
        assert capsys.readouterr().out.splitlines()[2:] == [f"axiom: {axiom}", "witness: ('s1', 's1')", "result: fail"]


def test_check_missing_name(sample_file):
    assert main(["check", sample_file, "ghost"]) == 2


def test_check_dangling_reference(tmp_path):
    doc = json.loads(json.dumps(SAMPLE))
    doc["structures"]["p"]["x"] = "ghost"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "p"]) == 2


def test_check_unreadable_file():
    assert main(["check", "/no/such/file.json", "p"]) == 2


def child_env():
    """The environment in which a child process imports this promrep."""
    src = str(Path(promrep.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(*args, stdout=subprocess.PIPE):
    """The CLI in its own process, so exit code and stderr are the real ones."""
    return subprocess.run(
        [sys.executable, "-m", "promrep.cli", *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=child_env()
    )


# Valid as it stands: p is the (empty) preorder on an empty carrier.
EMPTY_P = {
    "sets": {"A": []},
    "relations": {"r": {"from": "A", "to": "A"}},
    "structures": {"p": {"kind": "preorder", "rel": "r"}},
}


def _preorder_p(pairs):
    """p is a preorder on {a, b} whose relation lists `pairs`."""
    return {
        "sets": {"A": ["a", "b"]},
        "relations": {"r": {"from": "A", "to": "A", "pairs": pairs}},
        "structures": {"p": {"kind": "preorder", "rel": "r"}},
    }


@pytest.mark.parametrize(
    "doc",
    [
        {"sets": [1]},
        {"structures": "p"},
        {"relations": {"r": 5}},
        {"sets": {"A": ["a"]}, "functions": {"f": ["A", "A"]}},
        {"sets": {"A": ["a"]}, "functions": {"f": {"from": "A", "to": "A", "map": ["a"]}}},
        {"sets": {"A": ["a"]}, "functions": {"f": {"from": "A", "to": "A", "map": {"a": {}}}}},
        {"functions": {"f": {"from": "A", "to": "A", "map": {"a": {}}}}},
        # only an absent or null section, pairs or map means empty
        {"sets": []},
        {**EMPTY_P, "functions": []},
        {**EMPTY_P, "relations": {"r": {"from": "A", "to": "A", "pairs": {}}}},
        {**EMPTY_P, "relations": {"r": {"from": "A", "to": "A", "pairs": 0}}},
        {**EMPTY_P, "functions": {"f": {"from": "A", "to": "A", "map": []}}},
        # a pair is a list of two labels, not a two-letter string
        _preorder_p({"aa": 0, "bb": 0}),
        _preorder_p(["aa", "bb"]),
        # a map key outside the source carrier
        {
            "sets": {"A": ["a"]},
            "relations": {"r": {"from": "A", "to": "A", "pairs": [["a", "a"]]}},
            "functions": {"f": {"from": "A", "to": "A", "map": {"a": "a", "zz": "a"}}},
            "structures": {"p": {"kind": "prom", "x": "r", "y": "r", "f": "f"}},
        },
    ],
)
def test_check_malformed_workspace_is_input_error(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path), "p")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["check"], ["apply", "R"]])
@pytest.mark.parametrize(
    "data", [b"\xff\xfe{}", b"[" * 200_000], ids=["not-utf8", "nested-past-recursion-limit"]
)
def test_undecodable_workspace_file_is_input_error(tmp_path, data, command):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    proc = run_cli(*command, str(path), "p")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# --- apply ------------------------------------------------------------------

# p's x runs from A to B, so it is no preorder; R0's ord lies on A, not on
# the statements S.  Loading either file fails, whatever the command.
NON_SQUARE_X = {
    "sets": {"A": ["a0"], "B": ["b0", "b1"]},
    "relations": {
        "ab": {"from": "A", "to": "B", "pairs": [["a0", "b0"]]},
        "y": {"from": "B", "to": "B", "pairs": [["b0", "b0"], ["b1", "b1"]]},
    },
    "functions": {"f": {"from": "A", "to": "B", "map": {"a0": "b0"}}},
    "structures": {"p": {"kind": "prom", "x": "ab", "y": "y", "f": "f"}},
}
ORD_OFF_STATEMENTS = {
    "sets": {"A": ["a0"], "M": ["m0"], "S": ["s0"]},
    "relations": {
        "sat": {"from": "M", "to": "S", "pairs": [["m0", "s0"]]},
        "ord": {"from": "A", "to": "A", "pairs": [["a0", "a0"]]},
    },
    "structures": {"R0": {"kind": "representation", "sat": "sat", "ord": "ord"}},
}


@pytest.mark.parametrize(
    "doc, command",
    [
        (NON_SQUARE_X, ["apply", "R"]),
        (NON_SQUARE_X, ["apply", "unit"]),
        (NON_SQUARE_X, ["check"]),
        (ORD_OFF_STATEMENTS, ["apply", "M"]),
        (ORD_OFF_STATEMENTS, ["apply", "counit"]),
        (ORD_OFF_STATEMENTS, ["apply", "RM"]),
        (ORD_OFF_STATEMENTS, ["check"]),
    ],
)
def test_disconnected_carriers_are_input_errors(tmp_path, doc, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(*command, str(path), next(iter(doc["structures"])))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr

@pytest.mark.parametrize("functor", ["M", "counit", "RM"])
def test_apply_with_quoted_subset_labels_round_trips(tmp_path, capsys, functor):
    # a label that is empty or holds one of ,{}" is quoted inside a subset,
    # so {""} and {} differ, and so do {"a,b"} and {a,b}
    for models, quoted in ((["", "m1"], '{""}'), (["a,b", "a", "b"], '{"a,b"}')):
        doc = {
            "sets": {"M": models, "S": []},
            "relations": {"sat": {"from": "M", "to": "S"}, "ord": {"from": "S", "to": "S"}},
            "structures": {"R0": {"kind": "representation", "sat": "sat", "ord": "ord"}},
        }
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "R0"]) == 0
        capsys.readouterr()
        text = _apply_and_recheck(tmp_path, capsys, functor, str(path), "R0")
        subsets = json.loads(text)["sets"]["2^M"]
        assert quoted in subsets and len(subsets) == 1 << len(models)
        assert workspace.dumps(workspace.loads(text)) == text


def _apply_and_recheck(tmp_path, capsys, functor, src_file, name):
    assert main(["apply", functor, src_file, name]) == 0
    text = capsys.readouterr().out
    out_path = tmp_path / f"{functor}.json"
    out_path.write_text(text)
    assert main(["check", str(out_path), f"{functor}({name})"]) == 0
    capsys.readouterr()
    return text


def test_apply_r_matches_expected_sat(sample_file, tmp_path, capsys):
    text = _apply_and_recheck(tmp_path, capsys, "R", sample_file, "p")
    doc = json.loads(text)
    assert doc["relations"]["R(p).sat"]["pairs"] == [["b0", "a0"]]


def test_apply_m_powerset_size(sample_file, tmp_path, capsys):
    text = _apply_and_recheck(tmp_path, capsys, "M", sample_file, "R0")
    doc = json.loads(text)
    assert len(doc["sets"]["2^M"]) == 2


def test_apply_round_functors_and_unit_counit(sample_file, tmp_path, capsys):
    for functor, name in (("MR", "p"), ("RM", "R0"), ("unit", "p"), ("counit", "R0")):
        _apply_and_recheck(tmp_path, capsys, functor, sample_file, name)


def test_apply_wrong_kind(sample_file):
    assert main(["apply", "M", sample_file, "p"]) == 2


def test_apply_psi_and_tee(tmp_path, capsys):
    p = gen_prom(5, 2, 2)
    psi_in = tmp_path / "psi.json"
    psi_in.write_text(
        workspace.dumps(workspace.build({"p": p, "m": prommor_to_repmor(unit(p))}))
    )
    assert main(["apply", "psi", str(psi_in), "m"]) == 0
    out = tmp_path / "psi_out.json"
    out.write_text(capsys.readouterr().out)
    assert main(["check", str(out), "psi(m)"]) == 0
    capsys.readouterr()

    tee_in = tmp_path / "tee.json"
    tee_in.write_text(
        workspace.dumps(workspace.build({"R": prom_to_rep(p), "m": unit(p)}))
    )
    assert main(["apply", "tee", str(tee_in), "m"]) == 0
    out2 = tmp_path / "tee_out.json"
    out2.write_text(capsys.readouterr().out)
    assert main(["check", str(out2), "tee(m)"]) == 0


def test_apply_tee_skips_representations_that_cannot_be_the_preimage(tmp_path, capsys):
    # |M| = 13 is over the powerset cap, so building M(big) would fail the run
    p = gen_prom(5, 2, 2)
    outs = []
    for big in ("Big", "Zbig"):
        path = tmp_path / f"{big}.json"
        ws = {big: gen_representation(1, 13, 1), "R": prom_to_rep(p), "m": unit(p)}
        path.write_text(workspace.dumps(workspace.build(ws)))
        assert main(["apply", "tee", str(path), "m"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_apply_psi_without_context_prom(tmp_path):
    p = gen_prom(5, 2, 2)
    path = tmp_path / "nopsi.json"
    path.write_text(workspace.dumps(workspace.build({"m": prommor_to_repmor(unit(p))})))
    assert main(["apply", "psi", str(path), "m"]) == 2


def _invalid_inputs_file(tmp_path):
    """p's y misses (b1, b1), where f does not reach, so R(p) is valid; r is
    unsound, as m0 ⊨ s0 ≤ s1 but not m0 ⊨ s1, so M(r) is no prom."""
    A, B = finset("A", 1, "a"), finset("B", 2, "b")
    M, S = finset("M", 1, "m"), finset("S", 2, "s")
    p = Prom(Preorder(identity(A)), Preorder(Rel(B, B, (1, 0))), FnMap(A, B, (0,)))
    r = Representation(Rel(M, S, (1,)), Preorder(Rel(S, S, (3, 2))))
    ws = {"p": p, "r": r, "rm": identity_rep_morphism(prom_to_rep(p)), "pm": identity_prom_morphism(rep_to_prom(r))}
    path = tmp_path / "invalid.json"
    path.write_text(workspace.dumps(workspace.build(ws)))
    return str(path)


P_INVALID = "error: invalid prom: y reflexivity violated at ('b1', 'b1')\n"
R_INVALID = "error: invalid representation: soundness violated at ('m0', 's1')\n"


@pytest.mark.parametrize(
    "functor, name, err",
    [
        ("R", "p", P_INVALID),
        ("MR", "p", P_INVALID),
        ("unit", "p", P_INVALID),
        ("psi", "rm", P_INVALID),  # the prom psi looks up
        ("M", "r", R_INVALID),
        ("RM", "r", R_INVALID),
        ("counit", "r", R_INVALID),
        ("tee", "pm", "error: invalid prom morphism: src order preservation violated at ('s0', 's1')\n"),
    ],
    ids=["R", "MR", "unit", "psi", "M", "RM", "counit", "tee"],
)
def test_apply_validates_its_input_first(tmp_path, capsys, functor, name, err):
    """An input that `check` refutes is an input error, with nothing on stdout."""
    path = _invalid_inputs_file(tmp_path)
    assert main(["check", path, name if functor != "psi" else "p"]) == 1
    capsys.readouterr()
    assert main(["apply", functor, path, name]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


def test_apply_powerset_cap_guard(tmp_path, capsys):
    r = gen_representation(1, 13, 2)
    path = tmp_path / "big.json"
    path.write_text(workspace.dumps(workspace.build({"R": r})))
    assert main(["apply", "M", str(path), "R"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: |M| = 13 exceeds powerset cap 12\n"


#: sha256 of `promrep apply FUNCTOR FILE NAME` stdout on the |M| = 8 workspace
#: of test_apply_output_bytes_are_pinned, as written by json.dumps(indent=2).
APPLY_DIGESTS = {
    ("M", "r"): "853b68ff3543bf97c2d017063e2df685997da4bd5576eeb39985c84093a8318e",
    ("counit", "r"): "9237c94237bea177c88f3c4eca1d7fe415a36780a757aa1bc22a6ce97ff125ab",
    ("unit", "p"): "d91051239de977a7f461bd3af4d70f8ea40de48c9e0535b04874a35cefd19457",
}


@pytest.mark.parametrize("functor, name", list(APPLY_DIGESTS))
def test_apply_output_bytes_are_pinned(tmp_path, capsys, functor, name):
    ws = workspace.build({"r": gen_representation(8, 8, 4), "p": gen_prom(8, 4, 8)})
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(workspace.to_doc(ws), indent=2) + "\n")
    assert main(["apply", functor, str(path), name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == APPLY_DIGESTS[functor, name]


# --- verify -----------------------------------------------------------------

def test_verify_pass_summary(capsys):
    assert main(["verify", "lemma7", "--mode", "exhaustive", "--max-size", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "law: lemma7" in out and "result: pass" in out and "checked: 104" in out


def test_verify_seeded_with_notes(capsys):
    assert main(["verify", "triangle-repr", "--trials", "100", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "note.strict:" in out


def test_verify_prints_a_note_that_sums_to_zero(capsys):
    # every lemma9 instance within size 1 reports strict_t_psi 0
    assert main(["verify", "lemma9", "--mode", "exhaustive", "--max-size", "1"]) == 0
    assert "note.strict_t_psi: 0\n" in capsys.readouterr().out


def test_verify_infeasible_bounds(capsys):
    assert main(["verify", "eq1-galois", "--mode", "exhaustive", "--max-size", "3"]) == 2


def test_verify_more_sizes_than_the_law_takes_is_input_error():
    # a shorter list is padded with its last size; a longer one names the law
    proc = run_cli("verify", "eq1-galois", "--mode", "exhaustive", "--max-size", "2,9")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: bounds (2, 9) give 2 sizes, but law 'eq1-galois' takes 1\n"
    assert main(["verify", "lemma7", "--mode", "exhaustive", "--max-size", "2"]) == 0


def test_verify_bad_max_size():
    assert main(["verify", "lemma7", "--max-size", "two"]) == 2


def test_verify_empty_max_size_is_input_error():
    for text in ("", ","):
        proc = run_cli("verify", "lemma7", "--max-size", text)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: --max-size wants comma-separated integers")
        assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_verify_over_the_powerset_cap_is_input_error():
    # lemma7 builds the powerset of x's source, drawn here up to 13 elements;
    # the bound alone is the error, also at seeds whose draws stay below 13
    for seed in range(4):
        proc = run_cli("verify", "lemma7", "--max-size", "13", "--trials", "3", "--seed", str(seed))
        assert proc.returncode == 2, seed
        assert proc.stderr == "error: |A| = 13 exceeds powerset cap 12: law 'lemma7' builds 2^A with |A| up to that bound\n"
        assert proc.stdout == ""


@pytest.mark.parametrize("law", ["lemma5", "lemma6", "lemma8", "lemma9", "counit-natural"])
def test_verify_over_the_tau_cell_limit_is_input_error_at_every_seed(capsys, law):
    """Each of these laws lists every τ between two carriers of up to the
    first bound's size: 4·4 cells are over the limit of 9 at every seed,
    also where no draw reaches 4, and 3·3 cells are within it."""
    for seed in map(str, range(6)):
        assert main(["verify", law, "--max-size", "4", "--trials", "1", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: tau enumeration over up to 4·4 cells exceeds limit 9: "
            f"law '{law}' lists every τ between carriers of up to 4 points\n"
        )
        assert main(["verify", law, "--max-size", "3", "--trials", "1", "--seed", seed]) == 0
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "eq1-galois", "--trials", "5", "--powerset-cap=-1"],
        ["verify", "lemma7", "--powerset-cap=12"],
        ["apply", "R", "FILE", "p", "--powerset-cap", "12"],
    ],
)
def test_powerset_cap_option_is_gone(sample_file, argv):
    proc = run_cli(*(sample_file if arg == "FILE" else arg for arg in argv))
    assert proc.returncode == 2
    assert "error: unrecognized arguments: --powerset-cap" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("mode", ["seeded", "exhaustive"])
def test_negative_trials_is_input_error_in_every_mode(mode):
    proc = run_cli("verify", "lemma7", "--mode", mode, "--max-size", "1", "--trials", "-1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: trials must be nonnegative")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_jobs_option_is_gone():
    """Trials always ran serially, so `--jobs` is no longer accepted."""
    proc = run_cli("verify", "lemma1", "--jobs", "2")
    assert proc.returncode == 2
    assert "error: unrecognized arguments: --jobs 2" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert "--jobs" not in run_cli("verify", "--help").stdout


def test_unknown_law_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-law"])
    assert exc.value.code == 2


# --- laws -------------------------------------------------------------------

def test_laws_listing(capsys):
    assert main(["laws"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 22
    assert "lemma9: ΨT(φ,ψ) = (φ,ψ)" in out
    assert any(l.startswith("eq1-galois") for l in lines)


# --- one process, many commands ---------------------------------------------

def test_main_builds_its_parser_once_per_process():
    """Not at import, and once for any number of in-process calls."""
    script = """
import argparse, contextlib, io
built, init = [], argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)
argparse.ArgumentParser.__init__ = counting_init
from promrep.cli import main
counts = [built.count("promrep")]
for _ in range(5):
    with contextlib.redirect_stdout(io.StringIO()):
        main(["laws"])
    counts.append(built.count("promrep"))
print(counts)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout) == (0, "[0, 1, 1, 1, 1, 1]\n"), proc.stderr


def test_in_process_commands_match_fresh_processes(sample_file, capsys):
    """Each command of one process's sequence, the parser reused, prints the
    stdout and exit status it gives alone in a fresh process."""
    sequence = [
        (["laws"], 0),
        (["verify", "lemma7", "--mode", "exhaustive", "--max-size", "1,1"], 0),
        (["check", sample_file, "p"], 0),
        (["check", sample_file, "notpre"], 1),
        (["apply", "M", sample_file, "R0"], 0),
        (["verify", "no-such-law"], 2),
        (["apply", "tee", sample_file, "p"], 2),
        (["check", sample_file, "p"], 0),
    ]
    for argv, status in sequence:
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse's usage error
            got = exc.code
        out = capsys.readouterr().out
        alone = run_cli(*argv)
        assert (got, out) == (alone.returncode, alone.stdout), argv
        assert got == status, argv


# --- closed stdout ----------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{file}", "p"],
        ["apply", "R", "{file}", "p"],
        ["verify", "lemma9", "--seed", "7"],
        ["verify", "lemma1", "--trials", "5"],
        ["laws"],
    ],
    ids=["check", "apply", "verify-lemma9", "verify-lemma1", "laws"],
)
def test_closed_stdout_exits_2_without_traceback(sample_file, argv):
    """A reader that goes away, as `| head -1` does, is not a refutation:
    the pipe's read end is closed before the CLI writes a byte."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli(*(arg.format(file=sample_file) for arg in argv), stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
