"""CLI contract: exit codes, report shapes, re-checkable apply output,
summary determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import promrep

from promrep import (
    gen_prom,
    gen_representation,
    prom_to_rep,
    prommor_to_repmor,
    unit,
    workspace,
)
from promrep.cli import main


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


def run_cli(*args):
    """The CLI in its own process, so exit code and stderr are the real ones."""
    src = str(Path(promrep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "promrep.cli", *args], capture_output=True, text=True, env=env
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
def test_apply_with_colliding_subset_labels_is_input_error(tmp_path, functor):
    # with a model labelled "", the subsets {""} and {} both print as "{}"
    doc = {
        "sets": {"M": ["", "m1"], "S": []},
        "relations": {"sat": {"from": "M", "to": "S"}, "ord": {"from": "S", "to": "S"}},
        "structures": {"R0": {"kind": "representation", "sat": "sat", "ord": "ord"}},
    }
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    assert run_cli("check", str(path), "R0").returncode == 0
    proc = run_cli("apply", functor, str(path), "R0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


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


def test_apply_psi_without_context_prom(tmp_path):
    p = gen_prom(5, 2, 2)
    path = tmp_path / "nopsi.json"
    path.write_text(workspace.dumps(workspace.build({"m": prommor_to_repmor(unit(p))})))
    assert main(["apply", "psi", str(path), "m"]) == 2


def test_apply_powerset_cap_guard(tmp_path, capsys):
    r = gen_representation(1, 3, 2)
    path = tmp_path / "big.json"
    path.write_text(workspace.dumps(workspace.build({"R": r})))
    assert main(["apply", "M", str(path), "R", "--powerset-cap", "2"]) == 2


# --- verify -----------------------------------------------------------------

def test_verify_pass_summary(capsys):
    assert main(["verify", "lemma7", "--mode", "exhaustive", "--max-size", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "law: lemma7" in out and "result: pass" in out and "checked: 104" in out


def test_verify_seeded_with_notes(capsys):
    assert main(["verify", "triangle-repr", "--trials", "100", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "note.strict:" in out


def test_verify_infeasible_bounds(capsys):
    assert main(["verify", "eq1-galois", "--mode", "exhaustive", "--max-size", "3"]) == 2


def test_verify_bad_max_size():
    assert main(["verify", "lemma7", "--max-size", "two"]) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    assert main(["verify", "lemma1", "--trials", "5", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: parallelism must be at least 1" in captured.err


def test_verify_jobs_do_not_change_stdout(capsys):
    assert main(["verify", "lemma1", "--trials", "150", "--seed", "3", "--jobs", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "lemma1", "--trials", "150", "--seed", "3", "--jobs", "8"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_pretty_layout(capsys):
    assert main(["verify", "lemma7", "--mode", "exhaustive", "--pretty"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("  law")


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
