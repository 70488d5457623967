"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Every criterion is an equality or equivalence over finite structures, so the
only tolerances are wall-clock budgets; those are pinned next to each
assertion.  Each test emits a single PASS line (shown with `pytest -v -s`).
"""

import json
import time
from pathlib import Path

from promrep import (
    CATALOG,
    FnMap,
    Preorder,
    Prom,
    Rel,
    SearchConfig,
    eq,
    finset,
    identity,
    identity_map,
    identity_prom_morphism,
    identity_rep_morphism,
    is_preorder,
    left_residual,
    prommor_to_repmor,
    repmor_leq,
    repmor_to_prommor,
    rep_to_prom,
    search,
    triangle_prom,
)
from promrep.cli import main
from promrep.harness import enumerate_representations
from test_harness import direct_image_functorial
from seeded import gen_representation


def _report(number: int, text: str):
    print(f"ACCEPTANCE {number}: PASS — {text}")


#: `checked` and `note.*` of every enumerable law at its exhaustive limit, as
#: recorded in the benchmark's verdict table (read here, never written).
GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["exhaustive"]


def _verdict(summary) -> dict:
    """A summary's counts, keyed as in the golden verdict table."""
    return {"checked": summary.checked, **{f"note.{k}": v for k, v in summary.notes.items()}}


def _golden(law, bounds) -> dict:
    return GOLDEN[f"{law}@{','.join(map(str, bounds))}"]


def _run(law, mode="seeded", bounds=None, trials=200, seed=0):
    return search(SearchConfig(law=law, mode=mode, bounds=bounds, trials=trials, seed=seed))


def test_criterion_01_eq1_galois_exhaustive_size2():
    started = time.monotonic()
    summary = _run("eq1-galois", mode="exhaustive", bounds=(2,))
    elapsed = time.monotonic() - started
    assert summary.passed
    assert summary.checked >= 16 ** 3  # all 4096 full-size triples included
    assert elapsed < 1.0
    _report(1, f"Galois equivalence on {summary.checked} triples in {elapsed:.2f}s")


def test_criterion_02_modular_tautology_exhaustive():
    started = time.monotonic()
    summary = _run("modular-tautology", mode="exhaustive", bounds=(2,))
    elapsed = time.monotonic() - started
    assert summary.passed and summary.checked > 0
    assert elapsed < 5.0
    _report(2, f"modular tautology on {summary.checked} instances in {elapsed:.2f}s")


def test_criterion_03_preorder_characterization_and_subset_order():
    A = finset("A", 2, "a")
    preorders = 0
    for code in range(16):
        r = Rel(A, A, (code & 3, code >> 2))
        assert is_preorder(r) == eq(r, left_residual(r, r))
        preorders += is_preorder(r)
    assert preorders == 4
    summary = _run("mem-residual-subset", mode="exhaustive", bounds=(3,))
    assert summary.passed and summary.checked == 4  # |M| = 0..3
    _report(3, "16 relations characterized, 4 preorders; ∈\\∈ = ⊆ for |M| ≤ 3")


def test_criterion_04_lemmas_1_2_seeded_1000():
    started = time.monotonic()
    s1 = _run("lemma1", bounds=(4, 4), trials=1000, seed=11)
    s2 = _run("lemma2", bounds=(4,), trials=1000, seed=12)
    elapsed = time.monotonic() - started
    assert s1.passed and s1.checked == 1000
    assert s2.passed and s2.checked == 1000
    assert elapsed < 10.0
    _report(4, f"lemmas 1-2 on 1000 seeded instances each in {elapsed:.2f}s")


def test_criterion_05_lemma3_laxness_with_strictness_witness():
    summary = _run("lemma3", bounds=(3,), trials=500, seed=13)
    assert summary.passed and summary.checked == 500
    assert summary.notes.get("strict", 0) >= 1
    # explicit strictness witness: any prom with y a 2-chain
    A, B = finset("A", 1, "a"), finset("B", 2, "b")
    y = Preorder(Rel(B, B, (0b11, 0b10)))  # b0 ≤ b1
    p = Prom(Preorder(identity(A)), y, FnMap(A, B, (0,)))
    r_id = prommor_to_repmor(identity_prom_morphism(p))
    ident = identity_rep_morphism(r_id.src)
    assert eq(r_id.tau, y.rel) and not eq(r_id.tau, identity(B))
    assert repmor_leq(ident, r_id) and not repmor_leq(r_id, ident)
    _report(5, f"laxness on 500 instances, {summary.notes['strict']} strict; 2-chain witness")


def test_criterion_06_lemmas_4_6_enumerated():
    started = time.monotonic()
    s4 = _run("lemma4", mode="exhaustive", bounds=(2, 2))
    s5 = _run("lemma5", mode="exhaustive", bounds=(2, 2))
    s6 = _run("lemma6", mode="exhaustive", bounds=(2, 1))
    assert s4.passed and s5.passed and s6.passed
    assert _verdict(s4) == _golden("lemma4", (2, 2))
    assert _verdict(s5) == _golden("lemma5", (2, 2))  # every enumerated morphism at |M|,|M'|,|S|,|S'| ≤ 2
    assert _verdict(s6) == _golden("lemma6", (2, 1))
    # strict functoriality at the full (2,2) bound: identity images for every
    # representation, and composition via tau multiplicativity (the only data
    # M transforms)
    for r in enumerate_representations(2, 2):
        img = repmor_to_prommor(identity_rep_morphism(r))
        ident = identity_prom_morphism(rep_to_prom(r))
        assert img.phi.image == ident.phi.image
        assert img.psi == ident.psi
    checked, violation = direct_image_functorial(2)
    assert violation is None and checked > 0
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(6, f"lemmas 4-6 exact on {s4.checked}+{s5.checked}+{s6.checked} instances in {elapsed:.2f}s")


def test_criterion_07_lemma7_exhaustive():
    summary = _run("lemma7", mode="exhaustive", bounds=(2, 3))
    assert summary.passed
    assert summary.checked >= 2 ** 6  # includes all 64 relations at |A|=2, |B|=3
    _report(7, f"membership recovery exact on {summary.checked} relations")


def test_criterion_08_unit_counit_triangles():
    s_unit = _run("unit-natural", bounds=(3,), trials=300, seed=21)
    s_counit = _run("counit-natural", bounds=(2,), trials=300, seed=22)
    assert s_unit.passed and s_unit.checked == 300
    assert s_counit.passed and s_counit.checked == 300
    # triangle in PoM: exact equality; the composite depends only on |M| ≤ 3
    for size in range(4):
        assert triangle_prom(gen_representation(size, size, 2))
    s_tri = _run("triangle-repr", bounds=(3, 3), trials=300, seed=23)
    assert s_tri.passed and s_tri.checked == 300
    assert s_tri.notes.get("strict", 0) >= 1
    _report(8, f"unit/counit natural on 300 each; triangles exact, {s_tri.notes['strict']} strict")


def test_criterion_09_lemmas_8_9_hom_sets():
    s8 = _run("lemma8", mode="exhaustive", bounds=(2,))
    s9 = _run("lemma9", mode="exhaustive", bounds=(2,))
    assert s8.passed and s9.passed
    assert _verdict(s8) == _golden("lemma8", (2,))
    assert _verdict(s9) == _golden("lemma9", (2,))  # strict TΨ instances included
    _report(9, f"ΨT=id on {s9.notes['prom_homs']} prom homs, TΨ⩾id on {s9.notes['rep_homs']} rep homs, {s9.notes['strict_t_psi']} strict")


def test_enumerable_laws_match_golden_verdicts():
    # the five laws pinned by criteria 6 and 9 are left out here
    pinned = {"lemma4", "lemma5", "lemma6", "lemma8", "lemma9"}
    laws = [law for law, spec in CATALOG.items() if spec.enumerate is not None and law not in pinned]
    assert len(laws) == 13
    for law in laws:
        limit = CATALOG[law].exhaustive_limit
        summary = _run(law, mode="exhaustive", bounds=limit)
        assert summary.passed, law
        assert _verdict(summary) == _golden(law, limit), law


def test_criterion_10_lemmas_10_11_exhaustive_with_coverage():
    s10 = _run("lemma10", mode="exhaustive", bounds=(2, 2))
    s11 = _run("lemma11", mode="exhaustive", bounds=(2, 2))
    assert s10.passed and s11.passed
    assert s10.notes["exact"] > 0 and s10.notes["non_exact"] > 0
    assert s11.notes["reflecting"] > 0 and s11.notes["non_reflecting"] > 0
    _report(10, f"exactness transfer: {s10.notes['exact']} exact / {s10.notes['non_exact']} non-exact representations; {s11.notes['reflecting']} reflecting / {s11.notes['non_reflecting']} non-reflecting proms")


def test_criterion_11_verify_determinism_across_jobs(capsys):
    """Two runs at one seed print the same bytes; `--jobs`, which never
    changed them, is gone, and the test keeps the criterion's name."""
    args = ["verify", "triangle-repr", "--trials", "300", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    _report(11, "verify summaries byte-identical over two runs at one seed")
