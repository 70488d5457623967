"""Generators, enumerators, the law catalog, and the search engine."""

import pytest

from promrep import (
    CATALOG,
    ConfigError,
    InvalidStructure,
    Preorder,
    Prom,
    Rel,
    SearchConfig,
    Witness,
    check_law,
    check_prom,
    check_prom_morphism,
    check_rep_morphism,
    check_representation,
    eq,
    finset,
    gen_preorder,
    gen_prom,
    gen_prom_morphism,
    gen_rep_morphism,
    gen_representation,
    identity,
    is_preorder,
    replay,
    search,
)
from promrep.harness import (
    LawSpec,
    direct_image_functorial,
    enumerate_fnmaps,
    enumerate_preorders,
    enumerate_proms,
    enumerate_relations,
    enumerate_rep_morphisms,
    enumerate_representations,
    mix_seed,
)


# --- generators -------------------------------------------------------------

def test_gen_preorder_is_deterministic_and_valid():
    for seed in (0, 1, 99):
        a = gen_preorder(seed, 4)
        b = gen_preorder(seed, 4)
        assert eq(a.rel, b.rel)
        assert is_preorder(a.rel)
    assert len(gen_preorder(0, 0).carrier) == 0


def test_gen_prom_always_valid():
    for seed in range(300):
        assert check_prom(gen_prom(seed, 4, 4))


def test_gen_prom_empty_target_forces_empty_source():
    p = gen_prom(0, 3, 0)
    assert len(p.A) == 0 and len(p.B) == 0


def test_gen_representation_always_valid():
    for seed in range(300):
        assert check_representation(gen_representation(seed, 4, 4))


def test_gen_prom_morphism_always_valid():
    for seed in range(300):
        assert check_prom_morphism(gen_prom_morphism(seed, 3))


def test_gen_rep_morphism_always_valid():
    for seed in range(100):
        assert check_rep_morphism(gen_rep_morphism(seed, 2))


def test_mix_seed_spreads_trials():
    children = {mix_seed(7, i) for i in range(1000)}
    assert len(children) == 1000
    assert {mix_seed(8, i) for i in range(1000)}.isdisjoint(children)


# --- enumerators ------------------------------------------------------------

def test_enumerate_relations_counts():
    A = finset("A", 2, "a")
    B = finset("B", 2, "b")
    assert sum(1 for _ in enumerate_relations(A, B)) == 16
    with pytest.raises(ConfigError):
        list(enumerate_relations(finset("A", 5, "a"), finset("B", 4, "b")))


def test_enumerate_preorders_count_on_two_points():
    assert sum(1 for _ in enumerate_preorders(finset("A", 2, "a"))) == 4


def test_enumerate_fnmaps_counts():
    A, B = finset("A", 2, "a"), finset("B", 3, "b")
    assert sum(1 for _ in enumerate_fnmaps(A, B)) == 9
    assert sum(1 for _ in enumerate_fnmaps(finset("A", 0, "a"), B)) == 1
    assert sum(1 for _ in enumerate_fnmaps(A, finset("B", 0, "b"))) == 0


def test_enumerate_proms_all_valid():
    proms = list(enumerate_proms(2, 2))
    assert proms
    assert all(check_prom(p) for p in proms)


def test_enumerate_representations_all_sound():
    reps = list(enumerate_representations(2, 2))
    assert reps
    assert all(check_representation(r) for r in reps)


def test_enumerate_rep_morphisms_contains_identity():
    r = gen_representation(5, 2, 2)
    homs = list(enumerate_rep_morphisms(r, r))
    assert any(
        m.phi.image == tuple(range(len(r.S))) and eq(m.tau, identity(r.M)) for m in homs
    )
    assert all(check_rep_morphism(m) for m in homs)


def test_enumerate_rep_morphisms_bound_guard():
    big = gen_representation(0, 4, 1)
    with pytest.raises(ConfigError):
        list(enumerate_rep_morphisms(big, big))


# --- law catalog / check_law ------------------------------------------------

def test_catalog_is_closed_and_documented():
    assert len(CATALOG) == 22
    for law, spec in CATALOG.items():
        assert spec.law == law and spec.summary
        assert spec.generate is not None or spec.enumerate is not None


def test_check_law_pass_returns_none():
    p = gen_prom(1, 3, 3)
    assert check_law("lemma1", {"p": p}) is None


def test_check_law_unknown_law():
    with pytest.raises(ConfigError):
        check_law("no-such-law", {})


def test_check_law_rejects_invalid_input_instead_of_witnessing():
    A = finset("A", 2, "a")
    bad_x = Preorder(Rel.from_pairs(A, A, [("a0", "a1")]), check=False)
    p = gen_prom(1, 2, 2)
    corrupted = Prom(bad_x, p.y, p.f, check=False) if len(p.A) == 2 else None
    assert corrupted is not None
    with pytest.raises(InvalidStructure):
        check_law("lemma1", {"p": corrupted})


def test_witness_pipeline_via_injected_law():
    # all catalog laws are theorems, so exercise the witness machinery with a
    # deliberately false law over the same instance space
    def check(inst, cap):
        if len(inst["p"].B) > 0:
            return "carrier is inhabited", {}
        return None, {}

    spec = CATALOG["lemma1"]
    CATALOG["always-fails"] = LawSpec(
        "always-fails", "test-only", check, spec.generate, spec.enumerate,
        spec.default_bounds, spec.exhaustive_limit,
    )
    try:
        summary = search(SearchConfig(law="always-fails", trials=50, seed=1))
        assert not summary.passed
        w = summary.witness
        assert isinstance(w, Witness) and w.violation == "carrier is inhabited"
        assert replay(w)
        doc = w.to_doc()
        assert doc["law"] == "always-fails" and "structures" in doc
    finally:
        del CATALOG["always-fails"]


# --- search -----------------------------------------------------------------

def test_search_seeded_deterministic_across_parallelism():
    base = SearchConfig(law="triangle-repr", trials=120, seed=17)
    serial = search(base)
    parallel = search(SearchConfig(law="triangle-repr", trials=120, seed=17, parallelism=8))
    assert serial.lines() == parallel.lines()


def test_search_exhaustive_counts_eq1():
    summary = search(SearchConfig(law="eq1-galois", mode="exhaustive", bounds=(2,)))
    assert summary.passed
    # includes 16^3 = 4096 triples at the full size plus all smaller shapes
    assert summary.checked >= 4096


def test_search_rejects_infeasible_exhaustive_bounds():
    with pytest.raises(ConfigError):
        search(SearchConfig(law="eq1-galois", mode="exhaustive", bounds=(3,)))


def test_search_rejects_exhaustive_for_seeded_only_laws():
    for law in ("lemma2", "lemma3", "unit-natural", "counit-natural"):
        with pytest.raises(ConfigError):
            search(SearchConfig(law=law, mode="exhaustive"))


def test_search_rejects_unknown_mode_and_law():
    with pytest.raises(ConfigError):
        search(SearchConfig(law="lemma1", mode="sideways"))
    with pytest.raises(ConfigError):
        search(SearchConfig(law="nope"))


@pytest.mark.parametrize("mode", ["seeded", "exhaustive"])
def test_search_rejects_parallelism_below_one(mode):
    for jobs in (0, -3):
        with pytest.raises(ConfigError):
            search(SearchConfig(law="lemma1", mode=mode, parallelism=jobs))


def test_all_laws_pass_smoke():
    for law, spec in CATALOG.items():
        if spec.generate is not None:
            assert search(SearchConfig(law=law, trials=25, seed=5)).passed
        else:
            assert search(
                SearchConfig(law=law, mode="exhaustive", bounds=spec.exhaustive_limit)
            ).passed


def test_direct_image_functorial_small():
    checked, violation = direct_image_functorial(2)
    assert violation is None and checked > 0
