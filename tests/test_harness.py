"""Generators, enumerators, the law catalog, and the search engine."""

import hashlib
import random
from itertools import product

import pytest

from promrep import (
    CATALOG,
    ConfigError,
    InvalidStructure,
    Preorder,
    Prom,
    PromMorphism,
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
    Schema,
    direct_image_functorial,
    enumerate_fnmaps,
    enumerate_preorders,
    enumerate_prom_morphisms,
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


def test_enumerate_prom_morphisms_matches_brute_force():
    """Every φ×ψ candidate filtered by check_prom_morphism, in the same order."""
    small = list(enumerate_proms(2, 1))
    large = list(enumerate_proms(2, 2, ("A2", "c"), ("B2", "d")))
    found = 0
    for p1, p2 in [*product(small, large), *product(large, small)]:
        brute = [
            (phi.image, psi.image)
            for phi in enumerate_fnmaps(p1.A, p2.A)
            for psi in enumerate_fnmaps(p1.B, p2.B)
            if check_prom_morphism(PromMorphism(p1, p2, phi, psi, check=False))
        ]
        homs = [(m.phi.image, m.psi.image) for m in enumerate_prom_morphisms(p1, p2)]
        assert homs == brute
        found += len(homs)
    assert found == 1812


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


# --- golden instances -------------------------------------------------------
#
# Recorded from the hand-written generators and enumerators that the instance
# schemas replaced, so a change of draw order or of instance space shows up
# here.  modular-tautology's stream was re-recorded when its generator began
# drawing |B| and |C| from 0..n, as its enumerator always did.

GOLDEN_STREAMS = {
    "counit-natural": "2b53d7de1320b81cdca6cb94c3cf3d54f6c724aff5877e91a7fb126f539bc3ac",
    "dual-galois": "e879e6500bcce26e0d63d776c617a46783ad7d3b1e4ee2fb5a28778b90f07cf5",
    "eq1-galois": "e879e6500bcce26e0d63d776c617a46783ad7d3b1e4ee2fb5a28778b90f07cf5",
    "lemma1": "7aa1eb016e102adf481cdcb190741a855865f8bfbd76c3a857fca25937252c5f",
    "lemma10": "9818474b547201ac02712efa9562ac268df00e90183d48775c933346351e658b",
    "lemma11": "7aa1eb016e102adf481cdcb190741a855865f8bfbd76c3a857fca25937252c5f",
    "lemma2": "c2e33eea7a0c27dc790c56f53ce9c55ea10dbd8a32893700ed01336541fb929f",
    "lemma3": "7c8f467db3270b46eabef24d8c39007f09ac0fbb72eb62d7f4ec8e8758debbcf",
    "lemma4": "9818474b547201ac02712efa9562ac268df00e90183d48775c933346351e658b",
    "lemma5": "2b53d7de1320b81cdca6cb94c3cf3d54f6c724aff5877e91a7fb126f539bc3ac",
    "lemma6": "8148a58cf5b66ba62ad66356b643d9c48902dabf2f8111e319a986c66b35b954",
    "lemma7": "89cc9f6678626efb7450a2a86d47f175be8249eeea72e2440ebb1c6ee8b9222d",
    "lemma8": "59f957b998988b2150306b228d46eadb56d0745de63618d8ccf3956182bcb99a",
    "lemma9": "59f957b998988b2150306b228d46eadb56d0745de63618d8ccf3956182bcb99a",
    "mem-residual-subset": "3c9ee32151152cc4285469838e733729c5870464411cccfb83382b4b3af77722",
    "modular-tautology": "6a6c6de2ddc2a4e3f4d54857ea1627f26e8920ddc904753be3a1b4debd02a43e",
    "preorder-single-axiom": "f2997c0ac7b7119bcf52aff54e9d146a20fb33920c070f77b00368faf863eb9d",
    "psi-characterization": "de9933b179211a20e5baf8e5a8676809c99f809573abef02c6d743f267b1e570",
    "soundness-residual-equiv": "33a952ecd6749b6b0a7f75337aa2bd42a60aaaab4db0abcf5284117849525ebd",
    "triangle-pom": "9818474b547201ac02712efa9562ac268df00e90183d48775c933346351e658b",
    "triangle-repr": "19da2f75ced50e5564668b64ffb96d02defdcc0f79bbd1624af19f19fc726129",
    "unit-natural": "11aedf44e69dc085c69f598b0864e89794eb600553365b090e6877eaf2bb1786",
}

#: (law, bounds) -> (instance count, sha256 of the sorted instance reprs)
GOLDEN_SETS = {
    ("eq1-galois", (2,)): (5053, "3cefd9cfde3b8fab6be06eb2092373a81aba6c6f553cdc48358db893de56ad80"),
    ("dual-galois", (2,)): (5053, "3cefd9cfde3b8fab6be06eb2092373a81aba6c6f553cdc48358db893de56ad80"),
    ("modular-tautology", (2,)): (16971, "221844799ec1c685753510e5c8b35e177c0a0dfc158b4082aabb3c8e615bd825"),
    ("preorder-single-axiom", (3,)): (531, "0bc93d029dddd016acf1d55992b4b4c1ffda2c1c20f46a5eb91a1402503a491a"),
    ("mem-residual-subset", (8,)): (9, "8f193fda031d6f8c2ef491506e4ff1d740038186103f686e4a53031e9fa83c56"),
    ("lemma1", (2, 2)): (69, "d9194271423aa03a0cf81772e91cd5104b5ecd87c97f0458b9aedf812f3bc5a6"),
    ("lemma4", (2, 2)): (64, "624d810c01aa6daed0a3e7eeb27582378eb8faa78d5982ded4fb4d96a0f72956"),
    ("lemma5", (1, 2)): (809, "f7d229865457a74678738e46a2a4edd24bdec745175ab1e8660ab3f66fe788e6"),
    ("lemma6", (1, 1)): (77, "a66958974e1d746bae2ac04de870a66fc64053162918d2916a32483e9d04616e"),
    ("lemma7", (4, 3)): (5058, "115389b30d41d22a12251d50e4ef8f5ca76dd9fc76df88454d78d084398b0f93"),
    ("lemma8", (2,)): (4416, "d8ab9f185542b66e23e9b523e627f9a0899f1a9185d936e5f390d5c08164d0b8"),
    ("lemma9", (2,)): (4416, "d8ab9f185542b66e23e9b523e627f9a0899f1a9185d936e5f390d5c08164d0b8"),
    ("lemma10", (2, 2)): (64, "624d810c01aa6daed0a3e7eeb27582378eb8faa78d5982ded4fb4d96a0f72956"),
    ("lemma11", (2, 2)): (69, "d9194271423aa03a0cf81772e91cd5104b5ecd87c97f0458b9aedf812f3bc5a6"),
    ("triangle-repr", (2, 2)): (69, "d9194271423aa03a0cf81772e91cd5104b5ecd87c97f0458b9aedf812f3bc5a6"),
    ("triangle-pom", (2, 2)): (64, "624d810c01aa6daed0a3e7eeb27582378eb8faa78d5982ded4fb4d96a0f72956"),
    ("psi-characterization", (2, 2)): (94, "32893e80f195952fc3148fed15f4f37e76a1d7f834f691485227c2cab111abfd"),
    ("soundness-residual-equiv", (2, 2)): (353, "f75b6fa0562ff4ac97488933ee73bffc955074dae01e845749c4340814cc1617"),
}

SCHEMA_LAWS = [
    law for law, spec in CATALOG.items() if isinstance(getattr(spec.generate, "__self__", None), Schema)
]


def _instance_repr(inst) -> str:
    return repr(sorted(inst.items()))


def test_golden_tables_cover_the_catalog():
    assert set(GOLDEN_STREAMS) == set(CATALOG)
    enumerable = {law for law, spec in CATALOG.items() if spec.enumerate is not None}
    assert {law for law, _ in GOLDEN_SETS} == enumerable and len(enumerable) == 18
    assert len(SCHEMA_LAWS) == 16
    assert all(CATALOG[law].enumerate.__self__ is CATALOG[law].generate.__self__ for law in SCHEMA_LAWS)


@pytest.mark.parametrize("law", list(GOLDEN_STREAMS))
def test_seeded_stream_matches_golden(law):
    spec = CATALOG[law]
    digest = hashlib.sha256()
    for i in range(20):
        inst = spec.generate(random.Random(mix_seed(0, i)), spec.default_bounds, 12)
        digest.update(_instance_repr(inst).encode())
    assert digest.hexdigest() == GOLDEN_STREAMS[law]


@pytest.mark.parametrize("law, bounds", list(GOLDEN_SETS))
def test_enumerated_set_matches_golden(law, bounds):
    reprs = sorted(_instance_repr(inst) for inst in CATALOG[law].enumerate(bounds, 12))
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert (len(reprs), digest) == GOLDEN_SETS[law, bounds]


@pytest.mark.parametrize("law", SCHEMA_LAWS)
def test_generated_instances_at_the_limit_are_enumerated(law):
    # drift guard: both search modes must range over the same instance space
    spec = CATALOG[law]
    limit = spec.exhaustive_limit

    def key(inst):
        return tuple(sorted(inst.items()))

    wanted = {key(spec.generate(random.Random(mix_seed(1, i)), limit, 12)) for i in range(25)}
    for inst in spec.enumerate(limit, 12):
        wanted.discard(key(inst))
        if not wanted:
            break
    assert not wanted
