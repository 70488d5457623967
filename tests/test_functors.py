"""The two functors: object/morphism images against comprehension oracles."""

import dataclasses
import pickle
import random

import pytest

from promrep import (
    CATALOG,
    FnMap,
    Preorder,
    Prom,
    PromMorphism,
    Rel,
    RepMorphism,
    check_law,
    check_prom,
    check_rep_morphism,
    compose,
    direct_image,
    eq,
    finset,
    graph_upper,
    identity,
    identity_map,
    identity_prom_morphism,
    identity_rep_morphism,
    powerset,
    Representation,
    prom_to_rep,
    prommor_to_repmor,
    rep_to_prom,
    repmor_leq,
    repmor_to_prommor,
)
from promrep.harness import _superset_masks, enumerate_proms, enumerate_representations
from promrep.structures import check_prom_morphism, check_representation
import promrep.harness as harness_module
from seeded import gen_prom, gen_prom_morphism, gen_rep_morphism, gen_representation


def rel(src, dst, *pairs):
    return Rel.from_pairs(src, dst, pairs)


def chain2(carrier):
    lo, hi = carrier.elements
    return Preorder(rel(carrier, carrier, (lo, lo), (hi, hi), (lo, hi)))


# --- prom_to_rep ------------------------------------------------------------

def test_prom_to_rep_two_chain_example():
    A = finset("A", 1, "a")
    B = finset("B", 2, "b")
    p = Prom(Preorder(identity(A)), chain2(B), FnMap(A, B, (0,)))
    r = prom_to_rep(p)
    assert r.M == B and r.S == A
    assert r.sat.pairs() == [("b0", "a0")]
    assert eq(r.ord.rel, identity(A))


def test_prom_to_rep_discrete_y_gives_graph():
    A, B = finset("A", 2, "a"), finset("B", 2, "b")
    f = FnMap(A, B, (1, 1))
    p = Prom(Preorder(identity(A)), Preorder(identity(B)), f)
    assert eq(prom_to_rep(p).sat, graph_upper(f))


def test_prom_to_rep_empty_source():
    B = finset("B", 2, "b")
    A = finset("A", 0, "a")
    p = Prom(Preorder(identity(A)), chain2(B), FnMap(A, B, ()))
    r = prom_to_rep(p)
    assert r.sat.count() == 0 and len(r.S) == 0


def test_prom_to_rep_always_sound_seeded():
    for seed in range(200):
        assert check_representation(prom_to_rep(gen_prom(seed, 4, 4)))


# --- prommor_to_repmor ------------------------------------------------------

def test_image_of_identity_is_y():
    p = gen_prom(9, 3, 3)
    img = prommor_to_repmor(identity_prom_morphism(p))
    assert eq(img.tau, p.y.rel)


def test_image_with_discrete_target_order_is_graph():
    m = gen_prom_morphism(4, 3)
    if eq(m.dst.y.rel, identity(m.dst.B)):
        assert eq(prommor_to_repmor(m).tau, graph_upper(m.psi))
    # force the discrete case explicitly
    A, B = finset("A", 2, "a"), finset("B", 2, "b")
    disc = Prom(Preorder(identity(A)), Preorder(identity(B)), FnMap(A, B, (0, 1)))
    img = prommor_to_repmor(identity_prom_morphism(disc))
    assert eq(img.tau, graph_upper(identity_map(B)))


def test_image_morphisms_valid_seeded():
    for seed in range(500):
        m = gen_prom_morphism(seed, 3)
        assert check_rep_morphism(prommor_to_repmor(m))


def test_laxness_identity_inequality():
    p = gen_prom(2, 3, 3)
    r_id = prommor_to_repmor(identity_prom_morphism(p))
    ident = identity_rep_morphism(prom_to_rep(p))
    assert repmor_leq(ident, r_id)


# --- rep_to_prom ------------------------------------------------------------

def test_theory_map_comprehension():
    M, S = finset("M", 2, "m"), finset("S", 1, "s")
    rep = Representation(rel(M, S, ("m0", "s0")), Preorder(identity(S)))
    f = rep_to_prom(rep).f
    assert f.of("s0") == "{m0}"


def test_theory_map_empty_sat_is_constant_empty():
    M, S = finset("M", 2, "m"), finset("S", 2, "s")
    rep = Representation(rel(M, S), Preorder(identity(S)))
    f = rep_to_prom(rep).f
    assert all(f.of(s) == "{}" for s in S)


def subset_order(M):
    """The order y of M(r) for a representation r with models M and no statements: ⊆ on 2^M."""
    S = finset("S", 0)
    return rep_to_prom(Representation(rel(M, S), Preorder(identity(S)))).y.rel


def test_subset_order_pair_count_on_two_elements():
    # 9 pairs: per subset-inclusion count over 4 subsets
    assert subset_order(finset("M", 2, "m")).count() == 9


def test_subset_order_matches_direct_construction():
    bundle = powerset(finset("M", 3, "m"))
    got = subset_order(bundle.base)
    n = 1 << 3
    for a in range(n):
        for b in range(n):
            assert got.holds(bundle.carrier.elements[a], bundle.carrier.elements[b]) == (
                a & ~b == 0
            )


def test_rep_to_prom_valid_and_recovers_sat_seeded():
    for seed in range(200):
        r = gen_representation(seed, 3, 3)
        p = rep_to_prom(r)
        assert check_prom(p)
        assert eq(compose(powerset(r.M).mem, graph_upper(p.f)), r.sat)


# --- direct_image -----------------------------------------------------------

def test_direct_image_of_identity_relation():
    M = finset("M", 2, "m")
    lifted = direct_image(identity(M))
    assert lifted.image == identity_map(powerset(M).carrier).image


def test_direct_image_of_empty_is_constant_empty():
    M1, M2 = finset("M1", 2, "x"), finset("M2", 2, "y")
    lifted = direct_image(rel(M2, M1))
    assert all(i == 0 for i in lifted.image)


def test_direct_image_comprehension_example():
    M = finset("M", 2, "m")
    M2 = finset("M2", 1, "n")
    tau = rel(M2, M, ("n0", "m0"))
    lifted = direct_image(tau)
    # alpha = {m0,m1} has mask 3; image must be {n0}
    assert lifted.of("{m0,m1}") == "{n0}"
    assert lifted.of("{m1}") == "{}"


def test_direct_image_characterization_seeded():
    # ∈⨾M*(τ)^* = τ⨾∈ over the source powerset
    for seed in range(100):
        m = gen_rep_morphism(seed, 2)
        tau = m.tau
        lhs = compose(powerset(tau.src).mem, graph_upper(direct_image(tau)))
        rhs = compose(tau, powerset(tau.dst).mem)
        assert eq(lhs, rhs)


# --- repmor_to_prommor ------------------------------------------------------

def test_image_of_identity_rep_morphism_is_identity():
    r = gen_representation(7, 2, 2)
    img = repmor_to_prommor(identity_rep_morphism(r))
    ident = identity_prom_morphism(rep_to_prom(r))
    assert img.phi.image == ident.phi.image
    assert img.psi == ident.psi


def test_image_prom_morphisms_valid_seeded():
    for seed in range(200):
        m = gen_rep_morphism(seed, 2)
        assert check_prom_morphism(repmor_to_prommor(m))


# --- kept images --------------------------------------------------------------

def image_inputs():
    """Every prom and representation at bound 2, and seeded ones with 6 and 7
    models."""
    proms = [*enumerate_proms(2, 2), *(gen_prom(seed, 3, b) for seed in range(3) for b in (6, 7))]
    reps = [*enumerate_representations(2, 2), *(gen_representation(seed, m, 3) for seed in range(3) for m in (6, 7))]
    return proms, reps


def test_every_image_is_kept_and_m_shares_its_subset_rows_per_size():
    """Every R(p) and M(r) is kept.  M(r) at |M| = 7 and M(R p) at |B| = 7
    hold one ⊆ rows tuple, and M of a new representation of that size
    reuses it."""
    proms, reps = image_inputs()
    assert {len(p.B) for p in proms} >= {6, 7} and {len(r.M) for r in reps} >= {6, 7}
    for p in proms:
        assert prom_to_rep(p) is prom_to_rep(p)
    for r in reps + [prom_to_rep(p) for p in proms]:
        assert rep_to_prom(r) is rep_to_prom(r)
    sevens = [r for r in reps if len(r.M) == 7] + [prom_to_rep(p) for p in proms if len(p.B) == 7]
    assert {r.M.name for r in sevens} == {"M", "B"}
    shared = rep_to_prom(sevens[0]).y.rel.rows
    assert shared == _superset_masks(7)
    assert all(rep_to_prom(r).y.rel.rows is shared for r in sevens)
    assert rep_to_prom(gen_representation(3, 7, 3)).y.rel.rows is shared


def test_kept_images_stay_out_of_equality_hashing_and_copies():
    proms, reps = image_inputs()
    for obj, image in [*((p, prom_to_rep) for p in proms), *((r, rep_to_prom) for r in reps)]:
        apart = dataclasses.replace(obj)
        kept = image(obj)
        assert obj == apart and hash(obj) == hash(apart)
        for copy in (pickle.loads(pickle.dumps(obj)), dataclasses.replace(obj)):
            assert copy == obj and hash(copy) == hash(obj)
            assert image(copy) == kept


# --- a functor law reports an invalid image -----------------------------------

def _unsound_rep():
    """One model m0 ⊨ s0 with s0 ≤ s1, but not m0 ⊨ s1."""
    M, S = finset("M", 1, "m"), finset("S", 2, "s")
    return Representation(rel(M, S, ("m0", "s0")), chain2(S))


def _rep_square_breaking():
    """The identity on m0 ⊨ s0, but with τ empty: τ⨾⊨ misses (m0, s0)."""
    M, S = finset("M", 1, "m"), finset("S", 1, "s")
    r = Representation(rel(M, S, ("m0", "s0")), Preorder(identity(S)))
    return RepMorphism(r, r, identity_map(S), rel(M, M))


def _intransitive_prom():
    """y holds b0 ≤ b1 and b1 ≤ b2 but not b0 ≤ b2; A is empty."""
    A, B = finset("A", 0, "a"), finset("B", 3, "b")
    y = rel(B, B, ("b0", "b0"), ("b1", "b1"), ("b2", "b2"), ("b0", "b1"), ("b1", "b2"))
    return Prom(Preorder(identity(A)), Preorder(y), FnMap(A, B, ()))


def _prom_square_breaking():
    """ψ sends both points of a discrete B to b1, so ψ∘f sends a0 to b1 but f∘φ to b0."""
    A, B = finset("A", 1, "a"), finset("B", 2, "b")
    p = Prom(Preorder(identity(A)), Preorder(identity(B)), FnMap(A, B, (0,)))
    return PromMorphism(p, p, identity_map(A), FnMap(B, B, (1, 1)))


@pytest.mark.parametrize(
    "law, functor, image, violation",
    [
        ("lemma1", "prom_to_rep", _unsound_rep,
         "image is not a representation: soundness violated at ('m0', 's1')"),
        ("lemma2", "prommor_to_repmor", _rep_square_breaking,
         "image is not a representation morphism: commuting square violated at ('m0', 's0')"),
        ("lemma4", "rep_to_prom", _intransitive_prom,
         "image is not a prom: y transitivity violated at ('b0', 'b2')"),
        ("lemma5", "repmor_to_prommor", _prom_square_breaking,
         "image is not a prom morphism: commuting square violated at ('a0', 'b1', 'b0')"),
    ],
    ids=["lemma1", "lemma2", "lemma4", "lemma5"],
)
def test_functor_law_names_the_broken_axiom_of_its_image(monkeypatch, law, functor, image, violation):
    """With the functor the law calls patched to return an invalid structure,
    the law's violation names what the image is not and its first failed axiom."""
    spec = CATALOG[law]
    instance = spec.generate(random.Random(0), spec.default_bounds)
    monkeypatch.setattr(harness_module, functor, lambda *args: image())
    assert check_law(law, instance).violation == violation
