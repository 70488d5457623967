"""Structure axioms, eager validation, closure, morphism composition."""

import pytest

from promrep import (
    CarrierMismatch,
    FnMap,
    InvalidStructure,
    Preorder,
    Prom,
    PromMorphism,
    Rel,
    Representation,
    RepMorphism,
    check_prom,
    check_prom_morphism,
    check_rep_morphism,
    check_representation,
    compose_prom_morphisms,
    compose_rep_morphisms,
    eq,
    finset,
    full,
    gen_prom,
    gen_prom_morphism,
    gen_rep_morphism,
    gen_representation,
    identity,
    identity_map,
    identity_prom_morphism,
    identity_rep_morphism,
    is_preorder,
    left_residual,
    preorder_closure,
    repmor_leq,
)

A2 = finset("A", 2, "a")
A3 = finset("A", 3, "a")
B2 = finset("B", 2, "b")


def rel(src, dst, *pairs):
    return Rel.from_pairs(src, dst, pairs)


def chain2(carrier):
    """The 2-chain preorder e0 ≤ e1."""
    lo, hi = carrier.elements
    return Preorder(rel(carrier, carrier, (lo, lo), (hi, hi), (lo, hi)))


# --- preorders --------------------------------------------------------------

def test_identity_is_preorder():
    assert is_preorder(identity(A2))


def test_irreflexive_is_not_preorder():
    assert not is_preorder(rel(A2, A2, ("a0", "a1")))


def test_single_axiom_characterization_exhaustive():
    found = 0
    for code in range(16):
        r = Rel(A2, A2, (code & 3, code >> 2))
        assert is_preorder(r) == eq(r, left_residual(r, r))
        found += is_preorder(r)
    assert found == 4


def test_non_square_preorder_is_error():
    with pytest.raises(CarrierMismatch):
        is_preorder(rel(A2, B2))


def test_constructors_check_carriers_even_without_axioms():
    M1 = finset("M", 1, "m")
    p = Prom(Preorder(identity(A2)), Preorder(identity(B2)), FnMap(A2, B2, (0, 1)))
    r = Representation(rel(M1, B2), Preorder(identity(B2)))
    disconnected = [
        lambda: Preorder(rel(A2, B2), check=False),
        lambda: Prom(p.x, p.y, FnMap(B2, B2, (0, 1)), check=False),
        lambda: Prom(p.x, p.y, FnMap(A2, A2, (0, 1)), check=False),
        lambda: Representation(rel(M1, B2), Preorder(identity(A2)), check=False),
        lambda: PromMorphism(p, p, identity_map(B2), identity_map(B2), check=False),
        lambda: PromMorphism(p, p, identity_map(A2), identity_map(A2), check=False),
        lambda: RepMorphism(r, r, identity_map(M1), identity(M1), check=False),
        lambda: RepMorphism(r, r, identity_map(B2), identity(B2), check=False),
    ]
    for build in disconnected:
        with pytest.raises(CarrierMismatch):
            build()


def test_closure_of_empty_is_identity():
    assert eq(preorder_closure(rel(A2, A2)).rel, identity(A2))


def test_closure_one_step_chain():
    got = preorder_closure(rel(A2, A2, ("a0", "a1")))
    assert set(got.rel.pairs()) == {("a0", "a0"), ("a1", "a1"), ("a0", "a1")}


def test_closure_adds_transitive_pair():
    got = preorder_closure(rel(A3, A3, ("a0", "a1"), ("a1", "a2")))
    assert got.rel.holds("a0", "a2")


def test_closure_idempotent_and_valid():
    r = rel(A3, A3, ("a2", "a0"), ("a0", "a1"))
    once = preorder_closure(r)
    assert is_preorder(once.rel)
    assert eq(preorder_closure(once.rel).rel, once.rel)


def test_eager_validation_raises():
    with pytest.raises(InvalidStructure):
        Preorder(rel(A2, A2, ("a0", "a1")))
    # transient unchecked construction is allowed
    Preorder(rel(A2, A2, ("a0", "a1")), check=False)


# --- proms ------------------------------------------------------------------

def test_discrete_orders_any_map_is_prom():
    for image in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        p = Prom(Preorder(identity(A2)), Preorder(identity(B2)), FnMap(A2, B2, image))
        assert check_prom(p)


def test_prom_violation_witness():
    y = chain2(B2)
    f = FnMap(A2, B2, (1, 0))  # a0 ↦ b1, a1 ↦ b0
    ok = Prom(Preorder(identity(A2)), y, f)
    assert check_prom(ok)
    bad = Prom(Preorder(full(A2, A2), check=False), y, f, check=False)
    res = check_prom(bad)
    assert not res
    assert res.axiom == "order preservation"
    assert res.witness == ("a0", "a1")


# --- representations --------------------------------------------------------

def test_empty_sat_is_sound():
    r = Representation(rel(B2, A2), Preorder(full(A2, A2)))
    assert check_representation(r)


def test_soundness_violation_witness():
    S = finset("S", 2, "s")
    M = finset("M", 1, "m")
    bad = Representation(rel(M, S, ("m0", "s0")), chain2(S), check=False)
    res = check_representation(bad)
    assert not res and res.axiom == "soundness"
    assert res.witness == ("m0", "s1")


# --- 2-cell order -----------------------------------------------------------

def test_repmor_leq_reflexive():
    r = gen_representation(3, 2, 2)
    m = identity_rep_morphism(r)
    assert repmor_leq(m, m)


def test_repmor_leq_tau_inclusion():
    r = gen_representation(3, 2, 2)
    m = identity_rep_morphism(r)
    bigger = RepMorphism(r, r, m.phi, full(r.M, r.M), check=False)
    assert repmor_leq(m, bigger)
    assert repmor_leq(bigger, m) == eq(bigger.tau, m.tau)


def test_repmor_leq_needs_equal_phi():
    S = finset("S", 2, "s")
    M = finset("M", 0, "m")
    r = Representation(rel(M, S), Preorder(full(S, S)))
    m1 = RepMorphism(r, r, FnMap(S, S, (0, 0)), identity(M), check=False)
    m2 = RepMorphism(r, r, FnMap(S, S, (1, 1)), identity(M), check=False)
    assert not repmor_leq(m1, m2)


def test_repmor_leq_endpoint_mismatch_is_error():
    r1 = gen_representation(1, 2, 2)
    r2 = gen_representation(2, 2, 2)
    with pytest.raises(CarrierMismatch):
        repmor_leq(identity_rep_morphism(r1), identity_rep_morphism(r2))


# --- morphism composition ---------------------------------------------------

def test_compose_with_identity_prom_morphism():
    m = gen_prom_morphism(11, 3)
    left = compose_prom_morphisms(identity_prom_morphism(m.dst), m)
    right = compose_prom_morphisms(m, identity_prom_morphism(m.src))
    for other in (left, right):
        assert other.phi.image == m.phi.image
        assert other.psi.image == m.psi.image


def test_rep_morphism_tau_composes_relationally():
    M1, M2, M3 = finset("M1", 1, "x"), finset("M2", 1, "y"), finset("M3", 1, "z")
    S = finset("S", 0, "s")
    ordS = Preorder(identity(S))
    r1 = Representation(rel(M1, S), ordS)
    r2 = Representation(rel(M2, S), ordS)
    r3 = Representation(rel(M3, S), ordS)
    m1 = RepMorphism(r1, r2, FnMap(S, S, ()), rel(M2, M1, ("y0", "x0")), check=False)
    m2 = RepMorphism(r2, r3, FnMap(S, S, ()), rel(M3, M2, ("z0", "y0")), check=False)
    comp = compose_rep_morphisms(m2, m1)
    assert comp.tau.pairs() == [("z0", "x0")]


def test_composition_preserves_validity_seeded():
    for seed in range(100):
        m = gen_prom_morphism(seed, 3)
        assert check_prom_morphism(m)
        assert check_prom_morphism(compose_prom_morphisms(identity_prom_morphism(m.dst), m))
        rm = gen_rep_morphism(seed, 2)
        assert check_rep_morphism(rm)
        assert check_rep_morphism(compose_rep_morphisms(identity_rep_morphism(rm.dst), rm))


def test_identity_morphisms_are_valid():
    p = gen_prom(5, 3, 3)
    assert check_prom_morphism(identity_prom_morphism(p))
    r = gen_representation(5, 3, 3)
    assert check_rep_morphism(identity_rep_morphism(r))
