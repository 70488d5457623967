"""The two functors: object/morphism images against comprehension oracles."""

from promrep import (
    FnMap,
    Preorder,
    Prom,
    Rel,
    check_prom,
    check_prom_morphism,
    check_rep_morphism,
    check_representation,
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
    subset_order,
)
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


def test_subset_order_pair_count_on_two_elements():
    bundle = powerset(finset("M", 2, "m"))
    # 9 pairs: per subset-inclusion count over 4 subsets
    assert subset_order(bundle).rel.count() == 9


def test_subset_order_matches_direct_construction():
    bundle = powerset(finset("M", 3, "m"))
    got = subset_order(bundle).rel
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
