"""Exactness, order reflection, and the two transfer equivalences."""

from promrep import (
    FnMap,
    Preorder,
    Prom,
    Rel,
    Representation,
    eq,
    finset,
    full,
    identity,
    is_exact,
    is_order_reflecting,
    left_residual,
    leq,
    prom_to_rep,
    pullback,
    rep_to_prom,
)
from seeded import gen_prom, gen_representation


def rel(src, dst, *pairs):
    return Rel.from_pairs(src, dst, pairs)


def test_exact_singleton_statement():
    M, S = finset("M", 1, "m"), finset("S", 1, "s")
    r = Representation(rel(M, S, ("m0", "s0")), Preorder(identity(S)))
    assert is_exact(r)


def test_empty_sat_two_statements_not_exact():
    M, S = finset("M", 1, "m"), finset("S", 2, "s")
    r = Representation(rel(M, S), Preorder(identity(S)))
    # vacuous residual is full, identity order cannot contain it
    assert eq(left_residual(r.sat, r.sat), full(S, S))
    assert not is_exact(r)


def test_full_order_is_always_exact():
    for seed in range(20):
        base = gen_representation(seed, 3, 3)
        # saturate sat so it stays sound under the full order
        saturated = rel(
            base.M,
            base.S,
            *((m, s2) for (m, _) in base.sat.pairs() for s2 in base.S),
        )
        r = Representation(saturated, Preorder(full(base.S, base.S)))
        assert is_exact(r)


def test_order_reflection_pullback_construction():
    p = gen_prom(1, 3, 3)
    reflecting = Prom(Preorder(pullback(p.y.rel, p.f)), p.y, p.f)
    assert is_order_reflecting(reflecting)
    assert eq(reflecting.x.rel, pullback(reflecting.y.rel, reflecting.f))


def test_constant_map_collapse_is_not_reflecting():
    A, B = finset("A", 2, "a"), finset("B", 1, "b")
    p = Prom(Preorder(identity(A)), Preorder(identity(B)), FnMap(A, B, (0, 0)))
    assert not is_order_reflecting(p)


def test_discrete_injective_is_reflecting():
    A, B = finset("A", 2, "a"), finset("B", 2, "b")
    p = Prom(Preorder(identity(A)), Preorder(identity(B)), FnMap(A, B, (0, 1)))
    assert is_order_reflecting(p)


def test_exactness_identity_for_exact_instances():
    for seed in range(100):
        r = gen_representation(seed, 3, 3)
        if is_exact(r):
            assert eq(left_residual(r.sat, r.sat), r.ord.rel)
        # soundness is equivalent to ≤ ≤ ⊨\⊨ for every representation
        assert leq(r.ord.rel, left_residual(r.sat, r.sat))


def test_transfer_equivalences_seeded():
    for seed in range(100):
        r = gen_representation(seed, 3, 3)
        assert is_exact(r) == is_order_reflecting(rep_to_prom(r))
        p = gen_prom(seed, 3, 3)
        assert is_order_reflecting(p) == is_exact(prom_to_rep(p))
        if is_order_reflecting(p):
            assert eq(p.x.rel, pullback(p.y.rel, p.f))
