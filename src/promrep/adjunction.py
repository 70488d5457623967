"""Unit, counit, triangle laws, and the hom-set Galois connection.

A `HomPair` fixes a prom p and a representation r, and holds R(p), M(r)
and the membership relation ∈ on r.M, all built from one powerset of r.M.
Its `lift` (Ψ) and `lower` (T) are the Galois maps between the hom-sets
R(p) → r and p → M(r); the public `lift`/`lower` build the context for a
single morphism.  The unit η: p → M(R p) is the identity on A with the
map sending each point of B to its down-set, and the counit ε: R(M r) → r
is the identity on S with membership ∈ as its relation.  The paper defines
them as Ψ(1_{R p}) and T(1_{M r}); a test checks them against those.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rel import (
    FnMap,
    Rel,
    compose,
    eq,
    graph_upper,
    identity,
    identity_map,
    left_residual,
    power_transpose,
    powerset,
)
from .structures import (
    Preorder,
    Prom,
    PromMorphism,
    Representation,
    RepMorphism,
    compose_prom_morphisms,
    compose_rep_morphisms,
    identity_rep_morphism,
    repmor_leq,
)
from .functors import (
    prom_to_rep,
    prommor_to_repmor,
    rep_to_prom,
    repmor_to_prommor,
)


@dataclass(frozen=True)
class HomPair:
    """The hom-sets R(p) → r and p → M(r), and the Galois maps between them.

    `rp` is R(p), `mr` is M(r) and `mem` is ∈ on r.M; M(r) and `mem` come
    from one powerset.  Morphisms built from `rp` and `mr` carry these very
    objects, so the endpoint checks of `lift` and `lower` are cheap.
    """

    p: Prom
    r: Representation
    rp: Representation
    mr: Prom
    mem: Rel

    def lift(self, m: RepMorphism) -> PromMorphism:
        """Ψ: (φ, τ): R(p) → r ↦ (φ, Λ(τ⨾y)): p → M(r)."""
        if m.src != self.rp or m.dst != self.r:
            raise ValueError("morphism is not in the hom-set R(p) → r")
        return PromMorphism(self.p, self.mr, m.phi, rel_to_map(m.tau, self.p.y, self.mem))

    def lower(self, m: PromMorphism) -> RepMorphism:
        """T: (φ, ψ): p → M(r) ↦ (φ, ∈⨾ψ^*): R(p) → r."""
        if m.src != self.p or m.dst != self.mr:
            raise ValueError("morphism is not in the hom-set p → M(r)")
        return RepMorphism(self.rp, self.r, m.phi, map_to_rel(m.psi, self.mem))


def hom_pair(p: Prom, r: Representation) -> HomPair:
    """The context of the hom-sets R(p) → r and p → M(r), from one powerset of r.M."""
    return HomPair(p, r, prom_to_rep(p), rep_to_prom(r), powerset(r.M).mem)


def unit(p: Prom) -> PromMorphism:
    """η: the identity on A and the down-set map b ↦ {b' | (b',b)∈y}; a test checks it is Ψ(1_{R p})."""
    return PromMorphism(p, rep_to_prom(prom_to_rep(p)), identity_map(p.A), power_transpose(p.y.rel, powerset(p.B).mem))


def counit(r: Representation) -> RepMorphism:
    """ε: the identity on S and the membership relation M ⇸ 2^M; a test checks it is T(1_{M r})."""
    return RepMorphism(prom_to_rep(rep_to_prom(r)), r, identity_map(r.S), powerset(r.M).mem)


def recover_by_membership(x: Rel) -> Rel:
    """∈⨾(∈\\x); equals x for every relation (membership saturation)."""
    bundle = powerset(x.src)
    return compose(bundle.mem, left_residual(bundle.mem, x))


def unit_natural(m: PromMorphism, units=None) -> bool:
    """unit(dst)∘m = image-of-m∘unit(src); `units`, if given, is (unit(m.src), unit(m.dst))."""
    src_unit, dst_unit = units or (unit(m.src), unit(m.dst))
    lhs = compose_prom_morphisms(dst_unit, m)
    return lhs == compose_prom_morphisms(repmor_to_prommor(prommor_to_repmor(m)), src_unit)


def counit_natural(m: RepMorphism, counits=None) -> bool:
    """counit(dst)∘image-of-m = m∘counit(src); `counits`, if given, is (counit(m.src), counit(m.dst))."""
    src_counit, dst_counit = counits or (counit(m.src), counit(m.dst))
    lhs = compose_rep_morphisms(dst_counit, prommor_to_repmor(repmor_to_prommor(m)))
    return lhs == compose_rep_morphisms(m, src_counit)


@dataclass(frozen=True)
class TriangleRepResult:
    composite: RepMorphism
    equals_expected: bool  # composite = (id_A, y)
    dominates_identity: bool  # identity ⩽ composite as a 2-cell
    strict: bool  # y strictly above the diagonal


def triangle_rep(p: Prom) -> TriangleRepResult:
    """counit at the image of p, after the image of the unit.

    The composite is (id_A, y); it dominates the identity 1-cell and is
    strictly above it exactly when y is not discrete.
    """
    rp = prom_to_rep(p)
    composite = compose_rep_morphisms(counit(rp), prommor_to_repmor(unit(p)))
    return TriangleRepResult(
        composite,
        composite == RepMorphism(rp, rp, identity_map(p.A), p.y.rel),
        repmor_leq(identity_rep_morphism(rp), composite),
        not eq(p.y.rel, identity(p.B)),
    )


def triangle_prom(r: Representation) -> bool:
    """The prom-side triangle: the composite on 2^M is the identity map.

    The composite relates m to α iff m lies in some β ⊆ α, that is the
    relation ∈⨾(∈\\∈) with ∈\\∈ the subset order, and the map 2^M → 2^M
    is its power transpose.  It is computed relationally in O(|M|·2^|M|)
    row operations, so neither the 4^|M| pairs of ⊆ nor the nested
    powerset 2^(2^M) is ever enumerated.
    """
    mem = powerset(r.M).mem
    return _triangle_prom_composite(mem) == identity_map(mem.dst)


def _triangle_prom_composite(mem: Rel) -> FnMap:
    """Λ(∈⨾(∈\\∈)): 2^M → 2^M, α ↦ {m | m lies in some β ⊆ α}."""
    return power_transpose(compose(mem, left_residual(mem, mem)), mem)


def rel_to_map(tau: Rel, y: Preorder, mem: Rel) -> FnMap:
    """Ψ: saturate tau along y and read it as a set-valued map B → 2^M.

    b ↦ {m | ∃b': (m,b')∈tau and (b',b)∈y}, that is Λ(τ⨾y), characterized
    by ∈⨾(result)^* = tau⨾y.  `mem` is ∈ on tau's source M.
    """
    if tau.dst != y.carrier:
        raise ValueError("tau must target the preordered carrier")
    return power_transpose(compose(tau, y.rel), mem)


def map_to_rel(psi: FnMap, mem: Rel) -> Rel:
    """T: flatten a set-valued map B → 2^M to the relation ∈⨾ψ^*: M ⇸ B."""
    return compose(mem, graph_upper(psi))


def lift(m: RepMorphism, p: Prom) -> PromMorphism:
    """Ψ of one morphism R(p) → r into the prom morphism p → M(r)."""
    return hom_pair(p, m.dst).lift(m)


def lower(m: PromMorphism, r: Representation) -> RepMorphism:
    """T of one prom morphism p → M(r) into the morphism R(p) → r."""
    return hom_pair(m.src, r).lower(m)
