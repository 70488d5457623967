"""Unit, counit, triangle laws, and the hom-set Galois connection.

The unit sends a prom into the prom of its own representation image; its
second component maps each point to its down-set.  The counit is the
membership relation out of the representation rebuilt from a prom image.
lift/lower form the Galois connection between the two hom-sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rel import (
    DEFAULT_POWERSET_CAP,
    FinSet,
    FnMap,
    Rel,
    compose,
    eq,
    fn_eq_into_powerset,
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


def unit(p: Prom, cap: int = DEFAULT_POWERSET_CAP) -> PromMorphism:
    """The identity on A paired with the down-set map b ↦ {b' | (b',b)∈y}: Λ(y)."""
    target = rep_to_prom(prom_to_rep(p), cap)
    psi = power_transpose(p.y.rel, powerset(p.B, cap).mem)
    return PromMorphism(p, target, identity_map(p.A), psi, check=False)


def counit(r: Representation, cap: int = DEFAULT_POWERSET_CAP) -> RepMorphism:
    """The identity on S paired with the membership relation M ⇸ 2^M."""
    source = prom_to_rep(rep_to_prom(r, cap))
    return RepMorphism(source, r, identity_map(r.S), powerset(r.M, cap).mem, check=False)


def recover_by_membership(x: Rel, cap: int = DEFAULT_POWERSET_CAP) -> Rel:
    """∈⨾(∈\\x); equals x for every relation (membership saturation)."""
    bundle = powerset(x.src, cap)
    return compose(bundle.mem, left_residual(bundle.mem, x))


def unit_natural(m: PromMorphism, cap: int = DEFAULT_POWERSET_CAP) -> bool:
    """unit(dst)∘m = image-of-m∘unit(src), with map equality via the powerset."""
    lhs = compose_prom_morphisms(unit(m.dst, cap), m)
    rhs = compose_prom_morphisms(repmor_to_prommor(prommor_to_repmor(m), cap), unit(m.src, cap))
    if lhs.src != rhs.src or lhs.dst != rhs.dst or lhs.phi.image != rhs.phi.image:
        return False
    return fn_eq_into_powerset(lhs.psi, rhs.psi, powerset(m.dst.B, cap).mem)


def counit_natural(m: RepMorphism, cap: int = DEFAULT_POWERSET_CAP) -> bool:
    """counit(dst)∘image-of-m = m∘counit(src)."""
    lhs = compose_rep_morphisms(counit(m.dst, cap), prommor_to_repmor(repmor_to_prommor(m, cap)))
    rhs = compose_rep_morphisms(m, counit(m.src, cap))
    return (
        lhs.src == rhs.src
        and lhs.dst == rhs.dst
        and lhs.phi.image == rhs.phi.image
        and eq(lhs.tau, rhs.tau)
    )


@dataclass(frozen=True)
class TriangleRepResult:
    composite: RepMorphism
    equals_expected: bool  # composite = (id_A, y)
    dominates_identity: bool  # identity ⩽ composite as a 2-cell
    strict: bool  # y strictly above the diagonal


def triangle_rep(p: Prom, cap: int = DEFAULT_POWERSET_CAP) -> TriangleRepResult:
    """counit at the image of p, after the image of the unit.

    The composite is (id_A, y); it dominates the identity 1-cell and is
    strictly above it exactly when y is not discrete.
    """
    rp = prom_to_rep(p)
    composite = compose_rep_morphisms(counit(rp, cap), prommor_to_repmor(unit(p, cap)))
    ident = identity_rep_morphism(rp)
    equals_expected = (
        composite.src == rp
        and composite.dst == rp
        and composite.phi.image == identity_map(p.A).image
        and eq(composite.tau, p.y.rel)
    )
    return TriangleRepResult(
        composite,
        equals_expected,
        repmor_leq(ident, composite),
        not eq(p.y.rel, identity(p.B)),
    )


def triangle_prom(r: Representation, cap: int = DEFAULT_POWERSET_CAP) -> bool:
    """The prom-side triangle: the composite on 2^M is the identity map.

    The composite relates m to α iff m lies in some β ⊆ α, that is the
    relation ∈⨾(∈\\∈) with ∈\\∈ the subset order, and the map 2^M → 2^M
    is its power transpose.  It is computed relationally in O(|M|·2^|M|)
    row operations, so neither the 4^|M| pairs of ⊆ nor the nested
    powerset 2^(2^M) is ever enumerated.
    """
    mem = powerset(r.M, cap).mem
    return fn_eq_into_powerset(_triangle_prom_composite(mem), identity_map(mem.dst), mem)


def _triangle_prom_composite(mem: Rel) -> FnMap:
    """Λ(∈⨾(∈\\∈)): 2^M → 2^M, α ↦ {m | m lies in some β ⊆ α}."""
    return power_transpose(compose(mem, left_residual(mem, mem)), mem)


def rel_to_map(tau: Rel, y: Preorder, cap: int = DEFAULT_POWERSET_CAP) -> FnMap:
    """Ψ: saturate tau along y and read it as a set-valued map B → 2^M.

    b ↦ {m | ∃b': (m,b')∈tau and (b',b)∈y}, that is Λ(τ⨾y), characterized
    by ∈⨾(result)^* = tau⨾y.
    """
    if tau.dst != y.carrier:
        raise ValueError("tau must target the preordered carrier")
    return power_transpose(compose(tau, y.rel), powerset(tau.src, cap).mem)


def map_to_rel(psi: FnMap, base: FinSet, cap: int = DEFAULT_POWERSET_CAP) -> Rel:
    """T: flatten a set-valued map B → 2^M to the relation ∈⨾ψ^*: M ⇸ B."""
    return compose(powerset(base, cap).mem, graph_upper(psi))


def lift(m: RepMorphism, p: Prom, cap: int = DEFAULT_POWERSET_CAP) -> PromMorphism:
    """Galois lift of a morphism out of the image of p into a prom morphism."""
    if m.src != prom_to_rep(p):
        raise ValueError("morphism source is not the representation image of p")
    return PromMorphism(
        p, rep_to_prom(m.dst, cap), m.phi, rel_to_map(m.tau, p.y, cap), check=False
    )


def lower(m: PromMorphism, r: Representation, cap: int = DEFAULT_POWERSET_CAP) -> RepMorphism:
    """Galois lower of a prom morphism into the image of r."""
    if m.dst != rep_to_prom(r, cap):
        raise ValueError("morphism destination is not the prom image of r")
    return RepMorphism(prom_to_rep(m.src), r, m.phi, map_to_rel(m.psi, r.M, cap), check=False)
