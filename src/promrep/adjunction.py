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
    converse,
    eq,
    fn_eq_into_powerset,
    graph_upper,
    identity,
    identity_map,
    left_residual,
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
    """The identity on A paired with the down-set map b ↦ {b' | (b',b)∈y}."""
    target = rep_to_prom(prom_to_rep(p), cap)
    bundle = powerset(p.B, cap)
    # column b of y, read off as a mask over B; mask doubles as carrier index
    psi = FnMap(p.B, bundle.carrier, converse(p.y.rel).rows)
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
    relation ∈⨾(∈\\∈) with ∈\\∈ the subset order; read column by column
    it is a map 2^M → 2^M.  It is computed relationally in O(|M|·2^|M|)
    row operations, so neither the 4^|M| pairs of ⊆ nor the nested
    powerset 2^(2^M) is ever enumerated.
    """
    bundle = powerset(r.M, cap)
    composite = FnMap(bundle.carrier, bundle.carrier, _triangle_prom_image(bundle.mem))
    return fn_eq_into_powerset(composite, identity_map(bundle.carrier), bundle.mem)


def _triangle_prom_image(mem: Rel) -> tuple[int, ...]:
    """Column α of ∈⨾(∈\\∈) as a subset mask, for every α in 2^M."""
    return converse(compose(mem, left_residual(mem, mem))).rows


def rel_to_map(tau: Rel, y: Preorder, cap: int = DEFAULT_POWERSET_CAP) -> FnMap:
    """Ψ: saturate tau along y and read it as a set-valued map B → 2^M.

    b ↦ {m | ∃b': (m,b')∈tau and (b',b)∈y}; characterized by
    ∈⨾(result)^* = tau⨾y.
    """
    if tau.dst != y.carrier:
        raise ValueError("tau must target the preordered carrier")
    bundle = powerset(tau.src, cap)
    saturated = compose(tau, y.rel)
    return FnMap(y.carrier, bundle.carrier, converse(saturated).rows)


def map_to_rel(psi: FnMap, base: FinSet, cap: int = DEFAULT_POWERSET_CAP) -> Rel:
    """T: flatten a set-valued map B → 2^M to the relation M ⇸ B."""
    bundle = powerset(base, cap)
    if psi.dst != bundle.carrier:
        raise ValueError("map codomain is not the powerset of the given base")
    rows = [0] * len(base)
    for b, mask in enumerate(psi.image):
        for m_i in range(len(base)):
            if mask >> m_i & 1:
                rows[m_i] |= 1 << b
    return Rel(base, psi.src, tuple(rows))


def lift(m: RepMorphism, p: Prom, cap: int = DEFAULT_POWERSET_CAP) -> PromMorphism:
    """Galois lift of a morphism out of the image of p into a prom morphism."""
    if m.src != prom_to_rep(p):
        raise ValueError("morphism source is not the representation image of p")
    return PromMorphism(
        p, rep_to_prom(m.dst, cap), m.phi, rel_to_map(m.tau, p.y, cap), check=False
    )


def lower(m: PromMorphism, r: Representation, p: Prom, cap: int = DEFAULT_POWERSET_CAP) -> RepMorphism:
    """Galois lower of a prom morphism into the image of r."""
    if m.dst != rep_to_prom(r, cap):
        raise ValueError("morphism destination is not the prom image of r")
    if m.src != p:
        raise ValueError("morphism source is not the given prom")
    return RepMorphism(prom_to_rep(p), r, m.phi, map_to_rel(m.psi, r.M, cap), check=False)
