"""Unit, counit, triangle laws, and the hom-set Galois connection.

`lift` (Ψ) and `lower` (T) are the Galois maps between the hom-sets
R(p) → r and p → M(r); each checks its morphism's ends against the R(p)
and M(r) that p and r keep.  Ψ(τ) = Λ(τ⨾y) takes only τ and y, as Λ
takes only its relation; T (`map_to_rel`) alone is handed ∈.  The unit
η: p → M(R p) is the identity on A with the map sending each point of B
to its down-set, and the counit ε: R(M r) → r is the identity on S with
membership ∈ as its relation.  The paper defines them as Ψ(1_{R p}) and
T(1_{M r}); a test checks them against those.

The naturality squares live only in the harness's checks, which reuse
the units and counits they check.  The triangles and membership recovery
are law statements too, kept here because perfbench times them by name.
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
    compose_rep_morphisms,
    identity_rep_morphism,
    repmor_leq,
)
from .functors import (
    prom_to_rep,
    prommor_to_repmor,
    rep_to_prom,
)


def unit(p: Prom) -> PromMorphism:
    """η: the identity on A and the down-set map b ↦ {b' | (b',b)∈y}; a test checks it is Ψ(1_{R p})."""
    return PromMorphism(p, rep_to_prom(prom_to_rep(p)), identity_map(p.A), power_transpose(p.y.rel))


def counit(r: Representation) -> RepMorphism:
    """ε: the identity on S and the membership relation M ⇸ 2^M; a test checks it is T(1_{M r})."""
    return RepMorphism(prom_to_rep(rep_to_prom(r)), r, identity_map(r.S), powerset(r.M).mem)


def recover_by_membership(x: Rel) -> Rel:
    """∈⨾(∈\\x); equals x for every relation (membership saturation)."""
    bundle = powerset(x.src)
    return compose(bundle.mem, left_residual(bundle.mem, x))


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
    return power_transpose(recover_by_membership(mem)) == identity_map(mem.dst)


def rel_to_map(tau: Rel, y: Preorder) -> FnMap:
    """Ψ: saturate tau along y and read it as a set-valued map B → 2^M.

    b ↦ {m | ∃b': (m,b')∈tau and (b',b)∈y}, that is Λ(τ⨾y), characterized
    by ∈⨾(result)^* = tau⨾y.  A tau that does not target y's carrier
    raises `CarrierMismatch` from the composite.
    """
    return power_transpose(compose(tau, y.rel))


def map_to_rel(psi: FnMap, mem: Rel) -> Rel:
    """T: flatten a set-valued map B → 2^M to the relation ∈⨾ψ^*: M ⇸ B."""
    return compose(mem, graph_upper(psi))


def lift(m: RepMorphism, p: Prom) -> PromMorphism:
    """Ψ: (φ, τ): R(p) → r ↦ (φ, Λ(τ⨾y)): p → M(r)."""
    if m.src != prom_to_rep(p):
        raise ValueError("morphism is not in the hom-set R(p) → r")
    r = m.dst
    return PromMorphism(p, rep_to_prom(r), m.phi, rel_to_map(m.tau, p.y))


def lower(m: PromMorphism, r: Representation) -> RepMorphism:
    """T: (φ, ψ): p → M(r) ↦ (φ, ∈⨾ψ^*): R(p) → r."""
    if m.dst != rep_to_prom(r):
        raise ValueError("morphism is not in the hom-set p → M(r)")
    return RepMorphism(prom_to_rep(m.src), r, m.phi, map_to_rel(m.psi, powerset(r.M).mem))
