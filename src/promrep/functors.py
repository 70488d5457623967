"""The two mappings between proms and representations.

prom_to_rep sends ⟨A,B,x,y,f⟩ to the representation ⟨B,A,y⨾f^*,x⟩; it is
lax functorial (composition only up to the 2-cell order).  rep_to_prom
sends ⟨M,S,⊨,≤⟩ to the prom ⟨S,2^M,≤,⊆,s↦{m | m⊨s}⟩ and is strictly
functorial.
"""

from __future__ import annotations

from .rel import (
    DEFAULT_POWERSET_CAP,
    FnMap,
    Rel,
    compose,
    graph_upper,
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
)


def prom_to_rep(p: Prom) -> Representation:
    """⟨B, A, y⨾f^*, x⟩.  Always a sound representation."""
    sat = compose(p.y.rel, graph_upper(p.f))
    return Representation(sat, p.x, check=False)


def prommor_to_repmor(m: PromMorphism) -> RepMorphism:
    """(φ,ψ) ↦ (φ, y'⨾ψ^*)."""
    tau = compose(m.dst.y.rel, graph_upper(m.psi))
    return RepMorphism(prom_to_rep(m.src), prom_to_rep(m.dst), m.phi, tau, check=False)


def subset_order(bundle) -> Preorder:
    """⊆ on a powerset carrier, computed as the residual ∈\\∈."""
    return Preorder(left_residual(bundle.mem, bundle.mem), check=False)


def theory_map(r: Representation, cap: int = DEFAULT_POWERSET_CAP) -> FnMap:
    """s ↦ {m | m ⊨ s} into the powerset of models: Λ(⊨)."""
    return power_transpose(r.sat, powerset(r.M, cap).mem)


def rep_to_prom(r: Representation, cap: int = DEFAULT_POWERSET_CAP) -> Prom:
    """⟨S, 2^M, ≤, ⊆, Λ(⊨)⟩."""
    bundle = powerset(r.M, cap)
    return Prom(r.ord, subset_order(bundle), power_transpose(r.sat, bundle.mem), check=False)


def direct_image(tau: Rel, cap: int = DEFAULT_POWERSET_CAP) -> FnMap:
    """Lift tau: M' ⇸ M to the map 2^M → 2^M', α ↦ {b | ∃a∈α: (b,a)∈tau}: Λ(τ⨾∈)."""
    return power_transpose(compose(tau, powerset(tau.dst, cap).mem), powerset(tau.src, cap).mem)


def repmor_to_prommor(m: RepMorphism, cap: int = DEFAULT_POWERSET_CAP) -> PromMorphism:
    """(φ,τ) ↦ (φ, direct image of τ).  Strictly functorial."""
    return PromMorphism(
        rep_to_prom(m.src, cap),
        rep_to_prom(m.dst, cap),
        m.phi,
        direct_image(m.tau, cap),
        check=False,
    )
