"""The two mappings between proms and representations.

prom_to_rep sends ⟨A,B,x,y,f⟩ to the representation ⟨B,A,y⨾f^*,x⟩; it is
lax functorial (composition only up to the 2-cell order).  rep_to_prom
sends ⟨M,S,⊨,≤⟩ to the prom ⟨S,2^M,≤,⊆,s↦{m | m⊨s}⟩ and is strictly
functorial.
"""

from __future__ import annotations

from .rel import (
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
    return Representation(sat, p.x)


def prommor_to_repmor(m: PromMorphism) -> RepMorphism:
    """(φ,ψ) ↦ (φ, y'⨾ψ^*)."""
    tau = compose(m.dst.y.rel, graph_upper(m.psi))
    return RepMorphism(prom_to_rep(m.src), prom_to_rep(m.dst), m.phi, tau)


def rep_to_prom(r: Representation) -> Prom:
    """⟨S, 2^M, ≤, ⊆, Λ(⊨)⟩; ⊆ is the residual ∈\\∈, and Λ(⊨) is the theory
    map s ↦ {m | m ⊨ s}."""
    mem = powerset(r.M).mem
    return Prom(r.ord, Preorder(left_residual(mem, mem)), power_transpose(r.sat, mem))


def direct_image(tau: Rel) -> FnMap:
    """Lift tau: M' ⇸ M to the map 2^M → 2^M', α ↦ {b | ∃a∈α: (b,a)∈tau}: Λ(τ⨾∈)."""
    return power_transpose(compose(tau, powerset(tau.dst).mem), powerset(tau.src).mem)


def repmor_to_prommor(m: RepMorphism) -> PromMorphism:
    """(φ,τ) ↦ (φ, direct image of τ).  Strictly functorial."""
    return PromMorphism(rep_to_prom(m.src), rep_to_prom(m.dst), m.phi, direct_image(m.tau))
