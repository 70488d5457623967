"""The two mappings between proms and representations.

prom_to_rep sends ⟨A,B,x,y,f⟩ to the representation ⟨B,A,y⨾f^*,x⟩; it is
lax functorial (composition only up to the 2-cell order).  rep_to_prom
sends ⟨M,S,⊨,≤⟩ to the prom ⟨S,2^M,≤,⊆,s↦{m | m⊨s}⟩ and is strictly
functorial.

Each image is built once per structure and kept in the structure's own
dict under the function's name, as a map keeps its graphs, so it dies with
the structure and changes none of its equality, hashing or copies.  Both
are always kept: R(p)'s relation has |B|·|A| cells, no more than p holds,
and M(r)'s ⊆ wraps the rows `rel.subset_rows` shares among all bases of
size |M|, so a kept M(r) adds no copy of ⊆ over 2^M.
"""

from __future__ import annotations

from .rel import (
    FnMap,
    Rel,
    compose,
    graph_upper,
    power_transpose,
    powerset,
    subset_rows,
)
from .structures import (
    Preorder,
    Prom,
    PromMorphism,
    Representation,
    RepMorphism,
)

def prom_to_rep(p: Prom) -> Representation:
    """⟨B, A, y⨾f^*, x⟩, built once per prom.  Always a sound representation."""
    rp = p.__dict__.get("prom_to_rep")
    if rp is None:
        rp = p.__dict__["prom_to_rep"] = Representation(compose(p.y.rel, graph_upper(p.f)), p.x)
    return rp


def prommor_to_repmor(m: PromMorphism) -> RepMorphism:
    """(φ,ψ) ↦ (φ, y'⨾ψ^*)."""
    tau = compose(m.dst.y.rel, graph_upper(m.psi))
    return RepMorphism(prom_to_rep(m.src), prom_to_rep(m.dst), m.phi, tau)


def rep_to_prom(r: Representation) -> Prom:
    """⟨S, 2^M, ≤, ⊆, Λ(⊨)⟩; ⊆ is the residual ∈\\∈, its rows shared per
    |M|, and Λ(⊨) is the theory map s ↦ {m | m ⊨ s}.  Built once per r."""
    mr = r.__dict__.get("rep_to_prom")
    if mr is None:
        b = powerset(r.M)
        subset = Preorder(Rel(b.carrier, b.carrier, subset_rows(b.mem)))
        mr = r.__dict__["rep_to_prom"] = Prom(r.ord, subset, power_transpose(r.sat, b.mem))
    return mr


def direct_image(tau: Rel) -> FnMap:
    """Lift tau: M' ⇸ M to the map 2^M → 2^M', α ↦ {b | ∃a∈α: (b,a)∈tau}: Λ(τ⨾∈)."""
    return power_transpose(compose(tau, powerset(tau.dst).mem), powerset(tau.src).mem)


def repmor_to_prommor(m: RepMorphism) -> PromMorphism:
    """(φ,τ) ↦ (φ, direct image of τ).  Strictly functorial."""
    return PromMorphism(rep_to_prom(m.src), rep_to_prom(m.dst), m.phi, direct_image(m.tau))
