"""The two mappings between proms and representations.

prom_to_rep sends ⟨A,B,x,y,f⟩ to the representation ⟨B,A,y⨾f^*,x⟩; it is
lax functorial (composition only up to the 2-cell order).  rep_to_prom
sends ⟨M,S,⊨,≤⟩ to the prom ⟨S,2^M,≤,⊆,s↦{m | m⊨s}⟩ and is strictly
functorial.

Each image is built once per structure and kept in the structure's own
dict under the function's name, as a map keeps its graphs, so it dies with
the structure and changes none of its equality, hashing or copies.  R(p) is
always kept: its relation has |B|·|A| cells, no more than p holds itself.
M(r) is kept only while 2^|M| ≤ `KEPT_POWERSET_SIZE`, since it holds ⊆ over
2^M; above that it is rebuilt on every call.
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

#: Largest powerset 2^|M| whose M(r) a representation keeps.  Up to 64
#: subsets every row of ⊆ fits in one machine word, the narrow side of the
#: 64-column boundary in `rel`; a kept M(r) at the powerset cap would hold
#: ⊆ over 4,096 subsets for as long as r lives.
KEPT_POWERSET_SIZE = 64


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
    """⟨S, 2^M, ≤, ⊆, Λ(⊨)⟩; ⊆ is the residual ∈\\∈, and Λ(⊨) is the theory
    map s ↦ {m | m ⊨ s}.  Kept in r while 2^|M| ≤ `KEPT_POWERSET_SIZE`."""
    mr = r.__dict__.get("rep_to_prom")
    if mr is None:
        mem = powerset(r.M).mem
        mr = Prom(r.ord, Preorder(left_residual(mem, mem)), power_transpose(r.sat, mem))
        if 1 << len(r.M) <= KEPT_POWERSET_SIZE:
            r.__dict__["rep_to_prom"] = mr
    return mr


def direct_image(tau: Rel) -> FnMap:
    """Lift tau: M' ⇸ M to the map 2^M → 2^M', α ↦ {b | ∃a∈α: (b,a)∈tau}: Λ(τ⨾∈)."""
    return power_transpose(compose(tau, powerset(tau.dst).mem), powerset(tau.src).mem)


def repmor_to_prommor(m: RepMorphism) -> PromMorphism:
    """(φ,τ) ↦ (φ, direct image of τ).  Strictly functorial."""
    return PromMorphism(rep_to_prom(m.src), rep_to_prom(m.dst), m.phi, direct_image(m.tau))
