"""Exact representations and order-reflecting proms."""

from __future__ import annotations

from .rel import left_residual, leq, pullback
from .structures import Prom, Representation


def is_exact(r: Representation) -> bool:
    """The preorder captures entailment exactly: ⊨\\⊨ ≤ ≤."""
    return leq(left_residual(r.sat, r.sat), r.ord.rel)


def is_order_reflecting(p: Prom) -> bool:
    """f_*⨾y⨾f^* ≤ x: comparability downstairs forces comparability upstairs."""
    return leq(pullback(p.y.rel, p.f), p.x.rel)
