"""Exact representations and order-reflecting proms."""

from __future__ import annotations

from .rel import eq, left_residual, leq, pullback
from .structures import Prom, Representation


def is_exact(r: Representation) -> bool:
    """The preorder captures entailment exactly: ⊨\\⊨ ≤ ≤."""
    return leq(left_residual(r.sat, r.sat), r.ord.rel)


def is_order_reflecting(p: Prom) -> bool:
    """f_*⨾y⨾f^* ≤ x: comparability downstairs forces comparability upstairs."""
    return leq(pullback(p.y.rel, p.f), p.x.rel)


def exactness_is_identity(r: Representation) -> bool:
    """For exact representations the defining inequation is an equality."""
    return eq(left_residual(r.sat, r.sat), r.ord.rel)


def reflection_is_identity(p: Prom) -> bool:
    """For order-reflecting proms, x equals the pullback of y along f."""
    return eq(p.x.rel, pullback(p.y.rel, p.f))
