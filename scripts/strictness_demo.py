#!/usr/bin/env python3
"""Show where the adjunction is lax rather than strict, on the smallest
instance that exhibits it: a prom whose target order is a 2-chain b0 ≤ b1.

Three strictness phenomena appear on this one example:
  1. the representation image of the identity morphism sits strictly above
     the identity 1-cell,
  2. the representation-side triangle composite is (id, y), strictly above
     the identity whenever y is not discrete,
  3. lowering after lifting saturates tau along y, strictly enlarging it.
"""

from promrep import (
    FnMap,
    Preorder,
    Prom,
    Rel,
    eq,
    finset,
    identity,
    identity_prom_morphism,
    identity_rep_morphism,
    hom_pair,
    prom_to_rep,
    prommor_to_repmor,
    repmor_leq,
    triangle_rep,
)
from promrep.harness import enumerate_rep_morphisms


def _strict(holds: bool) -> str:
    return "  (strict)" if holds else ""


def main():
    A = finset("A", 1, "a")
    B = finset("B", 2, "b")
    y = Preorder(Rel.from_pairs(B, B, [("b0", "b0"), ("b1", "b1"), ("b0", "b1")]))
    p = Prom(Preorder(identity(A)), y, FnMap(A, B, (0,)))
    print(f"prom: f: {A.elements} -> {B.elements} with y = 2-chain b0 <= b1\n")

    r_id = prommor_to_repmor(identity_prom_morphism(p))
    ident = identity_rep_morphism(prom_to_rep(p))
    up, down = repmor_leq(ident, r_id), repmor_leq(r_id, ident)
    print("1. lax identity law:")
    print(f"   image-of-id tau = {r_id.tau.pairs()}")
    print(f"   id  <=  image-of-id : {up}")
    print(f"   image-of-id  <=  id : {down}{_strict(up and not down)}\n")

    tri = triangle_rep(p)
    print("2. representation-side triangle:")
    print(f"   composite tau = {tri.composite.tau.pairs()}")
    print(f"   equals (id, y): {tri.equals_expected}, dominates id: "
          f"{tri.dominates_identity}{_strict(tri.strict)}\n")

    h = hom_pair(p, prom_to_rep(p))
    print("3. lower-after-lift saturation:")
    for m in enumerate_rep_morphisms(h.rp, h.r):
        around = h.lower(h.lift(m))
        if not eq(around.tau, m.tau):
            print(f"   tau          = {m.tau.pairs()}")
            print(f"   after TΨ     = {around.tau.pairs()}")
            below = repmor_leq(m, around)
            print(f"   id <= TΨ(m): {below}{_strict(below)}")
            break
    else:
        print("   no strict instance in this hom-set")


if __name__ == "__main__":
    main()
