"""Preorders, proms, representations, and their morphisms.

Constructors validate eagerly by default.  Every constructor checks that
its carriers connect (a preorder is square, a prom's map runs between its
two carriers, and so on) and raises CarrierMismatch otherwise; check=False
skips only the axioms, not these carrier checks (the harness uses it for
negative tests and for structures already known valid).  Every axiom has
a check_* function that reports the first violated axiom together with a
concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass, InitVar

from .rel import (
    CarrierMismatch,
    FinSet,
    FnMap,
    Rel,
    compose,
    compose_maps,
    eq,
    graph_upper,
    identity,
    identity_map,
    leq,
    union,
)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    axiom: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


OK = CheckResult(True)


class InvalidStructure(ValueError):
    def __init__(self, kind: str, result: CheckResult):
        self.kind = kind
        self.result = result
        super().__init__(f"invalid {kind}: {result.axiom} violated at {result.witness}")


def check_preorder(r: Rel) -> CheckResult:
    if r.src != r.dst:
        raise CarrierMismatch("a preorder must be a square relation")
    for i, row in enumerate(r.rows):
        if not row >> i & 1:
            a = r.src.elements[i]
            return CheckResult(False, "reflexivity", (a, a))
    rr = compose(r, r)
    for i, (sq, row) in enumerate(zip(rr.rows, r.rows)):
        extra = sq & ~row
        if extra:
            j = (extra & -extra).bit_length() - 1
            return CheckResult(False, "transitivity", (r.src.elements[i], r.src.elements[j]))
    return OK


def is_preorder(r: Rel) -> bool:
    return check_preorder(r).ok


@dataclass(frozen=True)
class Preorder:
    rel: Rel
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if self.rel.src != self.rel.dst:
            raise CarrierMismatch("a preorder must be a square relation")
        if check:
            res = check_preorder(self.rel)
            if not res:
                raise InvalidStructure("preorder", res)

    @property
    def carrier(self) -> FinSet:
        return self.rel.src


def preorder_closure(r: Rel) -> Preorder:
    """Least preorder containing r: reflexive closure, then square to fixpoint."""
    if r.src != r.dst:
        raise CarrierMismatch("closure requires a square relation")
    cur = union(r, identity(r.src))
    while True:
        nxt = union(cur, compose(cur, cur))
        if nxt.rows == cur.rows:
            return Preorder(cur, check=False)
        cur = nxt


@dataclass(frozen=True)
class Prom:
    """An order-preserving map f between two preordered carriers."""

    x: Preorder
    y: Preorder
    f: FnMap
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if self.f.src != self.x.carrier or self.f.dst != self.y.carrier:
            raise CarrierMismatch("prom map does not connect the two preordered carriers")
        if check:
            res = check_prom(self)
            if not res:
                raise InvalidStructure("prom", res)

    @property
    def A(self) -> FinSet:
        return self.x.carrier

    @property
    def B(self) -> FinSet:
        return self.y.carrier


def check_prom(p: Prom) -> CheckResult:
    res = check_preorder(p.x.rel)
    if not res:
        return CheckResult(False, "x " + res.axiom, res.witness)
    res = check_preorder(p.y.rel)
    if not res:
        return CheckResult(False, "y " + res.axiom, res.witness)
    bad = order_violation(p.f, p.x.rel, p.y.rel)
    if bad is not None:
        i, j = bad
        return CheckResult(False, "order preservation", (p.A.elements[i], p.A.elements[j]))
    return OK


def order_violation(f: FnMap, x: Rel, y: Rel) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with (i, j) ∈ x but (f i, f j) ∉ y.

    None means f carries x into y, that is f^*⨾x ≤ y⨾f^*.  Checked
    pointwise, so a failure comes with a readable witness.
    """
    img, yrows = f.image, y.rows
    for i, row in enumerate(x.rows):
        target = yrows[img[i]]
        while row:
            low = row & -row
            j = low.bit_length() - 1
            if not target >> img[j] & 1:
                return i, j
            row ^= low
    return None


@dataclass(frozen=True)
class PromMorphism:
    src: Prom
    dst: Prom
    phi: FnMap  # src.A → dst.A
    psi: FnMap  # src.B → dst.B
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if self.phi.src != self.src.A or self.phi.dst != self.dst.A:
            raise CarrierMismatch("phi does not connect the source carriers")
        if self.psi.src != self.src.B or self.psi.dst != self.dst.B:
            raise CarrierMismatch("psi does not connect the target carriers")
        if check:
            res = check_prom_morphism(self)
            if not res:
                raise InvalidStructure("prom morphism", res)


def check_prom_morphism(m: PromMorphism) -> CheckResult:
    res = check_prom(Prom(m.src.x, m.dst.x, m.phi, check=False))
    if not res:
        return CheckResult(False, "phi: " + res.axiom, res.witness)
    res = check_prom(Prom(m.src.y, m.dst.y, m.psi, check=False))
    if not res:
        return CheckResult(False, "psi: " + res.axiom, res.witness)
    # ψ∘f = f'∘φ, pointwise.
    f, f2 = m.src.f, m.dst.f
    for i, a in enumerate(m.src.A.elements):
        lhs = m.psi.image[f.image[i]]
        rhs = f2.image[m.phi.image[i]]
        if lhs != rhs:
            return CheckResult(
                False,
                "commuting square",
                (a, m.dst.B.elements[lhs], m.dst.B.elements[rhs]),
            )
    return OK


@dataclass(frozen=True)
class Representation:
    """Models, statements, a satisfaction relation and a sound preorder."""

    sat: Rel  # M ⇸ S
    ord: Preorder  # on S
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if self.sat.dst != self.ord.carrier:
            raise CarrierMismatch("preorder carrier does not match the statement carrier")
        if check:
            res = check_representation(self)
            if not res:
                raise InvalidStructure("representation", res)

    @property
    def M(self) -> FinSet:
        return self.sat.src

    @property
    def S(self) -> FinSet:
        return self.sat.dst


def check_representation(r: Representation) -> CheckResult:
    res = check_preorder(r.ord.rel)
    if not res:
        return res
    closed = compose(r.sat, r.ord.rel)
    for i, (cl, row) in enumerate(zip(closed.rows, r.sat.rows)):
        extra = cl & ~row
        if extra:
            j = (extra & -extra).bit_length() - 1
            return CheckResult(False, "soundness", (r.M.elements[i], r.S.elements[j]))
    return OK


@dataclass(frozen=True)
class RepMorphism:
    """A statement translation phi together with a model relation tau.

    tau runs contravariantly, from the destination's models to the source's.
    """

    src: Representation
    dst: Representation
    phi: FnMap  # src.S → dst.S
    tau: Rel  # dst.M ⇸ src.M
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if self.phi.src != self.src.S or self.phi.dst != self.dst.S:
            raise CarrierMismatch("phi does not connect the statement carriers")
        if self.tau.src != self.dst.M or self.tau.dst != self.src.M:
            raise CarrierMismatch("tau does not connect the model carriers")
        if check:
            res = check_rep_morphism(self)
            if not res:
                raise InvalidStructure("representation morphism", res)


def check_rep_morphism(m: RepMorphism) -> CheckResult:
    res = check_prom(Prom(m.src.ord, m.dst.ord, m.phi, check=False))
    if not res:
        return CheckResult(False, "phi: " + res.axiom, res.witness)
    lhs = compose(m.tau, m.src.sat)
    rhs = compose(m.dst.sat, graph_upper(m.phi))
    for i, (l, r) in enumerate(zip(lhs.rows, rhs.rows)):
        diff = l ^ r
        if diff:
            j = (diff & -diff).bit_length() - 1
            return CheckResult(
                False, "commuting square", (m.dst.M.elements[i], m.src.S.elements[j])
            )
    return OK


def repmor_leq(m1: RepMorphism, m2: RepMorphism) -> bool:
    """2-cell order: equal statement maps and tau inclusion."""
    if m1.src != m2.src or m1.dst != m2.dst:
        raise CarrierMismatch("2-cells only compare morphisms with equal endpoints")
    return m1.phi.image == m2.phi.image and leq(m1.tau, m2.tau)


def identity_prom_morphism(p: Prom) -> PromMorphism:
    return PromMorphism(p, p, identity_map(p.A), identity_map(p.B), check=False)


def identity_rep_morphism(r: Representation) -> RepMorphism:
    return RepMorphism(r, r, identity_map(r.S), identity(r.M), check=False)


def compose_prom_morphisms(m2: PromMorphism, m1: PromMorphism) -> PromMorphism:
    """m2 ∘ m1 (m1 first)."""
    if m1.dst != m2.src:
        raise CarrierMismatch("prom morphisms do not share a middle prom")
    return PromMorphism(
        m1.src,
        m2.dst,
        compose_maps(m2.phi, m1.phi),
        compose_maps(m2.psi, m1.psi),
        check=False,
    )


def compose_rep_morphisms(m2: RepMorphism, m1: RepMorphism) -> RepMorphism:
    """m2 ∘ m1; the model relations compose as tau2⨾tau1."""
    if m1.dst != m2.src:
        raise CarrierMismatch("representation morphisms do not share a middle object")
    return RepMorphism(
        m1.src,
        m2.dst,
        compose_maps(m2.phi, m1.phi),
        compose(m2.tau, m1.tau),
        check=False,
    )
