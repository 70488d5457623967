"""Preorders, proms, representations, and their morphisms.

A constructor checks only that its carriers connect (a preorder is
square, a prom's map runs between its two carriers, and so on) and raises
CarrierMismatch otherwise.  `validate` is the one place that checks the
axioms: every axiom has a check_* function that reports the first
violated axiom together with a concrete witness, which `validate` raises
as InvalidStructure; `AXIOMS` lists each kind's axioms in the order its
check tests them.  `is_preorder` alone decides whether a relation is a
preorder, and `check_preorder` only names its witness.  Callers validate
where input enters (`promrep check` and `apply`, and the harness on every
law instance), so an invalid structure can still be held and reported.

Each structure is a frozen dataclass compared by value.  `Preorder` and
the two morphism classes are slotted, like `rel.Rel`, as nothing is kept
on them; a `Prom` keeps its R(p) and a `Representation` its M(r) in their
own `__dict__` (see `functors`).  Unlike `rel.Rel` and `rel.FnMap`, which
store their fields in an `__init__` of their own and then call
`__post_init__`, the structures keep the generated `__init__`: one
exhaustive pass of the benchmark builds about 4,600 structures against
300,000 relations.  Either way `__post_init__` is each value's one
check, run once per object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rel import (
    CarrierMismatch,
    FinSet,
    FnMap,
    Rel,
    compose,
    compose_maps,
    graph_upper,
    identity,
    identity_map,
    is_transitive,
    leq,
    row_bits,
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


def is_preorder(r: Rel) -> bool:
    """Whether r is reflexive and transitive: the one decision, with no witness built."""
    if r.src is not r.dst and r.src != r.dst:
        raise CarrierMismatch("a preorder must be a square relation")
    for i, row in enumerate(r.rows):
        if not row >> i & 1:
            return False
    return is_transitive(r)


def check_preorder(r: Rel) -> CheckResult:
    """OK when `is_preorder` holds, else its first witness in row-major order:
    the first missing loop, else the first pair of r⨾r outside r.  Only a
    kernel that contradicts itself leaves no pair; r then fails transitivity
    without a witness."""
    if is_preorder(r):
        return OK
    loops = (1 << i & ~row for i, row in enumerate(r.rows))
    return (
        _first_pair("reflexivity", loops, r.src, r.src)
        and _first_pair("transitivity", (sq & ~row for sq, row in zip(compose(r, r).rows, r.rows)), r.src, r.src)
        and CheckResult(False, "transitivity")
    )


def _first_pair(axiom: str, rows, src: FinSet, dst: FinSet) -> CheckResult:
    """OK, or `axiom` failing at the first set bit of `rows` in row-major order, named by src's and dst's labels."""
    for i, row in enumerate(rows):
        if row:
            return CheckResult(False, axiom, (src.elements[i], dst.elements[(row & -row).bit_length() - 1]))
    return OK


def _part(name: str, res: CheckResult) -> CheckResult:
    """res, or its failure with the axiom named after the part, as in `x reflexivity` or `src soundness`."""
    return res or CheckResult(False, f"{name} {res.axiom}", res.witness)


@dataclass(frozen=True, slots=True)
class Preorder:
    rel: Rel

    def __post_init__(self):
        if self.rel.src != self.rel.dst:
            raise CarrierMismatch("a preorder must be a square relation")

    @property
    def carrier(self) -> FinSet:
        return self.rel.src


def preorder_closure(r: Rel) -> Preorder:
    """Least preorder containing r, by Warshall's pass (J. ACM 1962): each row
    takes its own bit, then for each pivot k every row holding bit k takes row k."""
    if r.src != r.dst:
        raise CarrierMismatch("closure requires a square relation")
    rows = [row | 1 << i for i, row in enumerate(r.rows)]
    for k in range(len(rows)):
        row_k = rows[k]
        rows = [row | row_k if row >> k & 1 else row for row in rows]
    return Preorder(Rel(r.src, r.dst, tuple(rows)))


@dataclass(frozen=True)
class Prom:
    """An order-preserving map f between two preordered carriers."""

    x: Preorder
    y: Preorder
    f: FnMap

    def __post_init__(self):
        if self.f.src != self.x.carrier or self.f.dst != self.y.carrier:
            raise CarrierMismatch("prom map does not connect the two preordered carriers")

    @property
    def A(self) -> FinSet:
        return self.x.carrier

    @property
    def B(self) -> FinSet:
        return self.y.carrier


def check_prom(p: Prom) -> CheckResult:
    return (
        _part("x", check_preorder(p.x.rel))
        and _part("y", check_preorder(p.y.rel))
        and _preserves("order preservation", p.f, p.x, p.y)
    )


def order_violation(f: FnMap, x: Rel, y: Rel) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with (i, j) ∈ x but (f i, f j) ∉ y.

    None means f carries x into y, that is f^*⨾x ≤ y⨾f^*.  Checked
    pointwise, so a failure comes with a readable witness.
    """
    img, yrows, width = f.image, y.rows, len(x.dst.elements)
    for i, row in enumerate(x.rows):
        target = yrows[img[i]]
        for j in row_bits(row, width):
            if not target >> img[j] & 1:
                return i, j
    return None


def _preserves(axiom: str, f: FnMap, x: Preorder, y: Preorder) -> CheckResult:
    """Whether f carries x into y; if not, `axiom` fails at the first pair of x it breaks."""
    bad = order_violation(f, x.rel, y.rel)
    if bad is None:
        return OK
    return CheckResult(False, axiom, tuple(f.src.elements[i] for i in bad))


@dataclass(frozen=True, slots=True)
class PromMorphism:
    src: Prom
    dst: Prom
    phi: FnMap  # src.A → dst.A
    psi: FnMap  # src.B → dst.B

    def __post_init__(self):
        if self.phi.src != self.src.A or self.phi.dst != self.dst.A:
            raise CarrierMismatch("phi does not connect the source carriers")
        if self.psi.src != self.src.B or self.psi.dst != self.dst.B:
            raise CarrierMismatch("psi does not connect the target carriers")


def _ends(check, m) -> CheckResult:
    """`check` on m's source, then its destination, naming the failing end."""
    return _part("src", check(m.src)) and _part("dst", check(m.dst))


def check_prom_morphism(m: PromMorphism) -> CheckResult:
    """Both ends, then φ and ψ for order preservation, then ψ∘f = f'∘φ.

    The ends' checks test each of the four preorders once."""
    res = (
        _ends(check_prom, m)
        and _preserves("phi order preservation", m.phi, m.src.x, m.dst.x)
        and _preserves("psi order preservation", m.psi, m.src.y, m.dst.y)
    )
    if not res:
        return res
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

    def __post_init__(self):
        if self.sat.dst != self.ord.carrier:
            raise CarrierMismatch("preorder carrier does not match the statement carrier")

    @property
    def M(self) -> FinSet:
        return self.sat.src

    @property
    def S(self) -> FinSet:
        return self.sat.dst


def check_representation(r: Representation) -> CheckResult:
    res = _part("ord", check_preorder(r.ord.rel))
    if not res:
        return res
    closed, rows = compose(r.sat, r.ord.rel).rows, r.sat.rows
    if closed == rows:
        return OK
    return _first_pair("soundness", (cl & ~row for cl, row in zip(closed, rows)), r.M, r.S)


@dataclass(frozen=True, slots=True)
class RepMorphism:
    """A statement translation phi together with a model relation tau.

    tau runs contravariantly, from the destination's models to the source's.
    """

    src: Representation
    dst: Representation
    phi: FnMap  # src.S → dst.S
    tau: Rel  # dst.M ⇸ src.M

    def __post_init__(self):
        if self.phi.src != self.src.S or self.phi.dst != self.dst.S:
            raise CarrierMismatch("phi does not connect the statement carriers")
        if self.tau.src != self.dst.M or self.tau.dst != self.src.M:
            raise CarrierMismatch("tau does not connect the model carriers")


def check_rep_morphism(m: RepMorphism) -> CheckResult:
    """Both ends, then φ for order preservation, then τ⨾⊨ = ⊨'⨾φ^*."""
    res = _ends(check_representation, m) and _preserves(
        "phi order preservation", m.phi, m.src.ord, m.dst.ord
    )
    if not res:
        return res
    lhs = compose(m.tau, m.src.sat).rows
    rhs = compose(m.dst.sat, graph_upper(m.phi)).rows
    if lhs == rhs:
        return OK
    return _first_pair("commuting square", (l ^ r for l, r in zip(lhs, rhs)), m.dst.M, m.src.S)


#: Structure class → (the kind InvalidStructure names, its axiom check).
VALIDATION = {
    Preorder: ("preorder", lambda s: check_preorder(s.rel)),
    Prom: ("prom", check_prom),
    PromMorphism: ("prom morphism", check_prom_morphism),
    Representation: ("representation", check_representation),
    RepMorphism: ("representation morphism", check_rep_morphism),
}

#: Structure class → the axioms its check tests, in order, as `promrep check`
#: lists them.  A "<field> preorder" entry fails as "<field> reflexivity" or
#: "<field> transitivity".
AXIOMS = {
    Preorder: ("reflexivity", "transitivity"),
    Prom: ("x preorder", "y preorder", "order preservation"),
    Representation: ("ord preorder", "soundness"),
}


def _ends_then(end: type, *own: str) -> tuple[str, ...]:
    """A morphism's axioms: its ends', named as `_ends` names them, then its maps' own."""
    return tuple(f"{side} {axiom}" for side in ("src", "dst") for axiom in AXIOMS[end]) + own


AXIOMS[PromMorphism] = _ends_then(Prom, "phi order preservation", "psi order preservation", "commuting square")
AXIOMS[RepMorphism] = _ends_then(Representation, "phi order preservation", "commuting square")


def validate(obj) -> None:
    """Raise InvalidStructure if obj, one of the five structures, violates an axiom."""
    kind, check = VALIDATION[type(obj)]
    res = check(obj)
    if not res:
        raise InvalidStructure(kind, res)


def repmor_leq(m1: RepMorphism, m2: RepMorphism) -> bool:
    """2-cell order: equal statement maps and tau inclusion."""
    if m1.src != m2.src or m1.dst != m2.dst:
        raise CarrierMismatch("2-cells only compare morphisms with equal endpoints")
    return m1.phi.image == m2.phi.image and leq(m1.tau, m2.tau)


def identity_prom_morphism(p: Prom) -> PromMorphism:
    return PromMorphism(p, p, identity_map(p.A), identity_map(p.B))


def identity_rep_morphism(r: Representation) -> RepMorphism:
    return RepMorphism(r, r, identity_map(r.S), identity(r.M))


def compose_prom_morphisms(m2: PromMorphism, m1: PromMorphism) -> PromMorphism:
    """m2 ∘ m1 (m1 first)."""
    if m1.dst != m2.src:
        raise CarrierMismatch("prom morphisms do not share a middle prom")
    return PromMorphism(m1.src, m2.dst, compose_maps(m2.phi, m1.phi), compose_maps(m2.psi, m1.psi))


def compose_rep_morphisms(m2: RepMorphism, m1: RepMorphism) -> RepMorphism:
    """m2 ∘ m1; the model relations compose as tau2⨾tau1."""
    if m1.dst != m2.src:
        raise CarrierMismatch("representation morphisms do not share a middle object")
    return RepMorphism(m1.src, m2.dst, compose_maps(m2.phi, m1.phi), compose(m2.tau, m1.tau))
