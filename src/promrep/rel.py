"""Finite sets and binary relations with exact boolean semantics.

Relations are stored as dense bit matrices: one Python int per source
element, bit j set iff the pair (i, j) is in the relation.  Composition,
residuals and inclusion then reduce to word-parallel row operations,
which is plenty fast for the carrier sizes this package works with.

Composition has two exact strategies.  The row strategy ORs together the
rows of y selected by each row of x, one operation per pair of x.  The
column strategy transposes y once and tests each row of x against each
column, one operation per pair of y plus one per cell of the result; it
wins for tall, narrow products such as the 2^M ⊆ order into a small
carrier.  `compose` picks the cheaper one from these operand counts,
considering columns only when x has more than 64 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

#: Largest base carrier for which a powerset may be materialized (2^12 = 4096
#: subsets).  The M and R∘M constructions square the powerset carrier, so this
#: guard prevents accidental blowup; callers may override it per call.
DEFAULT_POWERSET_CAP = 12


class CarrierMismatch(ValueError):
    """Operands live over incompatible carriers."""


class PowersetCapExceeded(ValueError):
    """A powerset construction would exceed the configured cap."""


@dataclass(frozen=True)
class FinSet:
    """A named finite carrier with a canonical element order."""

    name: str
    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"duplicate labels in carrier {self.name!r}")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.elements)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: unhashable, so not a label
            raise KeyError(f"{label!r} is not an element of {self.name!r}") from None


def finset(name: str, size: int, prefix: str | None = None) -> FinSet:
    """Carrier of `size` fresh elements labelled prefix0, prefix1, ..."""
    p = prefix if prefix is not None else name
    return FinSet(name, tuple(f"{p}{i}" for i in range(size)))


@dataclass(frozen=True)
class Rel:
    """A binary relation src ⇸ dst as a packed bit matrix."""

    src: FinSet
    dst: FinSet
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != len(self.src):
            raise ValueError("row count does not match source carrier")
        limit = 1 << len(self.dst)
        if any(r < 0 or r >= limit for r in self.rows):
            raise ValueError("row mask exceeds destination carrier")

    @classmethod
    def from_pairs(cls, src: FinSet, dst: FinSet, pairs) -> "Rel":
        rows = [0] * len(src)
        for a, b in pairs:
            rows[src.index(a)] |= 1 << dst.index(b)
        return cls(src, dst, tuple(rows))

    def pairs(self) -> list[tuple[str, str]]:
        out = []
        for i, row in enumerate(self.rows):
            for j in _bits(row):
                out.append((self.src.elements[i], self.dst.elements[j]))
        return out

    def holds(self, a: str, b: str) -> bool:
        return bool(self.rows[self.src.index(a)] >> self.dst.index(b) & 1)

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def identity(a: FinSet) -> Rel:
    return Rel(a, a, tuple(1 << i for i in range(len(a))))


def empty(src: FinSet, dst: FinSet) -> Rel:
    return Rel(src, dst, (0,) * len(src))


def full(src: FinSet, dst: FinSet) -> Rel:
    mask = (1 << len(dst)) - 1
    return Rel(src, dst, (mask,) * len(src))


def _transpose(rows, width: int) -> list[int]:
    out = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def converse(x: Rel) -> Rel:
    return Rel(x.dst, x.src, tuple(_transpose(x.rows, len(x.dst))))


def compose(x: Rel, y: Rel) -> Rel:
    """Sequential composition x⨾y: (a,c) iff some b with (a,b)∈x, (b,c)∈y.

    Row strategy: row a is the OR of y's rows at the bits of x's row a,
    costing popcount(x) operations.  Column strategy: (a,c) holds iff
    x's row a meets column c of y, costing popcount(y) for the transpose
    plus |A|·|C| tests.  The column strategy runs only when x has more
    than 64 rows and its cost is strictly lower.  Both give the same bits.
    """
    if x.dst != y.src:
        raise CarrierMismatch(f"cannot compose {x.dst.name} with {y.src.name}")
    xrows, yrows = x.rows, y.rows
    if len(xrows) > 64:
        by_rows = sum(row.bit_count() for row in xrows)
        by_cols = sum(row.bit_count() for row in yrows) + len(xrows) * len(y.dst)
        if by_cols < by_rows:
            return Rel(x.src, y.dst, _compose_by_columns(xrows, yrows, len(y.dst)))
    rows = []
    for row in xrows:
        acc = 0
        while row:
            low = row & -row
            acc |= yrows[low.bit_length() - 1]
            row ^= low
        rows.append(acc)
    return Rel(x.src, y.dst, tuple(rows))


def _compose_by_columns(xrows, yrows, width: int) -> tuple[int, ...]:
    cols = [(1 << c, col) for c, col in enumerate(_transpose(yrows, width)) if col]
    rows = []
    for row in xrows:
        acc = 0
        for bit, col in cols:
            if row & col:
                acc |= bit
        rows.append(acc)
    return tuple(rows)


def _require_same_shape(x: Rel, y: Rel):
    if x.src != y.src or x.dst != y.dst:
        raise CarrierMismatch(
            f"relations over {x.src.name}⇸{x.dst.name} and "
            f"{y.src.name}⇸{y.dst.name} are not comparable"
        )


def leq(x: Rel, y: Rel) -> bool:
    """Set inclusion x ≤ y.  Comparing across carriers is an error, not False."""
    _require_same_shape(x, y)
    return all(rx & ~ry == 0 for rx, ry in zip(x.rows, y.rows))


def eq(x: Rel, y: Rel) -> bool:
    _require_same_shape(x, y)
    return x.rows == y.rows


def union(x: Rel, y: Rel) -> Rel:
    _require_same_shape(x, y)
    return Rel(x.src, x.dst, tuple(rx | ry for rx, ry in zip(x.rows, y.rows)))


def left_residual(x: Rel, z: Rel) -> Rel:
    """x\\z over B⇸C: (b,c) iff for all a, (a,b)∈x implies (a,c)∈z.

    An empty source carrier makes the universal vacuous: the result is full.
    """
    if x.src != z.src:
        raise CarrierMismatch(f"residual sources differ: {x.src.name} vs {z.src.name}")
    full_c = (1 << len(z.dst)) - 1
    rows = [full_c] * len(x.dst)
    for xr, zr in zip(x.rows, z.rows):
        while xr:
            low = xr & -xr
            rows[low.bit_length() - 1] &= zr
            xr ^= low
    return Rel(x.dst, z.dst, tuple(rows))


def right_residual(z: Rel, y: Rel) -> Rel:
    """z/y over A⇸B: largest x with x⨾y ≤ z."""
    if z.dst != y.dst:
        raise CarrierMismatch(f"residual targets differ: {z.dst.name} vs {y.dst.name}")
    return converse(left_residual(converse(y), converse(z)))


@dataclass(frozen=True)
class FnMap:
    """A total function src → dst, stored as destination indices."""

    src: FinSet
    dst: FinSet
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        if len(self.image) != len(self.src):
            raise ValueError("function is not total on its source")
        if any(i < 0 or i >= len(self.dst) for i in self.image):
            raise ValueError("image index outside destination carrier")

    @classmethod
    def from_labels(cls, src: FinSet, dst: FinSet, mapping: dict) -> "FnMap":
        missing = set(src.elements) - set(mapping)
        if missing:
            raise ValueError(f"function undefined on {sorted(missing)}")
        extra = set(mapping) - set(src.elements)
        if extra:
            raise ValueError(f"function defined outside its source on {sorted(extra)}")
        return cls(src, dst, tuple(dst.index(mapping[a]) for a in src.elements))

    def of(self, label: str) -> str:
        return self.dst.elements[self.image[self.src.index(label)]]

    def as_dict(self) -> dict:
        return {a: self.dst.elements[self.image[i]] for i, a in enumerate(self.src.elements)}


def identity_map(a: FinSet) -> FnMap:
    return FnMap(a, a, tuple(range(len(a))))


def compose_maps(g: FnMap, f: FnMap) -> FnMap:
    """g ∘ f (apply f first)."""
    if f.dst != g.src:
        raise CarrierMismatch(f"cannot compose maps through {f.dst.name} vs {g.src.name}")
    return FnMap(f.src, g.dst, tuple(g.image[i] for i in f.image))


def graph_lower(f: FnMap) -> Rel:
    """The graph of f: pairs (a, f(a))."""
    return Rel(f.src, f.dst, tuple(1 << i for i in f.image))


def graph_upper(f: FnMap) -> Rel:
    """Converse of the graph: pairs (f(a), a)."""
    rows = [0] * len(f.dst)
    for a, i in enumerate(f.image):
        rows[i] |= 1 << a
    return Rel(f.dst, f.src, tuple(rows))


@dataclass(frozen=True)
class PowersetBundle:
    """A base carrier, the carrier of all its subsets, and the membership relation."""

    base: FinSet
    carrier: FinSet
    mem: Rel  # base ⇸ carrier


def subset_label(base: FinSet, mask: int) -> str:
    inner = ",".join(l for i, l in enumerate(base.elements) if mask >> i & 1)
    return "{" + inner + "}"


def powerset(base: FinSet, cap: int = DEFAULT_POWERSET_CAP) -> PowersetBundle:
    """All subsets of `base`, ordered by ascending bitmask over the base order.

    The index of a subset in the carrier equals its bitmask, which the rest of
    the package relies on when converting between masks and carrier elements.
    """
    n = len(base)
    if n > cap:
        raise PowersetCapExceeded(f"|{base.name}| = {n} exceeds powerset cap {cap}")
    carrier = FinSet(f"2^{base.name}", tuple(subset_label(base, m) for m in range(1 << n)))
    rows = [0] * n
    for m in range(1 << n):
        for i in _bits(m):
            rows[i] |= 1 << m
    return PowersetBundle(base, carrier, Rel(base, carrier, tuple(rows)))


def singleton_map(base: FinSet, cap: int = DEFAULT_POWERSET_CAP) -> FnMap:
    """a ↦ {a} into the powerset carrier."""
    bundle = powerset(base, cap)
    return FnMap(base, bundle.carrier, tuple(1 << i for i in range(len(base))))


def fn_eq_into_powerset(f: FnMap, g: FnMap, mem: Rel) -> bool:
    """Equality of maps into a powerset, decided relationally as ∈⨾f^* = ∈⨾g^*."""
    if f.src != g.src or f.dst != g.dst:
        raise CarrierMismatch("functions into a powerset over different carriers")
    if mem.dst != f.dst:
        raise CarrierMismatch("membership relation does not match the codomain")
    return eq(compose(mem, graph_upper(f)), compose(mem, graph_upper(g)))
