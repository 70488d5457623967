"""Finite sets and binary relations with exact boolean semantics.

Relations are stored as dense bit matrices: one Python int per source
element, bit j set iff the pair (i, j) is in the relation.  Composition,
residuals and inclusion then reduce to word-parallel row operations,
which is plenty fast for the carrier sizes this package works with.

Composition, the left residual, the transpose behind `converse` and
`power_transpose`, `Rel.pairs`, the workspace writer and the structure
checks' order test visit each row's set bits, and `row_bits` alone
decides how.  A row below 2^8, which is most rows the law bounds build,
reads its bits from a table made once at import.  Peeling the lowest bit
off an int is an O(width) step, so a dense row costs O(width²) that way,
and ∈ at the powerset cap has 12 rows of 2048 bits in 4096 columns.  A
row wider than 64 columns with many set bits is therefore scanned once
as binary text in C, in O(width).  Every other row is peeled.  `_scan`
is the only reader of a row's binary digits: it returns them as 0/1
bytes, lowest column first, and `row_bits` compresses them to indices.

Few wide rows are transposed without a step per bit.  `_transpose` of at
most 16 rows wider than 64 columns, with more than 8 + width/128 set bits
a row, reads each row's `_scan` bytes as an int with one byte per column,
shifts it by the row's place in its group of 8 and ORs the group
together, so byte j is column j's mask over the group; two groups
interleave into 16-bit lanes.  The threshold is close to where
`scripts/bitscan_crossover.py` measures this and the per-bit loop break
even.  The left residual of an x with k such rows, 2^k at most the width
and below popcount(x), ANDs z's rows over every subset of x's rows once
(a meet table, the "Four Russians" idea of Arlazarov, Dinic, Kronrod and
Faradzev) and reads row b at column b's mask.  Both choices read counts
the kernel has at hand (rows, width, popcount), as `compose` does, so
tiny relations keep the loops; nothing is cached.

Composition is one row loop: row a of x⨾y ORs together y's rows at the
bits of x's row a.  When y has more than 64 rows and some are empty, each
row of x is first ANDed with the mask of y's nonzero rows (`_live_rows`,
one C-level pass), so the loop lists only bits that select something, the
idea of Gustavson's sparse product ("Two fast algorithms for sparse
matrices", 1978).  At the powerset cap ⊆⨾g^* for a map g into 2^M has
4,096-bit rows of ⊆ but at most |M| nonzero rows of g^*.  A y with no
empty row, such as ⊆ in ∈⨾⊆, skips the mask, whose pass would cost more
than it saves.

Transitivity is decided without composing.  `is_transitive` visits rows
from the last to the first, so every row above row a is known closed when
row a is tested.  On 2^k > 64 points, row a first ORs together its rows at
the single-bit extensions a | 2^i (i ∉ a), all above a; when that union
lies inside row a, its bits are closed there and leave row a's todo
untested.  The rest, or the whole row when the union does not fit, tests
row b ⊆ row a for the rows b that row a reaches; once that holds for a row
b already known closed, the bits of row b need no test of their own, and
one XOR drops them with b.  On ⊆ over 2^n the union is every proper
superset, so no bit is left: n·2^(n-1) ORs and one inclusion a row, where
the walk alone peels a bit off a 2^n-bit row for each of the n·2^(n-1)
covers and x⨾x costs 3^n row ORs.  Smaller relations keep the walk alone.

The powerset encoding lives here: a subset's index in its powerset
carrier is its bitmask over the base order.  `powerset` builds the carrier
and the membership relation ∈, and `power_transpose` (Λ) turns a relation
into the set-valued map it denotes, so the constructions convert between
relations and maps into a powerset only through these two.  (The
harness's reference for ∈\\∈ builds its masks apart from this module on
purpose.)

Checking a law builds many tiny relations over few carriers, so kernel
objects are made cheap to build and compare, and every check is kept.
`Rel` and `FnMap` store their three fields in their own `__init__`: `Rel`
through its slots' setters, bound once below the class, and `FnMap` into
its `__dict__`, either way past the frozen `__setattr__` that the
generated `__init__` would call once per field.  Each then calls
`__post_init__`, still its one shape check, run once per object: it keeps
a tuple argument as is, turns a list or generator into one, and tests the
rows or image with one `min`/`max`.  `Rel` is slotted, as are the
structures' `Preorder` and morphisms: nothing is kept on them, so they
need no `__dict__` and build faster without one.  `FinSet`, `FnMap` and the
structures' `Prom` and `Representation` keep theirs, for the positions of
a carrier's labels, a map's graphs, R(p) and M(r).  Carrier checks test
identity inline before `!=` compares labels (`leq` and `eq` before their
shape check), so equal carriers built apart stay interchangeable.  Three
bounded caches hold immutable values: `finset` interns its carriers by
(name, size, prefix), `powerset` memoizes the bundle per base carrier,
checking the cap on every call, before the memo, and `subset_rows` keeps
⊆'s rows per value of ∈'s rows, which depend only on |base|: every base of
a size shares one of at most POWERSET_CAP + 1 entries.  The cap is the one
constant `POWERSET_CAP`: no construction, law or search takes a cap of its
own, so the constructions above `powerset` fail with `PowersetCapExceeded`
exactly when it does.  `clear_caches` empties all three, so that a test
that patches a kernel builder sees the patched result, not a cached one.
A map's graphs f_* and f^* are built once, into the immutable `FnMap`'s own
dict (as `cached_property` would, without the lock Python 3.11's takes on
every first read), and die with it: `clear_caches` has nothing to empty.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, count
from typing import Iterable, Iterator

#: Largest base carrier for which a powerset may be materialized (2^12 = 4096
#: subsets).  The M and R∘M constructions square the powerset carrier, so this
#: guard prevents accidental blowup.  Only `powerset` reads it.
POWERSET_CAP = 12

#: Entries kept by the `finset` and `powerset` caches.  A law search meets a
#: few dozen carriers; a powerset bundle at the cap holds about 1 MB.
_FINSET_CACHE_SIZE = 256
_POWERSET_CACHE_SIZE = 64


class CarrierMismatch(ValueError):
    """Operands live over incompatible carriers."""


class PowersetCapExceeded(ValueError):
    """A powerset construction would exceed POWERSET_CAP."""


@dataclass(frozen=True, eq=False)
class FinSet:
    """A named finite carrier with a canonical element order.

    Equal by name and labels; the identity test comes first because most
    comparisons are of a carrier with itself.
    """

    name: str
    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"duplicate labels in carrier {self.name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not FinSet:
            return NotImplemented
        return self.name == other.name and self.elements == other.elements

    def __ne__(self, other):
        if self is other:
            return False
        if other.__class__ is not FinSet:
            return NotImplemented
        return self.name != other.name or self.elements != other.elements

    def __hash__(self):
        return hash((self.name, self.elements))

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
    """Carrier of `size` elements labelled prefix0, prefix1, ...; interned."""
    return _interned_finset(name, size, name if prefix is None else prefix)


@lru_cache(maxsize=_FINSET_CACHE_SIZE)
def _interned_finset(name: str, size: int, prefix: str) -> FinSet:
    return FinSet(name, tuple(f"{prefix}{i}" for i in range(size)))


@dataclass(frozen=True, slots=True, init=False)
class Rel:
    """A binary relation src ⇸ dst as a packed bit matrix."""

    src: FinSet
    dst: FinSet
    rows: tuple[int, ...]

    def __init__(self, src: FinSet, dst: FinSet, rows: Iterable[int]):
        _set_src(self, src)
        _set_dst(self, dst)
        _set_rows(self, rows)
        self.__post_init__()

    def __post_init__(self):
        rows = self.rows
        if rows.__class__ is not tuple:
            rows = tuple(rows)
            object.__setattr__(self, "rows", rows)
        if len(rows) != len(self.src.elements):
            raise ValueError("row count does not match source carrier")
        if rows and (min(rows) < 0 or max(rows) >= 1 << len(self.dst.elements)):
            raise ValueError("row mask exceeds destination carrier")

    @classmethod
    def from_pairs(cls, src: FinSet, dst: FinSet, pairs) -> "Rel":
        """The relation holding the (a, b) label pairs given, in any order, each
        ORing in its column's bit from a table built once a call."""
        rows = [0] * len(src)
        at, bit = src._positions, dst._positions
        powers = [1 << j for j in range(len(dst.elements))]
        for a, b in pairs:
            try:
                rows[at[a]] |= powers[bit[b]]
            except (KeyError, TypeError):  # let index raise its KeyError
                src.index(a)
                dst.index(b)
                raise
        return cls(src, dst, tuple(rows))

    def pairs(self) -> list[tuple[str, str]]:
        out = []
        width = len(self.dst.elements)
        for i, row in enumerate(self.rows):
            for j in row_bits(row, width):
                out.append((self.src.elements[i], self.dst.elements[j]))
        return out

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)


# The slots' own setters, which `Rel.__init__` stores through past the frozen
# `__setattr__`.
_set_src, _set_dst, _set_rows = Rel.src.__set__, Rel.dst.__set__, Rel.rows.__set__


def _bits(mask: int) -> Iterator[int]:
    """The indices of mask's set bits, ascending, peeled off lowest first.

    Each peel is an O(width) step on the whole mask.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Turns a row's binary digits into 0/1 bytes.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _scan(row: int) -> bytes:
    """Row's binary digits as 0/1 bytes, lowest column first, from one
    C-level pass over its binary text: O(width) for the whole row.

    The only reader of a row's digits: `row_bits` compresses them to
    indices, and the lane transpose reads them as one byte per column.
    """
    return bin(row)[:1:-1].encode().translate(_DIGIT_FLAGS)


#: The set-bit indices of every byte value, ascending, from `_bits`.
_BYTE_BITS = tuple(tuple(_bits(byte)) for byte in range(256))


def row_bits(row: int, width: int) -> Iterable[int]:
    """The indices of the set bits of a row `width` columns wide, ascending.

    One of three outcomes, picked from the row's value:

    - a row below 2^8 returns its entry in `_BYTE_BITS`, with no work
      per bit;
    - a row wider than 64 columns with more than width / (8 + width/512)
      set bits (8 of 65 columns, 30 of 256, 102 of 1024 and 256 of 4096)
      is scanned (`_scan`), O(width) per row;
    - every other row is peeled (`_bits`), O(width) per set bit.

    The scan has the larger constant; its threshold is close to where
    `scripts/bitscan_crossover.py` measures the two methods break even.
    """
    if row < 256:
        return _BYTE_BITS[row]
    if width > 64 and row.bit_count() * (width + 4096) > width << 9:
        return compress(count(), _scan(row))
    return _bits(row)


def identity(a: FinSet) -> Rel:
    return Rel(a, a, tuple(1 << i for i in range(len(a))))


def full(src: FinSet, dst: FinSet) -> Rel:
    mask = (1 << len(dst)) - 1
    return Rel(src, dst, (mask,) * len(src))


def _transpose(rows, width: int) -> list[int]:
    """The columns of a matrix `width` wide, as masks over its rows.

    At most 16 rows wider than 64 columns with enough set bits (see
    `_lanes_pay`) go through `_lane_transpose`, O(width) per row; every
    other matrix ORs one bit per set bit into its column.
    """
    if len(rows) <= 16 and width > 64 and _lanes_pay(rows, width):
        return _lane_transpose(rows, width)
    return _bit_transpose(rows, width)


def _bit_transpose(rows, width: int) -> list[int]:
    """`_transpose` by one OR per set bit, listed through `row_bits`; an
    empty row is never visited."""
    out = [0] * width
    for i in compress(count(), rows):
        bit = 1 << i
        for j in row_bits(rows[i], width):
            out[j] |= bit
    return out


def _lanes_pay(rows, width: int) -> bool:
    """More than 8 + width/128 set bits a row, near where
    `scripts/bitscan_crossover.py` measures the lanes overtaking the
    per-bit loop."""
    return sum(row.bit_count() for row in rows) << 7 > len(rows) * (width + 1024)


def _lane_transpose(rows, width: int) -> list[int]:
    """`_transpose` of 1..16 rows in byte lanes, one C-level pass per row.

    `_scan` turns row k of a group of 8 into an int whose byte j is its
    digit in column j; shifted by k and ORed together, byte j of the group
    is column j's mask over those rows.  Two groups interleave into 16-bit
    lanes.
    """
    lanes = []
    for start in range(0, len(rows), 8):
        acc = 0
        for k, row in enumerate(rows[start:start + 8]):
            if row:
                acc |= int.from_bytes(_scan(row), "little") << k
        lanes.append(acc.to_bytes(width, "little"))
    if len(lanes) == 1:
        return list(lanes[0])
    low, high = lanes if sys.byteorder == "little" else lanes[::-1]
    words = bytearray(2 * width)
    words[0::2], words[1::2] = low, high
    return memoryview(words).cast("H").tolist()


def converse(x: Rel) -> Rel:
    return Rel(x.dst, x.src, tuple(_transpose(x.rows, len(x.dst.elements))))


def compose(x: Rel, y: Rel) -> Rel:
    """Sequential composition x⨾y: (a,c) iff some b with (a,b)∈x, (b,c)∈y.

    Row a is the OR of y's rows at the bits of x's row a, listed through
    `row_bits` unless the row is empty.  When y has more than 64 rows and
    some of them are empty, x's row is first ANDed with the mask of y's
    nonzero rows, so a bit that selects an empty row of y is never listed;
    otherwise the row is listed as it is.
    """
    if x.dst is not y.src and x.dst != y.src:
        raise CarrierMismatch(f"cannot compose {x.dst.name} with {y.src.name}")
    xrows, yrows = x.rows, y.rows
    width = len(yrows)  # x.dst is y.src
    if width > 64 and not all(yrows):
        xrows = map(_live_rows(yrows).__and__, xrows)
    rows = []
    for row in xrows:
        acc = 0
        if row:
            for j in row_bits(row, width):
                acc |= yrows[j]
        rows.append(acc)
    return Rel(x.src, y.dst, tuple(rows))


#: Turns 0/1 bytes into binary digits, the inverse of `_DIGIT_FLAGS`.
_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _live_rows(rows) -> int:
    """The mask with bit i set iff rows[i] is nonzero, from one C-level
    pass over the rows; `rows` must not be empty."""
    return int(bytes(map(bool, rows)).translate(_FLAG_DIGITS)[::-1], 2)


def _require_same_shape(x: Rel, y: Rel):
    if x.src != y.src or x.dst != y.dst:
        raise CarrierMismatch(
            f"relations over {x.src.name}⇸{x.dst.name} and "
            f"{y.src.name}⇸{y.dst.name} are not comparable"
        )


def leq(x: Rel, y: Rel) -> bool:
    """Set inclusion x ≤ y.  Comparing across carriers is an error, not False."""
    if x.src is not y.src or x.dst is not y.dst:
        _require_same_shape(x, y)
    return all(rx & ~ry == 0 for rx, ry in zip(x.rows, y.rows))


def is_transitive(x: Rel) -> bool:
    """x⨾x ≤ x for a square x, without building x⨾x.

    Rows are visited in descending index order, so every row b > a is
    already known closed when row a is tested.  On 2^k > 64 points, row a
    ORs together its rows at a | 2^i for each bit i not in a; if that union
    is inside row a, its bits are closed in row a and are dropped untested.
    Then row a tests the rows b it still reaches, lowest first, with
    rows[b] ⊆ rows[a]; when that holds for a closed row b, every bit of row
    b is closed inside row a as well and is dropped untested, in the one
    XOR that drops b.  Row a's own bit needs no test.  On ⊆ over 2^n the
    union leaves nothing to test: n·2^(n-1) ORs and 2^n inclusions, where
    the walk alone tests the n·2^(n-1) covers and x⨾x takes 3^n ORs.
    """
    if x.src is not x.dst and x.src != x.dst:
        raise CarrierMismatch("transitivity needs a square relation")
    rows = x.rows
    n = len(rows)
    extensions = [1 << i for i in range(n.bit_length() - 1)] if n > 64 and not n & n - 1 else ()
    for a in range(n - 1, -1, -1):
        row = rest = rows[a]
        if extensions:
            above = 0
            for bit in extensions:
                if not a & bit:
                    above |= rows[a | bit]
            if above | row == row:
                rest = row ^ above
        todo = rest & ~(1 << a)
        while todo:
            low = todo & -todo
            b = low.bit_length() - 1
            rb = rows[b]
            if rb | row != row:
                return False
            if b > a:
                todo ^= (todo & rb) | low
            else:
                todo ^= low
    return True


def eq(x: Rel, y: Rel) -> bool:
    if x.src is not y.src or x.dst is not y.dst:
        _require_same_shape(x, y)
    return x.rows == y.rows


def left_residual(x: Rel, z: Rel) -> Rel:
    """x\\z over B⇸C: (b,c) iff for all a, (a,b)∈x implies (a,c)∈z.

    Row b is the AND of z's rows at the a with (a,b)∈x.  With k rows of x
    at most 16, wider than 64 columns and 2^k ≤ width, and fewer than
    popcount(x) subsets of them, a meet table is cheaper: entry S is the
    AND of z's rows over the subset S of x's rows, built once in 2^k - 1
    ANDs, and row b is the entry at column b of x read as a mask (∈\\∈ over
    2^12: 4,096 ANDs, where one per pair of ∈ is 24,576).  The table has no
    more entries than the result has rows.  Otherwise the loop costs one
    AND per pair of x, listed through `row_bits` from x's nonempty rows.
    An empty source carrier makes the universal vacuous: the result is full.
    """
    if x.src is not z.src and x.src != z.src:
        raise CarrierMismatch(f"residual sources differ: {x.src.name} vs {z.src.name}")
    full_c = (1 << len(z.dst.elements)) - 1
    width = len(x.dst.elements)
    k = len(x.rows)
    if width > 64 and k <= 16 and 1 << k <= width and 1 << k < x.count():
        meets = _meet_table(z.rows, full_c)
        return Rel(x.dst, z.dst, tuple(map(meets.__getitem__, _transpose(x.rows, width))))
    rows = [full_c] * width
    for xr, zr in compress(zip(x.rows, z.rows), x.rows):
        for j in row_bits(xr, width):
            rows[j] &= zr
    return Rel(x.dst, z.dst, tuple(rows))


def _meet_table(rows, top: int) -> list[int]:
    """Entry S, for every mask S over `rows`: the AND of top and rows[i]
    for each bit i of S, in one AND per entry."""
    meets = [top]
    for row in rows:
        meets += [meet & row for meet in meets]
    return meets


def right_residual(z: Rel, y: Rel) -> Rel:
    """z/y over A⇸B: largest x with x⨾y ≤ z."""
    if z.dst != y.dst:
        raise CarrierMismatch(f"residual targets differ: {z.dst.name} vs {y.dst.name}")
    return converse(left_residual(converse(y), converse(z)))


@dataclass(frozen=True, init=False)
class FnMap:
    """A total function src → dst, stored as destination indices."""

    src: FinSet
    dst: FinSet
    image: tuple[int, ...]

    def __init__(self, src: FinSet, dst: FinSet, image: Iterable[int]):
        fields = self.__dict__
        fields["src"] = src
        fields["dst"] = dst
        fields["image"] = image
        self.__post_init__()

    def __post_init__(self):
        image = self.image
        if image.__class__ is not tuple:
            image = tuple(image)
            object.__setattr__(self, "image", image)
        if len(image) != len(self.src.elements):
            raise ValueError("function is not total on its source")
        if image and (min(image) < 0 or max(image) >= len(self.dst.elements)):
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
    """The graph of f: pairs (a, f(a)), built once per map."""
    g = f.__dict__.get("graph_lower")
    if g is None:
        g = f.__dict__["graph_lower"] = Rel(f.src, f.dst, tuple(1 << i for i in f.image))
    return g


def graph_upper(f: FnMap) -> Rel:
    """Converse of the graph: pairs (f(a), a), built once per map."""
    g = f.__dict__.get("graph_upper")
    if g is None:
        rows = [0] * len(f.dst)
        for a, i in enumerate(f.image):
            rows[i] |= 1 << a
        g = f.__dict__["graph_upper"] = Rel(f.dst, f.src, tuple(rows))
    return g


@dataclass(frozen=True)
class PowersetBundle:
    """A base carrier, the carrier of all its subsets, and the membership relation."""

    base: FinSet
    carrier: FinSet
    mem: Rel  # base ⇸ carrier


def subset_labels(base: FinSet) -> tuple[str, ...]:
    """The label of every subset of `base` in bitmask order, `{a,b}` in base order.

    An element label that is empty or contains one of ,{}" is written as a
    JSON string, so that no two subsets print alike.
    """
    inner = [""]
    for label in base.elements:
        if not label or any(c in label for c in ',{}"'):
            label = json.dumps(label, ensure_ascii=False)
        inner += [f"{s},{label}" if s else label for s in inner]
    return tuple(f"{{{s}}}" for s in inner)


def powerset(base: FinSet) -> PowersetBundle:
    """All subsets of `base`, ordered by ascending bitmask over the base order.

    The index of a subset in the carrier equals its bitmask.  POWERSET_CAP
    is checked on every call; the bundle is built once per base carrier.
    """
    n = len(base.elements)
    if n > POWERSET_CAP:
        raise PowersetCapExceeded(f"|{base.name}| = {n} exceeds powerset cap {POWERSET_CAP}")
    return _cached_powerset(base)


@lru_cache(maxsize=_POWERSET_CACHE_SIZE)
def _cached_powerset(base: FinSet) -> PowersetBundle:
    return _build_powerset(base)


def _build_powerset(base: FinSet) -> PowersetBundle:
    n = len(base.elements)
    carrier = FinSet(f"2^{base.name}", subset_labels(base))
    rows = [0] * n
    for m in range(1 << n):
        for i in _bits(m):
            rows[i] |= 1 << m
    return PowersetBundle(base, carrier, Rel(base, carrier, tuple(rows)))


_SUBSET_ROWS: dict[tuple[int, ...], tuple[int, ...]] = {}  # ∈'s rows ↦ ⊆'s


def subset_rows(mem: Rel) -> tuple[int, ...]:
    """The rows of ∈\\∈, the subset order on mem's powerset, built by
    `left_residual` once per value of mem.rows: one per size of a correct ∈,
    so the memo starts again empty only past POWERSET_CAP + 1 entries."""
    rows = _SUBSET_ROWS.get(mem.rows)
    if rows is None:
        if len(_SUBSET_ROWS) > POWERSET_CAP:
            _SUBSET_ROWS.clear()
        rows = _SUBSET_ROWS[mem.rows] = left_residual(mem, mem).rows
    return rows


def clear_caches() -> None:
    """Empty the `finset`, `powerset` and `subset_rows` caches."""
    _interned_finset.cache_clear()
    _cached_powerset.cache_clear()
    _SUBSET_ROWS.clear()


def power_transpose(x: Rel, mem: Rel) -> FnMap:
    """Λx: x.dst → 2^(x.src), b ↦ {a | (a,b)∈x}; the unique f with ∈⨾f^* = x.

    `mem` is the membership relation of x.src's powerset.  Column b of x,
    read as a mask over x.src, is the carrier index of Λx(b).
    """
    if mem.src != x.src:
        raise CarrierMismatch(f"membership over {mem.src.name} cannot transpose {x.src.name}")
    return FnMap(x.dst, mem.dst, _transpose(x.rows, len(x.dst)))


def pullback(y: Rel, f: FnMap) -> Rel:
    """f_*⨾y⨾f^*: (a,a') iff (f(a),f(a'))∈y; row a is row f(a) of y⨾f^*."""
    if f.dst != y.src:
        raise CarrierMismatch(f"cannot compose {f.dst.name} with {y.src.name}")
    rows = compose(y, graph_upper(f)).rows
    return Rel(f.src, f.src, tuple(rows[i] for i in f.image))

