"""Kernel tests: operator semantics against independent pointwise oracles,
plus hypothesis property tests for the algebraic laws."""

import dataclasses
import inspect
import pickle
import random
import sys
import textwrap
import threading
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import promrep.rel as rel_module
from promrep import (
    CarrierMismatch,
    FinSet,
    FnMap,
    POWERSET_CAP,
    PowersetCapExceeded,
    Rel,
    clear_caches,
    compose,
    converse,
    eq,
    finset,
    full,
    graph_lower,
    graph_upper,
    identity,
    identity_map,
    is_transitive,
    left_residual,
    leq,
    power_transpose,
    powerset,
    pullback,
    right_residual,
)
from promrep.structures import check_preorder, preorder_closure

A1 = finset("A", 1, "a")
A2 = finset("A", 2, "a")
B2 = finset("B", 2, "b")
C1 = finset("C", 1, "c")


def rel(src, dst, *pairs):
    return Rel.from_pairs(src, dst, pairs)


# --- pointwise oracles ------------------------------------------------------

def oracle_compose(x: Rel, y: Rel) -> set:
    xp, yp = set(x.pairs()), set(y.pairs())
    return {
        (a, c)
        for a in x.src
        for c in y.dst
        if any((a, b) in xp and (b, c) in yp for b in x.dst)
    }


def oracle_left_residual(x: Rel, z: Rel) -> set:
    xp, zp = set(x.pairs()), set(z.pairs())
    return {
        (b, c)
        for b in x.dst
        for c in z.dst
        if all((a, c) in zp for a in x.src if (a, b) in xp)
    }


def oracle_right_residual(z: Rel, y: Rel) -> set:
    zp, yp = set(z.pairs()), set(y.pairs())
    return {
        (a, b)
        for a in z.src
        for b in y.src
        if all((a, c) in zp for c in y.dst if (b, c) in yp)
    }


# --- carriers ---------------------------------------------------------------

def test_finset_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        FinSet("A", ("a0", "a0"))


def test_finset_index_positions():
    A = finset("A", 5, "a")
    assert [A.index(label) for label in A] == list(range(5))
    assert A.index("a3") == 3  # cached positions answer repeated lookups


@pytest.mark.parametrize("label", ["z", "", 0, None, ("a0",), {}, [], {"a0"}])
def test_finset_index_non_member_is_key_error(label):
    with pytest.raises(KeyError):
        A2.index(label)


@pytest.mark.parametrize(
    "pair, message",
    [
        (("z", "b0"), "'z' is not an element of 'A'"),
        (("a1", "z"), "'z' is not an element of 'B'"),
        (("z", "y"), "'z' is not an element of 'A'"),
        ((["a0"], "b0"), "['a0'] is not an element of 'A'"),
        (("a0", {}), "{} is not an element of 'B'"),
    ],
    ids=["source", "destination", "both", "unhashable-source", "unhashable-destination"],
)
def test_from_pairs_names_the_first_non_member(pair, message):
    with pytest.raises(KeyError) as exc:
        Rel.from_pairs(A2, B2, [("a0", "b1"), pair])
    assert exc.value.args == (message,)


@pytest.mark.parametrize(
    "dst, pairs, rows, bad, message",
    [
        (B2, [("a0", "b1"), ("a1", "b0"), ("a0", "b1"), ("a1", "b0")], (0b10, 0b01),
         ("a1", "b2"), "'b2' is not an element of 'B'"),
        (B2, [("a1", "b1"), ("a0", "b1"), ("a1", "b0"), ("a0", "b0")], (0b11, 0b11),
         ("a2", "b0"), "'a2' is not an element of 'A'"),
        (finset("B", 0, "b"), [], (0, 0), ("a0", "b0"), "'b0' is not an element of 'B'"),
        (finset("W", 65, "w"), [("a1", "w64"), ("a0", "w0"), ("a1", "w63"), ("a0", "w64")],
         (1 | 1 << 64, 1 << 63 | 1 << 64), ("a0", "w65"), "'w65' is not an element of 'W'"),
    ],
    ids=["duplicated", "out-of-order", "empty-destination", "65-columns"],
)
def test_from_pairs_rows_and_errors(dst, pairs, rows, bad, message):
    """The rows and error texts `from_pairs` has always given, whatever the
    pairs' order, repeats or the destination's width."""
    assert Rel.from_pairs(A2, dst, pairs).rows == rows
    with pytest.raises(KeyError) as exc:
        Rel.from_pairs(A2, dst, [*pairs, bad])
    assert exc.value.args == (message,)


def test_finset_positions_stay_out_of_equality():
    a, b = FinSet("A", ("a0", "a1")), FinSet("A", ("a0", "a1"))
    a.index("a1")
    assert a == b and hash(a) == hash(b)


def test_equal_carriers_built_apart_are_interchangeable():
    a, b = FinSet("A", ("a0", "a1")), FinSet("A", ["a0", "a1"])
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert {a: 1}[b] == 1 and len({a, b}) == 1
    assert compose(identity(a), identity(b)).rows == (1, 2)
    assert FinSet("A", ("a0",)) != FinSet("B", ("a0",)) != FinSet("B", ("b0",))


@pytest.mark.parametrize(
    "a, b",
    [
        (A2, A2),
        (FinSet("A", ("a0", "a1")), FinSet("A", ["a0", "a1"])),
        (FinSet("A", ("a0",)), FinSet("B", ("a0",))),
        (FinSet("A", ("a0",)), FinSet("A", ("a1",))),
        (A2, ("A", ("a0", "a1"))),
        (A2, "A"),
    ],
    ids=["same-object", "built-apart", "other-name", "other-labels", "tuple", "str"],
)
def test_finset_inequality_is_the_negated_equality(a, b):
    assert (a != b) is (not (a == b))
    assert (b != a) is (not (b == a))


def test_finset_is_not_equal_to_other_types():
    assert (FinSet("x", ()) == "x") is False
    assert (A1 == ("A", ("a0",))) is False


def test_finset_is_interned():
    assert finset("A", 3, "a") is finset("A", 3, "a")
    assert finset("A", 3) is finset("A", 3, "A")
    assert finset("A", 3, "a") is not finset("A", 2, "a")


# --- validation --------------------------------------------------------------

@pytest.mark.parametrize(
    "src, dst, rows, message",
    [
        (A2, B2, (1,), "row count does not match source carrier"),
        (A2, B2, (1, 2, 3), "row count does not match source carrier"),
        (A2, B2, (1, -1), "row mask exceeds destination carrier"),
        (A2, B2, (4, 1), "row mask exceeds destination carrier"),
        (A1, finset("E", 0), (1,), "row mask exceeds destination carrier"),
    ],
    ids=["short", "long", "negative", "bit-at-width", "empty-destination"],
)
def test_rel_rejects_malformed_rows(src, dst, rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Rel(src, dst, rows)


@pytest.mark.parametrize(
    "value, field, bad, message",
    [
        (Rel(A2, B2, (1, 3)), "rows", (1,), "row count does not match source carrier"),
        (Rel(A2, B2, (1, 3)), "rows", [4, 1], "row mask exceeds destination carrier"),
        (Rel(A2, B2, (1, 3)), "dst", A1, "row mask exceeds destination carrier"),
        (FnMap(A2, B2, (1, 0)), "image", (0,), "function is not total on its source"),
        (FnMap(A2, B2, (1, 0)), "dst", A1, "image index outside destination carrier"),
    ],
    ids=["rel-rows-short", "rel-rows-list-wide", "rel-dst", "fnmap-image", "fnmap-dst"],
)
def test_replace_runs_the_constructors_shape_check(value, field, bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        type(value)(**{**{f.name: getattr(value, f.name) for f in dataclasses.fields(value)}, field: bad})
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(value, **{field: bad})


@pytest.mark.parametrize("cls, last, value", [(Rel, "rows", (1, 3)), (FnMap, "image", (1, 0))])
def test_rel_and_fnmap_are_plain_frozen_dataclasses(cls, last, value):
    """They build by keyword, list and match their three fields in order, and
    refuse to assign or delete a field, as the generated dataclass would."""
    names = ("src", "dst", last)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names == cls.__match_args__
    assert all(f.init and f.repr and f.compare and f.hash is None for f in dataclasses.fields(cls))
    built = cls(**dict(zip(names, (A2, B2, list(value)))))
    assert built == cls(A2, B2, value) and getattr(built, last) == value
    match built:
        case cls(src, dst, held):
            assert (src, dst, held) == (A2, B2, value)
        case _:
            pytest.fail("positional class pattern did not match")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, getattr(built, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(built, name)
    assert built == cls(A2, B2, value)


@pytest.mark.parametrize(
    "image, message",
    [
        ((0,), "function is not total on its source"),
        ((0, -1), "image index outside destination carrier"),
        ((2, 0), "image index outside destination carrier"),
    ],
    ids=["short", "negative", "index-at-size"],
)
def test_fnmap_rejects_malformed_image(image, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FnMap(A2, B2, image)


def test_rows_and_images_are_stored_as_tuples():
    rows = (1, 3)  # a list never equals a tuple, so == checks the type too
    assert Rel(A2, B2, rows).rows is rows
    assert Rel(A2, B2, [1, 3]).rows == rows and Rel(A2, B2, (r for r in rows)).rows == rows
    assert FnMap(A2, B2, [1, 0]).image == (1, 0) and FnMap(A2, B2, iter((1, 0))).image == (1, 0)
    assert Rel(A1, finset("E", 0), [0]).rows == (0,)


def test_empty_carrier_is_legal():
    E = finset("E", 0)
    assert len(E) == 0
    assert identity(E).rows == ()


# --- identity / converse ----------------------------------------------------

def test_identity_singleton():
    assert identity(A1).pairs() == [("a0", "a0")]


def test_identity_two_points():
    assert set(identity(A2).pairs()) == {("a0", "a0"), ("a1", "a1")}


def test_converse_single_pair():
    assert converse(rel(A2, B2, ("a0", "b1"))).pairs() == [("b1", "a0")]


def test_converse_identity_fixed():
    assert eq(converse(identity(A2)), identity(A2))


def test_converse_transpose():
    x = rel(A2, B2, ("a0", "b0"), ("a1", "b0"))
    assert set(converse(x).pairs()) == {("b0", "a0"), ("b0", "a1")}


# --- compose ----------------------------------------------------------------

def test_compose_single_chain():
    x = rel(A1, B2, ("a0", "b0"))
    y = rel(B2, C1, ("b0", "c0"))
    assert compose(x, y).pairs() == [("a0", "c0")]


def test_compose_left_unit():
    x = rel(A2, B2, ("a0", "b1"), ("a1", "b0"))
    assert eq(compose(identity(A2), x), x)


def test_compose_matches_witness_search():
    x = rel(A1, B2, ("a0", "b0"), ("a0", "b1"))
    y = rel(B2, C1, ("b1", "c0"))
    got = compose(x, y)
    assert set(got.pairs()) == oracle_compose(x, y) == {("a0", "c0")}


def pairs_compose(x: Rel, y: Rel) -> set:
    """Composition from the pair lists alone, independent of compose's loop."""
    after = {}
    for b, c in y.pairs():
        after.setdefault(b, []).append(c)
    return {(a, c) for a, b in x.pairs() for c in after.get(b, ())}


def random_rows(rng, src, dst, density):
    return Rel(src, dst, tuple(
        sum(1 << j for j in range(len(dst)) if rng.random() < density) for _ in src
    ))


def compose_recording_path(monkeypatch, x, y):
    """compose(x, y), and "masked" if it read y's live-row mask, else "unmasked"."""
    used = []
    live_rows = rel_module._live_rows

    def spy(rows):
        used.append(rows)
        return live_rows(rows)

    monkeypatch.setattr(rel_module, "_live_rows", spy)
    got = compose(x, y)
    return got, ("masked" if used else "unmasked")


def rows_with_zeros(rng, src, dst, zero_rows):
    """Random rows in which "some" (every third row), "none" or "all" are zero."""
    rel = random_rows(rng, src, dst, 0.4)
    rows = []
    for i, row in enumerate(rel.rows):
        if zero_rows == "all" or zero_rows == "some" and i % 3 == 0:
            row = 0
        elif not row:
            row = 1 << rng.randrange(len(dst))
        rows.append(row)
    return Rel(src, dst, tuple(rows))


@pytest.mark.parametrize(
    "rows, middle, cols, zero_rows",
    [(100, middle, 4, zero_rows) for middle in (8, 64, 65, 200, 4096) for zero_rows in ("some", "none", "all")]
    + [
        (100, 200, 0, "all"),  # an empty target: every row of y is zero
        (100, 200, 1, "some"),
        (100, 200, 12, "some"),
        (100, 200, 300, "some"),
        (64, 200, 1, "some"),
        (0, 200, 4, "some"),
        (100, 0, 4, "none"),
        (0, 0, 0, "none"),
    ],
)
def test_compose_masked_and_unmasked_match_pairs(monkeypatch, rows, middle, cols, zero_rows):
    """compose masks x's rows with y's nonzero rows exactly when y has more
    than 64 rows and some are zero; both paths must give the pair oracle's
    bits.  x's rows hold about three bits, so that a mask losing one of y's
    rows changes the result."""
    rng = random.Random(rows * 1000 + middle + cols)
    A, B, C = finset("A", rows, "a"), finset("B", middle, "b"), finset("C", cols, "c")
    x = random_rows(rng, A, B, min(0.5, 3 / max(middle, 1)))
    y = rows_with_zeros(rng, B, C, zero_rows)
    zeros = y.rows.count(0)
    assert zeros == {"some": (middle + 2) // 3, "none": 0, "all": middle}[zero_rows]
    got, used = compose_recording_path(monkeypatch, x, y)
    assert used == ("masked" if middle > 64 and zeros else "unmasked")
    assert got.rows == Rel.from_pairs(A, C, pairs_compose(x, y)).rows


@pytest.mark.parametrize("cols", [1, 4, 12])
def test_compose_subset_order_into_narrow_target(monkeypatch, cols):
    """The tall, narrow shape of the powerset constructions: ⊆ on 2^8 ⨾ 2^8 ⇸ C,
    with most rows of the right operand zero."""
    bundle = powerset(finset("M", 8, "m"))
    subset = left_residual(bundle.mem, bundle.mem)
    tau = random_rows(random.Random(cols), bundle.carrier, finset("C", cols, "c"), 0.02)
    assert 0 < tau.rows.count(0) < len(tau.rows)
    got, used = compose_recording_path(monkeypatch, subset, tau)
    assert used == "masked"
    assert set(got.pairs()) == pairs_compose(subset, tau)


def test_live_rows_mask_marks_nonzero_rows():
    rng = random.Random(7)
    for n in (1, 2, 8, 65, 300):
        rows = [rng.choice((0, 0, 1, 5, 1 << 70)) for _ in range(n)]
        assert rel_module._live_rows(rows) == sum(1 << i for i, row in enumerate(rows) if row)


#: Each kernel carrier check, called with carriers a and b that must be
#: equal, and its CarrierMismatch message when b differs (b's name is {b}).
CARRIER_CHECKS = {
    "compose": (lambda a, b: compose(identity(a), identity(b)), "cannot compose A with {b}"),
    "left_residual": (
        lambda a, b: left_residual(identity(a), identity(b)), "residual sources differ: A vs {b}"
    ),
    "right_residual": (
        lambda a, b: right_residual(identity(a), identity(b)), "residual targets differ: A vs {b}"
    ),
    "leq": (lambda a, b: leq(identity(a), identity(b)), "relations over A⇸A and {b}⇸{b} are not comparable"),
    "eq": (lambda a, b: eq(identity(a), identity(b)), "relations over A⇸A and {b}⇸{b} are not comparable"),
    "is_transitive": (lambda a, b: is_transitive(Rel(a, b, (1, 2))), "transitivity needs a square relation"),
    "check_preorder": (lambda a, b: check_preorder(Rel(a, b, (1, 2))), "a preorder must be a square relation"),
}


@pytest.mark.parametrize("name", CARRIER_CHECKS)
def test_carrier_checks_accept_equal_carriers_built_apart(name):
    """Identity is tested first, but equal labels still match and others
    still raise the same CarrierMismatch."""
    call, message = CARRIER_CHECKS[name]
    a = FinSet("A", ("a0", "a1"))
    assert call(a, FinSet("A", ["a0", "a1"])) == call(a, a)
    for b in (FinSet("Z", ("a0", "a1")), FinSet("A", ("a1", "a0"))):
        with pytest.raises(CarrierMismatch) as exc:
            call(a, b)
        assert str(exc.value) == message.format(b=b.name)


def test_compose_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        compose(rel(A2, B2), rel(A2, B2))


# --- wide rows: peeled or scanned -------------------------------------------
#
# The oracles below work on sets of index pairs, and the relations are built
# from those sets by shifts alone, so no part of the check lists a row's bits
# through rel.py.

def rel_of(src, dst, pairs) -> Rel:
    rows = [0] * len(src)
    for i, j in pairs:
        rows[i] |= 1 << j
    return Rel(src, dst, tuple(rows))


def wide_pairs(rng, n, width) -> set:
    """n rows `width` wide: empty, full, top bit only, then dense and sparse
    random rows in turn."""
    rows = [(), range(width), (width - 1,)]
    while len(rows) < n:
        density = 0.5 if len(rows) % 2 else 0.02
        rows.append([j for j in range(width) if rng.random() < density])
    return {(i, j) for i, row in enumerate(rows) for j in row}


def random_pairs(rng, n, width, density=0.3) -> set:
    return {(i, j) for i in range(n) for j in range(width) if rng.random() < density}


def index_compose(xs: set, ys: set) -> set:
    after = {}
    for b, c in ys:
        after.setdefault(b, []).append(c)
    return {(a, c) for a, b in xs for c in after.get(b, ())}


def bit_paths_recording(monkeypatch) -> set:
    """Record in the returned set which of row_bits' two methods run;
    a row read from the byte table records neither."""
    used = set()
    for name, path in (("_bits", "peel"), ("_scan", "scan")):
        def spy(row, real=getattr(rel_module, name), path=path):
            used.add(path)
            return real(row)

        monkeypatch.setattr(rel_module, name, spy)
    return used


@pytest.mark.parametrize("width", [8, 63, 64, 65, 128, 4096])
def test_wide_rows_match_pair_oracles(monkeypatch, width):
    """Every kernel loop over rows `width` wide against an index-pair oracle.

    Rows of more than 64 columns must run both sides of the per-row choice
    (the top-bit and sparse rows peel; the full and dense rows scan),
    except in a transpose of at most 16 such rows, which reads every
    nonempty row through `_scan` into byte lanes: the left residual of x
    (through its meet table), the right residual, the converse and Λ.
    The 17 rows of u transpose bit by bit.  Above 64 columns y has more
    than 64 rows, some empty, so x⨾y lists x's rows masked with y's
    nonzero rows; q⨾x lists only q's 6-column rows, from the byte table.
    Rows of 63 and 64 columns that reach 2^8 are peeled and never scanned,
    and rows 8 columns wide all read the byte table, so neither method runs.
    """
    rng = random.Random(width)
    A, D, C, E = finset("A", 6, "a"), finset("D", 6, "d"), finset("C", 5, "c"), finset("E", 17, "e")
    W = finset("W", width, "w")
    X, V, U = wide_pairs(rng, 6, width), wide_pairs(rng, 6, width), wide_pairs(rng, 17, width)
    Y, Z, Q = random_pairs(rng, width, 5), random_pairs(rng, 6, 5), random_pairs(rng, 6, 6)
    ZU = random_pairs(rng, 17, 5)
    x, v, y, z, q = rel_of(A, W, X), rel_of(D, W, V), rel_of(W, C, Y), rel_of(A, C, Z), rel_of(D, A, Q)
    u, zu = rel_of(E, W, U), rel_of(E, C, ZU)
    powerset(A)  # built before the spies: Λ reads it, and building it peels its own masks
    paths = {"peel", "scan"} if width > 64 else {"peel"} if width > 8 else set()
    lanes = {"scan"} if width > 64 else paths
    used = bit_paths_recording(monkeypatch)

    def check(run, expected, expected_paths=paths):
        used.clear()
        assert run() == expected
        assert used == expected_paths

    def residual(xs, zs, n):
        return {(b, c) for b in range(width) for c in range(5)
                if all((a, c) in zs for a in range(n) if (a, b) in xs)}

    masked = "masked" if width > 64 else "unmasked"
    check(lambda: compose_recording_path(monkeypatch, x, y), (rel_of(A, C, index_compose(X, Y)), masked))
    check(lambda: compose(q, x).rows, rel_of(D, W, index_compose(Q, X)).rows, set())
    check(lambda: left_residual(x, z).rows, rel_of(W, C, residual(X, Z, 6)).rows, lanes)
    check(lambda: left_residual(u, zu).rows, rel_of(W, C, residual(U, ZU, 17)).rows)
    check(lambda: right_residual(x, v).rows, rel_of(A, D, {
        (a, d) for a in range(6) for d in range(6)
        if all((a, c) in X for c in range(width) if (d, c) in V)
    }).rows, lanes)
    check(lambda: converse(x).rows, rel_of(W, A, {(b, a) for a, b in X}).rows, lanes)
    check(lambda: converse(u).rows, rel_of(W, E, {(b, a) for a, b in U}).rows)
    check(lambda: power_transpose(x).image,
          tuple(sum(1 << a for a in range(6) if (a, b) in X) for b in range(width)), lanes)
    check(lambda: x.pairs(), [(f"a{a}", f"w{b}") for a, b in sorted(X)])


@pytest.mark.parametrize("n", [3, 7, 8, 9, 16])
def test_lane_transpose_and_meet_table_match_pair_oracles(n):
    """One and two byte-lane groups, the meet table at 2^n ≤ width, and
    the residual loop where 2^n > width."""
    rng = random.Random(n)
    A, C = finset("A", n, "a"), finset("C", 5, "c")
    for width in (65, 600):
        X, Z = wide_pairs(rng, n, width), random_pairs(rng, n, 5, 0.8)
        x, z = rel_of(A, finset("W", width, "w"), X), rel_of(A, C, Z)
        columns = [sum(1 << a for a in range(n) if (a, b) in X) for b in range(width)]
        assert rel_module._lane_transpose(x.rows, width) == columns
        assert left_residual(x, z).rows == tuple(
            sum(1 << c for c in range(5) if all((a, c) in Z for a in range(n) if (a, b) in X))
            for b in range(width)
        )


def test_row_bits_table_matches_shift_oracle():
    for row in range(256):
        for width in (8, 64, 65, 4096):
            assert list(rel_module.row_bits(row, width)) == [j for j in range(8) if row >> j & 1]


# --- inclusion --------------------------------------------------------------

def test_empty_below_everything():
    x = rel(A2, B2, ("a0", "b0"))
    assert leq(rel(A2, B2), x)


def test_leq_reflexive():
    x = rel(A2, B2, ("a1", "b1"))
    assert leq(x, x)


def test_leq_missing_pair():
    assert not leq(rel(A2, B2, ("a0", "b0"), ("a1", "b1")), rel(A2, B2, ("a0", "b0")))


def test_leq_cross_carrier_is_error():
    with pytest.raises(CarrierMismatch):
        leq(rel(A2, B2), rel(B2, A2))


# --- transitivity -----------------------------------------------------------

def test_is_transitive_matches_composition_on_every_small_relation(small_square_relations):
    verdicts = set()
    for x in small_square_relations:
        want = leq(compose(x, x), x)
        assert is_transitive(x) == want, x.rows
        verdicts.add(want)
    assert verdicts == {True, False}


def test_is_transitive_matches_composition_on_near_preorders(near_preorders):
    verdicts = [leq(compose(x, x), x) for x in near_preorders]
    assert [is_transitive(x) for x in near_preorders] == verdicts
    assert 0 < verdicts.count(False) < len(verdicts) // 2


@pytest.mark.parametrize("n", [0, 1, 4, 7, 8, 9, 12])
def test_is_transitive_on_subset_order(n):
    bundle = powerset(finset("M", n, "m"))
    subset = left_residual(bundle.mem, bundle.mem)
    assert is_transitive(subset)
    # without ({}, M), transitivity fails once a subset lies strictly between
    rows = (subset.rows[0] & ~(1 << (1 << n) - 1),) + subset.rows[1:]
    assert is_transitive(Rel(subset.src, subset.dst, rows)) == (n < 2)


def _toggled(x, pairs):
    rows = list(x.rows)
    for a, b in pairs:
        rows[a] ^= 1 << b
    return Rel(x.src, x.dst, tuple(rows))


def _relabelled(x, perm):
    """x with point i renamed perm[i], on the same carrier."""
    rows = [0] * len(perm)
    for a, row in enumerate(x.rows):
        rows[perm[a]] = sum(1 << perm[b] for b in range(len(perm)) if row >> b & 1)
    return Rel(x.src, x.dst, tuple(rows))


def _pinned_subset_order_plus_pair():
    """⊆ over 2^7 plus ({m0}, {m1}): not transitive, as ({m0}, {m1,m2}) is
    missing, and row {m0}'s extensions all lie inside it."""
    bundle = powerset(finset("M", 7, "m"))
    return _toggled(left_residual(bundle.mem, bundle.mem), [(1, 2)])


@pytest.fixture(scope="module")
def wide_transitivity_cases():
    """Relations on 128 and 256 points, the first sizes where `is_transitive`
    ORs each row's single-bit extensions, each with its verdict by
    composition: ⊆ with 1-3 toggled pairs; closures of ⊆ plus one pair; ⊆
    relabelled at random, so the union misses and the whole row is walked,
    as is and with one toggled pair; sparse random relations, their
    closures, and those closures with one toggled pair."""
    rng = random.Random(20261020)
    cases = [_pinned_subset_order_plus_pair()]
    for k in (7, 8):
        n = 1 << k
        bundle = powerset(finset("M", k, "m"))
        subset = left_residual(bundle.mem, bundle.mem)
        outside = [(a, b) for a, row in enumerate(subset.rows) for b in range(n) if not row >> b & 1]

        def pairs(count):
            return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]

        for _ in range(8):
            cases.append(_toggled(subset, pairs(rng.randint(1, 3))))
            cases.append(preorder_closure(_toggled(subset, [rng.choice(outside)])).rel)
            relabelled = _relabelled(subset, rng.sample(range(n), n))
            cases += [relabelled, _toggled(relabelled, pairs(1))]
            sparse = Rel(subset.src, subset.dst, tuple(sum(1 << b for b in rng.sample(range(n), 2)) for _ in range(n)))
            closed = preorder_closure(sparse).rel
            cases += [sparse, closed, _toggled(closed, pairs(1))]
    return [(x, leq(compose(x, x), x)) for x in cases]


def _transitivity_misses(is_transitive, cases):
    return [i for i, (x, want) in enumerate(cases) if is_transitive(x) != want]


def test_is_transitive_matches_composition_on_wide_relations(wide_transitivity_cases):
    assert _transitivity_misses(is_transitive, wide_transitivity_cases) == []
    verdicts = [want for _, want in wide_transitivity_cases]
    assert len(verdicts) // 3 < verdicts.count(True) < 2 * len(verdicts) // 3
    assert not wide_transitivity_cases[0][1]


def _mutant_is_transitive(edits):
    """`rel.is_transitive` with each text `old` in `edits` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(rel_module.is_transitive))
    for old, new in edits:
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = {}
    exec(source, dict(vars(rel_module)), namespace)
    return namespace["is_transitive"]


@pytest.mark.parametrize(
    "edits, pinned",
    [
        ((("if above | row == row:", "if True:"), ("row ^ above", "row & ~above")), False),
        ((("rest = row ^ above", "rest = 0"),), True),
    ],
    ids=["union-absorbed-untested", "row-cleared-once-union-fits"],
)
def test_single_bit_extension_mutants_are_caught(wide_transitivity_cases, edits, pinned):
    """Absorbing the union of a row's extensions without testing that it
    lies in the row, or dropping the whole row once it does, misjudges
    some wide case; the pinned ⊆ plus ({m0}, {m1}) catches the second."""
    misses = _transitivity_misses(_mutant_is_transitive(edits), wide_transitivity_cases)
    assert misses
    assert (0 in misses) == pinned


def test_is_transitive_needs_a_square_relation():
    with pytest.raises(CarrierMismatch):
        is_transitive(rel(A2, B2))


# --- residuals --------------------------------------------------------------

def test_left_residual_pointwise():
    x = rel(A2, B2, ("a0", "b0"))
    z = rel(A2, C1, ("a0", "c0"), ("a1", "c0"))
    got = left_residual(x, z)
    assert set(got.pairs()) == oracle_left_residual(x, z) == {("b0", "c0"), ("b1", "c0")}


def test_left_residual_empty_x_is_full():
    assert eq(left_residual(rel(A2, B2), rel(A2, C1)), full(B2, C1))


def test_left_residual_over_empty_source_is_full():
    E = finset("E", 0)
    assert eq(left_residual(rel(E, B2), rel(E, C1)), full(B2, C1))


def test_mem_residual_is_subset_order_on_singleton():
    bundle = powerset(finset("M", 1, "m"))
    got = left_residual(bundle.mem, bundle.mem)
    assert set(got.pairs()) == {("{}", "{}"), ("{}", "{m0}"), ("{m0}", "{m0}")}


def test_right_residual_identity_unit():
    z = rel(A2, C1, ("a0", "c0"))
    assert eq(right_residual(z, identity(C1)), z)


def test_right_residual_full_absorbs():
    assert eq(right_residual(full(A2, C1), rel(B2, C1, ("b0", "c0"))), full(A2, B2))


def test_right_residual_pointwise():
    z = rel(A1, C1, ("a0", "c0"))
    y = rel(B2, C1, ("b0", "c0"))
    got = right_residual(z, y)
    assert set(got.pairs()) == oracle_right_residual(z, y) == {("a0", "b0"), ("a0", "b1")}


# --- function graphs --------------------------------------------------------

def test_graph_of_identity_map():
    assert eq(graph_lower(identity_map(A2)), identity(A2))


def test_graph_of_constant_map():
    f = FnMap(A2, B2, (0, 0))
    assert set(graph_lower(f).pairs()) == {("a0", "b0"), ("a1", "b0")}


def test_graph_total_function_covers_diagonal():
    for code in range(4):
        f = FnMap(A2, B2, (code & 1, code >> 1))
        assert leq(identity(A2), compose(graph_lower(f), graph_upper(f)))


def every_small_map():
    """Every map between carriers of 0 to 3 points: 60 of them."""
    for n, k in product(range(4), repeat=2):
        A, B = finset("A", n, "a"), finset("B", k, "b")
        for image in product(range(k), repeat=n):
            yield FnMap(A, B, image)


def test_graphs_are_built_once_and_match_their_pairs():
    for f in every_small_map():
        lower, upper, of = graph_lower(f), graph_upper(f), f.as_dict()
        assert set(lower.pairs()) == set(of.items())
        assert set(upper.pairs()) == {(fa, a) for a, fa in of.items()}
        assert (lower.src, lower.dst, upper.src, upper.dst) == (f.src, f.dst, f.dst, f.src)
        assert graph_lower(f) is lower and graph_upper(f) is upper


def test_built_graphs_stay_out_of_equality_hashing_and_copies():
    for f in every_small_map():
        apart = FnMap(f.src, f.dst, tuple(list(f.image)))
        assert f == apart and hash(f) == hash(apart)
        graph_upper(f)
        assert f == apart and hash(f) == hash(apart)
        graph_lower(apart)
        assert f == apart and hash(f) == hash(apart)
        for copy in (pickle.loads(pickle.dumps(f)), dataclasses.replace(f)):
            assert copy == f and hash(copy) == hash(f)
            assert eq(graph_lower(copy), graph_lower(f)) and eq(graph_upper(copy), graph_upper(f))
        if len(f.src) and len(f.dst) > 1:
            moved = dataclasses.replace(f, image=((f.image[0] + 1) % len(f.dst),) + f.image[1:])
            assert moved != f and not eq(graph_upper(moved), graph_upper(f))


def test_pullback_selects_rows_as_the_composite_does():
    rng = random.Random(19)
    for f in every_small_map():
        for _ in range(4):
            y = Rel(f.dst, f.dst, tuple(rng.randrange(1 << len(f.dst)) for _ in f.dst))
            assert eq(pullback(y, f), compose(graph_lower(f), compose(y, graph_upper(f))))


def test_pullback_needs_a_relation_on_the_map_target():
    f = FnMap(A2, B2, (0, 1))
    for y in (full(A2, B2), full(B2, A2), full(A2, A2)):
        with pytest.raises(CarrierMismatch):
            pullback(y, f)


# --- powersets --------------------------------------------------------------

def test_powerset_singleton():
    bundle = powerset(finset("M", 1, "m"))
    assert bundle.carrier.elements == ("{}", "{m0}")
    assert bundle.mem.pairs() == [("m0", "{m0}")]


def test_powerset_empty_base():
    bundle = powerset(finset("M", 0))
    assert bundle.carrier.elements == ("{}",)
    assert bundle.mem.count() == 0


def test_powerset_two_elements():
    bundle = powerset(finset("M", 2, "m"))
    assert bundle.carrier.elements == ("{}", "{m0}", "{m1}", "{m0,m1}")
    # total membership pairs = sum of subset sizes
    assert bundle.mem.count() == 4


def test_subset_labels_quote_labels_that_could_be_misread():
    base = FinSet("M", ("", "a,b", "x", '{"}'))
    labels = rel_module.subset_labels(base)
    assert labels[:4] == ("{}", '{""}', '{"a,b"}', '{"","a,b"}')
    assert labels[4:8] == ("{x}", '{"",x}', '{"a,b",x}', '{"","a,b",x}')
    assert labels[8] == '{"{\\"}"}'
    assert len(set(labels)) == 16


def test_powerset_cap():
    assert POWERSET_CAP == 12
    with pytest.raises(PowersetCapExceeded, match="exceeds powerset cap 12"):
        powerset(finset("M", 13, "m"))


def test_cached_powerset_equals_fresh_build():
    base = FinSet("M", ("m0", "m1", "m2"))
    cached = powerset(base)
    assert powerset(FinSet("M", ("m0", "m1", "m2"))) is cached
    clear_caches()
    fresh = powerset(base)
    assert fresh is not cached and fresh == cached  # same labels and membership rows


def test_kernel_caches_under_concurrent_use():
    # more threads than cores, frequent switches, caches emptied mid-run
    expected = {n: rel_module._build_powerset(finset("M", n, "m")) for n in range(6)}
    errors = []

    def work(k):
        try:
            for i in range(300):
                n = (i + k) % 6
                b = powerset(finset("M", n, "m"))
                if b != expected[n]:
                    errors.append((k, i, n))
                if i % 50 == k:
                    clear_caches()
        except Exception as e:  # reported by the assert below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_singleton_map_unit():
    M = finset("M", 2, "m")
    bundle = powerset(M)
    eta = power_transpose(identity(M))
    assert eta.as_dict()["m0"] == "{m0}" and eta.as_dict()["m1"] == "{m1}"
    assert eq(compose(bundle.mem, graph_upper(eta)), identity(M))


def all_relations(src, dst):
    k = len(dst)
    for code in range(1 << (len(src) * k)):
        yield Rel(src, dst, tuple(code >> (i * k) & ((1 << k) - 1) for i in range(len(src))))


def test_power_transpose_matches_pointwise_definition():
    for n, k in product(range(4), repeat=2):
        bundle = powerset(finset("A", n, "a"))
        for x in all_relations(bundle.base, finset("B", k, "b")):
            f = power_transpose(x)
            assert (f.src, f.dst) == (x.dst, bundle.carrier) and f.dst is bundle.carrier
            # Λx(b) is column b of x, read as a mask over the source
            pairs = set(x.pairs())
            columns = tuple(sum(1 << i for i, a in enumerate(x.src) if (a, b) in pairs) for b in x.dst)
            assert f.image == columns
            assert eq(compose(bundle.mem, graph_upper(f)), x)


def test_pullback_matches_pointwise_definition():
    for k, n in product(range(3), range(4)):
        B, A = finset("B", k, "b"), finset("A", n, "a")
        for y in all_relations(B, B):
            pairs = set(y.pairs())
            for image in product(range(k), repeat=n):
                f = FnMap(A, B, image)
                of = f.as_dict()
                expected = {(a, a2) for a in A for a2 in A if (of[a], of[a2]) in pairs}
                assert set(pullback(y, f).pairs()) == expected


# Maps into a powerset compare with ==: a carrier index names its subset.

def test_fn_eq_into_powerset_basic():
    M = finset("M", 1, "m")
    bundle = powerset(M)
    f = FnMap(M, bundle.carrier, (0,))
    g = FnMap(M, bundle.carrier, (1,))
    assert f == FnMap(M, bundle.carrier, (0,))
    assert f != g


def test_fn_eq_into_powerset_matches_pointwise_exhaustively():
    """f == g exactly when ∈⨾f^* = ∈⨾g^*."""
    A = finset("A", 2, "a")
    bundle = powerset(finset("B", 2, "b"))
    maps = [FnMap(A, bundle.carrier, (i, j)) for i in range(4) for j in range(4)]
    for f in maps:
        for g in maps:
            relational = eq(compose(bundle.mem, graph_upper(f)), compose(bundle.mem, graph_upper(g)))
            assert (f == g) == (f.image == g.image) == relational


def test_fn_eq_into_powerset_rejects_other_carriers():
    bundle = powerset(finset("B", 2, "b"))
    f = FnMap(finset("A", 2, "a"), bundle.carrier, (0, 3))
    assert f != FnMap(finset("C", 2, "c"), bundle.carrier, (0, 3))
    assert f != FnMap(f.src, powerset(finset("D", 2, "d")).carrier, (0, 3))


# --- hypothesis property tests ---------------------------------------------

@st.composite
def sized_rel(draw, src, dst):
    rows = tuple(draw(st.integers(0, (1 << len(dst)) - 1)) for _ in range(len(src)))
    return Rel(src, dst, rows)


@st.composite
def triple(draw):
    a = finset("A", draw(st.integers(0, 3)), "a")
    b = finset("B", draw(st.integers(0, 3)), "b")
    c = finset("C", draw(st.integers(0, 3)), "c")
    return (
        draw(sized_rel(a, b)),
        draw(sized_rel(b, c)),
        draw(sized_rel(a, c)),
    )


@settings(max_examples=300, deadline=None)
@given(triple())
def test_galois_equivalence(xyz):
    x, y, z = xyz
    assert leq(y, left_residual(x, z)) == leq(compose(x, y), z)


@settings(max_examples=300, deadline=None)
@given(triple())
def test_dual_galois_equivalence(xyz):
    x, y, z = xyz
    assert leq(x, right_residual(z, y)) == leq(compose(x, y), z)


@settings(max_examples=200, deadline=None)
@given(triple())
def test_converse_involution_and_antidistribution(xyz):
    x, y, _ = xyz
    assert eq(converse(converse(x)), x)
    assert eq(converse(compose(x, y)), compose(converse(y), converse(x)))


@st.composite
def quad(draw):
    a = finset("A", draw(st.integers(0, 2)), "a")
    b = finset("B", draw(st.integers(0, 2)), "b")
    c = finset("C", draw(st.integers(0, 2)), "c")
    d = finset("D", draw(st.integers(0, 2)), "d")
    return (
        draw(sized_rel(a, b)),
        draw(sized_rel(b, c)),
        draw(sized_rel(c, d)),
    )


@settings(max_examples=200, deadline=None)
@given(quad())
def test_compose_associative(xyz):
    x, y, z = xyz
    assert eq(compose(compose(x, y), z), compose(x, compose(y, z)))


@settings(max_examples=200, deadline=None)
@given(triple())
def test_identity_two_sided_unit(xyz):
    x, _, _ = xyz
    assert eq(compose(identity(x.src), x), x)
    assert eq(compose(x, identity(x.dst)), x)


@settings(max_examples=200, deadline=None)
@given(triple())
def test_residuals_match_oracles(xyz):
    x, y, z = xyz
    assert set(left_residual(x, z).pairs()) == oracle_left_residual(x, z)
    assert set(right_residual(z, y).pairs()) == oracle_right_residual(z, y)


# --- relabelling ------------------------------------------------------------
#
# Every kernel operation commutes with re-encoding a carrier, that is with
# listing the same labels in another order.  Most kernel bugs damage a
# position (the last row, the top bit), not a label, so comparing the two
# encodings label by label catches them with no reference implementation.
# Pair sets are drawn in plain Python and results are read back bit by bit,
# so neither side goes through `row_bits`.

def _encodings(rng, name, size):
    """One carrier in two encodings: its labels in order, and shuffled."""
    labels = [f"{name.lower()}{i}" for i in range(size)]
    shuffled = rng.sample(labels, size)
    return FinSet(name, tuple(labels)), FinSet(name, tuple(shuffled))


def _draw_pairs(rng, src, dst, density):
    return {(a, b) for a in src for b in dst if rng.random() < density}


def _encode(pairs, src, dst):
    rows = [0] * len(src)
    for a, b in pairs:
        rows[src.elements.index(a)] |= 1 << dst.elements.index(b)
    return Rel(src, dst, tuple(rows))


def _decode(r):
    return {(a, b) for row, a in zip(r.rows, r.src) for j, b in enumerate(r.dst) if row >> j & 1}


def _kernel_by_label(rng, sizes, density):
    """compose, left_residual, converse, leq, is_transitive and
    preorder_closure on one draw of label pairs, in each encoding."""
    carriers = [_encodings(rng, name, size) for name, size in zip("ABC", sizes)]
    A, B, C = (pair[0] for pair in carriers)
    x, y, z = _draw_pairs(rng, A, B, density), _draw_pairs(rng, B, C, density), _draw_pairs(rng, A, C, density)
    below = x - set(rng.sample(sorted(x), min(len(x), 1))) | _draw_pairs(rng, A, B, density / 4)
    square = _draw_pairs(rng, A, A, density / 2)
    results = []
    for A, B, C in zip(*carriers):
        xr = _encode(x, A, B)
        results.append((
            _decode(compose(xr, _encode(y, B, C))),
            _decode(left_residual(xr, _encode(z, A, C))),
            _decode(converse(xr)),
            leq(xr, _encode(below, A, B)),
            is_transitive(_encode(square, A, A)),
            _decode(preorder_closure(_encode(square, A, A)).rel),
        ))
    return results


def test_kernel_commutes_with_relabelling_narrow():
    rng = random.Random(13)
    for trial in range(300):
        sizes = [rng.randint(1, 9) for _ in range(3)]
        ordered, shuffled = _kernel_by_label(rng, sizes, rng.uniform(0.2, 0.6))
        assert ordered == shuffled, (trial, sizes)


def test_kernel_commutes_with_relabelling_wide():
    """2-6 rows of 65-160 columns reach `_scan`, the lane transpose, the
    meet table and compose's live-row mask."""
    rng = random.Random(14)
    for trial in range(40):
        sizes = [rng.randint(2, 6), rng.randint(65, 160), rng.randint(2, 9)]
        ordered, shuffled = _kernel_by_label(rng, sizes, rng.uniform(0.35, 0.6))
        assert ordered == shuffled, (trial, sizes)
