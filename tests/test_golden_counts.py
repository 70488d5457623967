"""The exhaustive `checked` counts of perfbench/golden.json, recomputed from
the definitions of each law's instance space.

This module imports nothing from promrep: it counts relations, functions,
preorders, proms and representations with closed forms and itertools
alone, so a bug in an enumerator cannot agree with itself here.  A count
is the size of the instance space: every carrier size from 0 up to its
bound, times every value of each field at those sizes.  The hom-set laws
(lemma5, lemma6, lemma8, lemma9) count morphisms and are not derived yet.
"""

import json
from functools import cache
from itertools import product
from pathlib import Path

import pytest

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())

HOM_SET_LAWS = {"lemma5", "lemma6", "lemma8", "lemma9"}


@cache
def preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """Every preorder on n elements, as row masks: reflexive, and each row
    holds the row of every element it holds."""
    return tuple(
        rows
        for rows in product(range(1 << n), repeat=n)
        if all(row >> i & 1 for i, row in enumerate(rows))
        and all(rows[j] | row == row for row in rows for j in range(n) if row >> j & 1)
    )


def up_sets(order: tuple[int, ...]) -> int:
    """How many subsets hold everything above each of their elements."""
    n = len(order)
    return sum(all(order[i] | s == s for i in range(n) if s >> i & 1) for s in range(1 << n))


def proms(a: int, b: int) -> int:
    """Triples (x, y, f): preorders x on a and y on b elements, and a map
    f that carries every pair of x into y."""
    return sum(
        all(y[f[i]] >> f[j] & 1 for i in range(a) for j in range(a) if x[i] >> j & 1)
        for y in preorders(b)
        for f in product(range(b), repeat=a)
        for x in preorders(a)
    )


def representations(m: int, s: int) -> int:
    """Pairs (⊨, ≤) with ⊨⨾≤ ≤ ⊨: each of the m rows of ⊨ is an up-set of ≤."""
    return sum(up_sets(order) ** m for order in preorders(s))


def sizes(*bounds: int):
    return product(*(range(bound + 1) for bound in bounds))


def galois(n):  # x: A ⇸ B, y: B ⇸ C, z: A ⇸ C
    return sum(2 ** (a * b + b * c + a * c) for a, b, c in sizes(n, n, n))


def modular(n):  # x: A ⇸ B, y: A ⇸ C, f: D → B, g: E → C; 0**0 == 1 counts the empty map
    return sum(2 ** (a * b + a * c) * b**d * c**e for a, b, c, d, e in sizes(n, n, n, n, n))


#: Law → its instance count at the bounds named in a golden key.
COUNTS = {
    "eq1-galois": galois,
    "dual-galois": galois,
    "modular-tautology": modular,
    "preorder-single-axiom": lambda n: sum(2 ** (a * a) for a in range(n + 1)),
    "mem-residual-subset": lambda n: n + 1,
    "lemma7": lambda na, nb: sum(2 ** (a * b) for a, b in sizes(na, nb)),
    "soundness-residual-equiv": lambda nm, ns: sum(2 ** (m * s + s * s) for m, s in sizes(nm, ns)),
    "psi-characterization": lambda nm, nb: sum(2 ** (m * b) * len(preorders(b)) for m, b in sizes(nm, nb)),
    **dict.fromkeys(
        ("lemma1", "lemma11", "triangle-repr"), lambda na, nb: sum(proms(a, b) for a, b in sizes(na, nb))
    ),
    **dict.fromkeys(
        ("lemma4", "lemma10", "triangle-pom"),
        lambda nm, ns: sum(representations(m, s) for m, s in sizes(nm, ns)),
    ),
}


def _split(key: str) -> tuple[str, tuple[int, ...]]:
    law, bounds = key.split("@")
    return law, tuple(int(b) for b in bounds.split(","))


DERIVED = [key for key in GOLDEN["exhaustive"] if _split(key)[0] in COUNTS]


def test_every_golden_law_but_the_hom_sets_is_derived():
    open_laws = {_split(key)[0] for key in GOLDEN["exhaustive"]} - set(COUNTS)
    assert open_laws == HOM_SET_LAWS
    assert len(DERIVED) == 15


@pytest.mark.parametrize("key", DERIVED)
def test_checked_count_matches_the_definition(key):
    law, bounds = _split(key)
    assert GOLDEN["exhaustive"][key]["checked"] == COUNTS[law](*bounds)


def test_preorder_count_matches_the_definition():
    note = GOLDEN["exhaustive"]["preorder-single-axiom@4"]["note.preorders"]
    assert [len(preorders(n)) for n in range(5)] == [1, 1, 4, 29, 355]
    assert note == sum(len(preorders(n)) for n in range(5))
