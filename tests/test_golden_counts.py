"""The exhaustive `checked` and `note.*` counts of perfbench/golden.json,
recomputed from the definitions of each law's instance space.

This module imports nothing from promrep: it lists relations, functions,
preorders, proms, representations and their morphisms as plain row masks
and tuples, with closed forms and itertools alone, so a bug in an
enumerator cannot agree with itself here.  A count is the size of the
instance space: every carrier size from 0 up to its bound, times every
value of each field at those sizes.  The hom-set laws (lemma5, lemma6,
lemma8, lemma9) count morphisms, each found by brute force from its
definition.
"""

import json
from functools import cache, reduce
from itertools import product
from operator import or_
from pathlib import Path

import pytest

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())


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


@cache
def up_sets(order: tuple[int, ...]) -> frozenset[int]:
    """Every subset that holds everything above each of its elements."""
    n = len(order)
    return frozenset(s for s in range(1 << n) if all(order[i] | s == s for i in range(n) if s >> i & 1))


@cache
def preserving(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every map from x's carrier to y's that carries every pair of x into y."""
    n = len(x)
    return tuple(
        f
        for f in product(range(len(y)), repeat=n)
        if all(y[f[i]] >> f[j] & 1 for i in range(n) for j in range(n) if x[i] >> j & 1)
    )


@cache
def prom_list(a: int, b: int) -> tuple:
    """Every prom (x, y, f) on a and b elements: preorders x and y, and a map
    f that carries every pair of x into y."""
    return tuple((x, y, f) for y in preorders(b) for x in preorders(a) for f in preserving(x, y))


@cache
def rep_list(m: int, s: int) -> tuple:
    """Every representation (≤, ⊨) on m models and s statements with
    ⊨⨾≤ ≤ ⊨: each of the m rows of ⊨ is an up-set of ≤."""
    return tuple((order, sat) for order in preorders(s) for sat in product(sorted(up_sets(order)), repeat=m))


def representations(m: int, s: int) -> int:
    return sum(len(up_sets(order)) ** m for order in preorders(s))


def sizes(*bounds: int):
    return product(*(range(bound + 1) for bound in bounds))


def galois(n):  # x: A ⇸ B, y: B ⇸ C, z: A ⇸ C
    return sum(2 ** (a * b + b * c + a * c) for a, b, c in sizes(n, n, n))


def modular(n):  # x: A ⇸ B, y: A ⇸ C, f: D → B, g: E → C; 0**0 == 1 counts the empty map
    return sum(2 ** (a * b + a * c) * b**d * c**e for a, b, c, d, e in sizes(n, n, n, n, n))


def within(structures, n1: int, n2: int) -> list:
    """Every structure of `structures(size1, size2)` with sizes up to the bounds."""
    return [v for a, b in sizes(n1, n2) for v in structures(a, b)]


@cache
def taus_by_square(sat1: tuple[int, ...], m2: int) -> dict:
    """Every τ: M₂ ⇸ M₁, as |M₂| row masks over M₁, grouped by τ⨾⊨₁.  Each
    of the 2^(|M₂|·|M₁|) masks of τ's cells is tried."""
    m1 = len(sat1)
    groups: dict = {}
    for code in range(1 << m1 * m2):
        tau = tuple(code >> k * m1 & (1 << m1) - 1 for k in range(m2))
        lhs = tuple(reduce(or_, (sat1[j] for j in range(m1) if t >> j & 1), 0) for t in tau)
        groups.setdefault(lhs, []).append(tau)
    return groups


@cache
def rep_homs(r1, r2) -> list:
    """The τ of every morphism (φ, τ): r1 → r2.  φ carries ≤₁ into ≤₂, and
    τ⨾⊨₁ = ⊨₂⨾φ^*, whose row k holds the statements a with φ(a) in ⊨₂'s row k."""
    (ord1, sat1), (ord2, sat2) = r1, r2
    groups = taus_by_square(sat1, len(sat2))
    homs = []
    for phi in preserving(ord1, ord2):
        rhs = tuple(sum(1 << a for a, b in enumerate(phi) if row >> b & 1) for row in sat2)
        homs += groups.get(rhs, [])
    return homs


def prom_homs(p1, p2) -> int:
    """How many (φ, ψ): p1 → p2: φ carries x₁ into x₂, ψ carries y₁ into y₂,
    and ψ∘f₁ = f₂∘φ."""
    (x1, y1, f1), (x2, y2, f2) = p1, p2
    psis = preserving(y1, y2)
    return sum(
        all(psi[fa] == f2[phi[a]] for a, fa in enumerate(f1)) for phi in preserving(x1, x2) for psi in psis
    )


def prom_to_rep(p):
    """R(p) = ⟨B, A, y⨾f^*, x⟩: model b satisfies statement a iff b ≤ f(a) in y."""
    x, y, f = p
    return x, tuple(sum(1 << a for a, fa in enumerate(f) if row >> fa & 1) for row in y)


def rep_to_prom(r):
    """M(r) = ⟨S, 2^M, ≤, ⊆, s ↦ {m | m ⊨ s}⟩, each subset of M as its mask."""
    order, sat = r
    subsets = range(1 << len(sat))
    subset = tuple(sum(1 << b for b in subsets if a & b == a) for a in subsets)
    theory = tuple(sum(1 << k for k, row in enumerate(sat) if row >> s & 1) for s in range(len(order)))
    return order, subset, theory


def lemma5(nm: int, ns: int) -> int:
    """Σ |Hom(r1, r2)| over every pair of representations."""
    reps = within(rep_list, nm, ns)
    return sum(len(rep_homs(r1, r2)) for r1 in reps for r2 in reps)


def lemma6(nm: int, ns: int) -> int:
    """Composable pairs r1 → r2 → r3: for each middle r2, the morphisms into
    it times the morphisms out of it."""
    reps = within(rep_list, nm, ns)
    return sum(
        sum(len(rep_homs(r1, r2)) for r1 in reps) * sum(len(rep_homs(r2, r3)) for r3 in reps) for r2 in reps
    )


@cache
def hom_sets(n: int) -> dict[str, int]:
    """lemma8/9's entry at bound n.  Each pair of a prom p and a
    representation r is one instance; its notes count Hom(R(p), r), Hom(p,
    M(r)), and the (φ, τ) of Hom(R(p), r) with τ⨾y ≠ τ, that is with a row
    of τ that is not an up-set of p's y."""
    proms_, reps = within(prom_list, n, n), within(rep_list, n, n)
    images = [rep_to_prom(r) for r in reps]
    out = {"checked": len(proms_) * len(reps), "note.prom_homs": 0, "note.rep_homs": 0, "note.strict_t_psi": 0}
    for p in proms_:
        rp, closed = prom_to_rep(p), up_sets(p[1])
        for r, mr in zip(reps, images):
            taus = rep_homs(rp, r)
            out["note.rep_homs"] += len(taus)
            out["note.strict_t_psi"] += sum(not closed.issuperset(tau) for tau in taus)
            out["note.prom_homs"] += prom_homs(p, mr)
    return out


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
    **dict.fromkeys(("lemma1", "lemma11", "triangle-repr"), lambda na, nb: len(within(prom_list, na, nb))),
    **dict.fromkeys(
        ("lemma4", "lemma10", "triangle-pom"),
        lambda nm, ns: sum(representations(m, s) for m, s in sizes(nm, ns)),
    ),
    "lemma5": lemma5,
    "lemma6": lemma6,
    **dict.fromkeys(("lemma8", "lemma9"), lambda n: hom_sets(n)["checked"]),
}


def _split(key: str) -> tuple[str, tuple[int, ...]]:
    law, bounds = key.split("@")
    return law, tuple(int(b) for b in bounds.split(","))


DERIVED = [key for key in GOLDEN["exhaustive"] if _split(key)[0] in COUNTS]


def test_every_golden_law_is_derived():
    assert {_split(key)[0] for key in GOLDEN["exhaustive"]} <= set(COUNTS)
    assert len(DERIVED) == 23


@pytest.mark.parametrize("key", DERIVED)
def test_checked_count_matches_the_definition(key):
    law, bounds = _split(key)
    assert GOLDEN["exhaustive"][key]["checked"] == COUNTS[law](*bounds)


@pytest.mark.parametrize("key", [key for key in DERIVED if _split(key)[0] in ("lemma8", "lemma9")])
def test_hom_set_notes_match_the_definition(key):
    """lemma8 reports the two hom-set sizes; lemma9 also the strict TΨ."""
    law, (n,) = _split(key)
    notes = {k: v for k, v in hom_sets(n).items() if k in GOLDEN["exhaustive"][key]}
    assert notes == GOLDEN["exhaustive"][key]


def test_preorder_count_matches_the_definition():
    note = GOLDEN["exhaustive"]["preorder-single-axiom@4"]["note.preorders"]
    assert [len(preorders(n)) for n in range(5)] == [1, 1, 4, 29, 355]
    assert note == sum(len(preorders(n)) for n in range(5))
