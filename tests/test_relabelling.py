"""Every construction commutes with relabelling.

R, M, η, ε, Ψ, T and the direct image are built from one draw of plain
label data in two encodings of each carrier: its labels in order, and
shuffled.  Their results must agree label by label.  A point of a powerset
2^X is read as the frozenset of X's labels that its index selects, since
its index is its bitmask over X's order, which relabelling X permutes.
Most construction bugs damage a position (the last row, the last image
entry), not a label, so the two encodings disagree on them with no
reference implementation.  A bug at the last point of a powerset is not
positional: that point is the whole carrier in every encoding, so the
direct image zeroing its last entry passes here and is left to the laws.
The kernel operations have the same test in test_rel.py.

Every law is invariant too: a seeded instance, with each of its carriers
re-encoded by one shuffled label order shared by all its fields, gets the
same verdict and notes.
"""

import dataclasses
import random

import pytest

from promrep import (
    CATALOG,
    FinSet,
    FnMap,
    Preorder,
    Prom,
    Rel,
    Representation,
    counit,
    direct_image,
    powerset,
    prom_to_rep,
    rep_to_prom,
    unit,
)
from promrep.adjunction import map_to_rel, rel_to_map
from promrep.harness import mix_seed


def _draw_pairs(rng, src, dst, density):
    return {(a, b) for a in src for b in dst if rng.random() < density}


def _draw_preorder(rng, labels, density):
    """A random relation's reflexive-transitive closure, by Warshall."""
    pairs = _draw_pairs(rng, labels, labels, density) | {(a, a) for a in labels}
    for k in labels:
        for i in labels:
            if (i, k) in pairs:
                pairs |= {(i, j) for j in labels if (k, j) in pairs}
    return pairs


def _draw(rng):
    """Plain data for a prom on A, B, a representation on M, S, a τ: M ⇸ B
    and a ψ: B → 2^M; and each carrier in order and shuffled."""
    labels = {name: [f"{name.lower()}{i}" for i in range(rng.randint(lo, 4))] for name, lo in zip("ABMS", (1, 1, 0, 1))}
    encodings = [
        {name: FinSet(name, tuple(ls)) for name, ls in labels.items()},
        {name: FinSet(name, tuple(rng.sample(ls, len(ls)))) for name, ls in labels.items()},
    ]
    A, B, M, S = labels.values()
    density = rng.uniform(0.2, 0.6)
    data = {
        "x": _draw_preorder(rng, A, density / 2),
        "y": _draw_preorder(rng, B, density / 2),
        "f": {a: rng.choice(B) for a in A},
        "sat": _draw_pairs(rng, M, S, density),
        "ord": _draw_preorder(rng, S, density / 2),
        "tau": _draw_pairs(rng, M, B, density),
        "psi": {b: frozenset(m for m in M if rng.random() < density) for b in B},
    }
    return data, encodings


# --- encoding plain data, read without the kernel's index lookups -----------

def _rel(pairs, src, dst):
    rows = [0] * len(src)
    for a, b in pairs:
        rows[src.elements.index(a)] |= 1 << dst.elements.index(b)
    return Rel(src, dst, tuple(rows))


def _map(mapping, src, dst):
    return FnMap(src, dst, tuple(dst.elements.index(mapping[a]) for a in src.elements))


def _subset_map(mapping, src, base):
    """mapping: src label → frozenset of base labels, as a map src → 2^base."""
    masks = tuple(sum(1 << base.elements.index(m) for m in mapping[b]) for b in src.elements)
    return FnMap(src, powerset(base).carrier, masks)


def _prom(d, E):
    return Prom(
        Preorder(_rel(d["x"], E["A"], E["A"])), Preorder(_rel(d["y"], E["B"], E["B"])), _map(d["f"], E["A"], E["B"])
    )


def _representation(d, E):
    return Representation(_rel(d["sat"], E["M"], E["S"]), Preorder(_rel(d["ord"], E["S"], E["S"])))


# --- decoding results by label ----------------------------------------------

def _points(carrier, base=None):
    """Each point's label, or for 2^base the frozenset its index selects."""
    if base is None:
        return carrier.elements
    assert len(carrier) == 1 << len(base)
    return [frozenset(m for i, m in enumerate(base.elements) if k >> i & 1) for k in range(len(carrier))]


def _pairs(r, src_base=None, dst_base=None):
    src, dst = _points(r.src, src_base), _points(r.dst, dst_base)
    return {(a, b) for row, a in zip(r.rows, src) for j, b in enumerate(dst) if row >> j & 1}


def _mapping(f, src_base=None, dst_base=None):
    src, dst = _points(f.src, src_base), _points(f.dst, dst_base)
    return {a: dst[k] for a, k in zip(src, f.image)}


# --- the constructions, each from plain data to plain data ------------------

def _r(d, E):
    rp = prom_to_rep(_prom(d, E))
    return _pairs(rp.sat), _pairs(rp.ord.rel)


def _m(d, E):
    mr = rep_to_prom(_representation(d, E))
    return _pairs(mr.x.rel), _pairs(mr.y.rel, E["M"], E["M"]), _mapping(mr.f, None, E["M"])


def _unit(d, E):
    eta = unit(_prom(d, E))
    return _mapping(eta.phi), _mapping(eta.psi, None, E["B"])


def _counit(d, E):
    eps = counit(_representation(d, E))
    return _mapping(eps.phi), _pairs(eps.tau, None, E["M"])


def _psi(d, E):
    y = Preorder(_rel(d["y"], E["B"], E["B"]))
    return _mapping(rel_to_map(_rel(d["tau"], E["M"], E["B"]), y, powerset(E["M"]).mem), None, E["M"])


def _tee(d, E):
    return _pairs(map_to_rel(_subset_map(d["psi"], E["B"], E["M"]), powerset(E["M"]).mem))


def _direct_image(d, E):
    return _mapping(direct_image(_rel(d["tau"], E["M"], E["B"])), E["B"], E["M"])


CONSTRUCTIONS = {
    "R": _r,
    "M": _m,
    "unit": _unit,
    "counit": _counit,
    "psi": _psi,
    "tee": _tee,
    "direct-image": _direct_image,
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_construction_commutes_with_relabelling(name):
    build = CONSTRUCTIONS[name]
    rng = random.Random(15)
    for trial in range(100):
        data, encodings = _draw(rng)
        ordered, shuffled = (build(data, E) for E in encodings)
        assert ordered == shuffled, (trial, [E["M"].elements for E in encodings])


# --- the laws ---------------------------------------------------------------

def _reencode(value, carrier):
    """value rebuilt, by label, on the carriers `carrier` maps each of its own to."""
    if isinstance(value, FinSet):
        return carrier(value)
    if isinstance(value, Rel):
        return _rel(_pairs(value), carrier(value.src), carrier(value.dst))
    if isinstance(value, FnMap):
        return _map(_mapping(value), carrier(value.src), carrier(value.dst))
    fields = (getattr(value, field.name) for field in dataclasses.fields(value))
    return type(value)(*(_reencode(part, carrier) for part in fields))


def _shuffler(rng):
    """carrier → the same carrier with its labels in an order drawn on first sight."""
    orders = {}

    def carrier(c):
        if c not in orders:
            orders[c] = FinSet(c.name, tuple(rng.sample(c.elements, len(c))))
        return orders[c]

    return carrier


@pytest.mark.parametrize("law", CATALOG)
def test_law_verdict_and_notes_commute_with_relabelling(law):
    spec = CATALOG[law]
    rng = random.Random(13)
    for trial in range(20):
        instance = spec.generate(random.Random(mix_seed(0, trial)), spec.default_bounds)
        carrier = _shuffler(rng)
        shuffled = {key: _reencode(value, carrier) for key, value in instance.items()}
        verdict = spec.check(instance)
        assert verdict[0] is None and spec.check(shuffled) == verdict, trial
