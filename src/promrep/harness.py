"""Generators, enumerators, the law catalog, and counterexample search.

Every law in the catalog is a theorem for valid inputs, so a witness found
by `search` signals a kernel bug rather than a refuted conjecture; the
harness still reports it faithfully, with the offending structures
serialized so the violation can be replayed.

Each law family's instances are described once, as a `Schema`; its seeded
generator and exhaustive enumerator are both derived from that description,
so the two search modes range over the same instance space.  An exhaustive
instance pays only for its enumeration, for validating the fields its schema
declares structures, and for its law; the stream around it runs in C.

Seeded runs are deterministic: trial i derives its own RNG from a 64-bit
mix of (seed, i), so a run's result depends only on the seed and the trial
count.  Trials run serially.  Either mode stops at its first witness; a
generated or enumerated instance that fails validation is one, since only
a kernel bug builds it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product, repeat
from operator import itemgetter
from typing import Any, Callable, Iterator

from . import workspace
from .rel import (
    POWERSET_CAP,
    FinSet,
    FnMap,
    Rel,
    compose,
    eq,
    finset,
    graph_lower,
    graph_upper,
    left_residual,
    leq,
    powerset,
    pullback,
    right_residual,
)
from .structures import (
    VALIDATION,
    InvalidStructure,
    Preorder,
    Prom,
    PromMorphism,
    Representation,
    RepMorphism,
    compose_prom_morphisms,
    compose_rep_morphisms,
    identity_prom_morphism,
    identity_rep_morphism,
    is_preorder,
    order_violation,
    preorder_closure,
    repmor_leq,
    validate,
)
from .functors import (
    prom_to_rep,
    prommor_to_repmor,
    rep_to_prom,
    repmor_to_prommor,
)
from .adjunction import (
    counit,
    lift,
    lower,
    recover_by_membership,
    rel_to_map,
    triangle_prom,
    triangle_rep,
    unit,
)
from .exactness import is_exact, is_order_reflecting


class ConfigError(ValueError):
    """Unusable search configuration: unknown law, infeasible bounds, bad mode."""


# ---------------------------------------------------------------------------
# deterministic seeding

_M64 = (1 << 64) - 1


def mix_seed(seed: int, i: int) -> int:
    """splitmix64 step: child seed for trial i of a run seeded with `seed`."""
    z = (seed + 0x9E3779B97F4A7C15 * (i + 1)) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# random generators

EDGE_PROBABILITY = 0.3


def random_rel(rng: random.Random, src: FinSet, dst: FinSet, p: float = EDGE_PROBABILITY) -> Rel:
    rows = []
    for _ in range(len(src)):
        mask = 0
        for j in range(len(dst)):
            if rng.random() < p:
                mask |= 1 << j
        rows.append(mask)
    return Rel(src, dst, tuple(rows))


def random_fnmap(rng: random.Random, src: FinSet, dst: FinSet) -> FnMap:
    if len(src) > 0 and len(dst) == 0:
        raise ValueError("no function into an empty carrier")
    return FnMap(src, dst, tuple(rng.randrange(len(dst)) for _ in range(len(src))))


def _gen_preorder(rng: random.Random, carrier: FinSet) -> Preorder:
    return preorder_closure(random_rel(rng, carrier, carrier))


def _thin(rng: random.Random, r: Rel) -> Rel:
    rows = []
    for row in r.rows:
        mask = 0
        for j in range(len(r.dst)):
            if row >> j & 1 and rng.random() < 0.5:
                mask |= 1 << j
        rows.append(mask)
    return Rel(r.src, r.dst, tuple(rows))


def _gen_sub_pullback(rng: random.Random, y: Rel, f: FnMap) -> Preorder:
    """Half the time the full pullback of y along f (hence order-reflecting);
    otherwise the closure of a thinned-out part of it.  f carries either into y."""
    pull = pullback(y, f)
    if rng.random() < 0.5:
        return Preorder(pull)
    return preorder_closure(_thin(rng, pull))


#: The carriers of chain objects 0, 1 and 2, as (name, label prefix) pairs:
#: a witness document records each carrier once by name, so no two objects
#: of one chain or hom-set share one.  Object 0 is a morphism's source.
PROM_CARRIERS = ((("A", "a"), ("B", "b")), (("A2", "c"), ("B2", "d")), (("A3", "u"), ("B3", "v")))
REP_CARRIERS = ((("M", "m"), ("S", "s")), (("M2", "n"), ("S2", "t")), (("M3", "o"), ("S3", "u")))


def _carriers(table, at: int, *sizes: int) -> list[FinSet]:
    """The carriers of chain object `at` in `table`, of these sizes."""
    return [finset(name, size, prefix) for (name, prefix), size in zip(table[at], sizes)]


def _gen_prom(rng: random.Random, size_a: int, size_b: int, at: int = 0) -> Prom:
    """A random prom; x is a sub-pullback of y along f, so f is order-preserving."""
    if size_b == 0:
        size_a = 0  # no map into an empty carrier
    A, B = _carriers(PROM_CARRIERS, at, size_a, size_b)
    y = _gen_preorder(rng, B)
    f = random_fnmap(rng, A, B)
    return Prom(_gen_sub_pullback(rng, y.rel, f), y, f)


def _gen_representation(rng: random.Random, size_m: int, size_s: int, at: int = 0) -> Representation:
    """A random sound representation: sat is a random relation post-composed
    with the preorder, so soundness holds by transitivity."""
    M, S = _carriers(REP_CARRIERS, at, size_m, size_s)
    ord_ = _gen_preorder(rng, S)
    sat = compose(random_rel(rng, M, S), ord_.rel)
    return Representation(sat, ord_)


def _gen_prom_morphism_into(rng: random.Random, dst: Prom, max_size: int, at: int) -> PromMorphism:
    """A random prom morphism with the given destination, from chain object `at`.

    psi is built surjective so every source point of f' has a fiber to pick
    f from; x and y are (sub-)pullbacks along phi and psi, which makes all
    three morphism axioms hold by construction.
    """
    size_a = rng.randint(0, max_size) if len(dst.A) > 0 else 0
    size_b2 = len(dst.B)
    size_b = size_b2 + rng.randint(0, max(0, max_size - size_b2)) if size_b2 > 0 else 0
    A, B = _carriers(PROM_CARRIERS, at, size_a, size_b)
    phi = random_fnmap(rng, A, dst.A)
    targets = list(range(size_b2))
    rng.shuffle(targets)
    image = [targets[i] if i < size_b2 else rng.randrange(size_b2) for i in range(size_b)]
    psi = FnMap(B, dst.B, tuple(image))
    f_image = []
    for i in range(size_a):
        want = dst.f.image[phi.image[i]]
        fiber = [j for j in range(size_b) if psi.image[j] == want]
        f_image.append(rng.choice(fiber))
    f = FnMap(A, B, tuple(f_image))
    y = Preorder(pullback(dst.y.rel, psi))
    src = Prom(_gen_sub_pullback(rng, dst.x.rel, phi), y, f)
    return PromMorphism(src, dst, phi, psi)


def _gen_rep_morphism_into(
    rng: random.Random, dst: Representation, max_m: int, max_s: int, at: int
) -> RepMorphism:
    """A random representation morphism into dst, chosen uniformly from the
    hom-set out of a random source at chain object `at`; the source is
    redrawn while that hom-set is empty.  The empty representation has
    exactly one morphism into every dst, so a source with one is always in
    reach."""
    while True:
        src = _gen_representation(rng, rng.randint(0, max_m), rng.randint(0, max_s), at)
        homs = list(enumerate_rep_morphisms(src, dst))
        if homs:
            return rng.choice(homs)


def _gen_prom_chain(rng: random.Random, max_size: int, length: int) -> tuple[PromMorphism, ...]:
    """A random composable chain p → p2 → ... of `length` prom morphisms,
    drawn from the last target back."""
    dst = _gen_prom(rng, rng.randint(0, max_size), rng.randint(0, max_size), length)
    morphisms: tuple = ()
    for at in reversed(range(length)):
        m = _gen_prom_morphism_into(rng, dst, max_size, at)
        morphisms, dst = (m, *morphisms), m.src
    return morphisms


def _gen_rep_chain(rng: random.Random, max_m: int, max_s: int, length: int) -> tuple[RepMorphism, ...]:
    """A random composable chain r1 → r2 → ... of `length` representation
    morphisms, drawn from the last target back."""
    dst = _gen_representation(rng, rng.randint(0, max_m), rng.randint(0, max_s), length)
    morphisms: tuple = ()
    for at in reversed(range(length)):
        m = _gen_rep_morphism_into(rng, dst, max_m, max_s, at)
        morphisms, dst = (m, *morphisms), m.src
    return morphisms


# ---------------------------------------------------------------------------
# exhaustive enumerators

MAX_REL_CELLS = 16
MAX_TAU_CELLS = 9


def enumerate_relations(src: FinSet, dst: FinSet) -> Iterator[Rel]:
    """Every relation src ⇸ dst, lazily.  Row 0 varies fastest, so the reversed
    product runs through ascending codes.  ConfigError comes at the call."""
    cells = len(src) * len(dst)
    if cells > MAX_REL_CELLS:
        raise ConfigError(f"cannot enumerate relations with {cells} cells (limit {MAX_REL_CELLS})")
    codes = product(range(1 << len(dst)), repeat=len(src))
    return map(Rel, repeat(src), repeat(dst), map(itemgetter(slice(None, None, -1)), codes))


def enumerate_preorders(carrier: FinSet) -> Iterator[Preorder]:
    for r in enumerate_relations(carrier, carrier):
        if is_preorder(r):
            yield Preorder(r)


def enumerate_fnmaps(src: FinSet, dst: FinSet) -> Iterator[FnMap]:
    # one empty map out of an empty carrier, none from a nonempty one into it
    for image in product(range(len(dst)), repeat=len(src)):
        yield FnMap(src, dst, image)


def enumerate_proms(max_a: int, max_b: int, at: int = 0) -> Iterator[Prom]:
    """Every prom on the carriers of chain object `at` within the bounds."""
    for size_a in range(max_a + 1):
        for size_b in range(max_b + 1):
            A, B = _carriers(PROM_CARRIERS, at, size_a, size_b)
            xs = list(enumerate_preorders(A))
            for y in enumerate_preorders(B):
                for f in enumerate_fnmaps(A, B):
                    for x in xs:
                        if order_violation(f, x.rel, y.rel) is None:
                            yield Prom(x, y, f)


def enumerate_representations(max_m: int, max_s: int, at: int = 0) -> Iterator[Representation]:
    """Every sound representation on the carriers of chain object `at` within the bounds."""
    for size_m in range(max_m + 1):
        for size_s in range(max_s + 1):
            M, S = _carriers(REP_CARRIERS, at, size_m, size_s)
            sats = list(enumerate_relations(M, S))
            for ord_ in enumerate_preorders(S):
                for sat in sats:
                    if leq(compose(sat, ord_.rel), sat):
                        yield Representation(sat, ord_)


def enumerate_rep_morphisms(r1: Representation, r2: Representation) -> Iterator[RepMorphism]:
    """All morphisms r1 → r2, in (φ, τ) order with τ by ascending code.

    The defining square is an equality, which rejection sampling essentially
    never hits, so exhaustive enumeration is the honest way to get at these
    hom-sets.  The square τ⨾⊨₁ = ⊨₂⨾φ^* holds row by row: row m of τ, a
    mask t ⊆ M₁, must select ⊨₁ rows whose union is row m of the right-hand
    side.  So each order-preserving φ admits exactly the product of the
    per-row candidate lists, taken with the last row outermost to keep the
    order of codes.  MAX_TAU_CELLS still bounds |M₂|·|M₁|, and with it the
    size of the output.
    """
    cells = len(r2.M) * len(r1.M)
    if cells > MAX_TAU_CELLS:
        raise ConfigError(f"tau enumeration over {cells} cells exceeds limit {MAX_TAU_CELLS}")
    unions = [0]  # unions[t]: the union of the ⊨₁ rows selected by t
    for row in r1.sat.rows if len(r2.M) else ():  # a τ without rows needs none
        unions += [u | row for u in unions]
    by_union: dict[int, list[int]] = {}
    for t, u in enumerate(unions):
        by_union.setdefault(u, []).append(t)
    for phi in enumerate_fnmaps(r1.S, r2.S):
        if order_violation(phi, r1.ord.rel, r2.ord.rel) is not None:
            continue
        rhs = compose(r2.sat, graph_upper(phi))
        choices = [by_union.get(row, ()) for row in reversed(rhs.rows)]
        for rows in product(*choices):
            yield RepMorphism(r1, r2, phi, Rel(r2.M, r1.M, rows[::-1]))


def enumerate_prom_morphisms(p1: Prom, p2: Prom) -> Iterator[PromMorphism]:
    """All morphisms p1 → p2 between valid proms, in (φ, ψ) product order.

    φ and ψ are each filtered for order preservation once; the ψ that pass
    are grouped by ψ∘f, so each φ meets exactly those with ψ∘f = f'∘φ."""
    f, f2 = p1.f.image, p2.f.image
    by_square: dict[tuple[int, ...], list[FnMap]] = {}
    for psi in enumerate_fnmaps(p1.B, p2.B):
        if order_violation(psi, p1.y.rel, p2.y.rel) is None:
            by_square.setdefault(tuple(psi.image[b] for b in f), []).append(psi)
    for phi in enumerate_fnmaps(p1.A, p2.A):
        if order_violation(phi, p1.x.rel, p2.x.rel) is None:
            for psi in by_square.get(tuple(f2[a] for a in phi.image), ()):
                yield PromMorphism(p1, p2, phi, psi)


def _enumerate_rep_morphisms_within(max_m: int, max_s: int) -> Iterator[RepMorphism]:
    """Every morphism r1 → r2 between representations within the bounds, r1 outermost."""
    reps, reps2 = (list(enumerate_representations(max_m, max_s, at)) for at in range(2))
    for r1, r2 in product(reps, reps2):
        yield from enumerate_rep_morphisms(r1, r2)


def _enumerate_rep_chains(max_m: int, max_s: int) -> Iterator[tuple[RepMorphism, RepMorphism]]:
    """Every composable pair r1 → r2 → r3 within the bounds, r2 outermost."""
    reps, reps2, reps3 = (list(enumerate_representations(max_m, max_s, at)) for at in range(3))
    for r2 in reps2:
        incoming = [m for r1 in reps for m in enumerate_rep_morphisms(r1, r2)]
        outgoing = [m for r3 in reps3 for m in enumerate_rep_morphisms(r2, r3)]
        yield from product(incoming, outgoing)


# ---------------------------------------------------------------------------
# instance schemas

#: Edge probability of a schema's `rel` fields.
SCHEMA_EDGE_PROBABILITY = 0.4


@dataclass(frozen=True)
class Schema:
    """A law family's instance space, from which both search modes derive.

    `carriers` are (name, label prefix, bound index) triples: each carrier
    has 0..bounds[index] elements.  `fields` are (key, kind, *args) tuples:

    - ("rel", src, dst): a relation between two carriers;
    - ("preorder", c): a preorder on a carrier;
    - ("fn", src, dst): a function between two carriers;
    - ("carrier", c): the carrier itself;
    - ("prom", i, j): a prom with |A| ≤ bounds[i] and |B| ≤ bounds[j];
    - ("rep", i, j): a representation with |M| ≤ bounds[i], |S| ≤ bounds[j];
    - ("prommor", i): a prom morphism with no carrier above bounds[i];
    - ("repmor", i, j): a representation morphism between two "rep" values;
    - ("prommor-chain", i), ("repmor-chain", i, j): a composable pair of
      such morphisms, under a tuple key ("m1", "m2") that names its parts.

    A single morphism is a chain of one.  A "prom" or "rep" value is chain
    object 0, and each object of a chain takes its carriers from its
    position in PROM_CARRIERS or REP_CARRIERS.

    `generate` draws the carrier sizes, then the fields, in declaration
    order; `enumerate` ranges over every size and field value, so each
    generated instance is also enumerated.  For each tuple of carrier sizes
    it streams the first field and holds the values of the others, so the
    largest field comes first.  A function's domain is empty when its codomain is, so
    the codomain carrier must be declared first.  The prommor kinds are never enumerated.
    """

    carriers: tuple[tuple[str, str, int], ...]
    fields: tuple[tuple, ...]

    def _fn_positions(self) -> list[tuple[int, int]]:
        pos = {name: i for i, (name, _, _) in enumerate(self.carriers)}
        return [(pos[args[0]], pos[args[1]]) for _, kind, *args in self.fields if kind == "fn"]

    def generate(self, rng: random.Random, bounds) -> dict:
        fns = self._fn_positions()
        sizes: list[int] = []
        for i, (_, _, bound) in enumerate(self.carriers):
            into_empty = any(src == i and sizes[dst] == 0 for src, dst in fns)
            sizes.append(0 if into_empty else rng.randint(0, bounds[bound]))
        return self._instance(draw(rng, *args) for (draw, _), args in self._fields(sizes, bounds))

    def enumerate(self, bounds) -> Iterator[dict]:
        """Every instance, streamed.  Rows of field values form in C, and so does each
        flat instance, `dict(zip(keys, row))`; only a chain's goes through `_instance`."""
        fns = self._fn_positions()
        for sizes in product(*(range(bounds[bound] + 1) for _, _, bound in self.carriers)):
            if any(sizes[src] and not sizes[dst] for src, dst in fns):
                continue
            first, *rest = [series(*args) for (_, series), args in self._fields(sizes, bounds)]
            pools = [tuple(values) for values in rest]
            rows = chain.from_iterable(map(product, zip(first), *map(repeat, pools))) if pools else zip(first)
            flat = self._flat_keys
            yield from map(self._instance, rows) if flat is None else map(dict, map(zip, repeat(flat), rows))

    def _fields(self, sizes, bounds):
        """(_FIELD_KINDS entry, resolved arguments) of each field, at these carrier sizes."""
        sets = {name: finset(name, size, prefix) for (name, prefix, _), size in zip(self.carriers, sizes)}
        for _, kind, *args in self.fields:
            yield _FIELD_KINDS[kind], [sets[a] if isinstance(a, str) else bounds[a] for a in args]

    @cached_property
    def _flat_keys(self) -> tuple[str, ...] | None:
        """The field keys in declaration order; None when a chain's tuple key names its parts."""
        keys = tuple(key for key, *_ in self.fields)
        return None if any(isinstance(key, tuple) for key in keys) else keys

    def _instance(self, values) -> dict:
        """The instance holding these field values, in declaration order."""
        if self._flat_keys is not None:
            return dict(zip(self._flat_keys, values))
        parts = [zip(key, value) if isinstance(key, tuple) else [(key, value)]
                 for (key, *_), value in zip(self.fields, values)]
        return dict(chain.from_iterable(parts))


#: Schema field kind → (one random value given an RNG, every value lazily or
#: None for a kind that is drawn only).  Both take the field's arguments
#: with carrier names resolved to carriers and bound indices to bounds.
_FIELD_KINDS = {
    "rel": (lambda rng, a, b: random_rel(rng, a, b, SCHEMA_EDGE_PROBABILITY), enumerate_relations),
    "preorder": (_gen_preorder, enumerate_preorders),
    "fn": (random_fnmap, enumerate_fnmaps),
    "carrier": (lambda rng, c: c, lambda c: (c,)),
    "prom": (lambda rng, i, j: _gen_prom(rng, rng.randint(0, i), rng.randint(0, j)), enumerate_proms),
    "rep": (
        lambda rng, i, j: _gen_representation(rng, rng.randint(0, i), rng.randint(0, j)),
        enumerate_representations,
    ),
    "prommor": (lambda rng, n: _gen_prom_chain(rng, n, 1)[0], None),
    "repmor": (lambda rng, i, j: _gen_rep_chain(rng, i, j, 1)[0], _enumerate_rep_morphisms_within),
    "prommor-chain": (lambda rng, n: _gen_prom_chain(rng, n, 2), None),
    "repmor-chain": (lambda rng, i, j: _gen_rep_chain(rng, i, j, 2), _enumerate_rep_chains),
}


# ---------------------------------------------------------------------------
# the law catalog

@dataclass(frozen=True)
class Witness:
    law: str
    seed: int | str
    structures: dict[str, Any]
    violation: str

    def to_doc(self) -> dict:
        return {
            "law": self.law,
            "seed": self.seed,
            "violation": self.violation,
            "structures": workspace.to_doc(workspace.build(self.structures)),
        }


@dataclass(frozen=True)
class LawSpec:
    law: str
    summary: str
    check: Callable  # (instance: dict) -> (violation | None, notes)
    generate: Callable  # (rng, bounds) -> instance
    enumerate: Callable | None  # bounds -> iterator of instances; None for a seeded-only law
    default_bounds: tuple[int, ...]
    exhaustive_limit: tuple[int, ...] | None
    powerset_base: tuple[str, int] | None = None  # (carrier, bound index) of every powerset's base
    tau_bound: int | None = None  # bound index that caps both carriers of every enumerated τ


def _invalid(what: str, obj) -> str | None:
    """None if obj is a valid structure, else why `what` is not one of obj's kind."""
    kind, check = VALIDATION[type(obj)]
    res = check(obj)
    return None if res else f"{what} is not a {kind}: {res.axiom} violated at {res.witness}"


# --- relation-algebra laws -------------------------------------------------

def _check_eq1(inst):
    x, y, z = inst["x"], inst["y"], inst["z"]
    lhs = leq(y, left_residual(x, z))
    rhs = leq(compose(x, y), z)
    if lhs != rhs:
        return f"residuation equivalence broken: y≤x\\z is {lhs} but x⨾y≤z is {rhs}", {}
    return None, {}


def _check_dual(inst):
    x, y, z = inst["x"], inst["y"], inst["z"]
    lhs = leq(x, right_residual(z, y))
    rhs = leq(compose(x, y), z)
    if lhs != rhs:
        return f"dual residuation broken: x≤z/y is {lhs} but x⨾y≤z is {rhs}", {}
    return None, {}


_TRIPLE = Schema(
    (("A", "a", 0), ("B", "b", 0), ("C", "c", 0)),
    (("x", "rel", "A", "B"), ("y", "rel", "B", "C"), ("z", "rel", "A", "C")),
)


def _check_modular(inst):
    x, y, f, g = inst["x"], inst["y"], inst["f"], inst["g"]
    lhs = compose(graph_lower(f), compose(left_residual(x, y), graph_upper(g)))
    rhs = left_residual(compose(x, graph_upper(f)), compose(y, graph_upper(g)))
    if not eq(lhs, rhs):
        return "modular tautology broken: f_*⨾(x\\y)⨾g^* ≠ (x⨾f^*)\\(y⨾g^*)", {}
    return None, {}


_MODULAR = Schema(
    (("A", "a", 0), ("B", "b", 0), ("C", "c", 0), ("D", "d", 0), ("E", "e", 0)),
    (("x", "rel", "A", "B"), ("y", "rel", "A", "C"), ("f", "fn", "D", "B"), ("g", "fn", "E", "C")),
)


def _check_single_axiom(inst):
    r = inst["r"]
    axioms = is_preorder(r)
    fixpoint = eq(r, left_residual(r, r))
    if axioms != fixpoint:
        return f"preorder axioms give {axioms} but r = r\\r gives {fixpoint}", {}
    return None, {"preorders": int(axioms)}


_SQUARE = Schema((("A", "a", 0),), (("r", "rel", "A", "A"),))


def _superset_masks(n: int) -> tuple[int, ...]:
    """Row α: the mask of all β ⊇ α among the subsets of n elements.

    This is the law's reference for ∈\\∈, so it is built from bitmasks
    alone and never from mem or left_residual: a kernel bug shared by both
    sides would cancel out.  The rows double once per base element i: a
    row α without i lets β hold i or not (r | r << 2^i), and the row of
    α + 2^i makes β hold i (r << 2^i).
    """
    rows = [1]
    for i in range(n):
        shift = 1 << i
        rows = [r | r << shift for r in rows] + [r << shift for r in rows]
    return tuple(rows)


def _check_mem_subset(inst):
    base = inst["A"]
    bundle = powerset(base)
    computed = left_residual(bundle.mem, bundle.mem)
    direct = Rel(bundle.carrier, bundle.carrier, _superset_masks(len(base)))
    if not eq(computed, direct):
        return "∈\\∈ differs from the subset order", {}
    return None, {}


_POWERSET_BASE = Schema((("M", "m", 0),), (("A", "carrier", "M"),))


def _check_lemma7(inst):
    x = inst["x"]
    if not eq(recover_by_membership(x), x):
        return "∈⨾(∈\\x) differs from x", {}
    return None, {}


_LEMMA7 = Schema((("A", "a", 0), ("B", "b", 1)), (("x", "rel", "A", "B"),))


def _check_psi_char(inst):
    tau, y = inst["tau"], inst["y"]
    if not eq(compose(powerset(tau.src).mem, graph_upper(rel_to_map(tau, y))), compose(tau, y.rel)):
        return "characterization ∈⨾(Ψτ)^* = τ⨾y broken", {}
    return None, {}


_PSI = Schema((("M", "m", 0), ("B", "b", 1)), (("tau", "rel", "M", "B"), ("y", "preorder", "B")))


def _check_soundness_equiv(inst):
    sat, ord_rel = inst["sat"], inst["ord"]
    sound = leq(compose(sat, ord_rel), sat)
    residual = leq(ord_rel, left_residual(sat, sat))
    if sound != residual:
        return f"soundness is {sound} but ≤ ≤ ⊨\\⊨ is {residual}", {}
    return None, {}


_SOUNDNESS = Schema(
    (("M", "m", 0), ("S", "s", 1)),
    (("sat", "rel", "M", "S"), ("ord", "rel", "S", "S")),
)


# --- functor laws ----------------------------------------------------------

def _check_lemma1(inst):
    return _invalid("image", prom_to_rep(inst["p"])), {}


_PROM = Schema((), (("p", "prom", 0, 1),))


def _check_lemma2(inst):
    return _invalid("image", prommor_to_repmor(inst["m"])), {}


_PROMMOR = Schema((), (("m", "prommor", 0),))


def _check_lemma3(inst):
    m1, m2 = inst["m1"], inst["m2"]
    notes = {}
    rp = prom_to_rep(m1.src)
    r_id = prommor_to_repmor(identity_prom_morphism(m1.src))
    ident = identity_rep_morphism(rp)
    if not repmor_leq(ident, r_id):
        return "identity 1-cell is not below R(id)", notes
    notes["strict"] = int(not repmor_leq(r_id, ident))
    composite = prommor_to_repmor(compose_prom_morphisms(m2, m1))
    pieces = compose_rep_morphisms(prommor_to_repmor(m2), prommor_to_repmor(m1))
    if not repmor_leq(composite, pieces):
        return "R(m2∘m1) is not below R(m2)∘R(m1)", notes
    return None, notes


_PROMMOR_CHAIN = Schema((), ((("m1", "m2"), "prommor-chain", 0),))


def _check_lemma4(inst):
    r = inst["R"]
    mp = rep_to_prom(r)
    bad = _invalid("image", mp)
    if bad:
        return bad, {}
    if not eq(compose(powerset(r.M).mem, graph_upper(mp.f)), r.sat):
        return "∈⨾f^* differs from ⊨", {}
    return None, {}


_REP = Schema((), (("R", "rep", 0, 1),))


def _check_lemma5(inst):
    return _invalid("image", repmor_to_prommor(inst["m"])), {}


_REPMOR = Schema((), (("m", "repmor", 0, 1),))
_REPMOR_ONE_BOUND = Schema((), (("m", "repmor", 0, 0),))  # counit-natural's one bound caps |M| and |S|


def _check_lemma6(inst):
    m1, m2 = inst["m1"], inst["m2"]
    r = m1.src
    ident_img = repmor_to_prommor(identity_rep_morphism(r))
    ident = identity_prom_morphism(rep_to_prom(r))
    if ident_img != ident:
        return "M(id) differs from id", {}
    composite = repmor_to_prommor(compose_rep_morphisms(m2, m1))
    pieces = compose_prom_morphisms(repmor_to_prommor(m2), repmor_to_prommor(m1))
    if composite != pieces:
        return "M(m2∘m1) differs from M(m2)∘M(m1)", {}
    return None, {}


_REPMOR_CHAIN = Schema((), ((("m1", "m2"), "repmor-chain", 0, 1),))


# --- adjunction laws -------------------------------------------------------

def _check_triangle_repr(inst):
    p = inst["p"]
    res = triangle_rep(p)
    if not res.equals_expected:
        return "ε∘R(η) differs from (id, y)", {}
    if not res.dominates_identity:
        return "triangle 2-cell id ⩽ ε∘R(η) fails", {}
    return None, {"strict": int(res.strict)}


def _check_triangle_pom(inst):
    r = inst["R"]
    if not triangle_prom(r):
        return "M(ε)∘η is not the identity", {}
    return None, {}


def _check_unit_natural(inst):
    m = inst["m"]
    eta_src, eta_dst = unit(m.src), unit(m.dst)
    bad = _invalid("unit", eta_src) or _invalid("unit", eta_dst)
    if bad:
        return bad, {}
    lhs = compose_prom_morphisms(eta_dst, m)
    if lhs != compose_prom_morphisms(repmor_to_prommor(prommor_to_repmor(m)), eta_src):
        return "unit naturality square does not commute", {}
    return None, {}


def _check_counit_natural(inst):
    m = inst["m"]
    eps_src, eps_dst = counit(m.src), counit(m.dst)
    bad = _invalid("counit", eps_src) or _invalid("counit", eps_dst)
    if bad:
        return bad, {}
    lhs = compose_rep_morphisms(eps_dst, prommor_to_repmor(repmor_to_prommor(m)))
    if lhs != compose_rep_morphisms(m, eps_src):
        return "counit naturality square does not commute", {}
    return None, {}


def _hom_sets(inst):
    """A lemma 8/9 instance's p, r and hom-sets R(p) → r and p → M(r)."""
    p, r = inst["p"], inst["R"]
    rep_homs = list(enumerate_rep_morphisms(prom_to_rep(p), r))
    return p, r, rep_homs, list(enumerate_prom_morphisms(p, rep_to_prom(r)))


def _maps(m) -> tuple:
    """A morphism's key within its hom-set, whose ends are fixed: its maps."""
    return m.phi.image, m.psi.image if isinstance(m, PromMorphism) else m.tau.rows


def _check_lemma8(inst):
    p, r, rep_homs, prom_homs = _hom_sets(inst)
    listed_prom, listed_rep = {_maps(m) for m in prom_homs}, {_maps(m) for m in rep_homs}
    for m in rep_homs:
        image = lift(m, p)
        bad = _invalid("Ψ image", image)
        if bad or _maps(image) not in listed_prom:
            return bad or "Ψ image is not in the listed Hom(p, M r)", {}
    for m in prom_homs:
        image = lower(m, r)
        bad = _invalid("T image", image)
        if bad or _maps(image) not in listed_rep:
            return bad or "T image is not in the listed Hom(R p, r)", {}
    return None, {"rep_homs": len(rep_homs), "prom_homs": len(prom_homs)}


def _check_lemma9(inst):
    p, r, rep_homs, prom_homs = _hom_sets(inst)
    notes = {"rep_homs": len(rep_homs), "prom_homs": len(prom_homs), "strict_t_psi": 0}
    for m in prom_homs:
        back = lift(lower(m, r), p)
        if back != m:
            return "ΨT is not the identity on prom morphisms", notes
    listed_rep = {_maps(m) for m in rep_homs}
    for m in rep_homs:
        around = lower(lift(m, p), r)
        if not repmor_leq(m, around):
            return "TΨ does not dominate the identity", notes
        if not eq(around.tau, compose(m.tau, p.y.rel)):
            return "TΨ(τ) differs from τ⨾y", notes
        if _maps(around) not in listed_rep:
            return "TΨ image is not in the listed Hom(R p, r)", notes
        if not repmor_leq(around, m):
            notes["strict_t_psi"] += 1
    if len(prom_homs) != len(rep_homs) - notes["strict_t_psi"]:
        return "|Hom(p, M r)| differs from |Hom(R p, r)| less the strict TΨ", notes
    return None, notes


_HOM_PAIR = Schema((), (("p", "prom", 0, 0), ("R", "rep", 0, 0)))


# --- exactness laws --------------------------------------------------------

def _check_lemma10(inst):
    r = inst["R"]
    exact = is_exact(r)
    reflecting = is_order_reflecting(rep_to_prom(r))
    if exact != reflecting:
        return f"exactness is {exact} but order reflection of the image is {reflecting}", {}
    if exact and not eq(left_residual(r.sat, r.sat), r.ord.rel):
        return "exactness inequation is not an identity", {}
    return None, {"exact": int(exact), "non_exact": int(not exact)}


def _check_lemma11(inst):
    p = inst["p"]
    reflecting = is_order_reflecting(p)
    exact = is_exact(prom_to_rep(p))
    if reflecting != exact:
        return f"order reflection is {reflecting} but exactness of the image is {exact}", {}
    if reflecting and not eq(p.x.rel, pullback(p.y.rel, p.f)):
        return "order-reflection inequation is not an identity", {}
    return None, {"reflecting": int(reflecting), "non_reflecting": int(not reflecting)}


# ---------------------------------------------------------------------------

CATALOG: dict[str, LawSpec] = {}


def _law(law, summary, check, schema, default_bounds=(3,), limit=None, powerset_base=None, tau_bound=None):
    """Register a law over `schema`'s instances, seeded-only if it has no exhaustive `limit`.

    `powerset_base` names the carrier whose powerset the check builds and
    the bound that sizes it, so that `search` rejects a bound over the cap
    before its first trial; None for a law that builds no powerset.
    `tau_bound` likewise names the bound on both carriers of the τ that
    `enumerate_rep_morphisms` lists, so that `search` rejects one whose
    square exceeds MAX_TAU_CELLS; None for a law that lists no τ.

    The registered check first validates the fields `schema` declares structures
    (every kind but rel, fn and carrier; both parts of a chain), so invalid input
    raises InvalidStructure instead of yielding a witness.  Without any, it is `check`."""
    fields = [(key if isinstance(key, tuple) else (key,), kind) for key, kind, *_ in schema.fields]
    keys = [part for parts, kind in fields if kind not in ("rel", "fn", "carrier") for part in parts]

    def validated(inst):
        for key in keys:
            validate(inst[key])
        return check(inst)

    enumerate_ = schema.enumerate if limit is not None else None
    CATALOG[law] = LawSpec(law, summary, validated if keys else check, schema.generate, enumerate_,
                           default_bounds, limit, powerset_base, tau_bound)


_law("eq1-galois", "y ≤ x\\z ⇔ x⨾y ≤ z", _check_eq1, _TRIPLE, (3,), (2,))
_law("dual-galois", "x ≤ z/y ⇔ x⨾y ≤ z", _check_dual, _TRIPLE, (3,), (2,))
_law("modular-tautology", "f_*⨾(x\\y)⨾g^* = (x⨾f^*)\\(y⨾g^*)", _check_modular, _MODULAR, (3,), (2,))
_law("preorder-single-axiom", "preorder(r) ⇔ r = r\\r", _check_single_axiom, _SQUARE, (3,), (4,))
# At |M| = 7, ∈ has rows 128 columns wide, so a default run lists bits
# through `rel._scan`, which narrower rows never reach.
_law("mem-residual-subset", "∈\\∈ = ⊆", _check_mem_subset, _POWERSET_BASE, (7,), (8,), powerset_base=("M", 0))
_law("lemma1", "R sends proms to sound representations", _check_lemma1, _PROM, (4, 4), (2, 2))
_law("lemma2", "R sends prom morphisms to representation morphisms", _check_lemma2, _PROMMOR, (4,))
_law("lemma3", "R is lax: id ⩽ R(id) and R(m2∘m1) ⩽ R(m2)∘R(m1)", _check_lemma3, _PROMMOR_CHAIN, (3,))
_law("lemma4", "M sends representations to proms, with ∈⨾f^* = ⊨", _check_lemma4, _REP, (3, 3), (2, 2), powerset_base=("M", 0))
_law("lemma5", "M sends representation morphisms to prom morphisms", _check_lemma5, _REPMOR, (2, 2), (2, 2), powerset_base=("M", 0), tau_bound=0)
# lemma6 caps |S| at 1 in exhaustive mode: representations with empty sat have
# hom-sets of every phi and tau, so the composable-pair space at (2,2)
# already exceeds five million instances.  The composition equality
# factors through the tau pair alone; the tests cover the larger bound
# through direct images of tau pairs, without the cross product.
_law("lemma6", "M is strictly functorial: M(id) = id and M(m2∘m1) = M(m2)∘M(m1)", _check_lemma6, _REPMOR_CHAIN, (2, 2), (2, 1), powerset_base=("M", 0), tau_bound=0)
_law("lemma7", "x = ∈⨾(∈\\x)", _check_lemma7, _LEMMA7, (2, 3), (4, 4), powerset_base=("A", 0))
_law("lemma8", "Ψ and T produce morphisms of the appropriate kind", _check_lemma8, _HOM_PAIR, (2,), (2,), powerset_base=("M", 0), tau_bound=0)
_law("lemma9", "ΨT(φ,ψ) = (φ,ψ) and (φ,τ) ⩽ TΨ(φ,τ)", _check_lemma9, _HOM_PAIR, (2,), (2,), powerset_base=("M", 0), tau_bound=0)
_law("lemma10", "R exact ⇔ M(R) order-reflecting", _check_lemma10, _REP, (3, 3), (2, 2), powerset_base=("M", 0))
_law("lemma11", "p order-reflecting ⇔ R(p) exact", _check_lemma11, _PROM, (4, 4), (2, 2))
_law("triangle-repr", "ε∘R(η) = (id, y) ⩾ id", _check_triangle_repr, _PROM, (3, 3), (2, 2), powerset_base=("B", 1))
_law("triangle-pom", "M(ε)∘η = id", _check_triangle_pom, _REP, (3, 3), (2, 2), powerset_base=("M", 0))
_law("unit-natural", "η commutes with every prom morphism", _check_unit_natural, _PROMMOR, (3,), powerset_base=("B", 0))
_law("counit-natural", "ε commutes with every representation morphism", _check_counit_natural, _REPMOR_ONE_BOUND, (2,), powerset_base=("M", 0), tau_bound=0)
_law("psi-characterization", "∈⨾(Ψτ)^* = τ⨾y", _check_psi_char, _PSI, (3, 3), (2, 2), powerset_base=("M", 0))
_law("soundness-residual-equiv", "⊨⨾≤ ≤ ⊨ ⇔ ≤ ≤ ⊨\\⊨", _check_soundness_equiv, _SOUNDNESS, (3, 3), (2, 2))


def _spec(law: str) -> LawSpec:
    spec = CATALOG.get(law)
    if spec is None:
        raise ConfigError(f"unknown law {law!r}")
    return spec


def check_law(law: str, instance: dict) -> Witness | None:
    """Run one law on one instance; None means the law holds there.  The
    witness is labelled "manual", as no search drew the instance."""
    violation, _ = _spec(law).check(instance)
    if violation is None:
        return None
    return Witness(law, "manual", dict(instance), violation)


def _run(spec: LawSpec, stream) -> tuple[int, dict[str, int], Witness | None]:
    """The law on each (label, instance) of `stream` up to the first witness:
    (instances checked, their notes summed with zeros kept, witness or None).
    A generated or enumerated instance is valid unless the kernel is broken,
    so its invalidity is a violation, as is any other ValueError the check
    raises, such as a kernel result that fails its constructor's check."""
    check, checked, totals = spec.check, 0, {}
    for checked, (label, instance) in enumerate(stream, 1):
        try:
            violation, notes = check(instance)
        except InvalidStructure as e:
            violation, notes = f"instance is not valid: {e}", {}
        except ValueError as e:
            violation, notes = f"check raised {type(e).__name__}: {e}", {}
        if notes:
            for key, value in notes.items():
                totals[key] = totals.get(key, 0) + value
        if violation is not None:
            return checked, totals, Witness(spec.law, label, dict(instance), violation)
    return checked, totals, None


def replay(witness: Witness) -> bool:
    """True iff re-running the law on the witness structures reproduces it."""
    _, _, again = _run(_spec(witness.law), [(witness.seed, witness.structures)])
    return again is not None and again.violation == witness.violation


# ---------------------------------------------------------------------------
# search

@dataclass(frozen=True)
class SearchConfig:
    law: str
    mode: str = "seeded"  # "seeded" | "exhaustive"; either stops at its first witness
    bounds: tuple[int, ...] | None = None
    trials: int = 200
    seed: int = 0
    parallelism: int = 1  # validated (at least 1), but trials run serially


@dataclass
class SearchSummary:
    law: str
    mode: str
    bounds: tuple[int, ...]
    seed: int | None
    checked: int
    notes: dict[str, int] = field(default_factory=dict)
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def lines(self) -> list[str]:
        out = [
            f"law: {self.law}",
            f"mode: {self.mode}",
            f"bounds: {','.join(map(str, self.bounds))}",
            f"seed: {self.seed if self.seed is not None else '-'}",
            f"checked: {self.checked}",
        ]
        for key in sorted(self.notes):
            out.append(f"note.{key}: {self.notes[key]}")
        out.append(f"witnesses: {0 if self.passed else 1}")
        out.append(f"result: {'pass' if self.passed else 'fail'}")
        return out


def _normalize_bounds(spec: LawSpec, bounds) -> tuple[int, ...]:
    """The law's sizes: a shorter list is padded with its last size, a longer one rejected."""
    if bounds is None:
        return spec.default_bounds
    bounds = tuple(bounds)
    want = len(spec.default_bounds)
    if len(bounds) > want:
        raise ConfigError(f"bounds {bounds!r} give {len(bounds)} sizes, but law {spec.law!r} takes {want}")
    return bounds + (bounds[-1],) * (want - len(bounds))


def search(config: SearchConfig) -> SearchSummary:
    """Check the law on its seeded or exhaustive stream up to the first witness
    (`_run`); exhaustive instances are labelled in C."""
    spec = _spec(config.law)
    if config.parallelism < 1:
        raise ConfigError(f"parallelism must be at least 1, got {config.parallelism}")
    if config.trials < 0:
        raise ConfigError("trials must be nonnegative")
    if config.bounds is not None and (len(config.bounds) == 0 or min(config.bounds) < 0):
        raise ConfigError(f"bounds must be one or more nonnegative sizes, got {config.bounds!r}")
    bounds = _normalize_bounds(spec, config.bounds)
    if spec.powerset_base is not None:
        base, index = spec.powerset_base
        if bounds[index] > POWERSET_CAP:
            raise ConfigError(
                f"|{base}| = {bounds[index]} exceeds powerset cap {POWERSET_CAP}: "
                f"law {spec.law!r} builds 2^{base} with |{base}| up to that bound"
            )
    if spec.tau_bound is not None and bounds[spec.tau_bound] ** 2 > MAX_TAU_CELLS:
        size = bounds[spec.tau_bound]
        raise ConfigError(
            f"tau enumeration over up to {size}·{size} cells exceeds limit {MAX_TAU_CELLS}: "
            f"law {spec.law!r} lists every τ between carriers of up to {size} points"
        )
    if config.mode == "exhaustive":
        if spec.enumerate is None:
            raise ConfigError(f"law {spec.law!r} supports seeded mode only")
        if any(b > lim for b, lim in zip(bounds, spec.exhaustive_limit)):
            raise ConfigError(
                f"bounds {bounds} exceed the hard enumeration limit {spec.exhaustive_limit} "
                f"for law {spec.law!r}"
            )
        seed = None
        stream = zip(repeat("exhaustive"), spec.enumerate(bounds))
    elif config.mode == "seeded":
        seed = config.seed
        children = (mix_seed(seed, i) for i in range(config.trials))
        stream = ((child, spec.generate(random.Random(child), bounds)) for child in children)
    else:
        raise ConfigError(f"unknown mode {config.mode!r}")
    return SearchSummary(spec.law, config.mode, bounds, seed, *_run(spec, stream))
