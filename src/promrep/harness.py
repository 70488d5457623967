"""Generators, enumerators, the law catalog, and counterexample search.

Every law in the catalog is a theorem for valid inputs, so a witness found
by `search` signals a kernel bug rather than a refuted conjecture; the
harness still reports it faithfully, with the offending structures
serialized so the violation can be replayed.

Each law family's instances are described once, as a `Schema`; its seeded
generator and exhaustive enumerator are both derived from that description,
so the two search modes range over the same instance space.

Seeded runs are deterministic: trial i derives its own RNG from a 64-bit
mix of (seed, i), so a run's result depends only on the seed and the trial
count.  Trials run serially.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Iterator

from . import workspace
from .rel import (
    DEFAULT_POWERSET_CAP,
    FinSet,
    FnMap,
    Rel,
    compose,
    compose_maps,
    eq,
    finset,
    fn_eq_into_powerset,
    graph_lower,
    graph_upper,
    identity,
    identity_map,
    left_residual,
    leq,
    powerset,
    right_residual,
)
from .structures import (
    CheckResult,
    InvalidStructure,
    Preorder,
    Prom,
    PromMorphism,
    Representation,
    RepMorphism,
    check_preorder,
    check_prom,
    check_prom_morphism,
    check_rep_morphism,
    check_representation,
    compose_prom_morphisms,
    compose_rep_morphisms,
    identity_prom_morphism,
    identity_rep_morphism,
    is_preorder,
    order_violation,
    preorder_closure,
    repmor_leq,
)
from .functors import (
    direct_image,
    prom_to_rep,
    prommor_to_repmor,
    rep_to_prom,
    repmor_to_prommor,
)
from .adjunction import (
    counit,
    counit_natural,
    lift,
    lower,
    map_to_rel,
    recover_by_membership,
    rel_to_map,
    triangle_prom,
    triangle_rep,
    unit,
    unit_natural,
)
from .exactness import (
    exactness_is_identity,
    is_exact,
    is_order_reflecting,
    reflection_is_identity,
)


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


def gen_preorder(seed: int, size: int, name: str = "A", prefix: str = "a") -> Preorder:
    return _gen_preorder(random.Random(seed), finset(name, size, prefix))


def _thin(rng: random.Random, r: Rel) -> Rel:
    rows = []
    for row in r.rows:
        mask = 0
        for j in range(len(r.dst)):
            if row >> j & 1 and rng.random() < 0.5:
                mask |= 1 << j
        rows.append(mask)
    return Rel(r.src, r.dst, tuple(rows))


def _pullback(pre: Preorder, f: FnMap) -> Rel:
    """f_*⨾y⨾f^*: the preorder on the source induced through f."""
    return compose(graph_lower(f), compose(pre.rel, graph_upper(f)))


def _gen_prom(
    rng: random.Random,
    size_a: int,
    size_b: int,
    a: tuple[str, str] = ("A", "a"),
    b: tuple[str, str] = ("B", "b"),
) -> Prom:
    """A random prom.  Half the time x is the full pullback of y along f
    (hence order-reflecting); otherwise a thinned-out sub-preorder of it,
    which still makes f order-preserving by construction."""
    if size_b == 0:
        size_a = 0  # no map into an empty carrier
    A = finset(a[0], size_a, a[1])
    B = finset(b[0], size_b, b[1])
    y = _gen_preorder(rng, B)
    f = random_fnmap(rng, A, B)
    pull = _pullback(y, f)
    if rng.random() < 0.5:
        x = Preorder(pull, check=False)
    else:
        x = preorder_closure(_thin(rng, pull))
    return Prom(x, y, f, check=False)


def gen_prom(seed: int, size_a: int, size_b: int) -> Prom:
    return _gen_prom(random.Random(seed), size_a, size_b)


def _gen_representation(
    rng: random.Random,
    size_m: int,
    size_s: int,
    m: tuple[str, str] = ("M", "m"),
    s: tuple[str, str] = ("S", "s"),
) -> Representation:
    """A random sound representation: sat is a random relation post-composed
    with the preorder, so soundness holds by transitivity."""
    M = finset(m[0], size_m, m[1])
    S = finset(s[0], size_s, s[1])
    ord_ = _gen_preorder(rng, S)
    sat = compose(random_rel(rng, M, S), ord_.rel)
    return Representation(sat, ord_, check=False)


def gen_representation(seed: int, size_m: int, size_s: int) -> Representation:
    return _gen_representation(random.Random(seed), size_m, size_s)


def _gen_prom_morphism_into(
    rng: random.Random,
    dst: Prom,
    max_size: int,
    a: tuple[str, str] = ("A", "a"),
    b: tuple[str, str] = ("B", "b"),
) -> PromMorphism:
    """A random prom morphism with the given destination.

    psi is built surjective so every source point of f' has a fiber to pick
    f from; x and y are (sub-)pullbacks along phi and psi, which makes all
    three morphism axioms hold by construction.
    """
    size_a = rng.randint(0, max_size) if len(dst.A) > 0 else 0
    size_b2 = len(dst.B)
    size_b = size_b2 + rng.randint(0, max(0, max_size - size_b2)) if size_b2 > 0 else 0
    A = finset(a[0], size_a, a[1])
    B = finset(b[0], size_b, b[1])
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
    y = Preorder(_pullback(dst.y, psi), check=False)
    x_pull = _pullback(dst.x, phi)
    if rng.random() < 0.5:
        x = Preorder(x_pull, check=False)
    else:
        x = preorder_closure(_thin(rng, x_pull))
    src = Prom(x, y, f, check=False)
    return PromMorphism(src, dst, phi, psi, check=False)


def _gen_prom_morphism(rng: random.Random, max_size: int) -> PromMorphism:
    dst = _gen_prom(rng, rng.randint(0, max_size), rng.randint(0, max_size), ("A2", "c"), ("B2", "d"))
    return _gen_prom_morphism_into(rng, dst, max_size)


def gen_prom_morphism(seed: int, max_size: int) -> PromMorphism:
    return _gen_prom_morphism(random.Random(seed), max_size)


def _gen_rep_morphism(rng: random.Random, max_size: int) -> RepMorphism:
    """A random representation morphism, by enumerating the hom-set between
    two random representations; falls back to an identity when it is empty."""
    r1 = _gen_representation(rng, rng.randint(0, max_size), rng.randint(0, max_size))
    r2 = _gen_representation(
        rng, rng.randint(0, max_size), rng.randint(0, max_size), ("M2", "n"), ("S2", "t")
    )
    homs = list(enumerate_rep_morphisms(r1, r2))
    if homs:
        return rng.choice(homs)
    return identity_rep_morphism(r1)


def gen_rep_morphism(seed: int, max_size: int) -> RepMorphism:
    return _gen_rep_morphism(random.Random(seed), max_size)


# ---------------------------------------------------------------------------
# exhaustive enumerators

MAX_REL_CELLS = 16
MAX_TAU_CELLS = 9


def enumerate_relations(src: FinSet, dst: FinSet) -> Iterator[Rel]:
    cells = len(src) * len(dst)
    if cells > MAX_REL_CELLS:
        raise ConfigError(f"cannot enumerate relations with {cells} cells (limit {MAX_REL_CELLS})")
    width = len(dst)
    mask = (1 << width) - 1
    for code in range(1 << cells):
        rows = tuple((code >> (i * width)) & mask for i in range(len(src)))
        yield Rel(src, dst, rows)


def enumerate_preorders(carrier: FinSet) -> Iterator[Preorder]:
    for r in enumerate_relations(carrier, carrier):
        if is_preorder(r):
            yield Preorder(r, check=False)


def enumerate_fnmaps(src: FinSet, dst: FinSet) -> Iterator[FnMap]:
    # one empty map out of an empty carrier, none from a nonempty one into it
    for image in product(range(len(dst)), repeat=len(src)):
        yield FnMap(src, dst, image)


def enumerate_proms(
    max_a: int,
    max_b: int,
    a: tuple[str, str] = ("A", "a"),
    b: tuple[str, str] = ("B", "b"),
) -> Iterator[Prom]:
    for size_a in range(max_a + 1):
        for size_b in range(max_b + 1):
            A = finset(a[0], size_a, a[1])
            B = finset(b[0], size_b, b[1])
            for y in enumerate_preorders(B):
                for f in enumerate_fnmaps(A, B):
                    for x in enumerate_preorders(A):
                        if order_violation(f, x.rel, y.rel) is None:
                            yield Prom(x, y, f, check=False)


def enumerate_representations(
    max_m: int,
    max_s: int,
    m: tuple[str, str] = ("M", "m"),
    s: tuple[str, str] = ("S", "s"),
) -> Iterator[Representation]:
    for size_m in range(max_m + 1):
        for size_s in range(max_s + 1):
            M = finset(m[0], size_m, m[1])
            S = finset(s[0], size_s, s[1])
            for ord_ in enumerate_preorders(S):
                for sat in enumerate_relations(M, S):
                    if leq(compose(sat, ord_.rel), sat):
                        yield Representation(sat, ord_, check=False)


def enumerate_rep_morphisms(r1: Representation, r2: Representation) -> Iterator[RepMorphism]:
    """All morphisms r1 → r2, by brute force over phi and tau.

    The defining square is an equality, which rejection sampling essentially
    never hits, so exhaustive enumeration is the honest way to get at these
    hom-sets."""
    cells = len(r2.M) * len(r1.M)
    if cells > MAX_TAU_CELLS:
        raise ConfigError(f"tau enumeration over {cells} cells exceeds limit {MAX_TAU_CELLS}")
    for phi in enumerate_fnmaps(r1.S, r2.S):
        if order_violation(phi, r1.ord.rel, r2.ord.rel) is not None:
            continue
        rhs = compose(r2.sat, graph_upper(phi))
        for tau in enumerate_relations(r2.M, r1.M):
            if eq(compose(tau, r1.sat), rhs):
                yield RepMorphism(r1, r2, phi, tau, check=False)


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
                yield PromMorphism(p1, p2, phi, psi, check=False)


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
    - ("rep", i, j): a representation with |M| ≤ bounds[i], |S| ≤ bounds[j].

    `generate` draws the carrier sizes, then the fields, in declaration
    order; `enumerate` ranges over every size and field value, so each
    generated instance is also enumerated.  For each tuple of carrier sizes
    it streams the first field and holds the values of the others, so the
    largest field comes first.  A function's domain is empty when its codomain is, so
    the codomain carrier must be declared first.
    """

    carriers: tuple[tuple[str, str, int], ...]
    fields: tuple[tuple, ...]

    def _fn_positions(self) -> list[tuple[int, int]]:
        pos = {name: i for i, (name, _, _) in enumerate(self.carriers)}
        return [(pos[args[0]], pos[args[1]]) for _, kind, *args in self.fields if kind == "fn"]

    def generate(self, rng: random.Random, bounds, cap) -> dict:
        fns = self._fn_positions()
        sizes: list[int] = []
        for i, (_, _, bound) in enumerate(self.carriers):
            into_empty = any(src == i and sizes[dst] == 0 for src, dst in fns)
            sizes.append(0 if into_empty else rng.randint(0, bounds[bound]))
        sets = self._carriers(sizes)
        return {f[0]: _draw(rng, f, sets, bounds) for f in self.fields}

    def enumerate(self, bounds, cap) -> Iterator[dict]:
        fns = self._fn_positions()
        keys = [key for key, *_ in self.fields]
        first, rest = self.fields[0], self.fields[1:]
        for sizes in product(*(range(bounds[bound] + 1) for _, _, bound in self.carriers)):
            if any(sizes[src] and not sizes[dst] for src, dst in fns):
                continue
            sets = self._carriers(sizes)
            pools = [tuple(_series(f, sets, bounds)) for f in rest]
            for value in _series(first, sets, bounds):
                for others in product(*pools):
                    yield dict(zip(keys, (value, *others)))

    def _carriers(self, sizes) -> dict[str, FinSet]:
        return {name: finset(name, size, prefix) for (name, prefix, _), size in zip(self.carriers, sizes)}


def _draw(rng: random.Random, field: tuple, sets: dict, bounds):
    """One random value of a schema field."""
    _, kind, *args = field
    if kind == "rel":
        return random_rel(rng, sets[args[0]], sets[args[1]], SCHEMA_EDGE_PROBABILITY)
    if kind == "preorder":
        return _gen_preorder(rng, sets[args[0]])
    if kind == "fn":
        return random_fnmap(rng, sets[args[0]], sets[args[1]])
    if kind == "carrier":
        return sets[args[0]]
    if kind == "prom":
        return _gen_prom(rng, rng.randint(0, bounds[args[0]]), rng.randint(0, bounds[args[1]]))
    if kind == "rep":
        return _gen_representation(rng, rng.randint(0, bounds[args[0]]), rng.randint(0, bounds[args[1]]))
    raise ValueError(f"unknown schema field kind {kind!r}")


def _series(field: tuple, sets: dict, bounds):
    """Every value of a schema field, lazily."""
    _, kind, *args = field
    if kind == "rel":
        return enumerate_relations(sets[args[0]], sets[args[1]])
    if kind == "preorder":
        return enumerate_preorders(sets[args[0]])
    if kind == "fn":
        return enumerate_fnmaps(sets[args[0]], sets[args[1]])
    if kind == "carrier":
        return (sets[args[0]],)
    if kind == "prom":
        return enumerate_proms(bounds[args[0]], bounds[args[1]])
    if kind == "rep":
        return enumerate_representations(bounds[args[0]], bounds[args[1]])
    raise ValueError(f"unknown schema field kind {kind!r}")


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
    check: Callable  # (instance: dict, cap: int) -> (violation | None, notes)
    generate: Callable | None  # (rng, bounds, cap) -> instance
    enumerate: Callable | None  # (bounds, cap) -> iterator of instances
    default_bounds: tuple[int, ...]
    exhaustive_limit: tuple[int, ...] | None


def _ok() -> tuple[None, dict]:
    return None, {}


def _require(result: CheckResult, kind: str):
    if not result:
        raise InvalidStructure(kind, result)


def _fmt(res: CheckResult) -> str:
    return f"{res.axiom} violated at {res.witness}"


# --- relation-algebra laws -------------------------------------------------

def _check_eq1(inst, cap):
    x, y, z = inst["x"], inst["y"], inst["z"]
    lhs = leq(y, left_residual(x, z))
    rhs = leq(compose(x, y), z)
    if lhs != rhs:
        return f"residuation equivalence broken: y≤x\\z is {lhs} but x⨾y≤z is {rhs}", {}
    return _ok()


def _check_dual(inst, cap):
    x, y, z = inst["x"], inst["y"], inst["z"]
    lhs = leq(x, right_residual(z, y))
    rhs = leq(compose(x, y), z)
    if lhs != rhs:
        return f"dual residuation broken: x≤z/y is {lhs} but x⨾y≤z is {rhs}", {}
    return _ok()


_TRIPLE = Schema(
    (("A", "a", 0), ("B", "b", 0), ("C", "c", 0)),
    (("x", "rel", "A", "B"), ("y", "rel", "B", "C"), ("z", "rel", "A", "C")),
)


def _check_modular(inst, cap):
    x, y, f, g = inst["x"], inst["y"], inst["f"], inst["g"]
    lhs = compose(graph_lower(f), compose(left_residual(x, y), graph_upper(g)))
    rhs = left_residual(compose(x, graph_upper(f)), compose(y, graph_upper(g)))
    if not eq(lhs, rhs):
        return "modular tautology broken: f_*⨾(x\\y)⨾g^* ≠ (x⨾f^*)\\(y⨾g^*)", {}
    return _ok()


_MODULAR = Schema(
    (("A", "a", 0), ("B", "b", 0), ("C", "c", 0), ("D", "d", 0), ("E", "e", 0)),
    (("x", "rel", "A", "B"), ("y", "rel", "A", "C"), ("f", "fn", "D", "B"), ("g", "fn", "E", "C")),
)


def _check_single_axiom(inst, cap):
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
    sides would cancel out.  Each row grows one base element at a time:
    β must contain element i when α does, and may or may not otherwise.
    """
    rows = []
    for alpha in range(1 << n):
        row = 1
        for i in range(n):
            if alpha >> i & 1:
                row <<= 1 << i
            else:
                row |= row << (1 << i)
        rows.append(row)
    return tuple(rows)


def _check_mem_subset(inst, cap):
    base = inst["A"]
    bundle = powerset(base, cap)
    computed = left_residual(bundle.mem, bundle.mem)
    direct = Rel(bundle.carrier, bundle.carrier, _superset_masks(len(base)))
    if not eq(computed, direct):
        return "∈\\∈ differs from the subset order", {}
    return _ok()


_POWERSET_BASE = Schema((("M", "m", 0),), (("A", "carrier", "M"),))


def _check_lemma7(inst, cap):
    x = inst["x"]
    if not eq(recover_by_membership(x, cap), x):
        return "∈⨾(∈\\x) differs from x", {}
    return _ok()


_LEMMA7 = Schema((("A", "a", 0), ("B", "b", 1)), (("x", "rel", "A", "B"),))


def _check_psi_char(inst, cap):
    tau, y = inst["tau"], inst["y"]
    _require(check_preorder(y.rel), "preorder")
    psi_map = rel_to_map(tau, y, cap)
    saturated = compose(tau, y.rel)
    mem = powerset(tau.src, cap).mem
    if not eq(compose(mem, graph_upper(psi_map)), saturated):
        return "characterization ∈⨾(Ψτ)^* = τ⨾y broken", {}
    if not eq(map_to_rel(psi_map, tau.src, cap), saturated):
        return "T(Ψτ) differs from τ⨾y", {}
    return _ok()


_PSI = Schema((("M", "m", 0), ("B", "b", 1)), (("tau", "rel", "M", "B"), ("y", "preorder", "B")))


def _check_soundness_equiv(inst, cap):
    sat, ord_rel = inst["sat"], inst["ord"]
    sound = leq(compose(sat, ord_rel), sat)
    residual = leq(ord_rel, left_residual(sat, sat))
    if sound != residual:
        return f"soundness is {sound} but ≤ ≤ ⊨\\⊨ is {residual}", {}
    return _ok()


_SOUNDNESS = Schema(
    (("M", "m", 0), ("S", "s", 1)),
    (("sat", "rel", "M", "S"), ("ord", "rel", "S", "S")),
)


# --- functor laws ----------------------------------------------------------

def _check_lemma1(inst, cap):
    p = inst["p"]
    _require(check_prom(p), "prom")
    res = check_representation(prom_to_rep(p))
    if not res:
        return "image is not a representation: " + _fmt(res), {}
    return _ok()


_PROM = Schema((), (("p", "prom", 0, 1),))


def _check_lemma2(inst, cap):
    m = inst["m"]
    _require(check_prom_morphism(m), "prom morphism")
    res = check_rep_morphism(prommor_to_repmor(m))
    if not res:
        return "image is not a representation morphism: " + _fmt(res), {}
    return _ok()


def _gen_prommor_inst(rng, bounds, cap):
    return {"m": _gen_prom_morphism(rng, bounds[0])}


def _check_lemma3(inst, cap):
    m1, m2 = inst["m1"], inst["m2"]
    _require(check_prom_morphism(m1), "prom morphism")
    _require(check_prom_morphism(m2), "prom morphism")
    if m1.dst != m2.src:
        raise ValueError("lemma3 instance needs a composable pair")
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


def _gen_lemma3(rng, bounds, cap):
    n = bounds[0]
    dst2 = _gen_prom(rng, rng.randint(0, n), rng.randint(0, n), ("A3", "u"), ("B3", "v"))
    m2 = _gen_prom_morphism_into(rng, dst2, n, ("A2", "c"), ("B2", "d"))
    m1 = _gen_prom_morphism_into(rng, m2.src, n, ("A", "a"), ("B", "b"))
    return {"m1": m1, "m2": m2}


def _check_lemma4(inst, cap):
    r = inst["R"]
    _require(check_representation(r), "representation")
    mp = rep_to_prom(r, cap)
    res = check_prom(mp)
    if not res:
        return "image is not a prom: " + _fmt(res), {}
    if not eq(compose(powerset(r.M, cap).mem, graph_upper(mp.f)), r.sat):
        return "∈⨾f^* differs from ⊨", {}
    return _ok()


_REP = Schema((), (("R", "rep", 0, 1),))


def _check_lemma5(inst, cap):
    m = inst["m"]
    _require(check_rep_morphism(m), "representation morphism")
    res = check_prom_morphism(repmor_to_prommor(m, cap))
    if not res:
        return "image is not a prom morphism: " + _fmt(res), {}
    return _ok()


def _gen_repmor_inst(rng, bounds, cap):
    return {"m": _gen_rep_morphism(rng, bounds[0])}


def _enum_repmor_inst(bounds, cap):
    reps = list(enumerate_representations(bounds[0], bounds[1]))
    reps2 = list(enumerate_representations(bounds[0], bounds[1], ("M2", "n"), ("S2", "t")))
    for r1 in reps:
        for r2 in reps2:
            for m in enumerate_rep_morphisms(r1, r2):
                yield {"m": m}


def _psi_eq(a: FnMap, b: FnMap, base: FinSet, cap: int) -> bool:
    return fn_eq_into_powerset(a, b, powerset(base, cap).mem)


def _check_lemma6(inst, cap):
    m1, m2 = inst["m1"], inst["m2"]
    _require(check_rep_morphism(m1), "representation morphism")
    _require(check_rep_morphism(m2), "representation morphism")
    if m1.dst != m2.src:
        raise ValueError("lemma6 instance needs a composable pair")
    r = m1.src
    ident_img = repmor_to_prommor(identity_rep_morphism(r), cap)
    ident = identity_prom_morphism(rep_to_prom(r, cap))
    if ident_img.phi.image != ident.phi.image or not _psi_eq(ident_img.psi, ident.psi, r.M, cap):
        return "M(id) differs from id", {}
    composite = repmor_to_prommor(compose_rep_morphisms(m2, m1), cap)
    pieces = compose_prom_morphisms(repmor_to_prommor(m2, cap), repmor_to_prommor(m1, cap))
    if composite.phi.image != pieces.phi.image or not _psi_eq(
        composite.psi, pieces.psi, m2.dst.M, cap
    ):
        return "M(m2∘m1) differs from M(m2)∘M(m1)", {}
    return _ok()


def _gen_lemma6(rng, bounds, cap):
    n = bounds[0]
    r1 = _gen_representation(rng, rng.randint(0, n), rng.randint(0, n))
    r2 = _gen_representation(rng, rng.randint(0, n), rng.randint(0, n), ("M2", "n"), ("S2", "t"))
    r3 = _gen_representation(rng, rng.randint(0, n), rng.randint(0, n), ("M3", "o"), ("S3", "u"))
    homs1 = list(enumerate_rep_morphisms(r1, r2))
    homs2 = list(enumerate_rep_morphisms(r2, r3))
    if not (homs1 or homs2):
        return {"m1": identity_rep_morphism(r1), "m2": identity_rep_morphism(r1)}
    m1 = rng.choice(homs1) if homs1 else identity_rep_morphism(r2)
    m2 = rng.choice(homs2) if homs2 else identity_rep_morphism(r2)
    return {"m1": m1, "m2": m2}


def _enum_lemma6(bounds, cap):
    reps = list(enumerate_representations(bounds[0], bounds[1]))
    reps2 = list(enumerate_representations(bounds[0], bounds[1], ("M2", "n"), ("S2", "t")))
    reps3 = list(enumerate_representations(bounds[0], bounds[1], ("M3", "o"), ("S3", "u")))
    for r2 in reps2:
        incoming = [m for r1 in reps for m in enumerate_rep_morphisms(r1, r2)]
        outgoing = [m for r3 in reps3 for m in enumerate_rep_morphisms(r2, r3)]
        for m1 in incoming:
            for m2 in outgoing:
                yield {"m1": m1, "m2": m2}


def direct_image_functorial(max_size: int, cap: int = DEFAULT_POWERSET_CAP):
    """Exhaustive functoriality of the direct image on raw tau data.

    M on morphisms only transforms tau, so strict functoriality at a carrier
    bound reduces to: direct_image(1_M) = id and
    direct_image(tau2⨾tau1) = direct_image(tau1)⨾direct_image(tau2)
    for all composable tau pairs within the bound.  Returns the number of
    cases checked and the first violation message, if any.
    """
    checked = 0
    for size in range(max_size + 1):
        M = finset("M", size, "m")
        bundle = powerset(M, cap)
        lifted = direct_image(identity(M), cap)
        ident = identity_map(bundle.carrier)
        checked += 1
        if not fn_eq_into_powerset(lifted, ident, bundle.mem):
            return checked, f"direct image of 1_M is not the identity at |M|={size}"
    for s1, s2, s3 in product(range(max_size + 1), repeat=3):
        M1, M2, M3 = finset("M1", s1, "a"), finset("M2", s2, "b"), finset("M3", s3, "c")
        mem = powerset(M3, cap).mem
        for tau1 in enumerate_relations(M2, M1):
            lift1 = direct_image(tau1, cap)
            for tau2 in enumerate_relations(M3, M2):
                lift2 = direct_image(tau2, cap)
                lhs = direct_image(compose(tau2, tau1), cap)
                rhs = compose_maps(lift2, lift1)
                checked += 1
                if not fn_eq_into_powerset(lhs, rhs, mem):
                    return checked, (
                        "direct image is not multiplicative at "
                        f"tau1={tau1.pairs()}, tau2={tau2.pairs()}"
                    )
    return checked, None


# --- adjunction laws -------------------------------------------------------

def _check_triangle_repr(inst, cap):
    p = inst["p"]
    _require(check_prom(p), "prom")
    res = triangle_rep(p, cap)
    if not res.equals_expected:
        return "ε∘R(η) differs from (id, y)", {}
    if not res.dominates_identity:
        return "triangle 2-cell id ⩽ ε∘R(η) fails", {}
    return None, {"strict": int(res.strict)}


def _check_triangle_pom(inst, cap):
    r = inst["R"]
    _require(check_representation(r), "representation")
    if not triangle_prom(r, cap):
        return "M(ε)∘η is not the identity", {}
    return _ok()


def _check_unit_natural(inst, cap):
    m = inst["m"]
    _require(check_prom_morphism(m), "prom morphism")
    for q in (m.src, m.dst):
        res = check_prom_morphism(unit(q, cap))
        if not res:
            return "unit is not a prom morphism: " + _fmt(res), {}
    if not unit_natural(m, cap):
        return "unit naturality square does not commute", {}
    return _ok()


def _check_counit_natural(inst, cap):
    m = inst["m"]
    _require(check_rep_morphism(m), "representation morphism")
    for r in (m.src, m.dst):
        res = check_rep_morphism(counit(r, cap))
        if not res:
            return "counit is not a representation morphism: " + _fmt(res), {}
    if not counit_natural(m, cap):
        return "counit naturality square does not commute", {}
    return _ok()


def _hom_pair_instances(p: Prom, r: Representation, cap: int):
    """The hom-sets R(p) → r and p → M(r) that Ψ and T map between."""
    rep_homs = list(enumerate_rep_morphisms(prom_to_rep(p), r))
    prom_homs = list(enumerate_prom_morphisms(p, rep_to_prom(r, cap)))
    return rep_homs, prom_homs


def _check_lemma8(inst, cap):
    p, r = inst["p"], inst["R"]
    _require(check_prom(p), "prom")
    _require(check_representation(r), "representation")
    rep_homs, prom_homs = _hom_pair_instances(p, r, cap)
    for m in rep_homs:
        res = check_prom_morphism(lift(m, p, cap))
        if not res:
            return "Ψ image is not a prom morphism: " + _fmt(res), {}
    for m in prom_homs:
        res = check_rep_morphism(lower(m, r, p, cap))
        if not res:
            return "T image is not a representation morphism: " + _fmt(res), {}
    return None, {"rep_homs": len(rep_homs), "prom_homs": len(prom_homs)}


def _check_lemma9(inst, cap):
    p, r = inst["p"], inst["R"]
    _require(check_prom(p), "prom")
    _require(check_representation(r), "representation")
    rep_homs, prom_homs = _hom_pair_instances(p, r, cap)
    notes = {"rep_homs": len(rep_homs), "prom_homs": len(prom_homs), "strict_t_psi": 0}
    for m in prom_homs:
        back = lift(lower(m, r, p, cap), p, cap)
        if back.phi.image != m.phi.image or not _psi_eq(back.psi, m.psi, r.M, cap):
            return "ΨT is not the identity on prom morphisms", notes
    for m in rep_homs:
        around = lower(lift(m, p, cap), r, p, cap)
        if not repmor_leq(m, around):
            return "TΨ does not dominate the identity", notes
        if not eq(around.tau, compose(m.tau, p.y.rel)):
            return "TΨ(τ) differs from τ⨾y", notes
        if not repmor_leq(around, m):
            notes["strict_t_psi"] += 1
    return None, notes


_HOM_PAIR = Schema((), (("p", "prom", 0, 0), ("R", "rep", 0, 0)))


# --- exactness laws --------------------------------------------------------

def _check_lemma10(inst, cap):
    r = inst["R"]
    _require(check_representation(r), "representation")
    exact = is_exact(r)
    reflecting = is_order_reflecting(rep_to_prom(r, cap))
    if exact != reflecting:
        return f"exactness is {exact} but order reflection of the image is {reflecting}", {}
    if exact and not exactness_is_identity(r):
        return "exactness inequation is not an identity", {}
    return None, {"exact": int(exact), "non_exact": int(not exact)}


def _check_lemma11(inst, cap):
    p = inst["p"]
    _require(check_prom(p), "prom")
    reflecting = is_order_reflecting(p)
    exact = is_exact(prom_to_rep(p))
    if reflecting != exact:
        return f"order reflection is {reflecting} but exactness of the image is {exact}", {}
    if reflecting and not reflection_is_identity(p):
        return "order-reflection inequation is not an identity", {}
    return None, {"reflecting": int(reflecting), "non_reflecting": int(not reflecting)}


# ---------------------------------------------------------------------------

CATALOG: dict[str, LawSpec] = {}


def _law(law, summary, check, instances, default_bounds=(3,), limit=None):
    """Register a law; `instances` is a Schema or a (generate, enumerate) pair."""
    if isinstance(instances, Schema):
        instances = (instances.generate, instances.enumerate)
    CATALOG[law] = LawSpec(law, summary, check, *instances, default_bounds, limit)


_law("eq1-galois", "y ≤ x\\z ⇔ x⨾y ≤ z", _check_eq1, _TRIPLE, (3,), (2,))
_law("dual-galois", "x ≤ z/y ⇔ x⨾y ≤ z", _check_dual, _TRIPLE, (3,), (2,))
_law("modular-tautology", "f_*⨾(x\\y)⨾g^* = (x⨾f^*)\\(y⨾g^*)", _check_modular, _MODULAR, (3,), (2,))
_law("preorder-single-axiom", "preorder(r) ⇔ r = r\\r", _check_single_axiom, _SQUARE, (3,), (4,))
_law("mem-residual-subset", "∈\\∈ = ⊆", _check_mem_subset, _POWERSET_BASE, (3,), (8,))
_law("lemma1", "R sends proms to sound representations", _check_lemma1, _PROM, (4, 4), (2, 2))
_law("lemma2", "R sends prom morphisms to representation morphisms", _check_lemma2, (_gen_prommor_inst, None), (4,))
_law("lemma3", "R is lax: id ⩽ R(id) and R(m2∘m1) ⩽ R(m2)∘R(m1)", _check_lemma3, (_gen_lemma3, None), (3,))
_law("lemma4", "M sends representations to proms, with ∈⨾f^* = ⊨", _check_lemma4, _REP, (3, 3), (2, 2))
_law(
    "lemma5",
    "M sends representation morphisms to prom morphisms",
    _check_lemma5,
    (_gen_repmor_inst, _enum_repmor_inst),
    (2, 2),
    (2, 2),
)
_law(
    "lemma6",
    "M is strictly functorial: M(id) = id and M(m2∘m1) = M(m2)∘M(m1)",
    _check_lemma6,
    (_gen_lemma6, _enum_lemma6),
    (2, 2),
    # |S| capped at 1 in exhaustive mode: representations with empty sat have
    # hom-sets of every phi and tau, so the composable-pair space at (2,2)
    # already exceeds five million instances.  The composition equality
    # factors through the tau pair alone; direct_image_functorial covers the
    # larger bound without the cross product.
    (2, 1),
)
_law("lemma7", "x = ∈⨾(∈\\x)", _check_lemma7, _LEMMA7, (2, 3), (4, 4))
_law("lemma8", "Ψ and T produce morphisms of the appropriate kind", _check_lemma8, _HOM_PAIR, (2,), (2,))
_law("lemma9", "ΨT(φ,ψ) = (φ,ψ) and (φ,τ) ⩽ TΨ(φ,τ)", _check_lemma9, _HOM_PAIR, (2,), (2,))
_law("lemma10", "R exact ⇔ M(R) order-reflecting", _check_lemma10, _REP, (3, 3), (2, 2))
_law("lemma11", "p order-reflecting ⇔ R(p) exact", _check_lemma11, _PROM, (4, 4), (2, 2))
_law("triangle-repr", "ε∘R(η) = (id, y) ⩾ id", _check_triangle_repr, _PROM, (3, 3), (2, 2))
_law("triangle-pom", "M(ε)∘η = id", _check_triangle_pom, _REP, (3, 3), (2, 2))
_law("unit-natural", "η commutes with every prom morphism", _check_unit_natural, (_gen_prommor_inst, None), (3,))
_law("counit-natural", "ε commutes with every representation morphism", _check_counit_natural, (_gen_repmor_inst, None), (2,))
_law("psi-characterization", "∈⨾(Ψτ)^* = τ⨾y", _check_psi_char, _PSI, (3, 3), (2, 2))
_law("soundness-residual-equiv", "⊨⨾≤ ≤ ⊨ ⇔ ≤ ≤ ⊨\\⊨", _check_soundness_equiv, _SOUNDNESS, (3, 3), (2, 2))

LAW_IDS = tuple(CATALOG)


def check_law(
    law: str, instance: dict, cap: int = DEFAULT_POWERSET_CAP, seed: int | str = "manual"
) -> Witness | None:
    """Run one law on one instance; None means the law holds there."""
    spec = CATALOG.get(law)
    if spec is None:
        raise ConfigError(f"unknown law {law!r}")
    violation, _ = spec.check(instance, cap)
    if violation is None:
        return None
    return Witness(law, seed, dict(instance), violation)


def replay(witness: Witness, cap: int = DEFAULT_POWERSET_CAP) -> bool:
    """True iff re-running the law on the witness structures reproduces it."""
    again = check_law(witness.law, witness.structures, cap, witness.seed)
    return again is not None and again.violation == witness.violation


# ---------------------------------------------------------------------------
# search

@dataclass(frozen=True)
class SearchConfig:
    law: str
    mode: str = "seeded"  # "seeded" | "exhaustive"
    bounds: tuple[int, ...] | None = None
    trials: int = 200
    seed: int = 0
    parallelism: int = 1  # validated (at least 1), but trials run serially
    powerset_cap: int = DEFAULT_POWERSET_CAP


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
    if bounds is None:
        return spec.default_bounds
    bounds = tuple(bounds)
    want = len(spec.default_bounds)
    if len(bounds) < want:
        bounds = bounds + (bounds[-1],) * (want - len(bounds))
    return bounds[:want]


def _merge_notes(total: dict, extra: dict):
    for key, value in extra.items():
        total[key] = total.get(key, 0) + value


def search(config: SearchConfig) -> SearchSummary:
    spec = CATALOG.get(config.law)
    if spec is None:
        raise ConfigError(f"unknown law {config.law!r}")
    if config.parallelism < 1:
        raise ConfigError(f"parallelism must be at least 1, got {config.parallelism}")
    bounds = _normalize_bounds(spec, config.bounds)
    if config.mode == "exhaustive":
        return _search_exhaustive(spec, bounds, config)
    if config.mode == "seeded":
        return _search_seeded(spec, bounds, config)
    raise ConfigError(f"unknown mode {config.mode!r}")


def _search_exhaustive(spec: LawSpec, bounds, config: SearchConfig) -> SearchSummary:
    if spec.enumerate is None:
        raise ConfigError(f"law {spec.law!r} supports seeded mode only")
    if any(b > lim for b, lim in zip(bounds, spec.exhaustive_limit)):
        raise ConfigError(
            f"bounds {bounds} exceed the hard enumeration limit {spec.exhaustive_limit} "
            f"for law {spec.law!r}"
        )
    summary = SearchSummary(spec.law, "exhaustive", bounds, None, 0)
    for instance in spec.enumerate(bounds, config.powerset_cap):
        violation, notes = spec.check(instance, config.powerset_cap)
        summary.checked += 1
        _merge_notes(summary.notes, notes)
        if violation is not None:
            summary.witness = Witness(spec.law, "exhaustive", dict(instance), violation)
            break
    return summary


def _search_seeded(spec: LawSpec, bounds, config: SearchConfig) -> SearchSummary:
    if spec.generate is None:
        raise ConfigError(f"law {spec.law!r} has no seeded generator")
    if config.trials < 0:
        raise ConfigError("trials must be nonnegative")
    summary = SearchSummary(spec.law, "seeded", bounds, config.seed, 0)
    for i in range(config.trials):
        child = mix_seed(config.seed, i)
        instance = spec.generate(random.Random(child), bounds, config.powerset_cap)
        violation, notes = spec.check(instance, config.powerset_cap)
        summary.checked += 1
        _merge_notes(summary.notes, notes)
        if violation is not None and summary.witness is None:
            summary.witness = Witness(spec.law, child, dict(instance), violation)
    return summary
