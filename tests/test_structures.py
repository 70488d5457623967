"""Structure axioms, carrier checks, validation, closure, morphism composition."""

import copy
import dataclasses
import pickle
import random
from itertools import product

import pytest

from promrep import (
    CarrierMismatch,
    CheckResult,
    FnMap,
    InvalidStructure,
    Preorder,
    Prom,
    PromMorphism,
    Rel,
    Representation,
    RepMorphism,
    check_preorder,
    check_prom,
    check_rep_morphism,
    compose_prom_morphisms,
    compose,
    compose_rep_morphisms,
    eq,
    finset,
    full,
    identity,
    identity_map,
    identity_prom_morphism,
    identity_rep_morphism,
    is_preorder,
    left_residual,
    preorder_closure,
    rep_to_prom,
    repmor_leq,
    validate,
)
from promrep.harness import random_rel
from promrep.structures import check_prom_morphism, check_representation
import promrep.structures as structures_module
from seeded import gen_prom, gen_prom_morphism, gen_rep_morphism, gen_representation

A2 = finset("A", 2, "a")
A3 = finset("A", 3, "a")
B2 = finset("B", 2, "b")


def rel(src, dst, *pairs):
    return Rel.from_pairs(src, dst, pairs)


def chain2(carrier):
    """The 2-chain preorder e0 ≤ e1."""
    lo, hi = carrier.elements
    return Preorder(rel(carrier, carrier, (lo, lo), (hi, hi), (lo, hi)))


# --- preorders --------------------------------------------------------------

def test_identity_is_preorder():
    assert is_preorder(identity(A2))


def test_irreflexive_is_not_preorder():
    assert not is_preorder(rel(A2, A2, ("a0", "a1")))


def test_single_axiom_characterization_exhaustive():
    found = 0
    for code in range(16):
        r = Rel(A2, A2, (code & 3, code >> 2))
        assert is_preorder(r) == eq(r, left_residual(r, r))
        found += is_preorder(r)
    assert found == 4


def test_non_square_preorder_is_error():
    with pytest.raises(CarrierMismatch):
        is_preorder(rel(A2, B2))


def test_constructors_check_carriers_even_without_axioms():
    M1 = finset("M", 1, "m")
    p = Prom(Preorder(identity(A2)), Preorder(identity(B2)), FnMap(A2, B2, (0, 1)))
    r = Representation(rel(M1, B2), Preorder(identity(B2)))
    disconnected = [
        (lambda: Preorder(rel(A2, B2)), "a preorder must be a square relation"),
        (lambda: Prom(p.x, p.y, FnMap(B2, B2, (0, 1))), "prom map does not connect the two preordered carriers"),
        (lambda: Prom(p.x, p.y, FnMap(A2, A2, (0, 1))), "prom map does not connect the two preordered carriers"),
        (lambda: Representation(rel(M1, B2), Preorder(identity(A2))), "preorder carrier does not match the statement carrier"),
        (lambda: PromMorphism(p, p, identity_map(B2), identity_map(B2)), "phi does not connect the source carriers"),
        (lambda: PromMorphism(p, p, identity_map(A2), identity_map(A2)), "psi does not connect the target carriers"),
        (lambda: RepMorphism(r, r, identity_map(M1), identity(M1)), "phi does not connect the statement carriers"),
        (lambda: RepMorphism(r, r, identity_map(B2), identity(B2)), "tau does not connect the model carriers"),
    ]
    for build, message in disconnected:
        with pytest.raises(CarrierMismatch, match=f"^{message}$"):
            build()


def test_kernel_values_are_slotted_and_holders_of_kept_images_are_not():
    """Rel, Preorder and the morphisms keep nothing, so they have no
    `__dict__`; a carrier keeps its positions, a map its graphs, a prom R(p)
    and a representation M(r).  Copies of a slotted value equal it."""
    pm = gen_prom_morphism(11, 3)
    rm = gen_rep_morphism(5, 2)
    for value in (rm.tau, pm.src.x, pm, rm):
        assert not hasattr(value, "__dict__"), type(value).__name__
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), dataclasses.replace(value)):
            assert twin == value and hash(twin) == hash(value)
    for holder in (A2, pm.phi, pm.src, rm.src):
        assert isinstance(holder.__dict__, dict)


def test_closure_of_empty_is_identity():
    assert eq(preorder_closure(rel(A2, A2)).rel, identity(A2))


def test_closure_one_step_chain():
    got = preorder_closure(rel(A2, A2, ("a0", "a1")))
    assert set(got.rel.pairs()) == {("a0", "a0"), ("a1", "a1"), ("a0", "a1")}


def test_closure_adds_transitive_pair():
    got = preorder_closure(rel(A3, A3, ("a0", "a1"), ("a1", "a2")))
    assert ("a0", "a2") in got.rel.pairs()


def test_closure_idempotent_and_valid():
    r = rel(A3, A3, ("a2", "a0"), ("a0", "a1"))
    once = preorder_closure(r)
    assert is_preorder(once.rel)
    assert eq(preorder_closure(once.rel).rel, once.rel)


def reachability(r):
    """Every (a, b) with a path from a to b in r's pairs, found by search;
    the empty path makes it reflexive."""
    succ = {a: [] for a in r.src}
    for a, b in r.pairs():
        succ[a].append(b)
    out = set()
    for a in r.src:
        seen, todo = {a}, [a]
        while todo:
            for b in succ[todo.pop()]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        out |= {(a, b) for b in seen}
    return out


def small_relations():
    """Every square relation on 0 to 3 points, then 25 seeded ones on each
    of 4 to 12 points (perfbench closes 12-point relations)."""
    for n in range(4):
        carrier = finset("A", n, "a")
        for rows in product(range(1 << n), repeat=n):
            yield Rel(carrier, carrier, rows)
    rng = random.Random(1962)
    for n in range(4, 13):
        carrier = finset("A", n, "a")
        for _ in range(25):
            yield random_rel(rng, carrier, carrier, rng.choice((0.05, 0.1, 0.2, 0.4)))


def test_closure_is_reachability():
    for r in small_relations():
        got = preorder_closure(r).rel
        assert set(got.pairs()) == reachability(r), r.rows
        assert got.src == r.src and got.dst == r.dst


def invalid_structures():
    """(structure, kind, axiom, witness): one invalid structure per axiom
    that `AXIOMS` lists for each of the five kinds, a "<field> preorder"
    entry broken once, by reflexivity or by transitivity."""
    M1, B3 = finset("M", 1, "m"), finset("B", 3, "b")
    f = FnMap(A2, B2, (0, 1))
    disc = Prom(Preorder(identity(A2)), Preorder(identity(B2)), f)
    gappy = Preorder(rel(B3, B3, ("b0", "b0"), ("b1", "b1"), ("b2", "b2"), ("b0", "b1"), ("b1", "b2")))
    x_bad = Prom(Preorder(rel(A2, A2, ("a0", "a1"))), disc.y, f)
    y_bad = Prom(disc.x, gappy, FnMap(A2, B3, (0, 1)))
    unordered = Prom(Preorder(full(A2, A2)), chain2(B2), FnMap(A2, B2, (1, 0)))
    ordered = Prom(disc.x, chain2(B2), unordered.f)
    sound = Representation(rel(M1, B2, ("m0", "b0"), ("m0", "b1")), chain2(B2))
    ord_gappy = Representation(rel(M1, B3), gappy)
    ord_bad = Representation(rel(M1, B2), Preorder(rel(B2, B2, ("b0", "b0"))))
    unsound = Representation(rel(M1, B2, ("m0", "b0")), chain2(B2))
    at_a, at_b, at_m = ("a0", "a0"), ("b0", "b2"), ("m0", "b1")
    return [
        (Preorder(rel(A2, A2, ("a0", "a1"))), "preorder", "reflexivity", at_a),
        (gappy, "preorder", "transitivity", at_b),
        (x_bad, "prom", "x reflexivity", at_a),
        (y_bad, "prom", "y transitivity", at_b),
        (unordered, "prom", "order preservation", ("a0", "a1")),
        (identity_prom_morphism(x_bad), "prom morphism", "src x reflexivity", at_a),
        (identity_prom_morphism(y_bad), "prom morphism", "src y transitivity", at_b),
        (identity_prom_morphism(unordered), "prom morphism", "src order preservation", ("a0", "a1")),
        (PromMorphism(disc, x_bad, identity_map(A2), identity_map(B2)), "prom morphism", "dst x reflexivity", at_a),
        (PromMorphism(disc, y_bad, identity_map(A2), FnMap(B2, B3, (0, 1))), "prom morphism", "dst y transitivity", at_b),
        (
            PromMorphism(ordered, unordered, identity_map(A2), identity_map(B2)),
            "prom morphism", "dst order preservation", ("a0", "a1"),
        ),
        (
            PromMorphism(Prom(Preorder(full(A2, A2)), Preorder(full(B2, B2)), f), disc, identity_map(A2), identity_map(B2)),
            "prom morphism", "phi order preservation", ("a0", "a1"),
        ),
        (
            PromMorphism(Prom(disc.x, Preorder(full(B2, B2)), f), disc, identity_map(A2), identity_map(B2)),
            "prom morphism", "psi order preservation", ("b0", "b1"),
        ),
        (
            PromMorphism(disc, disc, identity_map(A2), FnMap(B2, B2, (1, 0))),
            "prom morphism", "commuting square", ("a0", "b1", "b0"),
        ),
        (ord_gappy, "representation", "ord transitivity", at_b),
        (unsound, "representation", "soundness", at_m),
        (identity_rep_morphism(ord_gappy), "representation morphism", "src ord transitivity", at_b),
        (identity_rep_morphism(unsound), "representation morphism", "src soundness", at_m),
        (
            RepMorphism(sound, ord_bad, identity_map(B2), identity(M1)),
            "representation morphism", "dst ord reflexivity", ("b1", "b1"),
        ),
        (RepMorphism(sound, unsound, identity_map(B2), identity(M1)), "representation morphism", "dst soundness", at_m),
        (
            RepMorphism(
                Representation(rel(M1, B2), Preorder(full(B2, B2))),
                Representation(rel(M1, B2), Preorder(identity(B2))),
                identity_map(B2),
                identity(M1),
            ),
            "representation morphism", "phi order preservation", ("b0", "b1"),
        ),
        (
            RepMorphism(sound, sound, identity_map(B2), rel(M1, M1)),
            "representation morphism", "commuting square", ("m0", "b0"),
        ),
    ]


def test_constructors_hold_axiom_violations_that_validate_reports():
    """A constructor checks carriers only: each value below breaks an axiom
    yet constructs, and `validate` raises InvalidStructure with its kind,
    axiom and witness.  No constructor takes a `check` flag."""
    cases = invalid_structures()
    assert {type(bad) for bad, *_ in cases} == set(structures_module.VALIDATION)
    for bad, *expected in cases:
        with pytest.raises(InvalidStructure) as exc:
            validate(bad)
        assert [exc.value.kind, exc.value.result.axiom, exc.value.result.witness] == expected
        fields = [getattr(bad, f.name) for f in dataclasses.fields(bad)]
        for flag in (False, True):
            with pytest.raises(TypeError):
                type(bad)(*fields, check=flag)


def reportable(axioms):
    """The axioms a check may report for a kind that lists `axioms`: each
    entry, with "<field> preorder" read as "<field> reflexivity" or
    "<field> transitivity"."""
    out = set()
    for axiom in axioms:
        field, _, last = axiom.rpartition(" ")
        out |= {f"{field} reflexivity", f"{field} transitivity"} if last == "preorder" else {axiom}
    return out


def test_every_reported_axiom_is_listed_for_its_kind():
    """Each kind's check reports only axioms its `AXIOMS` entry lists, and
    some invalid structure reports each entry.  Reports come from the cases
    above, and from every preorder, prom and representation whose relations
    are any of the 16 on two points, with their identity morphisms."""
    axioms = structures_module.AXIOMS
    assert set(axioms) == set(structures_module.VALIDATION)
    reported = {cls: set() for cls in axioms}
    for bad, _, axiom, _ in invalid_structures():
        reported[type(bad)].add(axiom)
    M1 = finset("M", 1, "m")
    squares = [Preorder(Rel(A2, A2, rows)) for rows in product(range(4), repeat=2)]
    proms = [
        Prom(x, Preorder(Rel(B2, B2, y.rel.rows)), FnMap(A2, B2, image))
        for x, y in product(squares, repeat=2)
        for image in product(range(2), repeat=2)
    ]
    reps = [Representation(Rel(M1, A2, (row,)), order) for order in squares for row in range(4)]
    ends = [*proms, *reps]
    morphisms = [identity_prom_morphism(p) for p in proms] + [identity_rep_morphism(r) for r in reps]
    for obj in [*squares, *ends, *morphisms]:
        res = structures_module.VALIDATION[type(obj)][1](obj)
        if not res:
            reported[type(obj)].add(res.axiom)
    for cls, listed in axioms.items():
        assert reported[cls] <= reportable(listed), cls
        assert all(reportable([entry]) & reported[cls] for entry in listed), cls


def reference_check_preorder(r):
    """(ok, axiom, witness) by the definition: the first irreflexive element,
    else the first pair of r⨾r missing from r, both in row-major order."""
    for i, row in enumerate(r.rows):
        if not row >> i & 1:
            return False, "reflexivity", (r.src.elements[i],) * 2
    for i, (sq, row) in enumerate(zip(compose(r, r).rows, r.rows)):
        for j in range(len(r.src)):
            if sq >> j & 1 and not row >> j & 1:
                return False, "transitivity", (r.src.elements[i], r.src.elements[j])
    return True, None, None


def outcome(res):
    return res.ok, res.axiom, res.witness


def test_check_preorder_matches_reference_on_every_small_relation(small_square_relations):
    axioms = set()
    for r in small_square_relations:
        want = reference_check_preorder(r)
        assert outcome(check_preorder(r)) == want, r.rows
        axioms.add(want[1])
    assert axioms == {None, "reflexivity", "transitivity"}


def test_check_preorder_matches_reference_on_near_preorders(near_preorders):
    got = [outcome(check_preorder(r)) for r in near_preorders]
    assert got == [reference_check_preorder(r) for r in near_preorders]
    assert {axiom for _, axiom, _ in got} == {None, "transitivity"}


def test_every_non_reflexive_relation_fails_at_its_first_missing_loop():
    """On at most 3 points, in two carriers, a non-reflexive relation gets
    the result a fresh CheckResult would hold, one shared result per label."""
    shared = {}
    for n, prefix in product(range(4), "ab"):
        carrier = finset(prefix.upper(), n, prefix)
        for rows in product(range(1 << n), repeat=n):
            missing = [i for i, row in enumerate(rows) if not row >> i & 1]
            if missing:
                a = carrier.elements[missing[0]]
                got = check_preorder(Rel(carrier, carrier, rows))
                assert got == CheckResult(False, "reflexivity", (a, a)) and not got
                assert shared.setdefault(a, got) is got
    assert sorted(shared) == ["a0", "a1", "a2", "b0", "b1", "b2"]


def without_empty_below_top(p):
    """p with the pair (∅, M) taken out of ⊆ on its subset carrier 2^M."""
    y = p.y.rel
    rows = (y.rows[0] & ~(1 << len(p.B) - 1),) + y.rows[1:]
    return Prom(p.x, Preorder(Rel(y.src, y.dst, rows)), p.f)


def test_transitivity_witness_at_the_powerset_cap():
    bad = without_empty_below_top(rep_to_prom(gen_representation(3, 12, 3)))
    res = check_prom(bad)
    ok, axiom, witness = reference_check_preorder(bad.y.rel)
    assert outcome(res) == (ok, "y " + axiom, witness)
    assert witness == ("{}", "{m0,m1,m2,m3,m4,m5,m6,m7,m8,m9,m10,m11}")


# --- proms ------------------------------------------------------------------

def test_discrete_orders_any_map_is_prom():
    for image in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        p = Prom(Preorder(identity(A2)), Preorder(identity(B2)), FnMap(A2, B2, image))
        assert check_prom(p)


def test_prom_violation_witness():
    y = chain2(B2)
    f = FnMap(A2, B2, (1, 0))  # a0 ↦ b1, a1 ↦ b0
    ok = Prom(Preorder(identity(A2)), y, f)
    assert check_prom(ok)
    bad = Prom(Preorder(full(A2, A2)), y, f)
    res = check_prom(bad)
    assert not res
    assert res.axiom == "order preservation"
    assert res.witness == ("a0", "a1")


# --- representations --------------------------------------------------------

def test_empty_sat_is_sound():
    r = Representation(rel(B2, A2), Preorder(full(A2, A2)))
    assert check_representation(r)


def test_soundness_violation_witness():
    S = finset("S", 2, "s")
    M = finset("M", 1, "m")
    bad = Representation(rel(M, S, ("m0", "s0")), chain2(S))
    res = check_representation(bad)
    assert not res and res.axiom == "soundness"
    assert res.witness == ("m0", "s1")


# --- 2-cell order -----------------------------------------------------------

def test_repmor_leq_reflexive():
    r = gen_representation(3, 2, 2)
    m = identity_rep_morphism(r)
    assert repmor_leq(m, m)


def test_repmor_leq_tau_inclusion():
    r = gen_representation(3, 2, 2)
    m = identity_rep_morphism(r)
    bigger = RepMorphism(r, r, m.phi, full(r.M, r.M))
    assert repmor_leq(m, bigger)
    assert repmor_leq(bigger, m) == eq(bigger.tau, m.tau)


def test_repmor_leq_needs_equal_phi():
    S = finset("S", 2, "s")
    M = finset("M", 0, "m")
    r = Representation(rel(M, S), Preorder(full(S, S)))
    m1 = RepMorphism(r, r, FnMap(S, S, (0, 0)), identity(M))
    m2 = RepMorphism(r, r, FnMap(S, S, (1, 1)), identity(M))
    assert not repmor_leq(m1, m2)


def test_repmor_leq_endpoint_mismatch_is_error():
    r1 = gen_representation(1, 2, 2)
    r2 = gen_representation(2, 2, 2)
    with pytest.raises(CarrierMismatch):
        repmor_leq(identity_rep_morphism(r1), identity_rep_morphism(r2))


# --- morphism composition ---------------------------------------------------

def test_compose_with_identity_prom_morphism():
    m = gen_prom_morphism(11, 3)
    left = compose_prom_morphisms(identity_prom_morphism(m.dst), m)
    right = compose_prom_morphisms(m, identity_prom_morphism(m.src))
    for other in (left, right):
        assert other.phi.image == m.phi.image
        assert other.psi.image == m.psi.image


def test_rep_morphism_tau_composes_relationally():
    M1, M2, M3 = finset("M1", 1, "x"), finset("M2", 1, "y"), finset("M3", 1, "z")
    S = finset("S", 0, "s")
    ordS = Preorder(identity(S))
    r1 = Representation(rel(M1, S), ordS)
    r2 = Representation(rel(M2, S), ordS)
    r3 = Representation(rel(M3, S), ordS)
    m1 = RepMorphism(r1, r2, FnMap(S, S, ()), rel(M2, M1, ("y0", "x0")))
    m2 = RepMorphism(r2, r3, FnMap(S, S, ()), rel(M3, M2, ("z0", "y0")))
    comp = compose_rep_morphisms(m2, m1)
    assert comp.tau.pairs() == [("z0", "x0")]


def test_composition_preserves_validity_seeded():
    for seed in range(100):
        m = gen_prom_morphism(seed, 3)
        assert check_prom_morphism(m)
        assert check_prom_morphism(compose_prom_morphisms(identity_prom_morphism(m.dst), m))
        rm = gen_rep_morphism(seed, 2)
        assert check_rep_morphism(rm)
        assert check_rep_morphism(compose_rep_morphisms(identity_rep_morphism(rm.dst), rm))


def test_morphism_checks_validate_both_ends():
    """A morphism whose maps and square are fine is still invalid when one
    of its ends is; the failing axiom names that end."""
    y = chain2(B2)
    f = FnMap(A2, B2, (1, 0))
    good = Prom(Preorder(identity(A2)), y, f)
    bad = Prom(Preorder(full(A2, A2)), y, f)  # f breaks order at (a0, a1)
    for m, axiom in (
        (identity_prom_morphism(bad), "src order preservation"),
        (PromMorphism(good, bad, identity_map(A2), identity_map(B2)), "dst order preservation"),
    ):
        assert check_prom_morphism(m) == CheckResult(False, axiom, ("a0", "a1"))
        with pytest.raises(InvalidStructure, match=axiom):
            validate(m)
    M = finset("M", 1, "m")
    unsound = Representation(rel(M, B2, ("m0", "b0")), y)
    sound = Representation(rel(M, B2, ("m0", "b0"), ("m0", "b1")), y)
    for m, axiom in (
        (identity_rep_morphism(unsound), "src soundness"),
        (RepMorphism(sound, unsound, identity_map(B2), identity(M)), "dst soundness"),
    ):
        assert check_rep_morphism(m) == CheckResult(False, axiom, ("m0", "b1"))
        with pytest.raises(InvalidStructure, match=axiom):
            validate(m)


def test_identity_morphisms_are_valid():
    p = gen_prom(5, 3, 3)
    assert check_prom_morphism(identity_prom_morphism(p))
    r = gen_representation(5, 3, 3)
    assert check_rep_morphism(identity_rep_morphism(r))
