"""Generators, enumerators, the law catalog, and the search engine."""

import hashlib
import random
from dataclasses import replace
from itertools import islice, product

import pytest

import promrep.rel as rel_module
from promrep import workspace
from promrep import (
    CATALOG,
    CarrierMismatch,
    ConfigError,
    FnMap,
    InvalidStructure,
    Preorder,
    Prom,
    PromMorphism,
    Rel,
    RepMorphism,
    Representation,
    SearchConfig,
    Witness,
    check_law,
    check_prom,
    check_rep_morphism,
    clear_caches,
    compose,
    compose_maps,
    direct_image,
    eq,
    finset,
    identity,
    identity_map,
    identity_rep_morphism,
    is_preorder,
    powerset,
    preorder_closure,
    replay,
    search,
)
from promrep.harness import (
    PROM_CARRIERS,
    REP_CARRIERS,
    LawSpec,
    Schema,
    _gen_prom_chain,
    _gen_rep_chain,
    enumerate_fnmaps,
    enumerate_preorders,
    enumerate_prom_morphisms,
    enumerate_proms,
    enumerate_relations,
    enumerate_rep_morphisms,
    enumerate_representations,
    mix_seed,
    random_fnmap,
)
from promrep.structures import check_prom_morphism, check_representation
from seeded import (
    gen_preorder,
    gen_prom,
    gen_prom_morphism,
    gen_rep_morphism,
    gen_representation,
)


# --- generators -------------------------------------------------------------

def test_gen_preorder_is_deterministic_and_valid():
    for seed in (0, 1, 99):
        a = gen_preorder(seed, 4)
        b = gen_preorder(seed, 4)
        assert eq(a.rel, b.rel)
        assert is_preorder(a.rel)
    assert len(gen_preorder(0, 0).carrier) == 0


def test_gen_prom_always_valid():
    for seed in range(300):
        assert check_prom(gen_prom(seed, 4, 4))


def test_gen_prom_empty_target_forces_empty_source():
    p = gen_prom(0, 3, 0)
    assert len(p.A) == 0 and len(p.B) == 0


def test_gen_representation_always_valid():
    for seed in range(300):
        assert check_representation(gen_representation(seed, 4, 4))


def test_gen_prom_morphism_always_valid():
    for seed in range(300):
        assert check_prom_morphism(gen_prom_morphism(seed, 3))


def test_gen_rep_morphism_always_valid():
    for seed in range(100):
        assert check_rep_morphism(gen_rep_morphism(seed, 2))


def test_mix_seed_spreads_trials():
    children = {mix_seed(7, i) for i in range(1000)}
    assert len(children) == 1000
    assert {mix_seed(8, i) for i in range(1000)}.isdisjoint(children)


# --- enumerators ------------------------------------------------------------

def test_enumerate_relations_counts():
    A = finset("A", 2, "a")
    B = finset("B", 2, "b")
    assert sum(1 for _ in enumerate_relations(A, B)) == 16
    with pytest.raises(ConfigError):
        list(enumerate_relations(finset("A", 5, "a"), finset("B", 4, "b")))


def test_enumerate_relations_lists_codes_in_ascending_order():
    """Relation number `code` has row i = code >> (i·|dst|) & mask, for every
    shape of at most 9 cells, empty carriers on either side included."""
    for a, b in product(range(10), repeat=2):
        if a * b > 9:
            continue
        src, dst = finset("A", a, "a"), finset("B", b, "b")
        mask = (1 << b) - 1
        want = [tuple(code >> (i * b) & mask for i in range(a)) for code in range(1 << a * b)]
        got = list(enumerate_relations(src, dst))
        assert [r.rows for r in got] == want, (a, b)
        assert all(r.src is src and r.dst is dst for r in got)
    four = finset("A", 4, "a")
    assert sum(1 for _ in enumerate_relations(four, four)) == 65536


def test_every_kernel_relation_runs_its_shape_check(monkeypatch):
    """Each kernel builder's result, and each relation it builds on the way,
    goes through `Rel.__post_init__`, counted as perfbench's `rel.rel_built`
    counts it; none is made around it."""
    A, B = finset("A", 3, "a"), finset("B", 2, "b")
    x = Rel(A, B, (1, 3, 0))
    y = Rel(B, B, (3, 2))
    square = Rel(A, A, (2, 4, 0))
    f = FnMap(A, B, (1, 0, 1))
    runs = [0]
    post_init = Rel.__post_init__

    def counted(self):
        runs[0] += 1
        post_init(self)

    monkeypatch.setattr(Rel, "__post_init__", counted)
    empty = Rel(A, B, (0, 0, 0))
    builds = [
        # x's last row is empty, and every row of `empty` is
        (lambda: compose(x, y), 1),
        (lambda: compose(empty, y), 1),
        (lambda: rel_module.left_residual(x, x), 1),
        (lambda: rel_module.left_residual(empty, x), 1),
        (lambda: rel_module.graph_lower(f), 1),
        (lambda: rel_module.graph_upper(f), 1),
        # y⨾f^* with f's graph already kept, then its rows at f's image
        (lambda: rel_module.pullback(y, f), 2),
        (lambda: preorder_closure(square), 1),
        (lambda: list(enumerate_relations(B, B)), 16),
    ]
    for build, expected in builds:
        before = runs[0]
        build()
        assert runs[0] - before == expected
    clear_caches()
    runs[0] = 0
    assert search(SearchConfig("modular-tautology", mode="exhaustive", bounds=(1,))).checked == 34
    assert runs[0] == 306
    # the first field streams: the first 4-point instance follows the 531
    # relations on 0..3 points, never the 65,536 on four
    runs[0] = 0
    for inst in CATALOG["preorder-single-axiom"].enumerate((4,)):
        if len(inst["r"].src) == 4:
            break
    assert runs[0] == 1 + 2 + 2**4 + 2**9 + 1


def test_every_kernel_map_runs_its_shape_check(monkeypatch):
    """Each map the kernel, the enumerator and the generator build goes through
    `FnMap.__post_init__` once, as each relation goes through `Rel`'s; an
    image or rows given as a list or a generator is kept as a tuple."""
    A, B = finset("A", 3, "a"), finset("B", 2, "b")
    f = FnMap(A, B, (1, 0, 1))
    g = FnMap(B, A, (2, 0))
    runs = [0]
    post_init = FnMap.__post_init__

    def counted(self):
        runs[0] += 1
        post_init(self)

    monkeypatch.setattr(FnMap, "__post_init__", counted)
    builds = [
        (lambda: [identity_map(A)], 1),
        (lambda: [compose_maps(g, f)], 1),
        (lambda: list(enumerate_fnmaps(A, B)), 8),
        (lambda: [random_fnmap(random.Random(3), A, B)], 1),
        (lambda: [FnMap.from_labels(B, A, {"b0": "a2", "b1": "a0"})], 1),
    ]
    for build, expected in builds:
        before = runs[0]
        maps = build()
        assert runs[0] - before == expected == len(maps)
        assert all(m.image.__class__ is tuple for m in maps)
    for image in ([1, 0, 1], (i for i in (1, 0, 1))):
        assert FnMap(A, B, image).image == (1, 0, 1)
    for rows in ([1, 3, 0], (r for r in (1, 3, 0))):
        assert Rel(A, B, rows).rows == (1, 3, 0)


def test_enumerate_relations_checks_its_cell_limit_at_the_call():
    with pytest.raises(ConfigError, match="cannot enumerate relations with 20 cells"):
        enumerate_relations(finset("A", 5, "a"), finset("B", 4, "b"))


def test_enumerate_preorders_count_on_two_points():
    assert sum(1 for _ in enumerate_preorders(finset("A", 2, "a"))) == 4


def test_enumerate_fnmaps_counts():
    A, B = finset("A", 2, "a"), finset("B", 3, "b")
    assert sum(1 for _ in enumerate_fnmaps(A, B)) == 9
    assert sum(1 for _ in enumerate_fnmaps(finset("A", 0, "a"), B)) == 1
    assert sum(1 for _ in enumerate_fnmaps(A, finset("B", 0, "b"))) == 0


def test_enumerate_proms_all_valid():
    proms = list(enumerate_proms(2, 2))
    assert proms
    assert all(check_prom(p) for p in proms)


def test_enumerate_representations_all_sound():
    reps = list(enumerate_representations(2, 2))
    assert reps
    assert all(check_representation(r) for r in reps)


def test_enumerate_rep_morphisms_contains_identity():
    r = gen_representation(5, 2, 2)
    homs = list(enumerate_rep_morphisms(r, r))
    assert any(
        m.phi.image == tuple(range(len(r.S))) and eq(m.tau, identity(r.M)) for m in homs
    )
    assert all(check_rep_morphism(m) for m in homs)


def test_enumerate_prom_morphisms_matches_brute_force():
    """Every φ×ψ candidate filtered by check_prom_morphism, in the same order."""
    small = list(enumerate_proms(2, 1))
    large = list(enumerate_proms(2, 2, 1))
    found = 0
    for p1, p2 in [*product(small, large), *product(large, small)]:
        brute = [
            (phi.image, psi.image)
            for phi in enumerate_fnmaps(p1.A, p2.A)
            for psi in enumerate_fnmaps(p1.B, p2.B)
            if check_prom_morphism(PromMorphism(p1, p2, phi, psi))
        ]
        homs = [(m.phi.image, m.psi.image) for m in enumerate_prom_morphisms(p1, p2)]
        assert homs == brute
        found += len(homs)
    assert found == 1812


def test_enumerate_rep_morphisms_matches_brute_force():
    """Every φ×τ candidate filtered by check_rep_morphism, in the same order."""
    small = list(enumerate_representations(2, 1))
    large = list(enumerate_representations(2, 2, 1))
    found = 0
    for r1, r2 in [*product(small, large), *product(large, small)]:
        brute = [
            (phi.image, tau.rows)
            for phi in enumerate_fnmaps(r1.S, r2.S)
            for tau in enumerate_relations(r2.M, r1.M)
            if check_rep_morphism(RepMorphism(r1, r2, phi, tau))
        ]
        homs = [(m.phi.image, m.tau.rows) for m in enumerate_rep_morphisms(r1, r2)]
        assert homs == brute
        found += len(homs)
    assert found == 3682


def test_enumerate_rep_morphisms_bound_guard():
    big = gen_representation(0, 4, 1)
    with pytest.raises(ConfigError):
        list(enumerate_rep_morphisms(big, big))


# --- chain positions --------------------------------------------------------

def _names(table, count):
    """The carrier names of chain objects 0..count-1 in a position table."""
    return {name for carriers in table[:count] for name, _ in carriers}


#: Morphism law → the carrier names of the chain or hom-set its instances span.
CHAIN_CARRIERS = {
    **dict.fromkeys(("lemma2", "unit-natural"), _names(PROM_CARRIERS, 2)),
    "lemma3": _names(PROM_CARRIERS, 3),
    **dict.fromkeys(("lemma5", "counit-natural"), _names(REP_CARRIERS, 2)),
    "lemma6": _names(REP_CARRIERS, 3),
    **dict.fromkeys(("lemma8", "lemma9"), _names(PROM_CARRIERS, 1) | _names(REP_CARRIERS, 1)),
}


@pytest.mark.parametrize("law", CHAIN_CARRIERS)
def test_chain_objects_name_their_carriers_by_position(law):
    """Each object of a chain or hom-set takes its carriers from its
    position's row of the table, so 50 seeded instances and the first 50
    enumerated ones each build into one workspace with exactly those names.
    Two positions sharing a name would leave fewer names, or two different
    carriers under one."""
    spec = CATALOG[law]
    instances = [spec.generate(random.Random(mix_seed(11, i)), spec.default_bounds) for i in range(50)]
    if spec.enumerate is not None:
        instances += islice(spec.enumerate(spec.exhaustive_limit), 50)
    for inst in instances:
        assert set(workspace.build(inst).sets) == CHAIN_CARRIERS[law]


# --- law catalog / check_law ------------------------------------------------

def test_catalog_is_closed_and_documented():
    assert len(CATALOG) == 22
    for law, spec in CATALOG.items():
        assert spec.law == law and spec.summary
        # a law is seeded-only exactly when it has no exhaustive limit
        assert (spec.enumerate is None) == (spec.exhaustive_limit is None), law


def test_check_law_pass_returns_none():
    p = gen_prom(1, 3, 3)
    assert check_law("lemma1", {"p": p}) is None


def test_check_law_unknown_law():
    with pytest.raises(ConfigError):
        check_law("no-such-law", {})


@pytest.mark.parametrize(
    "law, draw, match",
    [
        ("lemma3", lambda rng: _gen_prom_chain(rng, 3, 2), "prom morphisms do not share a middle prom"),
        ("lemma6", lambda rng: _gen_rep_chain(rng, 2, 2, 2), "representation morphisms do not share a middle object"),
    ],
    ids=["lemma3", "lemma6"],
)
def test_functoriality_on_a_non_composable_pair_raises_carrier_mismatch(law, draw, match):
    """The composition the law states refuses the pair; the check adds no
    guard of its own."""
    m1, m2 = draw(random.Random(1))[0], draw(random.Random(3))[1]
    assert m1.dst != m2.src
    with pytest.raises(CarrierMismatch, match=match):
        check_law(law, {"m1": m1, "m2": m2})


#: Structure class → the kind an InvalidStructure for it names.
STRUCTURE_KINDS = {
    Preorder: "preorder",
    Prom: "prom",
    PromMorphism: "prom morphism",
    Representation: "representation",
    RepMorphism: "representation morphism",
}


def _unreflexive(obj):
    """obj with its first preorder emptied, which breaks reflexivity; None
    when that preorder's carrier is empty, as the empty relation is then a
    preorder."""
    if isinstance(obj, Preorder):
        c = obj.carrier
        return Preorder(Rel(c, c, (0,) * len(c))) if len(c) else None
    key = {Prom: "x", Representation: "ord", PromMorphism: "src", RepMorphism: "src"}[type(obj)]
    inner = _unreflexive(getattr(obj, key))
    return None if inner is None else replace(obj, **{key: inner})


def test_check_law_rejects_invalid_input_instead_of_witnessing():
    A = finset("A", 2, "a")
    bad_x = Preorder(Rel.from_pairs(A, A, [("a0", "a1")]))
    p = gen_prom(1, 2, 2)
    corrupted = Prom(bad_x, p.y, p.f) if len(p.A) == 2 else None
    assert corrupted is not None
    with pytest.raises(InvalidStructure):
        check_law("lemma1", {"p": corrupted})
    # every structure-valued field of every law, corrupted in turn
    laws = 0
    for law, spec in CATALOG.items():
        instances = [spec.generate(random.Random(mix_seed(0, i)), spec.default_bounds) for i in range(50)]
        keys = [key for key, value in instances[0].items() if type(value) in STRUCTURE_KINDS]
        laws += bool(keys)
        for key in keys:
            inst, bad = next(
                (inst, bad) for inst in instances if (bad := _unreflexive(inst[key])) is not None
            )
            with pytest.raises(InvalidStructure) as exc:
                check_law(law, {**inst, key: bad})
            assert exc.value.kind == STRUCTURE_KINDS[type(bad)], (law, key)
    assert laws == 15


def test_laws_without_structure_fields_register_their_check_itself():
    """Only declared structure fields are validated, so a law with none runs
    its check unwrapped, with the same verdict on a manual instance."""
    plain = [law for law, spec in CATALOG.items() if spec.check.__name__ != "validated"]
    assert plain == [
        "eq1-galois", "dual-galois", "modular-tautology", "preorder-single-axiom",
        "mem-residual-subset", "lemma7", "soundness-residual-equiv",
    ]
    for law in plain:
        spec = CATALOG[law]
        assert spec.check.__name__.startswith("_check_"), law
        for i in range(20):
            inst = spec.generate(random.Random(mix_seed(1, i)), spec.default_bounds)
            assert all(type(value) not in STRUCTURE_KINDS for value in inst.values()), law
            assert check_law(law, inst) is None, law
    A = finset("A", 2, "a")
    assert check_law("preorder-single-axiom", {"r": Rel(A, A, (2, 1))}) is None  # not reflexive


def test_witness_pipeline_via_injected_law():
    # all catalog laws are theorems, so exercise the witness machinery with a
    # deliberately false law over the same instance space
    def check(inst):
        if len(inst["p"].B) > 0:
            return "carrier is inhabited", {}
        return None, {}

    spec = CATALOG["lemma1"]
    CATALOG["always-fails"] = LawSpec(
        "always-fails", "test-only", check, spec.generate, spec.enumerate,
        spec.default_bounds, spec.exhaustive_limit,
    )
    try:
        summary = search(SearchConfig(law="always-fails", trials=50, seed=1))
        assert not summary.passed
        w = summary.witness
        assert isinstance(w, Witness) and w.violation == "carrier is inhabited"
        assert replay(w)
        doc = w.to_doc()
        assert doc["law"] == "always-fails" and "structures" in doc
        assert check_law("always-fails", w.structures) == replace(w, seed="manual")
    finally:
        del CATALOG["always-fails"]


def test_witness_documents_name_every_field_even_when_two_are_equal():
    """Each structure, relation and function of an instance is a record under
    its own key, and parses back equal to it.  A lemma6 chain of one identity
    twice has m1 == m2, and both must be named."""
    ident = identity_rep_morphism(gen_representation(0, 2, 2))
    instances = [("lemma6", "manual", {"m1": ident, "m2": ident})]
    for law, spec in CATALOG.items():
        for i in range(20):
            inst = spec.generate(random.Random(mix_seed(0, i)), spec.default_bounds)
            instances.append((law, mix_seed(0, i), inst))
    sections = {Rel: "relations", FnMap: "functions", **dict.fromkeys(workspace.KIND_OF, "structures")}
    for law, label, inst in instances:
        ws = workspace.parse(Witness(law, label, inst, "unchecked").to_doc()["structures"])
        for key, value in inst.items():
            if type(value) in sections:
                assert getattr(ws, sections[type(value)])[key] == value, (law, label, key)


def test_witness_document_names_its_carrier_field():
    """mem-residual-subset's field A is a carrier; the document records it
    under A, not only under the carrier's own name M."""
    doc = Witness("mem-residual-subset", 0, {"A": finset("M", 2, "m")}, "x").to_doc()
    assert doc["structures"]["sets"] == {"A": ["m0", "m1"]}


# --- search -----------------------------------------------------------------

@pytest.mark.parametrize("mode", ["seeded", "exhaustive"])
def test_refuted_run_stops_at_its_first_witness(mode):
    # a law that fails from its k-th instance on, over lemma7's instances
    k = 7
    seen = []

    def check(inst):
        seen.append(inst)
        return ("failing from instance k on" if len(seen) >= k else None), {"seen": 1}

    spec = CATALOG["lemma7"]
    CATALOG["fails-from-k"] = replace(spec, law="fails-from-k", check=check)
    try:
        summary = search(SearchConfig(law="fails-from-k", mode=mode, trials=50, seed=11))
    finally:
        del CATALOG["fails-from-k"]
    assert summary.checked == k == len(seen)
    assert summary.notes == {"seen": k}
    if mode == "seeded":
        label = mix_seed(11, k - 1)
        kth = spec.generate(random.Random(label), spec.default_bounds)
    else:
        label = "exhaustive"
        kth = list(spec.enumerate(spec.default_bounds))[k - 1]
    assert summary.witness == Witness("fails-from-k", label, kth, "failing from instance k on")


def test_search_seeded_deterministic_across_parallelism():
    base = SearchConfig(law="triangle-repr", trials=120, seed=17)
    serial = search(base)
    parallel = search(SearchConfig(law="triangle-repr", trials=120, seed=17, parallelism=8))
    assert serial.lines() == parallel.lines()


def test_search_exhaustive_counts_eq1():
    summary = search(SearchConfig(law="eq1-galois", mode="exhaustive", bounds=(2,)))
    assert summary.passed
    # includes 16^3 = 4096 triples at the full size plus all smaller shapes
    assert summary.checked >= 4096


def test_search_rejects_infeasible_exhaustive_bounds():
    with pytest.raises(ConfigError):
        search(SearchConfig(law="eq1-galois", mode="exhaustive", bounds=(3,)))


def test_search_rejects_exhaustive_for_seeded_only_laws():
    for law in ("lemma2", "lemma3", "unit-natural", "counit-natural"):
        with pytest.raises(ConfigError):
            search(SearchConfig(law=law, mode="exhaustive"))


def test_search_rejects_unknown_mode_and_law():
    with pytest.raises(ConfigError):
        search(SearchConfig(law="lemma1", mode="sideways"))
    with pytest.raises(ConfigError):
        search(SearchConfig(law="nope"))


@pytest.mark.parametrize("mode", ["seeded", "exhaustive"])
def test_search_rejects_parallelism_below_one(mode):
    for jobs in (0, -3):
        with pytest.raises(ConfigError):
            search(SearchConfig(law="lemma1", mode=mode, parallelism=jobs))


@pytest.mark.parametrize("mode", ["seeded", "exhaustive"])
def test_search_rejects_empty_or_negative_bounds(mode):
    for bounds in ((), (-1,), (2, -1)):
        with pytest.raises(ConfigError, match="bounds must be one or more nonnegative sizes"):
            search(SearchConfig(law="lemma4", mode=mode, bounds=bounds))


def test_powerset_base_names_the_bound_of_every_powerset_built(monkeypatch):
    """Each law's declared `powerset_base` bound caps every powerset base its
    check builds, and a law that declares none builds no powerset: with the
    declared bound at 2 and every other bound at 3, no base exceeds 2."""
    bases = []
    cached = rel_module._cached_powerset
    monkeypatch.setattr(rel_module, "_cached_powerset", lambda base: bases.append(len(base)) or cached(base))
    for law, spec in CATALOG.items():
        bases.clear()
        bounds = [3] * len(spec.default_bounds)
        if spec.powerset_base is not None:
            bounds[spec.powerset_base[1]] = 2
        assert search(SearchConfig(law=law, trials=25, seed=3, bounds=tuple(bounds))).passed
        if spec.powerset_base is None:
            assert bases == [], law
        else:
            assert bases and max(bases) == 2, law


def test_search_rejects_a_powerset_bound_over_the_cap_before_any_trial(monkeypatch):
    """A bound over the cap that sizes a powerset base is a ConfigError
    before the first draw; a law that builds no powerset draws as before."""
    def no_trial(*args):
        raise AssertionError("a trial ran")

    for law, spec in list(CATALOG.items()):
        monkeypatch.setitem(CATALOG, law, replace(spec, generate=no_trial))
        config = SearchConfig(law=law, bounds=(13,))
        if spec.powerset_base is None:
            with pytest.raises(AssertionError, match="a trial ran"):
                search(config)
        else:
            base = spec.powerset_base[0]
            with pytest.raises(ConfigError, match=rf"^\|{base}\| = 13 exceeds powerset cap 12: law '{law}'"):
                search(config)


def test_all_laws_pass_smoke():
    for law in CATALOG:
        assert search(SearchConfig(law=law, trials=25, seed=5)).passed


_TAU_PAIR = Schema(
    (("M1", "a", 0), ("M2", "b", 0), ("M3", "c", 0)),
    (("tau1", "rel", "M2", "M1"), ("tau2", "rel", "M3", "M2")),
)


def direct_image_functorial(max_size: int):
    """Exhaustive functoriality of the direct image on raw tau data.

    M on morphisms only transforms tau, so strict functoriality at a carrier
    bound reduces to: direct_image(1_M) = id and
    direct_image(tau2⨾tau1) = direct_image(tau1)⨾direct_image(tau2)
    for all composable tau pairs within the bound.  Lemma 6's exhaustive
    limit stops at |S| ≤ 1; this covers its composition equality at the
    larger bound without the cross product of hom-sets.  Returns the number
    of cases checked and the first violation message, if any.
    """
    checked = 0
    for size in range(max_size + 1):
        M = finset("M", size, "m")
        checked += 1
        if direct_image(identity(M)) != identity_map(powerset(M).carrier):
            return checked, f"direct image of 1_M is not the identity at |M|={size}"
    for inst in _TAU_PAIR.enumerate((max_size,)):
        tau1, tau2 = inst["tau1"], inst["tau2"]
        lhs = direct_image(compose(tau2, tau1))
        rhs = compose_maps(direct_image(tau2), direct_image(tau1))
        checked += 1
        if lhs != rhs:
            return checked, f"direct image is not multiplicative at tau1={tau1.pairs()}, tau2={tau2.pairs()}"
    return checked, None


def test_direct_image_functorial_small():
    # identity cases for each |M|, then every composable tau pair
    for max_size, count in ((0, 2), (1, 15), (2, 502)):
        assert direct_image_functorial(max_size) == (count, None)


@pytest.mark.parametrize("law", ["lemma5", "lemma6"])
def test_seeded_rep_morphisms_respect_both_bounds(law):
    spec = CATALOG[law]
    for i in range(200):
        inst = spec.generate(random.Random(mix_seed(0, i)), (2, 1))
        for m in inst.values():
            for r in (m.src, m.dst):
                assert len(r.M) <= 2 and len(r.S) <= 1, (law, i)


# --- golden instances -------------------------------------------------------
#
# Recorded from the hand-written generators and enumerators that the instance
# schemas replaced, so a change of draw order or of instance space shows up
# here.  modular-tautology's stream was re-recorded when its generator began
# drawing |B| and |C| from 0..n, as its enumerator always did, and
# mem-residual-subset's when its default bound went from 3 to 7.  lemma5,
# lemma6 and counit-natural were re-recorded when representation morphisms
# began to be drawn into a drawn target instead of falling back to identities.

GOLDEN_STREAMS = {
    "counit-natural": "49cbd50d2590d83730807296b66f95870f09bbff4438d4ec636a25dd5f5b14e4",
    "dual-galois": "e879e6500bcce26e0d63d776c617a46783ad7d3b1e4ee2fb5a28778b90f07cf5",
    "eq1-galois": "e879e6500bcce26e0d63d776c617a46783ad7d3b1e4ee2fb5a28778b90f07cf5",
    "lemma1": "7aa1eb016e102adf481cdcb190741a855865f8bfbd76c3a857fca25937252c5f",
    "lemma10": "9818474b547201ac02712efa9562ac268df00e90183d48775c933346351e658b",
    "lemma11": "7aa1eb016e102adf481cdcb190741a855865f8bfbd76c3a857fca25937252c5f",
    "lemma2": "c2e33eea7a0c27dc790c56f53ce9c55ea10dbd8a32893700ed01336541fb929f",
    "lemma3": "7c8f467db3270b46eabef24d8c39007f09ac0fbb72eb62d7f4ec8e8758debbcf",
    "lemma4": "9818474b547201ac02712efa9562ac268df00e90183d48775c933346351e658b",
    "lemma5": "49cbd50d2590d83730807296b66f95870f09bbff4438d4ec636a25dd5f5b14e4",
    "lemma6": "591c42378beee22fe11d3d0ba4b28d05c2dd862d7420a204f69d5475dd0f1c80",
    "lemma7": "89cc9f6678626efb7450a2a86d47f175be8249eeea72e2440ebb1c6ee8b9222d",
    "lemma8": "59f957b998988b2150306b228d46eadb56d0745de63618d8ccf3956182bcb99a",
    "lemma9": "59f957b998988b2150306b228d46eadb56d0745de63618d8ccf3956182bcb99a",
    "mem-residual-subset": "880f02ed696152395da0d30d1897084f2cd36572be33d6bf75d5207cefe9e12b",
    "modular-tautology": "6a6c6de2ddc2a4e3f4d54857ea1627f26e8920ddc904753be3a1b4debd02a43e",
    "preorder-single-axiom": "f2997c0ac7b7119bcf52aff54e9d146a20fb33920c070f77b00368faf863eb9d",
    "psi-characterization": "de9933b179211a20e5baf8e5a8676809c99f809573abef02c6d743f267b1e570",
    "soundness-residual-equiv": "33a952ecd6749b6b0a7f75337aa2bd42a60aaaab4db0abcf5284117849525ebd",
    "triangle-pom": "9818474b547201ac02712efa9562ac268df00e90183d48775c933346351e658b",
    "triangle-repr": "19da2f75ced50e5564668b64ffb96d02defdcc0f79bbd1624af19f19fc726129",
    "unit-natural": "11aedf44e69dc085c69f598b0864e89794eb600553365b090e6877eaf2bb1786",
}

#: (law, bounds) -> (instance count, sha256 of the sorted instance reprs)
GOLDEN_SETS = {
    ("eq1-galois", (2,)): (5053, "3cefd9cfde3b8fab6be06eb2092373a81aba6c6f553cdc48358db893de56ad80"),
    ("dual-galois", (2,)): (5053, "3cefd9cfde3b8fab6be06eb2092373a81aba6c6f553cdc48358db893de56ad80"),
    ("modular-tautology", (2,)): (16971, "221844799ec1c685753510e5c8b35e177c0a0dfc158b4082aabb3c8e615bd825"),
    ("preorder-single-axiom", (3,)): (531, "0bc93d029dddd016acf1d55992b4b4c1ffda2c1c20f46a5eb91a1402503a491a"),
    ("mem-residual-subset", (8,)): (9, "8f193fda031d6f8c2ef491506e4ff1d740038186103f686e4a53031e9fa83c56"),
    ("lemma1", (2, 2)): (69, "d9194271423aa03a0cf81772e91cd5104b5ecd87c97f0458b9aedf812f3bc5a6"),
    ("lemma4", (2, 2)): (64, "624d810c01aa6daed0a3e7eeb27582378eb8faa78d5982ded4fb4d96a0f72956"),
    ("lemma5", (1, 2)): (809, "f7d229865457a74678738e46a2a4edd24bdec745175ab1e8660ab3f66fe788e6"),
    ("lemma6", (1, 1)): (77, "a66958974e1d746bae2ac04de870a66fc64053162918d2916a32483e9d04616e"),
    ("lemma7", (4, 3)): (5058, "115389b30d41d22a12251d50e4ef8f5ca76dd9fc76df88454d78d084398b0f93"),
    ("lemma8", (2,)): (4416, "d8ab9f185542b66e23e9b523e627f9a0899f1a9185d936e5f390d5c08164d0b8"),
    ("lemma9", (2,)): (4416, "d8ab9f185542b66e23e9b523e627f9a0899f1a9185d936e5f390d5c08164d0b8"),
    ("lemma10", (2, 2)): (64, "624d810c01aa6daed0a3e7eeb27582378eb8faa78d5982ded4fb4d96a0f72956"),
    ("lemma11", (2, 2)): (69, "d9194271423aa03a0cf81772e91cd5104b5ecd87c97f0458b9aedf812f3bc5a6"),
    ("triangle-repr", (2, 2)): (69, "d9194271423aa03a0cf81772e91cd5104b5ecd87c97f0458b9aedf812f3bc5a6"),
    ("triangle-pom", (2, 2)): (64, "624d810c01aa6daed0a3e7eeb27582378eb8faa78d5982ded4fb4d96a0f72956"),
    ("psi-characterization", (2, 2)): (94, "32893e80f195952fc3148fed15f4f37e76a1d7f834f691485227c2cab111abfd"),
    ("soundness-residual-equiv", (2, 2)): (353, "f75b6fa0562ff4ac97488933ee73bffc955074dae01e845749c4340814cc1617"),
}

SCHEMA_LAWS = [
    law for law, spec in CATALOG.items() if isinstance(getattr(spec.generate, "__self__", None), Schema)
]


def _instance_repr(inst) -> str:
    return repr(sorted(inst.items()))


def test_golden_tables_cover_the_catalog():
    assert set(GOLDEN_STREAMS) == set(CATALOG)
    enumerable = {law for law, spec in CATALOG.items() if spec.enumerate is not None}
    assert {law for law, _ in GOLDEN_SETS} == enumerable and len(enumerable) == 18
    assert len(SCHEMA_LAWS) == 22
    assert all(
        CATALOG[law].enumerate.__self__ is CATALOG[law].generate.__self__
        for law in SCHEMA_LAWS
        if law in enumerable
    )


@pytest.mark.parametrize("law", list(GOLDEN_STREAMS))
def test_seeded_stream_matches_golden(law):
    spec = CATALOG[law]
    digest = hashlib.sha256()
    for i in range(20):
        inst = spec.generate(random.Random(mix_seed(0, i)), spec.default_bounds)
        digest.update(_instance_repr(inst).encode())
    assert digest.hexdigest() == GOLDEN_STREAMS[law]


@pytest.mark.parametrize("law, bounds", list(GOLDEN_SETS))
def test_enumerated_set_matches_golden(law, bounds):
    reprs = sorted(_instance_repr(inst) for inst in CATALOG[law].enumerate(bounds))
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert (len(reprs), digest) == GOLDEN_SETS[law, bounds]


@pytest.mark.parametrize("law", [law for law, spec in CATALOG.items() if spec.enumerate is not None])
def test_generated_instances_at_the_limit_are_enumerated(law):
    # drift guard: both search modes must range over the same instance space
    spec = CATALOG[law]
    limit = spec.exhaustive_limit

    def key(inst):
        return tuple(sorted(inst.items()))

    drawn = [spec.generate(random.Random(mix_seed(1, i)), limit) for i in range(25)]
    wanted = {key(inst) for inst in drawn}
    assert wanted
    for inst in spec.enumerate(limit):
        wanted.discard(key(inst))
        if not wanted:
            break
    assert not wanted


# --- seeded verdicts --------------------------------------------------------
#
# The full summary of every law at 40 seeded trials, seed 7: a refactor of the
# kernel or of the constructions must keep each checked count and note.

GOLDEN_SUMMARIES = """\
law: eq1-galois
mode: seeded
bounds: 3
seed: 7
checked: 40
witnesses: 0
result: pass
law: dual-galois
mode: seeded
bounds: 3
seed: 7
checked: 40
witnesses: 0
result: pass
law: modular-tautology
mode: seeded
bounds: 3
seed: 7
checked: 40
witnesses: 0
result: pass
law: preorder-single-axiom
mode: seeded
bounds: 3
seed: 7
checked: 40
note.preorders: 15
witnesses: 0
result: pass
law: mem-residual-subset
mode: seeded
bounds: 7
seed: 7
checked: 40
witnesses: 0
result: pass
law: lemma1
mode: seeded
bounds: 4,4
seed: 7
checked: 40
witnesses: 0
result: pass
law: lemma2
mode: seeded
bounds: 4
seed: 7
checked: 40
witnesses: 0
result: pass
law: lemma3
mode: seeded
bounds: 3
seed: 7
checked: 40
note.strict: 23
witnesses: 0
result: pass
law: lemma4
mode: seeded
bounds: 3,3
seed: 7
checked: 40
witnesses: 0
result: pass
law: lemma5
mode: seeded
bounds: 2,2
seed: 7
checked: 40
witnesses: 0
result: pass
law: lemma6
mode: seeded
bounds: 2,2
seed: 7
checked: 40
witnesses: 0
result: pass
law: lemma7
mode: seeded
bounds: 2,3
seed: 7
checked: 40
witnesses: 0
result: pass
law: lemma8
mode: seeded
bounds: 2
seed: 7
checked: 40
note.prom_homs: 73
note.rep_homs: 81
witnesses: 0
result: pass
law: lemma9
mode: seeded
bounds: 2
seed: 7
checked: 40
note.prom_homs: 73
note.rep_homs: 81
note.strict_t_psi: 8
witnesses: 0
result: pass
law: lemma10
mode: seeded
bounds: 3,3
seed: 7
checked: 40
note.exact: 21
note.non_exact: 19
witnesses: 0
result: pass
law: lemma11
mode: seeded
bounds: 4,4
seed: 7
checked: 40
note.non_reflecting: 5
note.reflecting: 35
witnesses: 0
result: pass
law: triangle-repr
mode: seeded
bounds: 3,3
seed: 7
checked: 40
note.strict: 14
witnesses: 0
result: pass
law: triangle-pom
mode: seeded
bounds: 3,3
seed: 7
checked: 40
witnesses: 0
result: pass
law: unit-natural
mode: seeded
bounds: 3
seed: 7
checked: 40
witnesses: 0
result: pass
law: counit-natural
mode: seeded
bounds: 2
seed: 7
checked: 40
witnesses: 0
result: pass
law: psi-characterization
mode: seeded
bounds: 3,3
seed: 7
checked: 40
witnesses: 0
result: pass
law: soundness-residual-equiv
mode: seeded
bounds: 3,3
seed: 7
checked: 40
witnesses: 0
result: pass
"""


def test_seeded_summaries_match_golden():
    lines = [line for law in CATALOG for line in search(SearchConfig(law, trials=40, seed=7)).lines()]
    assert "".join(line + "\n" for line in lines) == GOLDEN_SUMMARIES
