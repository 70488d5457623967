"""Unit, counit, triangles, membership recovery, and the hom-set Galois maps."""

import json
from collections import Counter

import pytest

from promrep import (
    FnMap,
    Preorder,
    PowersetBundle,
    Prom,
    Rel,
    check_rep_morphism,
    clear_caches,
    compose,
    counit,
    direct_image,
    eq,
    finset,
    full,
    graph_upper,
    identity,
    identity_prom_morphism,
    identity_rep_morphism,
    left_residual,
    leq,
    lift,
    lower,
    power_transpose,
    powerset,
    prom_to_rep,
    recover_by_membership,
    rel_to_map,
    rep_to_prom,
    repmor_leq,
    triangle_prom,
    triangle_rep,
    unit,
)
from promrep.adjunction import _triangle_prom_composite, map_to_rel
from promrep.cli import main
from promrep.harness import (
    SearchConfig,
    _superset_masks,
    check_law,
    enumerate_prom_morphisms,
    enumerate_rep_morphisms,
    enumerate_proms,
    enumerate_representations,
    random_rel,
    replay,
    search,
)
from promrep.structures import check_prom_morphism
import promrep.adjunction as adjunction_module
import promrep.functors as functors_module
import promrep.harness as harness_module
import promrep.rel as rel_module
import random
from seeded import (
    gen_preorder,
    gen_prom,
    gen_prom_morphism,
    gen_rep_morphism,
    gen_representation,
    patch_everywhere,
)


def rel(src, dst, *pairs):
    return Rel.from_pairs(src, dst, pairs)


def chain2(carrier):
    lo, hi = carrier.elements
    return Preorder(rel(carrier, carrier, (lo, lo), (hi, hi), (lo, hi)))


# --- unit -------------------------------------------------------------------

def test_unit_discrete_order_is_singleton_map():
    A, B = finset("A", 1, "a"), finset("B", 2, "b")
    p = Prom(Preorder(identity(A)), Preorder(identity(B)), FnMap(A, B, (0,)))
    eta = unit(p)
    assert eta.psi.as_dict() == {"b0": "{b0}", "b1": "{b1}"}
    assert eta.psi == power_transpose(identity(B), powerset(B).mem)


def test_unit_two_chain_downsets():
    A, B = finset("A", 1, "a"), finset("B", 2, "b")
    p = Prom(Preorder(identity(A)), chain2(B), FnMap(A, B, (0,)))
    eta = unit(p)
    assert eta.psi.as_dict()["b0"] == "{b0}"
    assert eta.psi.as_dict()["b1"] == "{b0,b1}"


def test_unit_is_valid_morphism_seeded():
    for seed in range(100):
        p = gen_prom(seed, 3, 3)
        assert check_prom_morphism(unit(p))


def test_unit_naturality_seeded():
    for seed in range(100):
        assert check_law("unit-natural", {"m": gen_prom_morphism(seed, 3)}) is None


# --- counit -----------------------------------------------------------------

def test_counit_source_sat_is_universal_comprehension():
    M, S = finset("M", 1, "m"), finset("S", 1, "s")
    from promrep import Representation

    r = Representation(rel(M, S, ("m0", "s0")), Preorder(identity(S)))
    eps = counit(r)
    # source sat = ∈\⊨: (α, s) iff every model in α satisfies s
    assert ("{m0}", "s0") in eps.src.sat.pairs()
    assert ("{}", "s0") in eps.src.sat.pairs()


def test_counit_is_valid_morphism_seeded():
    for seed in range(100):
        assert check_rep_morphism(counit(gen_representation(seed, 3, 3)))


def test_counit_naturality_seeded():
    for seed in range(100):
        assert check_law("counit-natural", {"m": gen_rep_morphism(seed, 2)}) is None


def count_image_builds(monkeypatch) -> Counter:
    """Count R and M images as they are built, by wrapping the constructors
    that `prom_to_rep` and `rep_to_prom` call."""
    built = Counter()
    for name, key in (("Representation", "R"), ("Prom", "M")):
        def build(*args, cls=getattr(functors_module, name), key=key):
            built[key] += 1
            return cls(*args)
        monkeypatch.setattr(functors_module, name, build)
    return built


@pytest.mark.parametrize("law", ["unit-natural", "counit-natural"])
def test_naturality_checks_build_each_image_once_per_end(monkeypatch, law):
    """Each end's unit or counit is built once, and its morphism check and
    the square composed from it read the R and M that the end keeps."""
    built = count_image_builds(monkeypatch)
    for name in ("unit", "counit"):
        def build(x, construct=getattr(adjunction_module, name), name=name):
            built[name] += 1
            return construct(x)
        patch_everywhere(monkeypatch, name, build, adjunction_module)
    summary = search(SearchConfig(law, trials=20))
    assert summary.passed and summary.checked == 20
    assert built == {"R": 2 * summary.checked, "M": 2 * summary.checked, law.split("-")[0]: 2 * summary.checked}


@pytest.mark.parametrize("law, bounds, pools", [("lemma5", (2, 2), 2), ("lemma6", (2, 1), 3)])
def test_exhaustive_functor_laws_build_m_once_per_representation(monkeypatch, law, bounds, pools):
    """lemma5 draws its morphisms' ends from two pools of representations
    and lemma6 from three; each representation builds its M once."""
    reps = len(list(enumerate_representations(*bounds)))
    built = count_image_builds(monkeypatch)
    assert search(SearchConfig(law, mode="exhaustive", bounds=bounds)).passed
    assert built["M"] == pools * reps == {"lemma5": 128, "lemma6": 30}[law]


def unit_dropping_last_image(p):
    """η with ψ sending the last point of B to the empty set."""
    m = unit(p)
    psi = FnMap(m.psi.src, m.psi.dst, m.psi.image[:-1] + (0,) * bool(m.psi.image))
    return type(m)(m.src, m.dst, m.phi, psi)


def counit_dropping_last_row(r):
    """ε with the last row of τ emptied."""
    m = counit(r)
    tau = Rel(m.tau.src, m.tau.dst, m.tau.rows[:-1] + (0,) * bool(m.tau.rows))
    return type(m)(m.src, m.dst, m.phi, tau)


@pytest.mark.parametrize(
    "law, name, mutant, seed, violation",
    [
        ("unit-natural", "unit", unit_dropping_last_image, 0,
         "unit is not a prom morphism: psi order preservation violated at ('b0', 'b2')"),
        ("unit-natural", "unit", unit_dropping_last_image, 1,
         "unit is not a prom morphism: psi order preservation violated at ('d0', 'd1')"),
        ("counit-natural", "counit", counit_dropping_last_row, 0,
         "counit is not a representation morphism: commuting square violated at ('m1', 's0')"),
    ],
)
def test_mutant_unit_and_counit_keep_their_witnesses(monkeypatch, law, name, mutant, seed, violation):
    """A broken unit or counit is reported with the message of the first
    end whose morphism check fails, the source before the destination: at
    seed 0 the source's unit fails, at seed 1 the destination's."""
    patch_everywhere(monkeypatch, name, mutant, adjunction_module)
    summary = search(SearchConfig(law, seed=seed))
    assert summary.witness.violation == violation
    assert replay(summary.witness)


def transposes_of_identities():
    """For each input, whether η = Ψ(1_{R p}) or ε = T(1_{M r}) holds, as
    whole morphisms.  unit and counit are built by their formulas, lift and
    lower from the Galois maps Ψ and T, so the two sides share no code path."""
    proms = [
        *enumerate_proms(2, 2),
        *(gen_prom(seed, 4 + seed % 2, 4 + seed % 2) for seed in range(20)),
        gen_prom(0, 3, 12),
    ]
    reps = [
        *enumerate_representations(2, 2),
        *(gen_representation(seed, 4 + seed % 2, 4 + seed % 2) for seed in range(20)),
        gen_representation(0, 12, 3),
    ]
    return [unit(p) == lift(identity_rep_morphism(prom_to_rep(p)), p) for p in proms] + [
        counit(r) == lower(identity_prom_morphism(rep_to_prom(r)), r) for r in reps
    ]


def test_unit_and_counit_are_transposes_of_identities():
    assert all(transposes_of_identities())


# --- membership recovery ----------------------------------------------------

def test_recover_empty_and_full():
    A, B = finset("A", 2, "a"), finset("B", 2, "b")
    for r in (rel(A, B), Rel(A, B, (3, 3))):
        assert eq(recover_by_membership(r), r)


def test_recover_exhaustive_small():
    A, B = finset("A", 2, "a"), finset("B", 3, "b")
    for code in range(1 << 6):
        r = Rel(A, B, (code & 7, code >> 3))
        assert eq(recover_by_membership(r), r)


# --- triangles --------------------------------------------------------------

def test_triangle_rep_discrete_is_identity():
    A, B = finset("A", 1, "a"), finset("B", 2, "b")
    p = Prom(Preorder(identity(A)), Preorder(identity(B)), FnMap(A, B, (0,)))
    res = triangle_rep(p)
    assert res.equals_expected and res.dominates_identity and not res.strict
    assert eq(res.composite.tau, identity(B))


def test_triangle_rep_two_chain_is_strict():
    A, B = finset("A", 1, "a"), finset("B", 2, "b")
    p = Prom(Preorder(identity(A)), chain2(B), FnMap(A, B, (0,)))
    res = triangle_rep(p)
    assert res.equals_expected and res.dominates_identity and res.strict
    assert eq(res.composite.tau, p.y.rel)
    assert not eq(res.composite.tau, identity(B))


def test_triangle_prom_small_sizes():
    for m in range(13):
        assert triangle_prom(gen_representation(m, m, 2))


def pointwise_triangle_prom_image(n):
    """The O(4^n) definition: α ↦ the union of all β ⊆ α."""
    image = []
    for alpha in range(1 << n):
        acc = 0
        for beta in range(1 << n):
            if beta & ~alpha == 0:
                acc |= beta
        image.append(acc)
    return tuple(image)


def pointwise_superset_masks(n):
    """The O(4^n) definition of ∈\\∈: row α holds every β ⊇ α."""
    rows = []
    for alpha in range(1 << n):
        row = 0
        for beta in range(1 << n):
            if alpha & ~beta == 0:
                row |= 1 << beta
        rows.append(row)
    return tuple(rows)


@pytest.mark.parametrize("n", range(9))
def test_triangle_prom_composite_matches_pointwise_definition(n):
    mem = powerset(finset("M", n, "m")).mem
    assert _triangle_prom_composite(mem).image == pointwise_triangle_prom_image(n)


@pytest.mark.parametrize("n", range(9))
def test_subset_reference_matches_pointwise_definition(n):
    expected = pointwise_superset_masks(n)
    assert _superset_masks(n) == expected
    mem = powerset(finset("M", n, "m")).mem
    assert left_residual(mem, mem).rows == expected


@pytest.mark.parametrize("n", range(11))
def test_superset_masks_match_their_definition(n):
    """Bit β of row α is set iff α & ~β == 0, read bit by bit."""
    rows = _superset_masks(n)
    assert len(rows) == 1 << n
    for alpha, row in enumerate(rows):
        assert [row >> beta & 1 for beta in range(1 << n)] == [int(alpha & ~beta == 0) for beta in range(1 << n)]


# --- mutation: the checks catch injected kernel bugs -------------------------

def full_residual(x, z):
    return full(x.dst, z.dst)


def residual_skipping_last_row(x, z):
    """Forgets the constraint from the last source element."""
    keep = finset(x.src.name, len(x.src) - 1, "_")
    return left_residual(Rel(keep, x.dst, x.rows[:-1]), Rel(keep, z.dst, z.rows[:-1]))


@pytest.mark.parametrize("bug", [full_residual, residual_skipping_last_row])
def test_residual_bug_is_caught_by_both_powerset_laws(monkeypatch, bug):
    monkeypatch.setattr(adjunction_module, "left_residual", bug)
    monkeypatch.setattr(harness_module, "left_residual", bug)
    assert not triangle_prom(gen_representation(1, 3, 2))
    summary = search(SearchConfig("mem-residual-subset", mode="exhaustive", bounds=(3,)))
    assert not summary.passed
    assert summary.witness.violation == "∈\\∈ differs from the subset order"
    assert replay(summary.witness)


def test_dropped_column_is_caught_by_triangle_repr(monkeypatch):
    """A live-row mask that loses y's highest nonzero row drops from x⨾y
    the columns that row alone reaches: in ⊆⨾g^*, every a with g(a) the
    highest image."""
    live_rows = rel_module._live_rows

    def drop_top_live_row(rows):
        mask = live_rows(rows)
        return mask ^ (1 << mask.bit_length() >> 1)

    p = gen_prom(5, 3, 8)  # ⊆ on 2^8 has 256 rows: compose masks them
    assert check_law("triangle-repr", {"p": p}) is None
    monkeypatch.setattr(rel_module, "_live_rows", drop_top_live_row)
    witness = check_law("triangle-repr", {"p": p})
    assert witness is not None and witness.violation == "ε∘R(η) differs from (id, y)"
    assert replay(witness)


def test_compose_dropping_last_bit_is_caught_by_the_default_catalog_run(monkeypatch):
    """Every law but mem-residual-subset, which composes nothing, kills the
    mutant with a replaying witness."""
    compose = rel_module.compose

    def mutant(x, y):
        """compose's row loop, skipping the highest set bit of each row of x."""
        return compose(Rel(x.src, x.dst, tuple(row ^ (1 << row.bit_length() >> 1) for row in x.rows)), y)

    patch_everywhere(monkeypatch, "compose", mutant, rel_module)
    survivors = []
    for law in harness_module.CATALOG:
        clear_caches()
        summary = search(SearchConfig(law))
        if summary.passed:
            survivors.append(law)
        else:
            assert replay(summary.witness), law
    assert survivors == ["mem-residual-subset"]


@pytest.mark.parametrize("law", ["lemma4", "psi-characterization", "triangle-pom"])
def test_dropped_transpose_column_is_caught_by_catalog(monkeypatch, law):
    transpose = rel_module.power_transpose

    def drop_last_column(x, mem):
        f = transpose(x, mem)
        return FnMap(f.src, f.dst, f.image[:-1] + (0,) * bool(f.image))

    patch_everywhere(monkeypatch, "power_transpose", drop_last_column, rel_module)
    summary = search(SearchConfig(law))
    assert not summary.passed
    assert replay(summary.witness)


@pytest.mark.parametrize("law", ["lemma4", "mem-residual-subset", "triangle-pom"])
def test_powerset_masks_in_wrong_order_are_caught_by_catalog(monkeypatch, law):
    build = rel_module._build_powerset

    def swap_first_two_subsets(base):
        """Subsets 0 and 1 ({} and {first}) trade membership columns."""
        b = build(base)
        rows = tuple(row & ~3 | (row & 1) << 1 | (row & 2) >> 1 for row in b.mem.rows)
        return PowersetBundle(b.base, b.carrier, Rel(b.base, b.carrier, rows))

    assert search(SearchConfig(law)).passed  # fills the cache with correct bundles
    monkeypatch.setattr(rel_module, "_build_powerset", swap_first_two_subsets)
    assert search(SearchConfig(law)).passed  # the cache hides the mutant
    clear_caches()
    summary = search(SearchConfig(law))
    assert not summary.passed
    assert replay(summary.witness)


def residual_empty_over_empty_source(residual):
    """The left residual, empty instead of full over an empty source."""
    return lambda x, z: residual(x, z) if len(x.src) else Rel(x.dst, z.dst, (0,) * len(x.dst))


def subset_order_without_empty_below_full(memo):
    """The rows of ⊆ without the pair ({}, M) once 2^|M| ≥ 4."""
    def mutant(mem):
        rows = memo(mem)
        if len(rows) < 4:
            return rows
        return (rows[0] & ~(1 << len(rows) - 1),) + rows[1:]
    return mutant


def test_subset_rows_memo_hides_a_residual_mutant_until_cleared(monkeypatch):
    """The memo keeps the ⊆ rows the correct residual built, so M(r) stays
    right after `left_residual` is broken, until `clear_caches` empties it."""
    r = gen_representation(0, 0, 2)
    assert len(r.M) == 0 and rep_to_prom(r).y.rel.rows == (1,)
    assert search(SearchConfig("lemma4")).passed  # fills the memo with correct rows
    patch_everywhere(monkeypatch, "left_residual", residual_empty_over_empty_source(rel_module.left_residual), rel_module)
    mem = powerset(r.M).mem
    assert rel_module.left_residual(mem, mem).rows == (0,)
    assert rep_to_prom(gen_representation(1, 0, 2)).y.rel.rows == (1,)
    assert search(SearchConfig("lemma4")).passed  # the memo hides the mutant
    clear_caches()
    summary = search(SearchConfig("lemma4"))
    assert not summary.passed
    assert replay(summary.witness)


def test_scan_dropping_top_bit_is_caught_at_width_256(monkeypatch):
    """∈ on 2^8 is 256 columns wide with 128 bits a row, so its rows are
    scanned, not peeled.

    The law's reference for ∈\\∈ lists no bits through the kernel, and
    triangle_prom compares the composite's images with the identity's.
    """
    scan = rel_module._scan
    config = SearchConfig("mem-residual-subset", mode="exhaustive", bounds=(8,))
    r = gen_representation(0, 8, 1)
    assert search(config).passed and triangle_prom(r)
    monkeypatch.setattr(rel_module, "_scan", lambda row: scan(row ^ (1 << row.bit_length() >> 1)))
    summary = search(config)
    assert not summary.passed
    assert summary.witness.violation == "∈\\∈ differs from the subset order"
    assert replay(summary.witness)
    assert not triangle_prom(r)


def test_scan_dropping_top_bit_is_caught_by_the_default_run(monkeypatch, capsys):
    """mem-residual-subset's default bound draws |M| up to 7, where ∈ has
    rows 128 columns wide with 64 bits each, which `row_bits` scans."""
    scan = rel_module._scan
    monkeypatch.setattr(rel_module, "_scan", lambda row: scan(row ^ (1 << row.bit_length() >> 1)))
    clear_caches()
    assert main(["verify", "mem-residual-subset"]) == 1
    report, witness = capsys.readouterr().out.split("\n{", 1)
    assert report.splitlines()[-1] == "result: fail"
    summary = search(SearchConfig("mem-residual-subset"))
    assert json.loads("{" + witness)["seed"] == summary.witness.seed
    assert summary.witness.violation == "∈\\∈ differs from the subset order"
    assert replay(summary.witness)


def dropping_top_lane(lane_transpose):
    """The lane transpose with the byte lane of the last column zeroed."""
    def mutant(rows, width):
        columns = lane_transpose(rows, width)
        columns[-1] = 0
        return columns

    return mutant


def without_last_row(meet_table):
    """The meet table built as if z's last row were full."""
    return lambda rows, top: meet_table(rows[:-1] + (top,), top)


@pytest.mark.parametrize("name, mutate", [("_lane_transpose", dropping_top_lane), ("_meet_table", without_last_row)])
def test_wide_row_kernel_mutants_are_caught_by_the_default_catalog_run(monkeypatch, capsys, name, mutate):
    """∈ over 2^7 has 7 rows 128 columns wide, so the default
    mem-residual-subset run transposes it in byte lanes and takes ∈\\∈
    from a meet table; a mutant in either must give a replaying witness."""
    monkeypatch.setattr(rel_module, name, mutate(getattr(rel_module, name)))
    killed = []
    for law in harness_module.CATALOG:
        clear_caches()
        summary = search(SearchConfig(law))
        if not summary.passed:
            assert replay(summary.witness), law
            killed.append(law)
    assert "mem-residual-subset" in killed
    clear_caches()
    assert main(["verify", "mem-residual-subset"]) == 1
    assert capsys.readouterr().out.split("\n{", 1)[0].splitlines()[-1] == "result: fail"


def test_byte_table_dropping_top_bit_is_caught_by_default_runs(monkeypatch):
    """Rows below 2^8 list their bits from `rel._BYTE_BITS`, so default
    seeded runs reach it; an entry for 0b11 that lost its top bit must
    give a replaying witness."""
    table = list(rel_module._BYTE_BITS)
    table[0b11] = (0,)
    monkeypatch.setattr(rel_module, "_BYTE_BITS", tuple(table))
    for law in ("dual-galois", "psi-characterization"):
        summary = search(SearchConfig(law))
        assert not summary.passed, law
        assert replay(summary.witness), law


def test_byte_table_mutant_makes_invalid_instances_witnesses(monkeypatch, capsys):
    """The same mutant breaks the structures the generators build: a
    generated prom fails reflexivity.  Only a kernel bug builds an invalid
    instance, so each run reports it as a replaying witness, and
    `promrep verify` exits 1 with it instead of a traceback."""
    table = list(rel_module._BYTE_BITS)
    table[0b11] = (0,)
    monkeypatch.setattr(rel_module, "_BYTE_BITS", tuple(table))
    summary = search(SearchConfig("lemma1"))
    assert summary.witness.violation.startswith("instance is not valid: invalid prom: x reflexivity")
    assert replay(summary.witness)
    killed = []
    for law in harness_module.CATALOG:
        clear_caches()
        law_summary = search(SearchConfig(law))
        if not law_summary.passed:
            assert replay(law_summary.witness), law
            killed.append(law)
    assert len(killed) >= 16, killed
    clear_caches()
    assert main(["verify", "lemma1"]) == 1
    captured = capsys.readouterr()
    report, witness = captured.out.split("\n{", 1)
    assert report.splitlines()[-1] == "result: fail"
    doc = json.loads("{" + witness)
    assert doc["law"] == "lemma1" and doc["violation"] == summary.witness.violation
    assert "Traceback" not in captured.err


def absorb_untested_closed_rows(x):
    """is_transitive that drops a closed row b > a's bits without testing
    row b ⊆ row a first."""
    rows = x.rows
    for a in range(len(rows) - 1, -1, -1):
        row = rows[a]
        todo = row & ~(1 << a)
        while todo:
            low = todo & -todo
            b = low.bit_length() - 1
            todo ^= low
            if b > a:
                todo &= ~rows[b]
            elif rows[b] | row != row:
                return False
    return True


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig("preorder-single-axiom"),
        SearchConfig("preorder-single-axiom", mode="exhaustive", bounds=(3,)),
    ],
    ids=["seeded", "exhaustive-3"],
)
def test_untested_row_absorption_is_caught_by_single_axiom_law(monkeypatch, config):
    assert search(config).passed
    patch_everywhere(monkeypatch, "is_transitive", absorb_untested_closed_rows, rel_module)
    summary = search(config)
    assert not summary.passed
    assert summary.witness.violation == "preorder axioms give True but r = r\\r gives False"
    assert replay(summary.witness)


def _zero_last_image_entry(f):
    return FnMap(f.src, f.dst, f.image[:-1] + (0,) * bool(f.image))


def _zero_last_row(x):
    return Rel(x.src, x.dst, x.rows[:-1] + (0,) * bool(x.rows))


@pytest.mark.parametrize(
    "law, name, bug, violation",
    [
        ("lemma8", "rel_to_map", _zero_last_image_entry, "Ψ image is not a prom morphism: "),
        ("lemma8", "map_to_rel", _zero_last_row, "T image is not a representation morphism: "),
        ("lemma9", "rel_to_map", _zero_last_image_entry, "ΨT is not the identity on prom morphisms"),
        ("lemma9", "map_to_rel", _zero_last_row, "ΨT is not the identity on prom morphisms"),
    ],
    ids=["lemma8-psi", "lemma8-tee", "lemma9-psi", "lemma9-tee"],
)
def test_broken_galois_map_is_caught_by_catalog(monkeypatch, law, name, bug, violation):
    # Ψ and T have one body each; breaking it must show in both hom-set laws
    correct = getattr(adjunction_module, name)
    monkeypatch.setattr(adjunction_module, name, lambda *args: bug(correct(*args)))
    summary = search(SearchConfig(law))
    assert not summary.passed
    assert summary.witness.violation.startswith(violation)
    assert replay(summary.witness)


@pytest.mark.parametrize(
    "name, bug", [("rel_to_map", _zero_last_image_entry), ("map_to_rel", _zero_last_row)], ids=["psi", "tee"]
)
def test_broken_galois_map_is_caught_by_the_transposes_of_identities(monkeypatch, name, bug):
    """Of the default catalog run, only lemma8, lemma9 and (for Ψ)
    psi-characterization kill these mutants; the transposes check kills both."""
    correct = getattr(adjunction_module, name)
    monkeypatch.setattr(adjunction_module, name, lambda *args: bug(correct(*args)))
    assert not all(transposes_of_identities())


@pytest.mark.parametrize(
    "law, violation",
    [
        ("lemma6", "M(id) differs from id"),
        ("unit-natural", "unit naturality square does not commute"),
        ("counit-natural", "counit naturality square does not commute"),
    ],
    ids=["lemma6", "unit-natural", "counit-natural"],
)
def test_broken_direct_image_is_caught_by_catalog(monkeypatch, law, violation):
    # the laws compare whole morphisms, so one wrong entry of ψ must show
    correct = direct_image
    assert search(SearchConfig(law)).passed
    patch_everywhere(monkeypatch, "direct_image", lambda *args: _zero_last_image_entry(correct(*args)), functors_module)
    summary = search(SearchConfig(law))
    assert not summary.passed
    assert summary.witness.violation == violation
    assert replay(summary.witness)


@pytest.mark.parametrize(
    "name, bug, killers",
    [
        (
            "leq",
            lambda leq: lambda x, y: leq(_zero_last_row(x), y),
            ["eq1-galois", "lemma10", "lemma11", "soundness-residual-equiv"],
        ),
        ("converse", lambda converse: lambda x: _zero_last_row(converse(x)), ["dual-galois"]),
        (
            "left_residual",
            residual_empty_over_empty_source,
            [
                "eq1-galois",
                "dual-galois",
                "mem-residual-subset",
                "lemma4",
                "lemma5",
                "lemma8",
                "lemma10",
                "unit-natural",
                "soundness-residual-equiv",
            ],
        ),
        (
            "subset_rows",
            subset_order_without_empty_below_full,
            ["lemma4", "lemma5", "lemma8", "lemma10", "unit-natural", "counit-natural"],
        ),
        (
            # reads row f(a) of y with no ⨾f^*, masked to A's width so that
            # the result is a relation on A
            "pullback",
            lambda pullback: lambda y, f: Rel(
                f.src, f.src, tuple(y.rows[i] & ((1 << len(f.src)) - 1) for i in f.image)
            ),
            [
                "lemma1", "lemma2", "lemma3", "lemma8", "lemma9", "lemma10", "lemma11",
                "triangle-repr", "unit-natural",
            ],
        ),
    ],
    ids=[
        "leq-skipping-last-row",
        "converse-zeroing-last-row",
        "residual-empty-over-empty-source",
        "subset-order-without-empty-below-full",
        "pullback-forgetting-f-upper",
    ],
)
def test_kernel_mutant_is_caught_by_the_default_catalog_run(monkeypatch, name, bug, killers):
    """`bug` maps the correct kernel function to its mutant; exactly the
    laws in `killers` refute it, each with a replaying witness."""
    patch_everywhere(monkeypatch, name, bug(getattr(rel_module, name)), rel_module)
    killed = []
    for law in harness_module.CATALOG:
        clear_caches()
        summary = search(SearchConfig(law))
        if not summary.passed:
            assert replay(summary.witness), law
            killed.append(law)
    assert killed == killers


def power_transpose_past_its_carrier(transpose):
    """Λ whose last image index is one past the powerset carrier."""
    def mutant(x, mem):
        f = transpose(x, mem)
        return FnMap(f.src, f.dst, f.image[:-1] + (len(f.dst),) * bool(f.image))
    return mutant


def compose_past_its_destination(compose):
    """x⨾y with the bit one past the destination set in its last row."""
    def mutant(x, y):
        r = compose(x, y)
        return Rel(r.src, r.dst, r.rows[:-1] + tuple(row | 1 << len(r.dst) for row in r.rows[-1:]))
    return mutant


#: The laws whose default run draws its instances through `pullback`, which
#: composes, so the compose mutant raises before any instance exists.
_PULLBACK_DRAWN = [
    "lemma1", "lemma2", "lemma3", "lemma4", "lemma5", "lemma6", "lemma8", "lemma9",
    "lemma10", "lemma11", "triangle-repr", "triangle-pom", "unit-natural", "counit-natural",
]


@pytest.mark.parametrize(
    "name, bug, message, killers, raisers",
    [
        (
            "power_transpose",
            power_transpose_past_its_carrier,
            "image index outside destination carrier",
            [
                "lemma4", "lemma5", "lemma6", "lemma8", "lemma9", "lemma10", "triangle-repr",
                "triangle-pom", "unit-natural", "counit-natural", "psi-characterization",
            ],
            [],
        ),
        (
            "compose",
            compose_past_its_destination,
            "row mask exceeds destination carrier",
            [
                "eq1-galois", "dual-galois", "modular-tautology", "preorder-single-axiom",
                "lemma7", "psi-characterization", "soundness-residual-equiv",
            ],
            _PULLBACK_DRAWN,
        ),
    ],
    ids=["power-transpose-past-its-carrier", "compose-past-its-destination"],
)
def test_kernel_result_failing_its_shape_check_is_a_replaying_witness(monkeypatch, name, bug, message, killers, raisers):
    """A kernel result that its constructor rejects inside a law check is that
    law's violation, and replays; exactly `killers` refute the mutant.  Only
    the instance generators in `raisers` still raise."""
    patch_everywhere(monkeypatch, name, bug(getattr(rel_module, name)), rel_module)
    killed, raised = [], []
    for law in harness_module.CATALOG:
        clear_caches()
        try:
            summary = search(SearchConfig(law))
        except ValueError as e:
            assert str(e) == message, law
            raised.append(law)
            continue
        if not summary.passed:
            assert summary.witness.violation == f"check raised ValueError: {message}", law
            assert replay(summary.witness), law
            killed.append(law)
    assert killed == killers and raised == raisers


def test_verify_reports_a_rejected_kernel_result_as_its_witness(monkeypatch, capsys):
    """`promrep verify` exits 1, "refuted", with the witness document and no
    traceback when a check's kernel result fails its shape check."""
    patch_everywhere(monkeypatch, "compose", compose_past_its_destination(rel_module.compose), rel_module)
    assert main(["verify", "eq1-galois", "--seed", "7"]) == 1
    out, err = capsys.readouterr()
    head, doc = out.split("\n{", 1)
    assert head.splitlines()[-2:] == ["witnesses: 1", "result: fail"]
    witness = json.loads("{" + doc)
    assert witness["violation"] == "check raised ValueError: row mask exceeds destination carrier"
    assert set(witness["structures"]["relations"]) == {"x", "y", "z"}
    assert "Traceback" not in err


# --- psi / tee --------------------------------------------------------------

def test_psi_discrete_order_reads_tau_columns():
    M, B = finset("M", 1, "m"), finset("B", 2, "b")
    tau = rel(M, B, ("m0", "b0"))
    psi = rel_to_map(tau, Preorder(identity(B)), powerset(M).mem)
    assert psi.as_dict()["b0"] == "{m0}" and psi.as_dict()["b1"] == "{}"


def test_psi_saturates_along_chain():
    M, B = finset("M", 1, "m"), finset("B", 2, "b")
    tau = rel(M, B, ("m0", "b0"))
    psi = rel_to_map(tau, chain2(B), powerset(M).mem)
    assert psi.as_dict()["b0"] == "{m0}" and psi.as_dict()["b1"] == "{m0}"


def test_tee_inverts_membership():
    M = finset("M", 2, "m")
    bundle = powerset(M)
    psi = FnMap(finset("B", 1, "b"), bundle.carrier, (3,))
    t = map_to_rel(psi, bundle.mem)
    assert set(t.pairs()) == {("m0", "b0"), ("m1", "b0")}


def test_tee_of_psi_is_tau_saturated():
    rng = random.Random(0)
    for _ in range(100):
        M = finset("M", rng.randint(0, 3), "m")
        B = finset("B", rng.randint(0, 3), "b")
        tau = random_rel(rng, M, B, 0.4)
        y = gen_preorder(rng.randrange(1 << 30), len(B), "B", "b")
        mem = powerset(M).mem
        assert eq(map_to_rel(rel_to_map(tau, y, mem), mem), compose(tau, y.rel))


def test_psi_characterization_equation():
    rng = random.Random(1)
    for _ in range(100):
        M = finset("M", rng.randint(0, 3), "m")
        B = finset("B", rng.randint(0, 3), "b")
        tau = random_rel(rng, M, B, 0.4)
        y = gen_preorder(rng.randrange(1 << 30), len(B), "B", "b")
        mem = powerset(M).mem
        lhs = compose(mem, graph_upper(rel_to_map(tau, y, mem)))
        assert eq(lhs, compose(tau, y.rel))


# --- galois lift / lower ----------------------------------------------------

def _hom_sets(p, r):
    return list(enumerate_rep_morphisms(prom_to_rep(p), r)), list(enumerate_prom_morphisms(p, rep_to_prom(r)))


def test_lift_lower_roundtrips():
    p = gen_prom(3, 2, 2)
    r = gen_representation(3, 2, 2)
    rep_homs, prom_homs = _hom_sets(p, r)
    for m in prom_homs:
        back = lift(lower(m, r), p)
        assert back.phi.image == m.phi.image
        assert back.psi == m.psi
    for m in rep_homs:
        around = lower(lift(m, p), r)
        assert repmor_leq(m, around)
        assert eq(around.tau, compose(m.tau, p.y.rel))


def test_lift_preserves_phi_verbatim():
    p = gen_prom(6, 2, 2)
    r = gen_representation(6, 2, 2)
    rep_homs, _ = _hom_sets(p, r)
    for m in rep_homs:
        assert lift(m, p).phi.image == m.phi.image


def test_lift_rejects_wrong_source():
    p = gen_prom(3, 2, 2)
    other = gen_prom(4, 2, 2)
    r = gen_representation(3, 2, 2)
    rep_homs, _ = _hom_sets(p, r)
    if rep_homs and prom_to_rep(other) != prom_to_rep(p):
        with pytest.raises(ValueError):
            lift(rep_homs[0], other)


# --- auxiliary inclusion laws ----------------------------------------------

def test_residual_saturation_for_transitive_orders():
    # (∈\y)⨾y ≤ ∈\y whenever y is transitive
    for seed in range(50):
        y = gen_preorder(seed, 3, "B", "b")
        mem = powerset(y.carrier).mem
        res = left_residual(mem, y.rel)
        assert leq(compose(res, y.rel), res)


def test_order_image_is_right_saturated():
    # y⨾f^* = y⨾f^*⨾x for every order-preserving f
    for seed in range(50):
        p = gen_prom(seed, 3, 3)
        lhs = compose(p.y.rel, graph_upper(p.f))
        assert eq(lhs, compose(lhs, p.x.rel))
