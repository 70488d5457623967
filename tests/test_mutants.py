"""Kernel mutants, and the default law runs that kill each of them.

All 22 laws are theorems, so the checker shows that it can refute anything
only by refuting a broken kernel: mutation adequacy, after DeMillo, Lipton
and Sayward ("Hints on test data selection", 1978).  Each row of `MUTANTS`
names a function or table in its home module and builds a mutant from the
correct one.  It is patched in every promrep module.  The row then records
exactly which default `SearchConfig(law)` runs refute it, in catalog order,
each with a witness that replays.  Where a row needs them, it also records
a prefix of every killer's violation and the laws whose drawing raises.

`pytest tests/test_mutants.py -q -s` prints one `MUTANT <id>: killed by
<laws>` line a row, so the kill table is read from the runs themselves.
"""

from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable

import pytest

from promrep import FnMap, PowersetBundle, Preorder, Rel, clear_caches, finset, full
from promrep.harness import CATALOG, SearchConfig, replay, search
import promrep.adjunction as adjunction_module
import promrep.functors as functors_module
import promrep.harness as harness_module
import promrep.rel as rel_module
import promrep.structures as structures_module
from seeded import patch_everywhere


@dataclass(frozen=True)
class Mutant:
    """One row of the table: a mutant, and the default runs that kill it."""

    id: str
    home: ModuleType  # the module that defines `name`
    name: str
    build: Callable[[Any], Any]  # the correct object → the mutant
    killers: str  # the laws whose default run refutes it, in catalog order, ", "-separated
    violation: str = ""  # a prefix of every killer's violation
    raises: dict[str, str] = field(default_factory=dict)  # law → the ValueError its drawing raises


# --- mutant builders ---------------------------------------------------------

def zero_last_image_entry(f):
    return FnMap(f.src, f.dst, f.image[:-1] + (0,) * bool(f.image))


def zero_last_row(x):
    return Rel(x.src, x.dst, x.rows[:-1] + (0,) * bool(x.rows))


def emptying_last_psi_image(m):
    """A prom morphism whose ψ sends its last point to the empty set."""
    return type(m)(m.src, m.dst, m.phi, zero_last_image_entry(m.psi))


def emptying_last_tau_row(m):
    """A representation morphism whose τ has its last row emptied."""
    return type(m)(m.src, m.dst, m.phi, zero_last_row(m.tau))


def without_top_bit(row):
    return row ^ (1 << row.bit_length() >> 1)


def dropping_top_bit(scan):
    """`rel._scan` listing a row as if its highest set bit were clear."""
    return lambda row: scan(without_top_bit(row))


def dropping_last_bit_of_each_row_of_x(compose):
    """compose's row loop, skipping the highest set bit of each row of x."""
    return lambda x, y: compose(Rel(x.src, x.dst, tuple(map(without_top_bit, x.rows))), y)


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


def losing_top_bit_of_0b11(byte_bits):
    """`rel._BYTE_BITS` whose entry for 0b11 lists bit 0 only."""
    return byte_bits[:0b11] + ((0,),) + byte_bits[0b11 + 1:]


def residual_empty_over_empty_source(residual):
    """The left residual, empty instead of full over an empty source."""
    return lambda x, z: residual(x, z) if len(x.src) else Rel(x.dst, z.dst, (0,) * len(x.dst))


def residual_skipping_last_row(residual):
    """The left residual that forgets the constraint from the last source element."""
    def mutant(x, z):
        keep = finset(x.src.name, len(x.src) - 1, "_")
        return residual(Rel(keep, x.dst, x.rows[:-1]), Rel(keep, z.dst, z.rows[:-1]))

    return mutant


def subset_order_without_empty_below_full(memo):
    """The rows of ⊆ without the pair ({}, M) once 2^|M| ≥ 4."""
    def mutant(mem):
        rows = memo(mem)
        if len(rows) < 4:
            return rows
        return (rows[0] & ~(1 << len(rows) - 1),) + rows[1:]

    return mutant


def pullback_forgetting_f_upper(pullback):
    """Row f(a) of y with no ⨾f^*, masked to A's width so that the result
    is a relation on A."""
    return lambda y, f: Rel(f.src, f.src, tuple(y.rows[i] & ((1 << len(f.src)) - 1) for i in f.image))


def power_transpose_past_its_carrier(transpose):
    """Λ whose last image index is one past the powerset carrier."""
    def mutant(x):
        f = transpose(x)
        return FnMap(f.src, f.dst, f.image[:-1] + (len(f.dst),) * bool(f.image))

    return mutant


def compose_past_its_destination(compose):
    """x⨾y with the bit one past the destination set in its last row."""
    def mutant(x, y):
        r = compose(x, y)
        return Rel(r.src, r.dst, r.rows[:-1] + tuple(row | 1 << len(r.dst) for row in r.rows[-1:]))

    return mutant


def closure_skipping_last_pivot(closure):
    """Warshall's closure without its last pivot: a path through the last
    element that no other pivot shortcuts is lost."""
    def mutant(r):
        rows = [row | 1 << i for i, row in enumerate(r.rows)]
        for k in range(len(rows) - 1):
            row_k = rows[k]
            rows = [row | row_k if row >> k & 1 else row for row in rows]
        return Preorder(Rel(r.src, r.dst, tuple(rows)))

    return mutant


def swapping_first_two_subsets(build):
    """Subsets 0 and 1 ({} and {first}) trade membership columns."""
    def mutant(base):
        b = build(base)
        rows = tuple(row & ~3 | (row & 1) << 1 | (row & 2) >> 1 for row in b.mem.rows)
        return PowersetBundle(b.base, b.carrier, Rel(b.base, b.carrier, rows))

    return mutant


def absorbing_untested_closed_rows(is_transitive):
    """is_transitive that drops a closed row b > a's bits without testing
    row b ⊆ row a first."""
    def mutant(x):
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

    return mutant


def dropping_last_of_each_hom_set(enumerate_morphisms):
    """A hom-set enumerator that loses the last morphism of every hom-set
    with two or more."""
    def mutant(src, dst):
        homs = list(enumerate_morphisms(src, dst))
        return iter(homs[:-1] if len(homs) > 1 else homs)

    return mutant


def after(bug):
    """The mutant that applies `bug` to each result of the correct function."""
    return lambda correct: lambda *args: bug(correct(*args))


#: The laws whose default run draws its instances through `pullback`, which
#: composes, so a compose whose result fails its shape check raises before
#: any instance exists.
_PULLBACK_DRAWN = (
    "lemma1", "lemma2", "lemma3", "lemma4", "lemma5", "lemma6", "lemma8", "lemma9",
    "lemma10", "lemma11", "triangle-repr", "triangle-pom", "unit-natural", "counit-natural",
)

MUTANTS = (
    Mutant(
        "compose-dropping-last-bit-of-x", rel_module, "compose", dropping_last_bit_of_each_row_of_x,
        # neither mem-residual-subset nor preorder-single-axiom composes
        ", ".join(law for law in CATALOG if law not in ("mem-residual-subset", "preorder-single-axiom")),
    ),
    Mutant("lane-transpose-dropping-top-lane", rel_module, "_lane_transpose", dropping_top_lane, "mem-residual-subset"),
    Mutant("meet-table-without-last-row", rel_module, "_meet_table", without_last_row, "mem-residual-subset"),
    Mutant(
        "byte-table-0b11-losing-top-bit", rel_module, "_BYTE_BITS", losing_top_bit_of_0b11,
        "dual-galois, modular-tautology, lemma1, lemma2, lemma3, lemma4, lemma5, lemma6, lemma8, lemma9, lemma10, "
        "lemma11, triangle-repr, unit-natural, counit-natural, psi-characterization",
    ),
    Mutant("scan-dropping-top-bit", rel_module, "_scan", dropping_top_bit, "mem-residual-subset"),
    Mutant(
        "leq-skipping-last-row", rel_module, "leq", lambda leq: lambda x, y: leq(zero_last_row(x), y),
        "eq1-galois, lemma9, lemma10, lemma11, soundness-residual-equiv",
    ),
    Mutant("converse-zeroing-last-row", rel_module, "converse", after(zero_last_row), "dual-galois"),
    Mutant(
        "residual-empty-over-empty-source", rel_module, "left_residual", residual_empty_over_empty_source,
        "eq1-galois, dual-galois, mem-residual-subset, lemma4, lemma5, lemma8, lemma9, lemma10, unit-natural, "
        "soundness-residual-equiv",
    ),
    Mutant(
        "subset-order-without-empty-below-full", rel_module, "subset_rows", subset_order_without_empty_below_full,
        "lemma4, lemma5, lemma8, lemma9, lemma10, unit-natural, counit-natural",
    ),
    Mutant(
        "pullback-forgetting-f-upper", rel_module, "pullback", pullback_forgetting_f_upper,
        "lemma1, lemma2, lemma3, lemma8, lemma9, lemma10, lemma11, triangle-repr, unit-natural",
    ),
    Mutant(
        "power-transpose-past-its-carrier", rel_module, "power_transpose", power_transpose_past_its_carrier,
        "lemma4, lemma5, lemma6, lemma8, lemma9, lemma10, triangle-repr, triangle-pom, unit-natural, "
        "counit-natural, psi-characterization",
        violation="check raised ValueError: image index outside destination carrier",
    ),
    Mutant(
        "compose-past-its-destination", rel_module, "compose", compose_past_its_destination,
        "eq1-galois, dual-galois, modular-tautology, lemma7, psi-characterization, soundness-residual-equiv",
        violation="check raised ValueError: row mask exceeds destination carrier",
        raises=dict.fromkeys(_PULLBACK_DRAWN, "row mask exceeds destination carrier"),
    ),
    Mutant(
        # The laws it passes draw no preorder, or only preorders on at most
        # two points, where every pivot but the last closes every path.
        "closure-skipping-last-pivot", structures_module, "preorder_closure", closure_skipping_last_pivot,
        "lemma1, lemma2, lemma3, lemma4, lemma10, lemma11, triangle-repr, triangle-pom, unit-natural, "
        "psi-characterization",
        violation="instance is not valid: ",
    ),
    Mutant(
        "residual-full", rel_module, "left_residual", lambda residual: lambda x, z: full(x.dst, z.dst),
        "eq1-galois, dual-galois, preorder-single-axiom, mem-residual-subset, lemma7, lemma8, lemma9, lemma11, "
        "triangle-repr, triangle-pom, counit-natural, soundness-residual-equiv",
    ),
    Mutant(
        "residual-skipping-last-row", rel_module, "left_residual", residual_skipping_last_row,
        "eq1-galois, dual-galois, preorder-single-axiom, mem-residual-subset, lemma5, lemma7, lemma8, lemma9, "
        "lemma11, triangle-repr, triangle-pom, counit-natural, soundness-residual-equiv",
    ),
    Mutant(
        "power-transpose-zeroing-last-entry", rel_module, "power_transpose", after(zero_last_image_entry),
        "lemma4, lemma5, lemma6, lemma8, lemma9, lemma10, triangle-repr, triangle-pom, unit-natural, "
        "counit-natural, psi-characterization",
    ),
    Mutant(
        "psi-zeroing-last-entry", adjunction_module, "rel_to_map", after(zero_last_image_entry),
        "lemma8, lemma9, psi-characterization",
    ),
    Mutant("tee-zeroing-last-row", adjunction_module, "map_to_rel", after(zero_last_row), "lemma8, lemma9"),
    Mutant(
        "powerset-swapping-first-two-subsets", rel_module, "_build_powerset", swapping_first_two_subsets,
        "mem-residual-subset, lemma4, lemma5, lemma6, lemma8, lemma9, lemma10, triangle-repr, triangle-pom, "
        "unit-natural, counit-natural, psi-characterization",
    ),
    Mutant(
        "is-transitive-absorbing-untested-rows", rel_module, "is_transitive", absorbing_untested_closed_rows,
        "preorder-single-axiom",
        violation="preorder axioms give True but r = r\\r gives False",
    ),
    Mutant(
        "direct-image-zeroing-last-entry", functors_module, "direct_image", after(zero_last_image_entry),
        "lemma5, lemma6, unit-natural, counit-natural",
    ),
    Mutant(
        "unit-emptying-last-image", adjunction_module, "unit", after(emptying_last_psi_image),
        "triangle-repr, unit-natural",
    ),
    Mutant(
        "counit-emptying-last-row", adjunction_module, "counit", after(emptying_last_tau_row),
        "triangle-repr, counit-natural",
    ),
    Mutant(
        "prom-hom-sets-losing-last-morphism", harness_module, "enumerate_prom_morphisms",
        dropping_last_of_each_hom_set, "lemma8, lemma9",
    ),
    Mutant(
        "rep-hom-sets-losing-last-morphism", harness_module, "enumerate_rep_morphisms",
        dropping_last_of_each_hom_set, "lemma8, lemma9",
    ),
)

BY_ID = {mutant.id: mutant for mutant in MUTANTS}


def mutant_of(mutant_id: str):
    """Row `mutant_id`'s mutant, built from the correct object in its home module."""
    mutant = BY_ID[mutant_id]
    return mutant.build(getattr(mutant.home, mutant.name))


def patch(monkeypatch, mutant_id: str) -> None:
    """Put row `mutant_id`'s mutant in place of its original in every promrep module."""
    mutant = BY_ID[mutant_id]
    patch_everywhere(monkeypatch, mutant.name, mutant_of(mutant_id), mutant.home)


def default_runs() -> tuple[dict[str, str], dict[str, str]]:
    """Every law's default run on cold caches: the violation of each law
    that found a witness, and the message of each law whose drawing raised."""
    killed, raised = {}, {}
    for law in CATALOG:
        clear_caches()
        try:
            summary = search(SearchConfig(law))
        except ValueError as e:
            raised[law] = str(e)
            continue
        if not summary.passed:
            assert replay(summary.witness), law
            killed[law] = summary.witness.violation
    return killed, raised


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_default_runs_kill_exactly_the_listed_laws(monkeypatch, mutant):
    patch(monkeypatch, mutant.id)
    killed, raised = default_runs()
    killers = ", ".join(killed)
    raising = f"; drawing raises in {', '.join(raised)}" if raised else ""
    print(f"\nMUTANT {mutant.id}: killed by {killers or 'none'}{raising}")
    assert killers == mutant.killers
    assert raised == mutant.raises
    for law, violation in killed.items():
        assert violation.startswith(mutant.violation), law
