"""Workspace file format: parsing, canonical serialization, round-trips."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from promrep import (
    FinSet,
    FnMap,
    Preorder,
    Prom,
    PromMorphism,
    Representation,
    Rel,
    RepMorphism,
    Workspace,
    WorkspaceError,
    prom_to_rep,
    unit,
)
from promrep import workspace
from seeded import gen_prom, gen_prom_morphism, gen_rep_morphism, gen_representation


SAMPLE = {
    "sets": {"A": ["a0"], "B": ["b0", "b1"]},
    "relations": {
        "x": {"from": "A", "to": "A", "pairs": [["a0", "a0"]]},
        "y": {
            "from": "B",
            "to": "B",
            "pairs": [["b0", "b0"], ["b1", "b1"], ["b0", "b1"]],
        },
    },
    "functions": {"f": {"from": "A", "to": "B", "map": {"a0": "b0"}}},
    "structures": {
        "p": {"kind": "prom", "x": "x", "y": "y", "f": "f"},
        "ord_b": {"kind": "preorder", "rel": "y"},
    },
}


def test_parse_sample():
    ws = workspace.parse(SAMPLE)
    assert isinstance(ws.structures["p"], Prom)
    assert isinstance(ws.structures["ord_b"], Preorder)
    assert ws.structures["p"].f.as_dict()["a0"] == "b0"


def test_round_trip_is_identity():
    ws = workspace.parse(SAMPLE)
    text = workspace.dumps(ws)
    again = workspace.loads(text)
    assert workspace.dumps(again) == text


def test_serialization_is_canonical():
    ws = workspace.parse(SAMPLE)
    doc = workspace.to_doc(ws)
    assert list(doc) == ["sets", "relations", "functions", "structures"]
    assert list(doc["relations"]) == sorted(doc["relations"])


def test_dangling_reference():
    bad = json.loads(json.dumps(SAMPLE))
    bad["structures"]["p"]["f"] = "ghost"
    with pytest.raises(WorkspaceError):
        workspace.parse(bad)


def test_unknown_kind():
    bad = json.loads(json.dumps(SAMPLE))
    bad["structures"]["p"]["kind"] = "gadget"
    with pytest.raises(WorkspaceError):
        workspace.parse(bad)


def test_bad_json_text():
    with pytest.raises(WorkspaceError):
        workspace.loads("{not json")


def test_duplicate_labels_rejected():
    with pytest.raises(WorkspaceError):
        workspace.parse({"sets": {"A": ["a0", "a0"]}})


def test_partial_function_rejected():
    bad = json.loads(json.dumps(SAMPLE))
    bad["functions"]["f"]["map"] = {}
    with pytest.raises(WorkspaceError):
        workspace.parse(bad)


def test_morphism_endpoint_kind_mismatch():
    doc = json.loads(json.dumps(SAMPLE))
    doc["structures"]["m"] = {
        "kind": "prom_morphism",
        "src": "p",
        "dst": "ord_b",
        "phi": "f",
        "psi": "f",
    }
    with pytest.raises(WorkspaceError):
        workspace.parse(doc)


def test_build_round_trips_every_structure_kind():
    # independently generated structures may reuse carrier names with
    # different sizes, so each kind gets its own workspace
    for name, obj in [
        ("p", gen_prom(3, 2, 2)),
        ("R", gen_representation(3, 2, 2)),
        ("pm", gen_prom_morphism(3, 2)),
        ("rm", gen_rep_morphism(3, 2)),
    ]:
        ws = workspace.build({name: obj})
        again = workspace.loads(workspace.dumps(ws))
        assert again.structures[name] == obj


def test_build_round_trips_powerset_structures():
    p = gen_prom(9, 2, 2)
    eta = unit(p)
    ws = workspace.build({"eta": eta, "Rp": prom_to_rep(p)})
    again = workspace.loads(workspace.dumps(ws))
    assert again.structures["eta"] == eta


def test_build_conflicting_carriers_rejected():
    a1 = gen_prom(0, 1, 1)
    a2 = gen_prom(0, 2, 2)
    with pytest.raises(WorkspaceError):
        workspace.build({"p": a1, "q": a2})


def test_build_dedupes_shared_subobjects():
    """Each named object keeps its own record; equal sub-objects are stored once."""
    p = gen_prom(4, 2, 2)
    doc = workspace.to_doc(workspace.build({"p": p, "q": p}))
    assert list(doc["structures"]) == ["p", "q"]
    assert doc["structures"]["q"] == doc["structures"]["p"]
    assert list(doc["relations"]) == ["p.x", "p.y"] and list(doc["functions"]) == ["p.f"]


# --- the writer against the json.dumps oracle ---------------------------------

#: Labels and names that need escaping or are easy to get wrong: empty,
#: non-ASCII, a quote, a backslash, a newline, subset-like braces and commas,
#: and a lone surrogate.
AWKWARD = ("", "a", "é", "日本", '"', "\\", "\n", "{a,b}", "\ud800")
awkward = st.sampled_from(AWKWARD) | st.text(max_size=2)


@st.composite
def workspaces(draw):
    """A workspace holding every structure kind, plus a loose relation and
    function, over carriers with awkward names and labels; any carrier may
    be empty, and B has an element whenever A does so that f: A → B exists."""
    names = draw(st.lists(awkward, min_size=6, max_size=6, unique=True))
    carrier = lambda name, least=0: FinSet(
        name, tuple(draw(st.lists(awkward, min_size=least, max_size=3, unique=True)))
    )
    A = carrier(names[0])
    B, M, S, E = carrier(names[1], least=min(len(A), 1)), carrier(names[2]), carrier(names[3]), carrier(names[4])

    def rel(src, dst):
        return Rel(src, dst, tuple(draw(st.integers(0, (1 << len(dst)) - 1)) for _ in src))

    def fn(src, dst):
        return FnMap(src, dst, tuple(draw(st.integers(0, len(dst) - 1)) for _ in src))

    p = Prom(Preorder(rel(A, A)), Preorder(rel(B, B)), fn(A, B))
    r = Representation(rel(M, S), Preorder(rel(S, S)))
    objects = {
        "p": p,
        "r": r,
        "o": Preorder(rel(S, S)),
        "pm": PromMorphism(p, p, fn(A, A), fn(B, B)),
        "rm": RepMorphism(r, r, fn(S, S), rel(M, M)),
        "loose": rel(E, M),
        "on-empty": fn(FinSet(names[5], ()), E),
    }
    keys = draw(st.lists(awkward, min_size=len(objects), max_size=len(objects), unique=True))
    return workspace.build(dict(zip(keys, objects.values())))


#: Rows 300 wide, so that both ways of listing a row's bits run: empty, full,
#: top bit and bit 0, and two bits in every three.
WIDE = Rel(FinSet("A", ("a0", "a1", "a2", "a3")), FinSet("W", tuple(f"w{j}" for j in range(300))),
           (0, (1 << 300) - 1, 1 << 299 | 1, int("110" * 100, 2)))


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(ws=workspaces())
@example(ws=Workspace())
@example(ws=workspace.build({"wide": WIDE}))
def test_dumps_matches_json_dumps(ws):
    assert workspace.dumps(ws) == json.dumps(workspace.to_doc(ws), indent=2) + "\n"
