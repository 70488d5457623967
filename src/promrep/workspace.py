"""The JSON workspace format the CLI reads and writes.

A workspace file has four sections: sets (name → ordered labels),
relations (name → {from, to, pairs}), functions (name → {from, to, map})
and structures (name → {kind, ...}, referencing the other sections by
name).  `KINDS` is the one statement of each structure kind's record
layout; parsing, serialization and `build` all walk it.  An absent or
null section, `pairs` or `map` means empty; anything else malformed
raises WorkspaceError.  Serialization is canonical — fixed section
order, sorted names, pairs in row-major carrier order — so output files
are byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .rel import FinSet, FnMap, Rel
from .structures import (
    Preorder,
    Prom,
    PromMorphism,
    Representation,
    RepMorphism,
)


class WorkspaceError(ValueError):
    """Malformed workspace document: bad JSON, bad kind, dangling reference."""


@dataclass
class Workspace:
    sets: dict[str, FinSet] = field(default_factory=dict)
    relations: dict[str, Rel] = field(default_factory=dict)
    functions: dict[str, FnMap] = field(default_factory=dict)
    structures: dict[str, object] = field(default_factory=dict)


#: Structure kind → (class, fields in record order).  A field is (key, what):
#: the key is both the record key and the class's attribute, and what says
#: what it names: "relation", "preorder" (a relation read as a preorder),
#: "function", or the class of another structure.
KINDS = {
    "preorder": (Preorder, (("rel", "relation"),)),
    "prom": (Prom, (("x", "preorder"), ("y", "preorder"), ("f", "function"))),
    "representation": (Representation, (("sat", "relation"), ("ord", "preorder"))),
    "prom_morphism": (
        PromMorphism,
        (("src", Prom), ("dst", Prom), ("phi", "function"), ("psi", "function")),
    ),
    "rep_morphism": (
        RepMorphism,
        (("src", Representation), ("dst", Representation), ("phi", "function"), ("tau", "relation")),
    ),
}

STRUCTURE_KINDS = tuple(KINDS)

#: Structure class → its kind.
KIND_OF = {cls: kind for kind, (cls, _) in KINDS.items()}

#: The section a field names an entry of; structure fields name "structures".
_SECTION = {"relation": "relations", "preorder": "relations", "function": "functions"}


def _entry(value, what):
    """The section entry a field's value is stored as: a preorder's relation."""
    return value.rel if what == "preorder" else value


def _ref(table: dict, name, what: str):
    if not isinstance(name, str) or name not in table:
        raise WorkspaceError(f"dangling {what} reference: {name!r}")
    return table[name]


def _optional(rec: dict, key: str, kind: type, what: str):
    """rec[key]; only an absent or null value means empty."""
    value = rec.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise WorkspaceError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _record(rec, what: str, name) -> dict:
    if not isinstance(rec, dict):
        raise WorkspaceError(f"{what} {name!r} must be a JSON object")
    return rec


def parse(doc) -> Workspace:
    if not isinstance(doc, dict):
        raise WorkspaceError("workspace document must be a JSON object")
    ws = Workspace()
    for name, labels in _optional(doc, "sets", dict, "section 'sets'").items():
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise WorkspaceError(f"set {name!r} must be a list of labels")
        try:
            ws.sets[name] = FinSet(name, tuple(labels))
        except ValueError as e:
            raise WorkspaceError(str(e)) from None
    for name, rec in _optional(doc, "relations", dict, "section 'relations'").items():
        rec = _record(rec, "relation", name)
        src = _ref(ws.sets, rec.get("from"), "set")
        dst = _ref(ws.sets, rec.get("to"), "set")
        pairs = _optional(rec, "pairs", list, f"pairs of relation {name!r}")
        if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise WorkspaceError(f"relation {name!r}: each pair must be a list of two labels")
        try:
            ws.relations[name] = Rel.from_pairs(src, dst, pairs)
        except KeyError as e:
            raise WorkspaceError(f"relation {name!r}: {e}") from None
    for name, rec in _optional(doc, "functions", dict, "section 'functions'").items():
        rec = _record(rec, "function", name)
        src = _ref(ws.sets, rec.get("from"), "set")
        dst = _ref(ws.sets, rec.get("to"), "set")
        mapping = _optional(rec, "map", dict, f"map of function {name!r}")
        try:
            ws.functions[name] = FnMap.from_labels(src, dst, mapping)
        except (KeyError, ValueError) as e:
            raise WorkspaceError(f"function {name!r}: {e}") from None
    records = _optional(doc, "structures", dict, "section 'structures'")
    for name, rec in records.items():
        kind = rec.get("kind") if isinstance(rec, dict) else None
        if kind not in STRUCTURE_KINDS:
            raise WorkspaceError(f"structure {name!r} has unknown kind {kind!r}")
    # two passes: morphisms reference other structures, so they come second
    for morphisms in (False, True):
        for name, rec in records.items():
            fields = KINDS[rec["kind"]][1]
            if any(isinstance(what, type) for _, what in fields) == morphisms:
                ws.structures[name] = _parse_structure(ws, name, rec)
    return ws


def _parse_structure(ws: Workspace, name: str, rec: dict):
    cls, fields = KINDS[rec["kind"]]
    args = []
    try:
        for key, what in fields:
            section = _SECTION.get(what, "structures")
            value = _ref(getattr(ws, section), rec.get(key), section[:-1])
            if what == "preorder":
                value = Preorder(value, check=False)
            elif isinstance(what, type) and not isinstance(value, what):
                raise WorkspaceError(f"structure {name!r}: {key} must be a {KIND_OF[what]}")
            args.append(value)
        return cls(*args, check=False)
    except WorkspaceError:
        raise
    except ValueError as e:
        raise WorkspaceError(f"structure {name!r}: {e}") from None


def loads(text: str) -> Workspace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise WorkspaceError(f"not valid JSON: {e}") from None
    return parse(doc)


def to_doc(ws: Workspace) -> dict:
    doc = {"sets": {}, "relations": {}, "functions": {}, "structures": {}}
    for name in sorted(ws.sets):
        doc["sets"][name] = list(ws.sets[name].elements)
    for name in sorted(ws.relations):
        r = ws.relations[name]
        doc["relations"][name] = {
            "from": r.src.name,
            "to": r.dst.name,
            "pairs": [list(p) for p in r.pairs()],
        }
    for name in sorted(ws.functions):
        f = ws.functions[name]
        doc["functions"][name] = {"from": f.src.name, "to": f.dst.name, "map": f.as_dict()}
    back = {obj: name for name, obj in ws.structures.items()}
    for name in sorted(ws.structures):
        doc["structures"][name] = _structure_record(ws, back, name)
    return doc


def dumps(ws: Workspace) -> str:
    return json.dumps(to_doc(ws), indent=2) + "\n"


def _name_of(table: dict, obj, what: str) -> str:
    for name, candidate in table.items():
        if candidate == obj:
            return name
    raise WorkspaceError(f"unnamed {what} while serializing")


def _structure_record(ws: Workspace, back: dict, name: str) -> dict:
    obj = ws.structures[name]
    kind = KIND_OF.get(type(obj))
    if kind is None:
        raise WorkspaceError(f"structure {name!r} has unserializable type {type(obj).__name__}")
    rec = {"kind": kind}
    for key, what in KINDS[kind][1]:
        value = getattr(obj, key)
        if isinstance(what, type):
            rec[key] = back[value]
        else:
            section = _SECTION[what]
            rec[key] = _name_of(getattr(ws, section), _entry(value, what), section[:-1])
    return rec


def build(objects: dict[str, object]) -> Workspace:
    """Assemble a workspace from named objects, collecting what they reference.

    Sets keep their own names; relations and functions inside a structure
    named n are exported as n.x, n.f, etc.  Equal sub-objects are shared.
    """
    ws = Workspace()

    def add_set(s: FinSet):
        have = ws.sets.get(s.name)
        if have is not None and have != s:
            raise WorkspaceError(f"two different carriers named {s.name!r}")
        ws.sets[s.name] = s

    def add(section: str, name: str, value):
        add_set(value.src)
        add_set(value.dst)
        table = getattr(ws, section)
        if value not in table.values():
            table[name] = value

    def add_structure(name: str, obj):
        for existing_name, existing in ws.structures.items():
            if existing == obj:
                return existing_name
        if isinstance(obj, FinSet):
            add_set(obj)
            return None
        if isinstance(obj, (Rel, FnMap)):
            add("relations" if isinstance(obj, Rel) else "functions", name, obj)
            return None
        kind = KIND_OF.get(type(obj))
        if kind is None:
            raise WorkspaceError(f"cannot serialize object of type {type(obj).__name__}")
        for key, what in KINDS[kind][1]:
            value = getattr(obj, key)
            if isinstance(what, type):
                add_structure(f"{name}.{key}", value)
            else:
                add(_SECTION[what], f"{name}.{key}", _entry(value, what))
        ws.structures[name] = obj
        return name

    for name, obj in objects.items():
        add_structure(name, obj)
    return ws
