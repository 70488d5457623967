"""The JSON workspace format the CLI reads and writes.

A workspace file has four sections: sets (name → ordered labels),
relations (name → {from, to, pairs}), functions (name → {from, to, map})
and structures (name → tagged record referencing the other sections by
name).  Serialization is canonical — fixed section order, sorted names,
pairs in row-major carrier order — so output files are byte-stable.
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


STRUCTURE_KINDS = ("preorder", "prom", "representation", "prom_morphism", "rep_morphism")


def _ref(table: dict, name, what: str):
    if not isinstance(name, str) or name not in table:
        raise WorkspaceError(f"dangling {what} reference: {name!r}")
    return table[name]


def _section(doc: dict, key: str) -> dict:
    section = doc.get(key) or {}
    if not isinstance(section, dict):
        raise WorkspaceError(f"section {key!r} must be a JSON object")
    return section


def _record(rec, what: str, name) -> dict:
    if not isinstance(rec, dict):
        raise WorkspaceError(f"{what} {name!r} must be a JSON object")
    return rec


def parse(doc) -> Workspace:
    if not isinstance(doc, dict):
        raise WorkspaceError("workspace document must be a JSON object")
    ws = Workspace()
    for name, labels in _section(doc, "sets").items():
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise WorkspaceError(f"set {name!r} must be a list of labels")
        try:
            ws.sets[name] = FinSet(name, tuple(labels))
        except ValueError as e:
            raise WorkspaceError(str(e)) from None
    for name, rec in _section(doc, "relations").items():
        rec = _record(rec, "relation", name)
        src = _ref(ws.sets, rec.get("from"), "set")
        dst = _ref(ws.sets, rec.get("to"), "set")
        try:
            ws.relations[name] = Rel.from_pairs(src, dst, rec.get("pairs") or [])
        except (KeyError, ValueError, TypeError) as e:
            raise WorkspaceError(f"relation {name!r}: {e}") from None
    for name, rec in _section(doc, "functions").items():
        rec = _record(rec, "function", name)
        src = _ref(ws.sets, rec.get("from"), "set")
        dst = _ref(ws.sets, rec.get("to"), "set")
        mapping = _record(rec.get("map") or {}, "map of function", name)
        try:
            ws.functions[name] = FnMap.from_labels(src, dst, mapping)
        except (KeyError, ValueError) as e:
            raise WorkspaceError(f"function {name!r}: {e}") from None
    records = _section(doc, "structures")
    # two passes: morphisms may reference other structures
    for name, rec in records.items():
        kind = rec.get("kind") if isinstance(rec, dict) else None
        if kind not in STRUCTURE_KINDS:
            raise WorkspaceError(f"structure {name!r} has unknown kind {kind!r}")
        if kind in ("prom_morphism", "rep_morphism"):
            continue
        ws.structures[name] = _parse_object(ws, name, rec)
    for name, rec in records.items():
        if rec["kind"] in ("prom_morphism", "rep_morphism"):
            ws.structures[name] = _parse_morphism(ws, name, rec)
    return ws


def _parse_object(ws: Workspace, name: str, rec: dict):
    try:
        if rec["kind"] == "preorder":
            return Preorder(_ref(ws.relations, rec.get("rel"), "relation"), check=False)
        if rec["kind"] == "prom":
            return Prom(
                Preorder(_ref(ws.relations, rec.get("x"), "relation"), check=False),
                Preorder(_ref(ws.relations, rec.get("y"), "relation"), check=False),
                _ref(ws.functions, rec.get("f"), "function"),
                check=False,
            )
        return Representation(
            _ref(ws.relations, rec.get("sat"), "relation"),
            Preorder(_ref(ws.relations, rec.get("ord"), "relation"), check=False),
            check=False,
        )
    except WorkspaceError:
        raise
    except ValueError as e:
        raise WorkspaceError(f"structure {name!r}: {e}") from None


def _parse_morphism(ws: Workspace, name: str, rec: dict):
    src = _ref(ws.structures, rec.get("src"), "structure")
    dst = _ref(ws.structures, rec.get("dst"), "structure")
    if rec["kind"] == "prom_morphism":
        if not isinstance(src, Prom) or not isinstance(dst, Prom):
            raise WorkspaceError(f"structure {name!r}: endpoints must be proms")
    elif not isinstance(src, Representation) or not isinstance(dst, Representation):
        raise WorkspaceError(f"structure {name!r}: endpoints must be representations")
    try:
        if rec["kind"] == "prom_morphism":
            return PromMorphism(
                src,
                dst,
                _ref(ws.functions, rec.get("phi"), "function"),
                _ref(ws.functions, rec.get("psi"), "function"),
                check=False,
            )
        return RepMorphism(
            src,
            dst,
            _ref(ws.functions, rec.get("phi"), "function"),
            _ref(ws.relations, rec.get("tau"), "relation"),
            check=False,
        )
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
    if isinstance(obj, Preorder):
        return {"kind": "preorder", "rel": _name_of(ws.relations, obj.rel, "relation")}
    if isinstance(obj, Prom):
        return {
            "kind": "prom",
            "x": _name_of(ws.relations, obj.x.rel, "relation"),
            "y": _name_of(ws.relations, obj.y.rel, "relation"),
            "f": _name_of(ws.functions, obj.f, "function"),
        }
    if isinstance(obj, Representation):
        return {
            "kind": "representation",
            "sat": _name_of(ws.relations, obj.sat, "relation"),
            "ord": _name_of(ws.relations, obj.ord.rel, "relation"),
        }
    if isinstance(obj, PromMorphism):
        return {
            "kind": "prom_morphism",
            "src": back[obj.src],
            "dst": back[obj.dst],
            "phi": _name_of(ws.functions, obj.phi, "function"),
            "psi": _name_of(ws.functions, obj.psi, "function"),
        }
    if isinstance(obj, RepMorphism):
        return {
            "kind": "rep_morphism",
            "src": back[obj.src],
            "dst": back[obj.dst],
            "phi": _name_of(ws.functions, obj.phi, "function"),
            "tau": _name_of(ws.relations, obj.tau, "relation"),
        }
    raise WorkspaceError(f"structure {name!r} has unserializable type {type(obj).__name__}")


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

    def add_rel(name: str, r: Rel) -> Rel:
        add_set(r.src)
        add_set(r.dst)
        for existing in ws.relations.values():
            if existing == r:
                return r
        ws.relations[name] = r
        return r

    def add_fn(name: str, f: FnMap) -> FnMap:
        add_set(f.src)
        add_set(f.dst)
        for existing in ws.functions.values():
            if existing == f:
                return f
        ws.functions[name] = f
        return f

    def add_structure(name: str, obj):
        for existing_name, existing in ws.structures.items():
            if existing == obj:
                return existing_name
        if isinstance(obj, FinSet):
            add_set(obj)
            return None
        if isinstance(obj, Rel):
            add_rel(name, obj)
            return None
        if isinstance(obj, FnMap):
            add_fn(name, obj)
            return None
        if isinstance(obj, Preorder):
            add_rel(f"{name}.rel", obj.rel)
        elif isinstance(obj, Prom):
            add_rel(f"{name}.x", obj.x.rel)
            add_rel(f"{name}.y", obj.y.rel)
            add_fn(f"{name}.f", obj.f)
        elif isinstance(obj, Representation):
            add_rel(f"{name}.sat", obj.sat)
            add_rel(f"{name}.ord", obj.ord.rel)
        elif isinstance(obj, PromMorphism):
            add_structure(f"{name}.src", obj.src)
            add_structure(f"{name}.dst", obj.dst)
            add_fn(f"{name}.phi", obj.phi)
            add_fn(f"{name}.psi", obj.psi)
        elif isinstance(obj, RepMorphism):
            add_structure(f"{name}.src", obj.src)
            add_structure(f"{name}.dst", obj.dst)
            add_fn(f"{name}.phi", obj.phi)
            add_rel(f"{name}.tau", obj.tau)
        else:
            raise WorkspaceError(f"cannot serialize object of type {type(obj).__name__}")
        ws.structures[name] = obj
        return name

    for name, obj in objects.items():
        add_structure(name, obj)
    return ws
