"""Fuzzing the workspace reader and the CLI with mutated documents.

Each example starts from a valid workspace, changes a few of its values
(a label renamed throughout, a reference, a value of any JSON type, a
deleted entry) and runs `check` or
`apply` in-process.  Whatever the input: the exit code is 0, 1 or 2, no
exception escapes, exit 1 comes only with a last line `result: fail`,
exit 2 only with an `error:` message on stderr, and a successful `apply`
prints a workspace that loads and serializes back byte for byte.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from promrep import (
    gen_prom,
    gen_prom_morphism,
    gen_rep_morphism,
    gen_representation,
    prom_to_rep,
    prommor_to_repmor,
    unit,
    workspace,
)
from promrep.cli import FUNCTORS, main


def _valid_documents():
    p = gen_prom(5, 2, 2)
    objects = [
        {"p": gen_prom(1, 2, 2), "R": gen_representation(1, 2, 2), "x": p.x},
        {"pm": gen_prom_morphism(2, 2)},
        {"rm": gen_rep_morphism(3, 2)},
        {"p": p, "m": prommor_to_repmor(unit(p))},
        {"R": prom_to_rep(p), "m": unit(p)},
    ]
    return [workspace.to_doc(workspace.build(named)) for named in objects]


DOCS = _valid_documents()


def _paths(node, prefix=()):
    """Every place in a JSON document, as a path of keys and indices."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield prefix + (i,)
            yield from _paths(value, prefix + (i,))


def _words(node):
    """Every key and string in a document: names, labels, kinds."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _words(value)
    elif isinstance(node, list):
        for value in node:
            yield from _words(value)
    elif isinstance(node, str):
        yield node


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.text("ab,{}0", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _renamed(node, old, new):
    """The document with every key and string equal to `old` spelled `new`."""
    if isinstance(node, dict):
        return {new if k == old else k: _renamed(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(v, old, new) for v in node]
    return new if node == old else node


def _at(doc, path):
    node = doc
    for step in path:
        node = node[step]
    return node


@st.composite
def mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    names = sorted(set(_words(doc)))
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(("rename", "rename", "reference", "reference", "value", "delete")))
        if how == "rename":
            # consistent everywhere, so the document may stay valid
            word = draw(st.sampled_from(names))
            spelling = draw(st.sampled_from(("", word[1:], word + ",", "{" + word + "}", word.upper())))
            doc = _renamed(doc, word, spelling)
            continue
        # a reference changes a string; values and deletions go anywhere
        paths = [p for p in _paths(doc) if how != "reference" or isinstance(_at(doc, p), str)]
        if not paths:
            break
        *parent_path, last = draw(st.sampled_from(paths))
        parent = _at(doc, parent_path)
        if how == "delete":
            del parent[last]
        elif how == "value":
            parent[last] = draw(json_values)
        else:
            parent[last] = draw(st.sampled_from(names))
    command = draw(st.just("check") | st.sampled_from(FUNCTORS))
    structures = doc.get("structures")
    targets = sorted(structures) if isinstance(structures, dict) and structures else ["p"]
    return doc, command, draw(st.sampled_from(targets))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ws.json"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=mutated())
def test_mutated_workspaces_exit_cleanly(scratch_file, case):
    doc, command, name = case
    scratch_file.write_text(json.dumps(doc))
    argv = ["check", str(scratch_file), name] if command == "check" else ["apply", command, str(scratch_file), name]
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.splitlines()[-1] == "result: fail"
    if code == 2:
        assert err.startswith("error:")
    if code == 0 and command != "check":
        assert workspace.dumps(workspace.loads(out)) == out
