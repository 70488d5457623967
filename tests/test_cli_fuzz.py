"""Fuzzing the workspace reader and the CLI with mutated documents and
options.

Each workspace example starts from a valid workspace, changes a few of its
values (a label renamed throughout, a reference, a value of any JSON type,
a deleted entry) and runs `check` or `apply` in-process.  Each `verify`
example draws the law, mode and options, malformed ones included.
Byte-level examples corrupt the file below the JSON level.
Whatever the input: the exit code is 0, 1 or 2, no exception escapes,
exit 1 comes only with a last line `result: fail`, exit 2 only with an
`error:` message on stderr, and a successful `apply` prints a workspace
that loads and serializes back byte for byte.
"""

import contextlib
import copy
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from promrep import (
    CATALOG,
    prom_to_rep,
    prommor_to_repmor,
    unit,
    workspace,
)
from promrep.cli import FUNCTORS, main
from seeded import gen_prom, gen_prom_morphism, gen_rep_morphism, gen_representation


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


@st.composite
def corrupted_bytes(draw):
    """A mutated workspace's file, corrupted below the JSON level: a byte
    that is not UTF-8, a UTF-8 byte order mark, or nesting past the
    recursion limit."""
    doc, command, name = draw(mutated())
    data = json.dumps(doc).encode()
    how = draw(st.sampled_from(("not-utf8", "bom", "nesting")))
    if how == "not-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80"))) + data[at:]
    elif how == "bom":
        data = b"\xef\xbb\xbf" + data
    else:
        depth = sys.getrecursionlimit() * draw(st.integers(1, 20))
        data = b"[" * depth + data + b"]" * depth
    return how, data, command, name


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(case=corrupted_bytes())
def test_corrupted_workspace_bytes_exit_cleanly(scratch_file, case):
    how, data, command, name = case
    scratch_file.write_bytes(data)
    argv = ["check", str(scratch_file), name] if command == "check" else ["apply", command, str(scratch_file), name]
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if how != "bom":
        assert code == 2
    if code == 2:
        assert err.startswith("error:") and out == ""
    assert "Traceback" not in err


#: Laws whose exhaustive search takes seconds at bound 2; the verify fuzz
#: keeps their exhaustive bounds at 1 or below.
SLOW_EXHAUSTIVE = frozenset({"modular-tautology", "lemma5", "lemma6", "lemma8", "lemma9"})


@st.composite
def verify_argv(draw):
    law = draw(st.sampled_from(sorted(CATALOG)))
    mode = draw(st.sampled_from(("seeded", "exhaustive")))
    argv = ["verify", law, f"--mode={mode}"]
    # bound 3 runs in milliseconds or exceeds the law's exhaustive limit
    largest = 1 if mode == "exhaustive" and law in SLOW_EXHAUSTIVE else 3
    shape = draw(st.sampled_from(("sizes", "sizes", "sizes", "negative", "malformed", "default")))
    if shape == "default" and mode == "exhaustive" and law in SLOW_EXHAUSTIVE:
        shape = "sizes"
    if shape in ("sizes", "negative"):
        sizes = draw(st.lists(st.integers(0, largest), min_size=1, max_size=4))
        if shape == "negative":
            sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(-2, -1))
        argv.append(f"--max-size={','.join(map(str, sizes))}")
    elif shape == "malformed":
        argv.append(f"--max-size={draw(st.sampled_from(('', ',', '1,', 'x', '1.5')))}")
    argv.append(f"--trials={draw(st.integers(-1, 5))}")
    jobs = draw(st.integers(0, 3) | st.none())
    if jobs is not None:
        argv.append(f"--jobs={jobs}")
    return argv


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(argv=verify_argv())
def test_verify_options_exit_cleanly(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if any(arg.startswith("--trials=-") for arg in argv):
        assert code == 2
    if code == 0:
        assert out.splitlines()[-1] == "result: pass"
    if code == 1:
        assert "result: fail" in out.splitlines()
    if code == 2:
        assert err.startswith("error:") and out == ""
