"""Every module of the package uses every name it imports, and every
module-level private name it defines; every exported name has a caller
outside its module, every public function and method has a caller, and
every function the benchmark times by name, or keyword it passes to
`SearchConfig`, exists."""

import ast
import dataclasses
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import promrep

PACKAGE = Path(promrep.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_unused_name(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def private_definitions(tree):
    """(name, node) for each `_x` the module body binds by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def reads(node) -> Counter:
    """Attribute reads and `from … import` names under node."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def names(node) -> Counter:
    """Loads of a bare name under node."""
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))


def references(node) -> Counter:
    """Loads of a name, attribute reads and `from … import` names under node."""
    return reads(node) + names(node)


def test_module_private_names_are_referenced():
    """A private helper that nothing in the package uses outside its own
    definition is dead code, for instance one orphaned by a deletion."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    package_refs = sum((references(tree) for tree in trees.values()), Counter())
    orphans = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in private_definitions(tree)
        if package_refs[name] - references(node)[name] == 0
    ]
    assert orphans == []


ROOT = PACKAGE.parent.parent

#: Exported names that need no caller outside their own module, each with its reason.
EXPORTED_WITHOUT_CALLER = {
    "PowersetBundle": "the type `powerset` returns",
    "TriangleRepResult": "the type `triangle_rep` returns",
    "CheckResult": "the type every `check_*` returns",
    "Witness": "the type of `SearchSummary.witness` and of `check_law`'s result",
    "SearchSummary": "the type `search` returns",
    "replay": "user-facing: re-runs a law on a witness",
    "clear_caches": "user-facing: empties the kernel caches after a kernel function is patched",
    "converse": "perfbench wraps it as a public function for its `rel.converse.*` metrics",
    "check_preorder": "perfbench wraps it as a public function for its `structures.check_preorder.*` metrics",
}


def test_exported_names_have_a_caller_outside_their_module():
    """Every name `promrep` exports is used outside its defining module, in
    the package, its scripts or its benchmark; the tests do not count."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name: node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    callers = [
        *(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *ROOT.glob("scripts/*.py"),
        *ROOT.glob("perfbench/**/*.py"),
    ]
    refs = {path: references(ast.parse(path.read_text())) for path in callers}
    uncalled = [
        name
        for name, module in exported.items()
        if not any(counts[name] for path, counts in refs.items() if path != PACKAGE / f"{module}.py")
    ]
    assert sorted(set(uncalled) - set(EXPORTED_WITHOUT_CALLER)) == []
    assert sorted(set(EXPORTED_WITHOUT_CALLER) - set(uncalled)) == []  # no stale entry


def public_definitions(tree):
    """(name, node, is_method) for each public function of the module body
    and each public method of its classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield sub.name, sub, True


def test_public_functions_and_methods_have_a_caller():
    """Every public function and method is reached from outside its own
    body: by an attribute read or an import in the package (its exports
    included), its scripts or its benchmark, or, for a module function, by
    its bare name in its own module.  A bare name elsewhere is no caller:
    `scripts/strictness_demo.py` has a parameter called `holds`."""
    paths = [*PACKAGE.glob("*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/**/*.py")]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    reached = sum((reads(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path in MODULES:
        tree = trees[path]
        for name, node, method in public_definitions(tree):
            callers = reached[name] - reads(node)[name]
            if not method:
                callers += names(tree)[name] - names(node)[name]
            if callers == 0:
                uncalled.append(f"{path.name}:{name}")
    assert uncalled == []


def test_benchmark_search_configs_name_only_its_fields():
    """Every keyword that a `SearchConfig(...)` call under perfbench/ passes
    is a field of `promrep.SearchConfig`, `parallelism` among them; the
    benchmark's own tests are not part of tier-1."""
    fields = {field.name for field in dataclasses.fields(promrep.SearchConfig)}
    keywords = set()
    for path in ROOT.glob("perfbench/**/*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "SearchConfig":
                    keywords.update(kw.arg for kw in node.keywords)
    assert "parallelism" in keywords
    assert sorted(keywords - fields) == []


def per_layer_metrics():
    """perfbench's PER_LAYER, evaluated from the source of `perfbench/layers.py`
    without its imports, so that the tracer is not loaded."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    tree.body = [
        node for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__"
    ]
    namespace = {}
    exec(compile(tree, "layers.py", "exec"), namespace)
    return namespace["PER_LAYER"]


def test_per_layer_call_counts_name_public_functions():
    """Each `<layer>.<fn>.calls` metric counts calls of a public function
    `fn` of `promrep.<layer>`, the ones perfbench wraps; a removed or
    renamed function would read 0 there."""
    counted = [name[: -len(".calls")] for name, _, _ in per_layer_metrics() if name.endswith(".calls")]
    assert "rel.compose" in counted
    missing = []
    for name in counted:
        if name == "exactness":  # sums every exactness.* span
            continue
        layer, fn = name.split(".")
        module = importlib.import_module(f"promrep.{layer}")
        target = getattr(module, fn, None)
        if fn.startswith("_") or not inspect.isfunction(target) or target.__module__ != module.__name__:
            missing.append(name)
    assert missing == []
