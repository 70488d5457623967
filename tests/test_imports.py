"""Every module of the package uses every name it imports, and every
module-level private name it defines."""

import ast
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


def references(node) -> Counter:
    """Loads of a name, attribute reads and `from … import` names under node."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


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
