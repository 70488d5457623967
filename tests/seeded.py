"""Helpers shared by the tests: seeded structures, the harness's generators
each drawn from a fresh RNG per seed, and `patch_everywhere`, which puts a
mutant in place of a kernel function in every promrep module.

A plain module, not conftest.py, so that `from seeded import ...` finds it
even when perfbench/tests, with a conftest.py of its own, is collected in
the same run.
"""

import random
import sys

from promrep import finset
from promrep.harness import (
    _gen_preorder,
    _gen_prom,
    _gen_prom_chain,
    _gen_rep_chain,
    _gen_representation,
)


def gen_preorder(seed: int, size: int, name: str = "A", prefix: str = "a"):
    return _gen_preorder(random.Random(seed), finset(name, size, prefix))


def gen_prom(seed: int, size_a: int, size_b: int):
    return _gen_prom(random.Random(seed), size_a, size_b)


def gen_representation(seed: int, size_m: int, size_s: int):
    return _gen_representation(random.Random(seed), size_m, size_s)


def gen_prom_morphism(seed: int, max_size: int):
    return _gen_prom_chain(random.Random(seed), max_size, 1)[0]


def gen_rep_morphism(seed: int, max_size: int):
    return _gen_rep_chain(random.Random(seed), max_size, max_size, 1)[0]


def patch_everywhere(monkeypatch, name, replacement, home):
    """Bind `replacement` in place of `home`'s `name` in every promrep module."""
    original = getattr(home, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "promrep" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
