import random
from itertools import product

import pytest

from promrep import Rel, clear_caches, finset, preorder_closure
from promrep.harness import random_rel


@pytest.fixture(autouse=True)
def cold_kernel_caches():
    """Start and leave each test with empty kernel caches, so that a test
    that patches a kernel builder never meets, or leaves behind, a cached
    result of another build."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(scope="session")
def small_square_relations():
    """Every square relation on a carrier of 0 to 4 elements: 66,067 of them."""
    return [
        Rel(carrier, carrier, rows)
        for n in range(5)
        for carrier in [finset("A", n, "a")]
        for rows in product(range(1 << n), repeat=n)
    ]


@pytest.fixture(scope="session")
def near_preorders():
    """400 seeded preorder closures on 5 to 12 elements; every other one has
    one off-diagonal pair removed, which may or may not break transitivity."""
    rng = random.Random(20261018)
    out = []
    for i in range(400):
        carrier = finset("A", rng.randint(5, 12), "a")
        r = preorder_closure(random_rel(rng, carrier, carrier, rng.choice((0.05, 0.1, 0.2)))).rel
        off = [(a, b) for a, row in enumerate(r.rows) for b in range(len(carrier)) if a != b and row >> b & 1]
        if i % 2 and off:
            a, b = rng.choice(off)
            r = Rel(carrier, carrier, tuple(row & ~(1 << b) if k == a else row for k, row in enumerate(r.rows)))
        out.append(r)
    return out
