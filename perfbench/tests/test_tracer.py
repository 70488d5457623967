import promrep
import pytest
from promrep import harness, rel

import layers
from tracer import Tracer, self_times


def _record(tracer, state, name, start, end, children=()):
    """Enter `name` at `start`, record `children` inside it, exit at `end`."""
    parent, node, sid = tracer._enter(state, name)
    for child in children:
        _record(tracer, state, *child)
    tracer._exit(state, parent, node, sid, start, end)


def test_self_time_of_synthetic_nested_spans():
    tracer = Tracer(keep={"outer", "a", "b"})
    state = tracer.thread_state()
    # outer 0..10 holds a 1..4 (which holds b 2..3) and a 5..6
    _record(tracer, state, "outer", 0.0, 10.0, [("a", 1.0, 4.0, [("b", 2.0, 3.0)]), ("a", 5.0, 6.0)])

    outer = tracer.tree().children["outer"]
    a = outer.children["a"]
    b = a.children["b"]
    assert (outer.calls, outer.total, outer.self_time) == (1, 10.0, 6.0)
    assert (a.calls, a.total, a.self_time) == (2, 4.0, 3.0)
    assert (b.calls, b.self_time) == (1, 1.0)

    stored = self_times(tracer.spans)
    by_name = {}
    for sid, _parent, name, _start, _end in tracer.spans:
        by_name.setdefault(name, []).append(stored[sid])
    assert by_name == {"outer": [6.0], "a": [2.0, 1.0], "b": [1.0]}


def test_self_time_counts_overlapping_children_once():
    spans = [(0, None, "search", 0.0, 10.0), (1, 0, "trial", 1.0, 5.0), (2, 0, "trial", 3.0, 7.0)]
    assert self_times(spans) == {0: 4.0, 1: 4.0, 2: 4.0}


def test_compose_called_from_harness_is_counted_after_rebinding():
    instance = {
        "x": promrep.identity(promrep.finset("A", 2)),
        "y": promrep.full(promrep.finset("A", 2), promrep.finset("B", 1)),
        "z": promrep.full(promrep.finset("A", 2), promrep.finset("B", 1)),
    }
    original = rel.compose
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert harness.compose is not original  # rebound where harness imported it
        assert promrep.check_law("eq1-galois", instance) is None
    finally:
        tracer.uninstall()
    assert harness.compose is original and rel.compose is original

    check = tracer.tree().children["harness.check_law"].children["harness.check"]
    assert check.children["rel.compose"].calls == 1
    assert layers.layer_metrics(tracer)["rel.compose.calls"] == 1


def test_generators_are_timed_inside_next_and_pool_threads_are_merged():
    tracer = Tracer()
    layers.install(tracer)
    try:
        summary = promrep.search(
            promrep.SearchConfig(law="lemma9", trials=30, seed=4, parallelism=2)
        )
    finally:
        tracer.uninstall()
    assert summary.passed
    metrics = layers.layer_metrics(tracer)
    tree = tracer.tree()
    checks = sum(node.calls for _, node in tree.walk() if node.name == "harness.check")
    assert checks == 30
    yielded = metrics["harness.enumerate_prom_morphisms.yielded"]
    assert yielded == summary.notes["prom_homs"]
    # one span per next(), including the one that ends the iteration
    spans = sum(node.calls for _, node in tree.walk() if node.name == "harness.enumerate_prom_morphisms")
    assert spans == yielded + 30
    assert metrics["harness.enumerate_prom_morphisms.candidates"] >= yielded
    assert 0.0 < metrics["harness.pool.busy_ratio"] <= 1.0 + 1e-9


def test_uninstall_restores_the_catalog_and_rel():
    spec = promrep.CATALOG["lemma1"]
    post_init = rel.Rel.__post_init__
    tracer = Tracer()
    layers.install(tracer)
    assert promrep.CATALOG["lemma1"] is not spec
    tracer.uninstall()
    assert promrep.CATALOG["lemma1"] is spec
    assert rel.Rel.__post_init__ is post_init
    with pytest.raises(ValueError):
        rel.Rel(promrep.finset("A", 1), promrep.finset("B", 1), (2,))
