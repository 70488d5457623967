"""Which promrep functions the traced run wraps, and the per-layer metrics.

Every public function of each layer module is wrapped under the span name
`<layer>.<function>`.  The law catalog's per-law callables are wrapped as
`harness.check`, `harness.generate` and `harness.enumerate`, and each `Rel`
construction is counted.  Observers count what a waste ratio needs, from
arguments and results seen outside the program.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import re

from tracer import Node, Tracer

LAYERS = ("rel", "structures", "functors", "adjunction", "exactness", "harness", "workspace", "cli")

#: Stored one by one (low frequency); everything else is only aggregated.
KEEP = frozenset({"pass", "harness.search", "cli.main", "workspace.loads", "workspace.dumps"})

SIZES = range(8, 13)
SIZED = ("adjunction.triangle_prom", "adjunction.counit", "functors.rep_to_prom", "structures.check_prom")

#: Laws whose untraced search time is reported (see README.md).
SEARCH_LAWS = (
    "lemma3", "lemma5", "lemma6", "lemma7", "lemma8", "lemma9",
    "modular-tautology", "preorder-single-axiom", "unit-natural", "counit-natural",
)

def _calls_self(names):
    return [(f"{n}.{k}", u, "lower") for n in names for k, u in (("calls", "count"), ("self_s", "s"))]


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    _calls_self(["rel.compose", "rel.left_residual", "rel.converse"])
    + [("rel.rel_built", "count", "lower")]
    + _calls_self(["rel.powerset"])
    + [("rel.powerset.distinct_ratio", "ratio", "higher"), ("rel.powerset.distinct", "count", "lower")]
    + _calls_self(["structures.check_preorder"])
    + [
        ("structures.check_preorder.distinct_ratio", "ratio", "higher"),
        ("structures.check_preorder.distinct", "count", "lower"),
    ]
    + _calls_self(
        f"structures.{f}"
        for f in ("check_prom", "check_prom_morphism", "check_representation", "check_rep_morphism")
    )
    + _calls_self(
        f"functors.{f}"
        for f in ("rep_to_prom", "prom_to_rep", "direct_image", "repmor_to_prommor", "prommor_to_repmor")
    )
    + _calls_self(
        f"adjunction.{f}"
        for f in ("unit", "counit", "lift", "lower", "triangle_rep", "triangle_prom", "recover_by_membership")
    )
    + [(f"{name}.n{k}_s", "s", "lower") for name in SIZED for k in SIZES]
    + _calls_self(["exactness"])
    + [(f"harness.search_s.{law}", "s", "lower") for law in SEARCH_LAWS]
    + [
        ("harness.enumerate.self_s", "s", "lower"),
        ("harness.generate.self_s", "s", "lower"),
        ("harness.check.self_s", "s", "lower"),
        ("harness.gen_share", "ratio", "lower"),
        ("harness.gen_share.gen_s", "s", "lower"),
        ("harness.gen_share.search_s", "s", "lower"),
    ]
    + [
        (f"harness.{e}.{k}", u, b)
        for e in ("enumerate_prom_morphisms", "enumerate_rep_morphisms")
        for k, u, b in (("yield_ratio", "ratio", "higher"), ("yielded", "count", "higher"),
                        ("candidates", "count", "lower"))
    ]
    + [
        ("harness.pool.busy_ratio", "ratio", "higher"),
        ("harness.pool.busy_s", "s", "lower"),
        ("harness.pool.capacity_s", "s", "lower"),
    ]
    + [
        (f"workspace.{f}.{k}", u, b)
        for f in ("loads", "dumps")
        for k, u, b in (("s", "s", "lower"), ("mb_per_s", "MB/s", "higher"))
    ]
    + [("cli.apply.s", "s", "lower"), ("cli.check.s", "s", "lower"), ("cli.self_s", "s", "lower")]
    + [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
    ]
)


# -- observers ----------------------------------------------------------------

def _distinct_first_arg(key):
    def observe(state, args, kwargs, result, elapsed):
        state.distinct.setdefault(key, set()).add(args[0])
    return observe


def _prom_candidates(state, args, kwargs, result, elapsed):
    p1, p2 = args
    state.counts["harness.enumerate_prom_morphisms.candidates"] += (
        len(p2.A) ** len(p1.A) * len(p2.B) ** len(p1.B)
    )


def _rep_candidates(state, args, kwargs, result, elapsed):
    r1, r2 = args
    state.counts["harness.enumerate_rep_morphisms.candidates"] += (
        len(r2.S) ** len(r1.S) * 2 ** (len(r2.M) * len(r1.M))
    )


def _search_capacity(state, args, kwargs, result, elapsed):
    config = args[0] if args else kwargs["config"]
    jobs = config.parallelism if config.mode == "seeded" else 1
    state.counts["harness.pool.capacity_s"] += elapsed * max(jobs, 1)


def _text_in(state, args, kwargs, result, elapsed):
    state.counts["workspace.loads.chars"] += len(args[0])


def _text_out(state, args, kwargs, result, elapsed):
    state.counts["workspace.dumps.chars"] += len(result)


OBSERVERS = {
    "rel.powerset": _distinct_first_arg("rel.powerset"),
    "structures.check_preorder": _distinct_first_arg("structures.check_preorder"),
    "harness.enumerate_prom_morphisms": _prom_candidates,
    "harness.enumerate_rep_morphisms": _rep_candidates,
    "harness.search": _search_capacity,
    "workspace.loads": _text_in,
    "workspace.dumps": _text_out,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions, the catalog callables and `Rel`."""
    import promrep

    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"promrep.{layer}")
        for fname, fn in vars(module).items():
            if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{fname}"
            targets[name] = (fn, OBSERVERS.get(name))
    tracer.install(targets)

    for law, spec in list(promrep.CATALOG.items()):
        fields = {
            kind: tracer.wrap(f"harness.{kind}", getattr(spec, kind))
            for kind in ("check", "generate", "enumerate")
            if getattr(spec, kind) is not None
        }
        tracer.patch_item(promrep.CATALOG, law, dataclasses.replace(spec, **fields))

    rel_post_init = promrep.rel.Rel.__post_init__

    def counted_post_init(self):
        tracer.thread_state().counts["rel.rel_built"] += 1
        rel_post_init(self)

    tracer.patch(promrep.rel.Rel, "__post_init__", counted_post_init)


# -- metrics ------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (untraced timings are added by run.py)."""
    tree = tracer.tree()
    calls: dict[str, float] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    sized: dict[str, float] = {}
    trial: dict[str, float] = {}  # law-search work: under a search, or a pool thread's root
    size_re = re.compile(r"n\d+$")
    for ancestors, node in tree.walk():
        calls[node.name] = calls.get(node.name, 0) + node.calls
        own[node.name] = own.get(node.name, 0.0) + node.self_time
        # inclusive time only where the same name is not already an ancestor
        if node.name not in ancestors:
            total[node.name] = total.get(node.name, 0.0) + node.total
            if not ancestors or "harness.search" in ancestors:
                trial[node.name] = trial.get(node.name, 0.0) + node.total
        if node.name in SIZED:
            size = next((a for a in reversed(ancestors) if size_re.match(a)), None)
            if size is not None:
                key = f"{node.name}.{size}_s"
                sized[key] = sized.get(key, 0.0) + node.total
    counts = tracer.counts()
    out: dict[str, float] = {}

    for metric, _unit, _better in PER_LAYER:
        if metric.endswith(".calls"):
            name = metric[: -len(".calls")]
            spans = [s for s in calls if s.startswith("exactness.")] if name == "exactness" else [name]
            out[metric] = sum(calls.get(s, 0) for s in spans)
            out[f"{name}.self_s"] = sum((own.get(s, 0.0) for s in spans), 0.0)
    out["rel.rel_built"] = counts["rel.rel_built"]
    for span in ("rel.powerset", "structures.check_preorder"):
        distinct = tracer.distinct(span)
        out[f"{span}.distinct"] = distinct
        out[f"{span}.distinct_ratio"] = _ratio(distinct, calls.get(span, 0))
    for name in SIZED:
        for k in SIZES:
            out[f"{name}.n{k}_s"] = sized.get(f"{name}.n{k}_s", 0.0)

    # the catalog's per-law callables plus harness.enumerate_* / gen_* / random_*
    out["harness.enumerate.self_s"] = sum(
        (v for s, v in own.items() if s.startswith("harness.enumerate")), 0.0
    )
    out["harness.generate.self_s"] = sum(
        (v for s, v in own.items() if s.startswith(("harness.gen", "harness.random_"))), 0.0
    )
    out["harness.check.self_s"] = own.get("harness.check", 0.0)
    gen = trial.get("harness.enumerate", 0.0) + trial.get("harness.generate", 0.0)
    search = total.get("harness.search", 0.0)
    out["harness.gen_share"] = _ratio(gen, search)
    out["harness.gen_share.gen_s"] = gen
    out["harness.gen_share.search_s"] = search
    for e in ("enumerate_prom_morphisms", "enumerate_rep_morphisms"):
        yielded = counts[f"harness.{e}.yielded"]
        candidates = counts[f"harness.{e}.candidates"]
        out[f"harness.{e}.yield_ratio"] = _ratio(yielded, candidates)
        out[f"harness.{e}.yielded"] = yielded
        out[f"harness.{e}.candidates"] = candidates
    busy = gen + trial.get("harness.check", 0.0)
    capacity = counts["harness.pool.capacity_s"]
    out["harness.pool.busy_ratio"] = _ratio(busy, capacity)
    out["harness.pool.busy_s"] = busy
    out["harness.pool.capacity_s"] = capacity

    for f in ("loads", "dumps"):
        seconds = total.get(f"workspace.{f}", 0.0)
        out[f"workspace.{f}.s"] = seconds
        out[f"workspace.{f}.mb_per_s"] = _ratio(counts[f"workspace.{f}.chars"] / 1e6, seconds)
    out["cli.self_s"] = sum((v for s, v in own.items() if s.startswith("cli.")), 0.0)
    return out
