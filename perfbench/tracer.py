"""Span tracing installed from outside the program.

`Tracer.install` wraps functions of the promrep modules and rebinds every
module attribute (and every entry of a module-level dict or tuple) that
refers to the same function object, so calls made through
`from .rel import compose` inside another module are seen too.

Spans are aggregated per call path: each path node keeps its call count,
the summed duration of its spans and the part of that duration covered by
child spans.  Storing one record per span would cost hundreds of MB on the
exhaustive workload (millions of kernel calls) and distort its peak RSS.
Only spans named in `keep` are also stored one by one, with name, start,
end and parent.

Each thread records into its own tree, so the harness's pool threads need
no lock on the hot path; `tree()` merges the per-thread trees by path.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterable


class Node:
    """One call path: `calls` spans lasting `total` s, `child` s of it in children."""

    __slots__ = ("name", "children", "calls", "total", "child")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child

    def walk(self, ancestors: tuple[str, ...] = ()):
        """Yield (ancestor names, node) for every node below this one."""
        for node in self.children.values():
            yield ancestors, node
            yield from node.walk(ancestors + (node.name,))


def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Self time of stored spans (id, parent, name, start, end).

    A span's self time is its duration minus the part of it covered by the
    union of its children's intervals, so overlapping children (spans from
    several threads under one parent) are not subtracted twice.
    """
    spans = list(spans)
    kids: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        kids.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(kids.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


class _ThreadState:
    __slots__ = ("root", "stack", "ids", "counts", "distinct")

    def __init__(self):
        self.root = Node("")
        self.stack = [self.root]
        self.ids = [None]  # nearest stored span at or above each stack entry
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}


#: Observer called after a traced call returns (or, for a generator, when it
#: is created): (state, args, kwargs, result, elapsed).  It records counts
#: into `state.counts` / `state.distinct`.
Observer = Callable[[_ThreadState, tuple, dict, object, float], None]


class Tracer:
    def __init__(self, keep: Iterable[str] = ()):
        self.keep = frozenset(keep)
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def thread_state(self) -> _ThreadState:
        """The calling thread's call tree and counters."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _enter(self, state: _ThreadState, name: str):
        parent = state.stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name)
        state.stack.append(node)
        sid = None
        if name in self.keep:
            with self._lock:
                sid = len(self.spans)
                self.spans.append([sid, state.ids[-1], name, 0.0, 0.0])
        state.ids.append(state.ids[-1] if sid is None else sid)
        return parent, node, sid

    def _exit(self, state: _ThreadState, parent: Node, node: Node, sid, start: float, end: float):
        elapsed = end - start
        state.stack.pop()
        state.ids.pop()
        node.calls += 1
        node.total += elapsed
        parent.child += elapsed
        if sid is not None:
            self.spans[sid][3:] = (start, end)
        return elapsed

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span named `name`."""
        state = self.thread_state()
        parent, node, sid = self._enter(state, name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(state, parent, node, sid, start, time.perf_counter())

    def wrap(self, name: str, fn, observe: Observer | None = None):
        """Return `fn` recording a span per call; a generator gets one per next()."""
        tracer, perf = self, time.perf_counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if observe is not None:
                    observe(tracer.thread_state(), args, kwargs, None, 0.0)
                while True:
                    state = tracer.thread_state()
                    parent, node, sid = tracer._enter(state, name)
                    start = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(state, parent, node, sid, start, perf())
                    state.counts[name + ".yielded"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer.thread_state()
            parent, node, sid = tracer._enter(state, name)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._exit(state, parent, node, sid, start, perf())
            if observe is not None:
                observe(state, args, kwargs, result, elapsed)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, targets: dict[str, tuple[object, Observer | None]]):
        """Wrap each target function and rebind every reference to it.

        `targets` maps a span name to (function, observer).  References are
        module attributes of `promrep` and its submodules, and entries of
        module-level dicts and tuples (one level of nesting inside a dict).
        """
        # `targets` keeps the originals alive, so equal ids mean the same object
        swap = {id(fn): self.wrap(name, fn, obs) for name, (fn, obs) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "promrep" or mod_name.startswith("promrep.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in swap:
                    self.patch(module, attr, swap[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        new = _substitute(entry, swap)
                        if new is not entry:
                            self.patch_item(value, key, new)

    def patch(self, owner, attr: str, value):
        """Set owner.attr = value until `uninstall`."""
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def patch_item(self, table: dict, key, value):
        """Set table[key] = value until `uninstall`."""
        old = table[key]
        table[key] = value
        self._undo.append(lambda: table.__setitem__(key, old))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- reading -----------------------------------------------------------

    def tree(self) -> Node:
        """All threads' call trees merged by path."""
        merged = Node("")
        with self._lock:
            states = list(self._states)
        for state in states:
            _merge(merged, state.root)
        return merged

    def counts(self) -> Counter:
        total: Counter = Counter()
        for state in list(self._states):
            total.update(state.counts)
        return total

    def distinct(self, key: str) -> int:
        seen: set = set()
        for state in list(self._states):
            seen |= state.distinct.get(key, set())
        return len(seen)


def _substitute(value, swap: dict):
    if id(value) in swap:
        return swap[id(value)]
    if isinstance(value, tuple):
        items = tuple(_substitute(v, swap) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value


def _merge(into: Node, node: Node):
    into.calls += node.calls
    into.total += node.total
    into.child += node.child
    for name, child in node.children.items():
        target = into.children.get(name)
        if target is None:
            target = into.children[name] = Node(name)
        _merge(target, child)
