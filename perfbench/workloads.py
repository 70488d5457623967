"""The four workloads: inputs made from a seed, one timed pass, its verdicts.

A workload makes the inputs of round i with `inputs(seed, i, workdir)`
(untimed) and runs one pass over them with `run(inputs, mark)`.  `mark(name)`
opens a labelled span in a traced run and does nothing otherwise.  A pass
returns its wall time, the wall time of each of its timed steps with that
of the reference loop run just before the step, its units of work, and one
verdict record per scored unit; `verify(result)` runs the checks that must
stay outside the timed and traced part.  Every pass of a run uses fresh
inputs, or a fresh process where the inputs cannot change, so a cache inside
the program gets no hits from an earlier repeat.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import promrep
from promrep import cli, workspace

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())


@dataclass
class PassResult:
    wall: float = 0.0
    steps: dict = field(default_factory=dict)  # step id -> wall time; the same ids every pass
    refs: dict = field(default_factory=dict)  # step id -> reference loop time just before it
    units: int = 0  # instances, constructions or CLI commands
    records: list = field(default_factory=list)  # [unit id, ..., ok]
    failures: list = field(default_factory=list)  # one message per failed unit
    timings: dict = field(default_factory=dict)  # untraced timings of single layers
    outputs: dict = field(default_factory=dict)  # kept for verify()

    @property
    def attempted(self) -> int:
        return len(self.records)

    def score(self, record: list, ok: bool, why: str = ""):
        self.records.append(record + [ok])
        if not ok:
            self.failures.append(f"{record[:2]}: {why}")


def golden_key(law: str, bounds) -> str:
    return f"{law}@{','.join(map(str, bounds))}"


#: Iterations of the reference loop; it takes about 13 ms on a 2-core Intel
#: Xeon with Python 3.11.7 when nothing else runs.
REF_ITERATIONS = 200_000


def reference_loop():
    """Fixed pure-Python work that measures how fast the machine is right now."""
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return s


def step(res: PassResult, key: str, work):
    """Run the reference loop, then `work()`; record both times under `key`."""
    t0 = time.perf_counter()
    reference_loop()
    t1 = time.perf_counter()
    out = work()
    res.steps[key] = time.perf_counter() - t1
    res.refs[key] = t1 - t0
    return out


class Workload:
    name = why = ""
    #: Run every pass in a fresh process instead of in the run's process.
    fresh_process = False

    def verify(self, res: PassResult):
        """Checks that must run outside the timed and traced pass."""


def _rng(tag: str, seed: int, round_: int) -> random.Random:
    return random.Random(f"{tag}:{seed}:{round_}")


# -- seeded structures built through the public constructors -------------------

def _rel(rng, src, dst, p):
    rows = tuple(
        sum(1 << j for j in range(len(dst)) if rng.random() < p) for _ in range(len(src))
    )
    return promrep.Rel(src, dst, rows)


def make_representation(rng, m: int, s: int):
    """A random sound representation; soundness holds because sat = r⨾ord."""
    M, S = promrep.finset("M", m, "m"), promrep.finset("S", s, "s")
    order = promrep.preorder_closure(_rel(rng, S, S, 0.15))
    return promrep.Representation(promrep.compose(_rel(rng, M, S, 0.3), order.rel), order)


def make_prom(rng, a: int, b: int):
    """A random prom; x lies inside the pullback of y along f, so f preserves order."""
    A, B = promrep.finset("A", a, "a"), promrep.finset("B", b, "b")
    y = promrep.preorder_closure(_rel(rng, B, B, 0.1))
    f = promrep.FnMap(A, B, tuple(rng.randrange(b) for _ in range(a)))
    pull = promrep.compose(
        promrep.graph_lower(f), promrep.compose(y.rel, promrep.graph_upper(f))
    )
    noise = _rel(rng, A, A, 0.5)
    x = promrep.preorder_closure(
        promrep.Rel(A, A, tuple(p & q for p, q in zip(pull.rows, noise.rows)))
    )
    return promrep.Prom(x, y, f)


# -- exhaustive ---------------------------------------------------------------

#: Laws whose limit sweep takes over 4 s each run below their limit, so that a
#: pass takes about 2.5 s and a run repeats every search (README.md,
#: Workloads).  The lemma 8/9 hom-set work on size-2 structures runs in the
#: seeded pass.
BELOW_LIMIT = {"lemma5": (1, 2), "lemma6": (1, 1), "lemma7": (4, 3), "lemma8": (1,), "lemma9": (1,)}


def exhaustive_plan():
    return [
        (law, BELOW_LIMIT.get(law, spec.exhaustive_limit))
        for law, spec in promrep.CATALOG.items()
        if spec.enumerate is not None
    ]


class Exhaustive(Workload):
    name = "exhaustive"
    why = "every enumerable law swept exhaustively, a fresh process per pass: tiny-carrier churn in kernel, checks, enumerators"
    #: Enumeration ignores the seed, so a pass in the same process would
    #: repeat the first one's inputs.
    fresh_process = True

    def __init__(self, plan=None, golden=None):
        self.plan = plan if plan is not None else exhaustive_plan()
        self.golden = golden if golden is not None else GOLDEN["exhaustive"]

    def params(self):
        return {"plan": [golden_key(law, b) for law, b in self.plan]}

    def inputs(self, seed, round_, workdir):
        return self.plan

    def run(self, plan, mark):
        res = PassResult()
        start = time.perf_counter()
        for law, bounds in plan:
            config = promrep.SearchConfig(law=law, mode="exhaustive", bounds=bounds)
            summary = step(res, law, lambda: promrep.search(config))
            res.timings[f"harness.search_s.{law}"] = res.steps[law]
            res.units += summary.checked
            counts = {"checked": summary.checked}
            counts.update({f"note.{k}": v for k, v in sorted(summary.notes.items())})
            key = golden_key(law, bounds)
            expected = self.golden.get(key)
            ok = summary.passed and counts == expected
            why = "refuted" if not summary.passed else f"counts {counts} != golden {expected}"
            res.score([key, "search", counts, summary.passed], ok, why)
        res.wall = time.perf_counter() - start
        return res


# -- seeded -------------------------------------------------------------------

class Seeded(Workload):
    name = "seeded"
    why = "all 22 laws on seeded random instances through generators and the 2-thread trial pool"
    trials = 250
    jobs = 2

    def __init__(self, laws=None, trials=None):
        self.laws = laws if laws is not None else tuple(GOLDEN["seeded_laws"])
        if trials is not None:
            self.trials = trials

    def params(self):
        return {"laws": list(self.laws), "trials": self.trials, "jobs": self.jobs}

    def inputs(self, seed, round_, workdir):
        return _rng("seeded", seed, round_).getrandbits(32)

    def run(self, seed, mark):
        res = PassResult()
        start = time.perf_counter()
        for law in self.laws:
            config = promrep.SearchConfig(law=law, trials=self.trials, seed=seed, parallelism=self.jobs)
            summary = step(res, law, lambda: promrep.search(config))
            res.timings[f"harness.search_s.{law}"] = res.steps[law]
            res.units += summary.checked
            notes = dict(sorted(summary.notes.items()))
            ok = summary.passed and summary.checked == self.trials
            why = "refuted" if not summary.passed else f"checked {summary.checked} != {self.trials}"
            res.score([law, seed, summary.checked, notes, summary.passed], ok, why)
        res.wall = time.perf_counter() - start
        return res


# -- powerset-cap -------------------------------------------------------------

def _mem_rows(k: int):
    return tuple(sum(1 << m for m in range(1 << k) if m >> i & 1) for i in range(k))


def _direct_image_expected(tau):
    """Image of every subset, built from singletons by union preservation."""
    n = len(tau.dst)
    column = [sum(1 << b for b, row in enumerate(tau.rows) if row >> a & 1) for a in range(n)]
    image = [0] * (1 << n)
    for alpha in range(1, 1 << n):
        low = alpha & -alpha
        image[alpha] = image[alpha ^ low] | column[low.bit_length() - 1]
    return tuple(image)


class PowersetCap(Workload):
    name = "powerset-cap"
    why = "constructions on 2^8..2^12 carriers: rel on 256..4096-row relations, functors, adjunction"

    def __init__(self, sizes=range(8, 13)):
        self.sizes = tuple(sizes)

    def params(self):
        return {"sizes": list(self.sizes), "statements": 4, "prom_sources": 4}

    def inputs(self, seed, round_, workdir):
        rng = _rng("powerset-cap", seed, round_)
        out = []
        for k in self.sizes:
            r = make_representation(rng, k, 4)
            p = make_prom(rng, 4, k)
            tau = _rel(rng, r.M, r.M, 0.2)
            down = tuple(
                sum(1 << c for c, row in enumerate(p.y.rel.rows) if row >> b & 1) for b in range(k)
            )
            out.append((k, r, p, tau, _mem_rows(k), down, _direct_image_expected(tau)))
        return out

    def run(self, items, mark):
        res = PassResult()
        P = promrep

        def construct(k, name, work):
            return step(res, f"n{k} {name}", work)

        start = time.perf_counter()
        for k, r, p, tau, mem_rows, down, image in items:
            with mark(f"n{k}"):
                b = construct(k, "powerset", lambda: P.powerset(r.M))
                res.score([k, "powerset"], len(b.carrier) == 1 << k and b.mem.rows == mem_rows)
                ok = construct(k, "rep_to_prom+check_prom", lambda: P.check_prom(P.rep_to_prom(r)).ok)
                res.score([k, "rep_to_prom+check_prom"], ok)
                ok = construct(k, "counit+check_rep_morphism", lambda: P.check_rep_morphism(P.counit(r)).ok)
                res.score([k, "counit+check_rep_morphism"], ok)
                u = construct(k, "unit", lambda: P.unit(p))
                res.score([k, "unit"], u.phi.image == tuple(range(len(p.A))) and u.psi.image == down)
                t = construct(k, "triangle_rep", lambda: P.triangle_rep(p))
                res.score([k, "triangle_rep"], t.equals_expected and t.dominates_identity)
                ok = construct(k, "triangle_prom", lambda: P.triangle_prom(r))
                res.score([k, "triangle_prom"], ok is True)
                back = construct(k, "recover_by_membership", lambda: P.recover_by_membership(r.sat))
                res.score([k, "recover_by_membership"], back.rows == r.sat.rows)
                di = construct(k, "direct_image", lambda: P.direct_image(tau))
                res.score([k, "direct_image"], di.image == image)
                law = construct(k, "mem-residual-subset", lambda: P.check_law("mem-residual-subset", {"A": r.M}))
                res.score([k, "mem-residual-subset"], law is None)
        res.wall = time.perf_counter() - start
        res.units = res.attempted
        return res


# -- workspace-cli ------------------------------------------------------------

APPLY = (("M", "r"), ("counit", "r"), ("unit", "p"))


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class WorkspaceCli(Workload):
    name = "workspace-cli"
    why = "CLI apply (workspace writes) and check (workspace reads) on files for |M| = 8..10"

    def __init__(self, sizes=range(8, 11)):
        self.sizes = tuple(sizes)

    def params(self):
        return {"sizes": list(self.sizes), "apply": [f for f, _ in APPLY], "statements": 4}

    def inputs(self, seed, round_, workdir):
        rng = _rng("workspace-cli", seed, round_)
        workdir.mkdir(parents=True, exist_ok=True)
        files = []
        for k in self.sizes:
            ws = workspace.build({"r": make_representation(rng, k, 4), "p": make_prom(rng, 4, k)})
            path = workdir / f"in{round_}_n{k}.json"
            path.write_text(workspace.dumps(ws))
            files.append((k, path))
        return files

    def run(self, files, mark):
        res = PassResult()
        apply_s = check_s = 0.0
        start = time.perf_counter()
        for k, path in files:
            with mark(f"n{k}"):
                outs = []
                for functor, name in APPLY:
                    out = path.with_name(f"{path.stem}_{functor}.json")

                    def apply():
                        code, text = _cli(["apply", functor, str(path), name])
                        out.write_text(text)
                        return code, text

                    code, text = step(res, f"n{k} apply {functor}", apply)
                    apply_s += res.steps[f"n{k} apply {functor}"]
                    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                    res.score([k, f"apply {functor}", code, digest], code == 0, f"exit {code}")
                    res.outputs[(k, functor)] = text
                    outs.append((out, f"{functor}({name})"))
                for out, name in outs:
                    code, text = step(res, f"n{k} check {name}", lambda: _cli(["check", str(out), name]))
                    check_s += res.steps[f"n{k} check {name}"]
                    last = text.splitlines()[-1] if text else ""
                    ok = code == 0 and last == "result: ok"
                    res.score([k, f"check {name}", code, last], ok, f"exit {code}, {last!r}")
        res.wall = time.perf_counter() - start
        res.units = res.attempted
        res.timings = {"cli.apply.s": apply_s, "cli.check.s": check_s}
        return res

    def verify(self, res):
        """Each apply output must survive loads then dumps byte for byte."""
        for (k, functor), text in res.outputs.items():
            same = workspace.dumps(workspace.loads(text)) == text
            res.score([k, f"round-trip {functor}"], same, "dumps(loads(out)) != out")
        res.outputs.clear()


WORKLOADS = {w.name: w for w in (Exhaustive, Seeded, PowersetCap, WorkspaceCli)}
