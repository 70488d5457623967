#!/usr/bin/env python3
"""Run a promrep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all workloads

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs the untraced workload in a fresh child process, then one traced pass
over the same inputs here, and reports the per-layer metrics.  The last
stdout line is the result object; the line before it is a report with
provenance, every sample behind each figure, the stored spans and the
verdict records.  The exit code is 1 if any unit failed.  See README.md.

    python3 perfbench/run.py --workload NAME --seed N --pass I

runs round I of a workload once, in this process, and prints the pass as
one JSON line; run.py uses it for workloads that need a fresh process for
every pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-process set-ups timed per run, one before each pass and the rest
#: after the last; setup_s is their median.
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

#: Seconds the reference loop (workloads.reference_loop) takes at the
#: reference speed, a fixed scale close to its fastest time on a 2-core Intel
#: Xeon with Python 3.11.7.
REF_S = 0.0125

END_TO_END = (
    ("wall_ref_s", "s"),
    ("setup_s", "s"),
    ("instances_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import promrep from this checkout's src/, never from anywhere else."""
    if not (SRC / "promrep" / "__init__.py").is_file():
        raise SystemExit(f"error: no promrep sources at {SRC / 'promrep'}")
    sys.path.insert(0, str(SRC))
    import promrep

    if Path(promrep.__file__).resolve().parent != SRC / "promrep":
        raise SystemExit(f"error: promrep was imported from {promrep.__file__}, not {SRC}")


def provenance(workload, seed: int, seconds: float) -> dict:
    commit = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        head = (git / "HEAD").read_text().strip()
        commit = head
        if head.startswith("ref: "):
            ref = head[5:]
            commit = None
            if (git / ref).is_file():
                commit = (git / ref).read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
    digest = hashlib.sha256()
    for path in sorted((SRC / "promrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "params": workload.params(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
    }


def setup_sample(name: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh process to its inputs being ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed with exit {child.returncode}")
    return ready


def _result(failed: int, attempted: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def one_pass(workload, seed: int, round_: int, workdir: Path):
    """Run and verify pass `round_` here; return it with this process's peak RSS."""
    res = workload.run(workload.inputs(seed, round_, workdir), lambda _name: nullcontext())
    workload.verify(res)
    return res, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fresh_pass(workload, seed: int, round_: int):
    """Run round `round_` in a fresh process of its own."""
    from workloads import PassResult

    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(seed), "--pass", str(round_)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"pass {round_} exited {child.returncode}: {child.stderr[-2000:]}")
    doc = json.loads(lines[-1])
    rss = doc.pop("peak_rss_mb")
    return PassResult(**doc), rss


def ref_steps(passes) -> dict:
    """Each step's time at the reference speed, the median over the passes.

    A pass times every step right after a run of the reference loop.  Its
    time at the reference speed is step time / loop time * REF_S, which
    cancels how much the machine was slowed by others at that moment.
    """
    return {
        step: statistics.median(p.steps[step] / p.refs[step] * REF_S for p in passes)
        for step in passes[0].steps
    }


def run_untraced(workload, seed: int, seconds: float, workdir: Path):
    setup, passes, rss = [], [], []
    started = time.perf_counter()
    while True:
        if len(setup) < SETUP_REPEATS:
            setup.append(setup_sample(workload.name, seed, workdir / f"setup{len(setup)}"))
        t0 = time.perf_counter()
        if workload.fresh_process:
            res, peak = fresh_pass(workload, seed, len(passes))
        else:
            res, peak = one_pass(workload, seed, len(passes), workdir / "run")
        passes.append(res)
        rss.append(peak)
        now = time.perf_counter()
        if now - started + (now - t0) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(workload.name, seed, workdir / f"setup{len(setup)}"))
    at_ref = ref_steps(passes)
    wall = sum(at_ref.values())
    units = statistics.median(p.units for p in passes)
    metrics = {
        "wall_ref_s": wall,
        "setup_s": statistics.median(setup),
        "instances_per_ref_s": units / wall,
        "peak_rss_mb": max(rss),
    }
    timing_keys = sorted({k for p in passes for k in p.timings})
    report = {
        "samples": {
            "setup_s": setup,
            "wall_s": [p.wall for p in passes],
            "units": [p.units for p in passes],
            "peak_rss_mb": rss,
            "steps": {step: [p.steps[step] for p in passes] for step in at_ref},
            "refs": {step: [p.refs[step] for p in passes] for step in at_ref},
            "steps_at_ref": at_ref,
        },
        "timings": {k: [p.timings.get(k, 0.0) for p in passes] for k in timing_keys},
        "records": [p.records for p in passes],
        "failures": [f for p in passes for f in p.failures],
    }
    failed = sum(len(p.failures) for p in passes)
    attempted = sum(p.attempted for p in passes)
    return _result(failed, attempted, metrics, dict(END_TO_END)), report


def run_traced(workload, seed: int, seconds: float, workdir: Path):
    import layers
    from tracer import Tracer, self_times

    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = child.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"untraced child exited {child.returncode}: {child.stderr[-2000:]}")
    untraced = json.loads(lines[-2])["report"]
    untraced_result = json.loads(lines[-1])

    inputs = workload.inputs(seed, 0, workdir / "run")
    tracer = Tracer(keep=layers.KEEP)
    layers.install(tracer)
    try:
        with tracer.span("pass"):
            res = workload.run(inputs, tracer.span)
    finally:
        tracer.uninstall()
    workload.verify(res)

    # the traced pass must reproduce the untraced pass over the same inputs
    records = json.loads(json.dumps(res.records))
    agree = records == untraced["records"][0]
    failures = untraced["failures"] + res.failures
    if not agree:
        failures.append("traced verdicts or counts differ from the untraced run")

    metrics = layers.layer_metrics(tracer)
    timings = untraced["timings"]
    for name, _unit, _ in layers.PER_LAYER:
        if name.startswith("harness.search_s.") or name in ("cli.apply.s", "cli.check.s"):
            metrics[name] = statistics.median(timings.get(name, [0.0]))
    # both at the reference speed, so that machine drift between them cancels
    traced_wall = sum(res.steps[step] / res.refs[step] * REF_S for step in res.steps)
    untraced_wall = sum(untraced["samples"]["steps_at_ref"].values())
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics = {name: metrics[name] for name, _u, _b in layers.PER_LAYER}

    origin = tracer.spans[0][3] if tracer.spans else 0.0
    own = self_times(tracer.spans)
    spans = [
        {"id": sid, "parent": parent, "name": name, "start": start - origin,
         "end": end - origin, "self": own[sid]}
        for sid, parent, name, start, end in tracer.spans
    ]
    report = {
        "untraced": {k: untraced[k] for k in ("samples", "timings")},
        "untraced_result": untraced_result,
        "records": records,
        "failures": failures,
        "spans": spans,
    }
    failed = untraced_result["failed"] + len(res.failures) + (0 if agree else 1)
    attempted = untraced_result["attempted"] + res.attempted + 1
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return _result(failed, attempted, metrics, units), report


def run_one(args) -> int:
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if args.pass_round is not None:
        try:
            res, rss = one_pass(workload, args.seed, args.pass_round, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        fields = ("wall", "steps", "refs", "units", "records", "failures", "timings")
        print(json.dumps({**{f: getattr(res, f) for f in fields}, "peak_rss_mb": rss}))
        return 0
    try:
        runner = run_traced if args.trace else run_untraced
        result, report = runner(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["provenance"] = provenance(workload, args.seed, args.seconds)
    report["failure_ratio"] = result["failed"] / result["attempted"]
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            status = 1
        if not lines:
            sys.stderr.write(child.stderr)
            rows.append((name, "error", f"exit {child.returncode}", ""))
            continue
        result = json.loads(lines[-1])
        rows.append((name, "failure_ratio", f"{result['failed'] / result['attempted']:.6g}",
                     f"({result['failed']}/{result['attempted']})"))
        for metric, value in result["metrics"].items():
            rows.append((name, metric, f"{value['value']:.6g}", value["unit"]))
    for row in rows:
        print(f"{row[0]:14s} {row[1]:44s} {row[2]:>14s} {row[3]}")
    return status


def main(argv=None) -> int:
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("exhaustive", "seeded", "powerset-cap", "workspace-cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_round", type=int, help="run one pass of round I")
    args = parser.parse_args(argv)
    if args.workload is None:
        import_program()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
