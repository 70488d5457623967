import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

import layers
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _untraced(workload, inputs):
    res = workload.run(inputs, lambda _name: nullcontext())
    workload.verify(res)
    return res


def _traced(workload, inputs):
    tracer = Tracer(keep=layers.KEEP)
    layers.install(tracer)
    try:
        with tracer.span("pass"):
            res = workload.run(inputs, tracer.span)
    finally:
        tracer.uninstall()
    workload.verify(res)
    return res, tracer


def test_altered_golden_count_is_a_failure():
    plan = [("eq1-galois", (2,)), ("lemma10", (2, 2))]
    golden = dict(workloads.GOLDEN["exhaustive"])
    assert not _untraced(workloads.Exhaustive(plan, golden), plan).failures

    golden["lemma10@2,2"] = dict(golden["lemma10@2,2"], **{"note.exact": 30})
    res = _untraced(workloads.Exhaustive(plan, golden), plan)
    assert len(res.failures) == 1 and res.attempted == 2
    assert len(res.failures) / res.attempted > 0


SMALL = [
    workloads.Exhaustive([("eq1-galois", (1,)), ("lemma9", (1,)), ("lemma5", (1, 1))], golden={}),
    workloads.Seeded(laws=("lemma3", "lemma9", "unit-natural", "counit-natural"), trials=12),
    workloads.PowersetCap(sizes=(3, 4)),
    workloads.WorkspaceCli(sizes=(2, 3)),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_and_untraced_runs_agree(workload, tmp_path):
    untraced = _untraced(workload, workload.inputs(7, 0, tmp_path / "u"))
    traced, tracer = _traced(workload, workload.inputs(7, 0, tmp_path / "t"))
    assert traced.records == untraced.records
    assert traced.units == untraced.units
    if workload.name != "exhaustive":  # the small plan has no golden entries
        assert not untraced.failures
    metrics = layers.layer_metrics(tracer)
    assert metrics["rel.compose.calls"] > 0
    added_by_run = {"cli.apply.s", "cli.check.s", "trace.overhead_ratio", "trace.wall_s",
                    "trace.untraced_wall_s"} | {f"harness.search_s.{law}" for law in layers.SEARCH_LAWS}
    assert {name for name, _u, _b in layers.PER_LAYER} - added_by_run <= set(metrics)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    import run

    assert [m["name"] for m in doc["end_to_end"]] == [name for name, _unit in run.END_TO_END]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seeded", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


AT_LIMIT_ONLY = [
    (law, spec.exhaustive_limit)
    for law, spec in workloads.promrep.CATALOG.items()
    if law in workloads.BELOW_LIMIT
]


@pytest.mark.parametrize("law, bounds", AT_LIMIT_ONLY, ids=lambda v: str(v))
def test_golden_counts_at_the_limit_for_laws_the_pass_runs_below_it(law, bounds):
    plan = [(law, bounds)]
    res = _untraced(workloads.Exhaustive(plan), plan)
    assert res.failures == []


def test_step_time_at_reference_speed_is_the_median_ratio():
    import run

    ref = run.REF_S
    passes = [
        workloads.PassResult(steps={"a": 3.0, "b": 1.0}, refs={"a": 2 * ref, "b": ref}),
        workloads.PassResult(steps={"a": 2.0, "b": 4.0}, refs={"a": ref, "b": 2 * ref}),
        workloads.PassResult(steps={"a": 5.0, "b": 3.0}, refs={"a": ref, "b": ref}),
    ]
    assert run.ref_steps(passes) == pytest.approx({"a": 2.0, "b": 2.0})


def test_fresh_process_passes_are_scored(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exhaustive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-2])["report"]
    result = json.loads(out.stdout.splitlines()[-1])
    plan = workloads.exhaustive_plan()
    assert result["failed"] == 0 and result["attempted"] == len(plan)
    steps = report["samples"]["steps"]
    assert set(steps) == {law for law, _b in plan}
    assert result["metrics"]["wall_ref_s"]["value"] == pytest.approx(
        sum(report["samples"]["steps_at_ref"].values())
    )
