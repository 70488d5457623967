"""The scripts under scripts/ run end to end against the package."""

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import promrep
from promrep import CATALOG, CarrierMismatch

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    src = str(Path(promrep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env
    )


def test_strictness_demo_shows_all_three_strict_phenomena():
    proc = run_script("strictness_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert sum("(strict)" in line for line in proc.stdout.splitlines()) == 3


def test_verify_all_rejects_negative_trials_before_any_sweep():
    proc = run_script("verify_all.py", "--trials", "-1")
    assert proc.returncode == 2
    assert "error: --trials must be nonnegative, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def load_script(name):
    """Import scripts/<name> as a module, without running its main()."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_reports_a_law_that_raises_and_goes_on(monkeypatch, capsys):
    verify_all = load_script("verify_all.py")

    def no_instance(rng, bounds):
        raise CarrierMismatch("cannot compose B with C")

    monkeypatch.setitem(CATALOG, "lemma2", replace(CATALOG["lemma2"], generate=no_instance))
    monkeypatch.setattr(verify_all, "CATALOG", {law: CATALOG[law] for law in ("lemma2", "unit-natural")})
    monkeypatch.setattr(sys, "argv", ["verify_all.py", "--trials", "5"])
    assert verify_all.main() == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "ERROR  lemma2 CarrierMismatch: cannot compose B with C"
    assert lines[1].startswith("pass  unit-natural ") and len(lines) == 2
    assert err.startswith("Traceback") and err.rstrip().endswith("CarrierMismatch: cannot compose B with C")


def crossover_tables():
    """bitscan_crossover.py's cells at width 65, grouped by their table."""
    proc = run_script("bitscan_crossover.py", "--widths", "65", "--rows", "2", "--matrices", "1", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    tables = {}
    for cell in map(json.loads, proc.stdout.splitlines()):
        tables.setdefault(cell["table"], []).append(cell)
    return tables


def test_bitscan_crossover_reports_both_methods_per_cell():
    cells = crossover_tables()["row_bits"]
    assert [c["popcount"] for c in cells] == [1, 2, 4, 8, 12, 16, 24, 32, 48, 64]
    assert {c["row_bits_picks"] for c in cells} == {"peel", "scan"}
    assert all(c["peel_us"] > 0 and c["scan_us"] > 0 for c in cells)


def test_bitscan_crossover_reports_where_the_lane_transpose_pays():
    tables = crossover_tables()
    cells = tables["transpose"]
    per_row = [1, 2, 4, 8, 12, 16, 24, 32, 48, 64]
    assert [(c["rows"], c["popcount"]) for c in cells] == [(n, n * p) for n in (1, 2, 4, 8, 12, 16) for p in per_row]
    assert {c["transpose_picks"] for c in cells} == {"lanes", "bits"}
    assert all(c["lanes_us"] > 0 and c["bits_us"] > 0 for c in cells)
    assert [even["rows"] for even in tables["transpose-break-even"]] == [1, 2, 4, 8, 12, 16]
    for even in tables["transpose-break-even"]:
        series = [c for c in cells if c["rows"] == even["rows"]]
        assert even["picked_from"] == min(c["popcount"] for c in series if c["transpose_picks"] == "lanes")
        start = even["lanes_faster_from"]
        assert start is None or all(c["faster"] == "lanes" for c in series if c["popcount"] >= start)
