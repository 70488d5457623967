"""The scripts under scripts/ run end to end against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import promrep

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


def test_bitscan_crossover_reports_both_methods_per_cell():
    proc = run_script("bitscan_crossover.py", "--widths", "65", "--rows", "2", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    cells = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [c["popcount"] for c in cells] == [1, 2, 4, 8, 12, 16, 24, 32, 48, 64]
    assert {c["row_bits_picks"] for c in cells} == {"peel", "scan"}
    assert all(c["peel_us"] > 0 and c["scan_us"] > 0 for c in cells)
