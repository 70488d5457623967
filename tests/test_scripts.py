"""The scripts under scripts/ run end to end against the package."""

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
