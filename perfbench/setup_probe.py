"""Set up one workload in a fresh process and print `ready` when its inputs are.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

run.py times this process from its start to the `ready` line: interpreter
start, the import of promrep, seeded input generation and, for
workspace-cli, writing the input files.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports promrep, which set-up time includes)

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.WORKLOADS[name]().inputs(seed, 0, workdir)
print("ready", flush=True)
