#!/usr/bin/env python3
"""Run every law in the catalog and print a one-line result per law.

Exhaustive mode is used wherever a law supports it (at its hard enumeration
limit); the rest run seeded trials.  A law whose search raises is reported
on an ERROR line, with its traceback on stderr, and the sweep goes on.
Exits nonzero if any law is refuted or raised, which would indicate a
kernel bug.
"""

import argparse
import sys
import time
import traceback

from promrep import CATALOG, SearchConfig, search


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.trials < 0:
        parser.error(f"--trials must be nonnegative, got {args.trials}")

    failures = 0
    for law, spec in CATALOG.items():
        if spec.enumerate is not None:
            config = SearchConfig(law=law, mode="exhaustive", bounds=spec.exhaustive_limit)
        else:
            config = SearchConfig(law=law, trials=args.trials, seed=args.seed)
        started = time.monotonic()
        try:
            summary = search(config)
        except Exception as e:
            traceback.print_exc()
            print(f"ERROR  {law} {type(e).__name__}: {e}")
            failures += 1
            continue
        elapsed = time.monotonic() - started
        status = "pass" if summary.passed else "FAIL"
        notes = " ".join(f"{k}={v}" for k, v in sorted(summary.notes.items()))
        print(
            f"{status}  {law:26s} {summary.mode:10s} "
            f"checked={summary.checked:<7d} {elapsed:6.2f}s  {notes}"
        )
        if not summary.passed:
            failures += 1
            print(f"      violation: {summary.witness.violation}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
