"""Time the two ways `promrep.rel.row_bits` lists a row's set bits.

For each width and popcount, builds random rows with exactly that many set
bits and reports the best time per row, over several repeats, to drain
`_bits` (peel the lowest bit, O(width) per bit) and `_scan` (one pass over
the binary text, O(width) per row), and what `row_bits` picks for the
cell's first row: "peel", "scan", or "table" for a row below 2^8, whose
bits it reads from a table instead.  The output shows where peel and scan
break even, which is what `row_bits`' rule approximates.  Prints one JSON
object per line.

    PYTHONPATH=src python3 scripts/bitscan_crossover.py [--widths 65 256 4096]
"""

from __future__ import annotations

import argparse
import json
import random
import time
from itertools import compress

from promrep.rel import _bits, _scan, row_bits

POPCOUNTS = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 4096)


def best_us_per_row(scan_bits, rows, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for row in rows:
            for _ in scan_bits(row):
                pass
        best = min(best, time.perf_counter() - start)
    return best / len(rows) * 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--widths", type=int, nargs="+", default=[65, 128, 256, 512, 1024, 4096])
    ap.add_argument("--rows", type=int, default=50, help="random rows per cell")
    ap.add_argument("--repeat", type=int, default=7, help="timed passes per cell; the best counts")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    for width in args.widths:
        for popcount in (p for p in POPCOUNTS if p <= width):
            rows = [sum(1 << j for j in rng.sample(range(width), popcount)) for _ in range(args.rows)]
            peel = best_us_per_row(_bits, rows, args.repeat)
            scan = best_us_per_row(_scan, rows, args.repeat)
            picked = row_bits(rows[0], width)
            picks = "table" if isinstance(picked, tuple) else "scan" if isinstance(picked, compress) else "peel"
            print(json.dumps({
                "width": width,
                "popcount": popcount,
                "peel_us": round(peel, 3),
                "scan_us": round(scan, 3),
                "faster": "scan" if scan < peel else "peel",
                "row_bits_picks": picks,
            }))


if __name__ == "__main__":
    main()
