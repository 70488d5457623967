"""Time the ways `promrep.rel` lists a row's set bits and transposes few rows.

Two tables, one JSON object per line, each line naming its table.

"row_bits": for each width and popcount, builds random rows with exactly
that many set bits and reports the best time per row, over several
repeats, to drain `_bits` (peel the lowest bit, O(width) per bit) and
`compress(count(), _scan(row))` (one pass over the binary text, O(width)
per row), and what `row_bits` picks for the cell's first row: "peel",
"scan", or "table" for a row below 2^8, whose bits it reads from a table
instead.  It shows where peel and scan break even, which is what
`row_bits`' rule approximates.

"transpose": for each row count up to 16, width and popcount per row,
builds random matrices and reports the best time per matrix of
`_lane_transpose` (one C-level pass per row into byte lanes) and
`_bit_transpose` (one OR per set bit), and which of the two `_transpose`
picks.  After each (rows, width) series, a "transpose-break-even" line
gives the smallest total popcount from which the lanes stay faster and
the smallest from which `_transpose` picks them, so the selection rule
can be read against the measurement.

    PYTHONPATH=src python3 scripts/bitscan_crossover.py [--widths 65 256 4096]
"""

from __future__ import annotations

import argparse
import json
import random
import time
from itertools import compress, count

from promrep.rel import _bit_transpose, _bits, _lane_transpose, _lanes_pay, _scan, row_bits

POPCOUNTS = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 4096)
ROW_COUNTS = (1, 2, 4, 8, 12, 16)


def scan_indices(row):
    return compress(count(), _scan(row))


def best_us_per_row(scan_bits, rows, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for row in rows:
            for _ in scan_bits(row):
                pass
        best = min(best, time.perf_counter() - start)
    return best / len(rows) * 1e6


def best_us_per_matrix(transpose, matrices, width, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for rows in matrices:
            transpose(rows, width)
        best = min(best, time.perf_counter() - start)
    return best / len(matrices) * 1e6


def random_row(rng, width, popcount):
    return sum(1 << j for j in rng.sample(range(width), popcount))


def row_bits_cells(rng, width, args):
    for popcount in (p for p in POPCOUNTS if p <= width):
        rows = [random_row(rng, width, popcount) for _ in range(args.rows)]
        peel = best_us_per_row(_bits, rows, args.repeat)
        scan = best_us_per_row(scan_indices, rows, args.repeat)
        picked = row_bits(rows[0], width)
        picks = "table" if isinstance(picked, tuple) else "scan" if isinstance(picked, compress) else "peel"
        yield {
            "table": "row_bits",
            "width": width,
            "popcount": popcount,
            "peel_us": round(peel, 3),
            "scan_us": round(scan, 3),
            "faster": "scan" if scan < peel else "peel",
            "row_bits_picks": picks,
        }


def transpose_cells(rng, width, n, args):
    """The cells of one (rows, width) series, then its break-even line."""
    lanes_from = picks_from = None
    for popcount in (p for p in POPCOUNTS if p <= width):
        matrices = [[random_row(rng, width, popcount) for _ in range(n)] for _ in range(args.matrices)]
        lanes = best_us_per_matrix(_lane_transpose, matrices, width, args.repeat)
        bits = best_us_per_matrix(_bit_transpose, matrices, width, args.repeat)
        picks = "lanes" if _lanes_pay(matrices[0], width) else "bits"
        total = n * popcount
        if lanes >= bits:
            lanes_from = None
        elif lanes_from is None:
            lanes_from = total
        if picks == "lanes" and picks_from is None:
            picks_from = total
        yield {
            "table": "transpose",
            "rows": n,
            "width": width,
            "popcount": total,
            "lanes_us": round(lanes, 3),
            "bits_us": round(bits, 3),
            "faster": "lanes" if lanes < bits else "bits",
            "transpose_picks": picks,
        }
    yield {
        "table": "transpose-break-even",
        "rows": n,
        "width": width,
        "lanes_faster_from": lanes_from,
        "picked_from": picks_from,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--widths", type=int, nargs="+", default=[65, 128, 256, 512, 1024, 4096])
    ap.add_argument("--rows", type=int, default=50, help="random rows per row_bits cell")
    ap.add_argument("--matrices", type=int, default=5, help="random matrices per transpose cell")
    ap.add_argument("--repeat", type=int, default=7, help="timed passes per cell; the best counts")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    for width in args.widths:
        for cell in row_bits_cells(rng, width, args):
            print(json.dumps(cell))
    for width in args.widths:
        for n in ROW_COUNTS:
            for cell in transpose_cells(rng, width, n, args):
                print(json.dumps(cell))


if __name__ == "__main__":
    main()
