"""Print the p-minimum matrix of each generator for p in {5, 7, 11, 13, 23}.

Usage:

    python3 scripts/minmat_table.py [--trace-bound N] [--cache-dir DIR]

The cache directory defaults to the one of `siegel2`: $SIEGEL2_CACHE_DIR
when set and not empty, else ./.siegel2-cache.  Each generator's minimum is checked against the
expected table.  Exit status: 0 all match, 1 any mismatch, 2 a usage
error, reported as `error: ...` on stderr: a trace bound below 5 or above
the cap of `siegel2`, or a cache file whose header contradicts its name.
"""

import argparse
import sys

from siegel2.cli import USAGE_ERRORS, _cache_dir, check_trace_bound
from siegel2.congruence import min_matrix
from siegel2.igusa import ensure_generator_set
from siegel2.reference import MIN_MATRIX_REFERENCE

PRIMES = (5, 7, 11, 13, 23)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-bound", type=int, default=6)
    ap.add_argument("--cache-dir", default=None)
    args = ap.parse_args(argv)

    header = ["form"] + [f"p={p}" for p in PRIMES] + ["expected"]
    rows = [header]
    failures = 0
    try:
        check_trace_bound(args.trace_bound)
        gen, _ = ensure_generator_set(args.trace_bound, _cache_dir(args.cache_dir))
        # a cached form's file is read and checked on its first use, here
        for name, want in MIN_MATRIX_REFERENCE.items():
            row = [name]
            for p in PRIMES:
                got = min_matrix(gen.atom(name).reduce_mod(p))
                row.append(str(got))
                if got != want:
                    failures += 1
            row.append(str(want))
            rows.append(row)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    if failures:
        print(f"\n{failures} mismatches", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
