"""Rebuild the generators and certify the mod-23 congruence for X35.

Usage:

    python3 scripts/reproduce_mod23.py [--trace-bound N] [--cache-dir DIR]

Prints a short build summary and then the certificate of `siegel2 verify`
(the reference-coefficient check included).  Exit status: 0 certified,
1 refuted, 2 insufficient bound or a usage error, reported as `error: ...`
on stderr: a trace bound below 5 or above the cap of `siegel2`, or a cache
file whose header contradicts its name.
"""

import argparse
import sys
import time

from siegel2.cli import USAGE_ERRORS, check_trace_bound, verify_certificate
from siegel2.congruence import CERTIFIED, REFUTED
from siegel2.igusa import ensure_generator_set


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-bound", type=int, default=12)
    ap.add_argument("--cache-dir", default=None)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    try:
        check_trace_bound(args.trace_bound)
        gen, cached = ensure_generator_set(args.trace_bound, args.cache_dir)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    built = time.perf_counter() - start

    source = "cache" if cached else "fresh build"
    print(f"# generators at trace bound {gen.trace_bound} ({source}, {built:.2f}s)")
    print(f"# X35 stored terms: {len(gen.x35.coeffs)}")
    print()

    cert = verify_certificate(gen)
    print(cert.to_text(), end="")
    return {CERTIFIED: 0, REFUTED: 1}.get(cert.verdict, 2)


if __name__ == "__main__":
    sys.exit(main())
