"""Certify the mod-23 congruence for X35: `siegel2 verify` under another name.

Usage:

    python3 scripts/reproduce_mod23.py [--trace-bound N] [--cache-dir DIR]

`reproduce_mod23.py ARGS` runs `siegel2 verify ARGS`: the same certificate
on stdout, the same `error: ...` lines on stderr, the same exit status
(0 certified, 1 refuted, 2 insufficient bound or a usage error) and the
same cache directory (--cache-dir, else $SIEGEL2_CACHE_DIR when set and
not empty, else ./.siegel2-cache).  Run as a script it starts at `cli.entry`, as
`siegel2 verify` does; `main(argv)` is the same command in process.
"""

import sys

from siegel2 import cli


def main(argv=None) -> int:
    return cli.main(["verify", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    cli.entry(["verify", *sys.argv[1:]])
