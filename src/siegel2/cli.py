"""Command-line front end.

Subcommands:

  build    construct the Eisenstein family and the five generators, cache them
  verify   run the mod-23 verification (--prime 5 runs the theta identity instead)
  coeff    print one coefficient of an expression
  minmat   p-minimum matrix of an expression
  theta    dump the theta image of an expression
  sturm    run the finite vanishing criterion on an expression mod p
  dump     dump an expression in the cache text format

Common flags: --trace-bound (default 12), --cache-dir (default from
SIEGEL2_CACHE_DIR or ./.siegel2-cache); `coeff` and `minmat` also take
--format {table,lines}.  `main`
checks the bound and resolves the cache directory once, before any
command runs; `sturm` takes the weight the parser infers.
`scripts/reproduce_mod23.py ARGS` is `main(["verify", *ARGS])`.

`import siegel2.cli` imports `igusa`, `qexp` and `numtheory`; `main`
imports the rest as the command needs it (`_USES`): `expr` for coeff,
dump and theta, `expr` and `congruence` for minmat and sturm,
`congruence` and `reference` for verify, nothing more for build.  Their
names are read as attributes of this module all the same
(`__getattr__`).  `construction` is imported only to build a missing
cache (`ensure_generator_set`) and `kernel` at the first product, so a
command on a complete cache compiles neither unless it multiplies.  `coeff`
evaluates its expression on the box of its index (`eval_expr(..., at=T)`).

Exit status: 0 success/certified, 1 refuted (with witness), 2 usage error
or insufficient trace bound.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from .igusa import (
    CACHE_NAMES, MIN_BUILD_BOUND, ConstructionError, cache_path, ensure_generator_set,
)
from .qexp import Expansion, iter_l2_indices, require_prime, theta_quarter

# the names `cli` takes from each module it imports on demand: `main` binds
# those of its command's modules (`_USES`), `__getattr__` those of any
# other read, `cli.parse` say.  A name bound already, to a caller's
# wrapper say, is kept.
_DEFERRED = {
    "congruence": (
        "CERTIFIED", "INSUFFICIENT", "REFUTED", "Certificate", "CheckRecord",
        "min_matrix", "sturm_bound_even", "sturm_bound_odd", "sturm_even", "sturm_odd",
        "theta_mod5_insufficient", "verify_x35_mod23", "verify_theta_mod5",
        "x35_mod23_insufficient",
    ),
    "expr": ("eval_expr", "literals", "parse"),
    "reference": ("X35_LOW_TRACE", "x35_reference_violations"),
}
# the deferred modules of each command
_USES = {
    "build": (),
    "verify": ("congruence", "reference"),
    "coeff": ("expr",),
    "minmat": ("congruence", "expr"),
    "theta": ("expr",),
    "sturm": ("congruence", "expr"),
    "dump": ("expr",),
}


def _bind(*modules) -> None:
    """Import each deferred module and bind its names where none is bound."""
    for module in modules:
        values = vars(import_module(f".{module}", __package__))
        for name in _DEFERRED[module]:
            globals().setdefault(name, values[name])


def __getattr__(name):
    for module, names in _DEFERRED.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


ENV_CACHE_DIR = "SIEGEL2_CACHE_DIR"
DEFAULT_TRACE_BOUND = 12
# the cost of a cold build grows steeply with N; larger bounds
# are refused before any work starts
MAX_TRACE_BOUND = 40
DEFAULT_PRIME = 23
# what `main` reports as "error: ..." with exit status 2 (parse, grading
# and reduction errors are ValueErrors)
USAGE_ERRORS = (ConstructionError, ValueError, OSError)


def _cache_dir(given):
    """--cache-dir when given, else $SIEGEL2_CACHE_DIR, else ./.siegel2-cache."""
    return os.environ.get(ENV_CACHE_DIR, ".siegel2-cache") if given is None else given


def check_trace_bound(trace_bound: int) -> None:
    if trace_bound > MAX_TRACE_BOUND:
        raise ValueError(f"trace bound {trace_bound} exceeds the maximum {MAX_TRACE_BOUND}")


def _parse(args):
    """The expression's syntax tree, with --prime and the p-integrality of
    its literals checked: usage errors surface before any build starts."""
    node = parse(args.expr)
    if args.prime is not None:
        require_prime(args.prime)
        for value in literals(node):
            Expansion.constant(value, 0, args.prime)  # the evaluation's ReductionError
    return node


def _eval(node, args, at=None):
    gen, _ = ensure_generator_set(args.trace_bound, args.cache_dir)
    return eval_expr(node, gen, args.prime, at=at)


def _print_certificate(cert: Certificate) -> int:
    """Print a certificate; its exit status, 0, 1 or 2 by the verdict."""
    print(cert.to_text(), end="")
    return (CERTIFIED, REFUTED, INSUFFICIENT).index(cert.verdict)


# ----- subcommands -----------------------------------------------------


def _cmd_build(args) -> int:
    gen, cached = ensure_generator_set(args.trace_bound, args.cache_dir)
    # "cache up to date" vouches for all ten files: read and check each
    for name in CACHE_NAMES:
        gen.atom(name)
    print(f"{'cache up to date' if cached else 'built'} (trace bound {args.trace_bound})")
    for name in CACHE_NAMES:
        print(cache_path(args.cache_dir, name, args.trace_bound))
    return 0


def verify_certificate(gen, prime: int) -> Certificate:
    """The certificate `verify` prints for a generator set.

    prime 5 certifies the theta identity.  prime 23 certifies the X35
    congruence and puts the golden-record check first: the built X35 must
    reproduce the published coefficients to trace 9 exactly, which is
    also what catches a tampered cache.
    """
    _bind(*_USES["verify"])  # a caller may come here without `main`
    if prime == 5:
        return verify_theta_mod5(gen)
    cert = verify_x35_mod23(gen)
    if cert.verdict == INSUFFICIENT:
        return cert
    name = "X35 matches the reference coefficients at every index of trace <= 9"
    violations = x35_reference_violations(gen.atom("X35"))
    if not violations:
        checked = sum(1 for _ in iter_l2_indices(9))
        detail = f"indices={checked}, nonzero reference entries={len(X35_LOW_TRACE)}"
        return cert._replace(checks=[CheckRecord(name, True, detail), *cert.checks])
    T, want, got = violations[0]
    record = CheckRecord(name, False, f"at {T}: expected {want}, got {got}")
    return cert._replace(
        checks=[record, *cert.checks], verdict=REFUTED,
        witness=T if cert.witness is None else cert.witness,
    )


def _cmd_verify(args) -> int:
    # an Insufficient certificate depends on the bound alone: no build for it
    # (a bound no build accepts still fails in the build)
    if args.trace_bound >= MIN_BUILD_BOUND:
        insufficient = theta_mod5_insufficient if args.prime == 5 else x35_mod23_insufficient
        cert = insufficient(args.trace_bound)
        if cert is not None:
            return _print_certificate(cert)
    gen, _ = ensure_generator_set(args.trace_bound, args.cache_dir)
    return _print_certificate(verify_certificate(gen, args.prime))


def _cmd_coeff(args) -> int:
    m, n, r = T = args.m, args.n, args.r
    Expansion(None, args.trace_bound, {T: 1})  # the constructor's bound and index checks
    c = _eval(_parse(args), args, at=T)
    if args.format == "lines":
        print(c)
    else:
        mod = "" if args.prime is None else f" mod {args.prime}"
        print(f"a(({m},{n},{r}); {args.expr}){mod} = {c}")
    return 0


def _cmd_minmat(args) -> int:
    F = _eval(_parse(args), args)
    T = min_matrix(F)
    if args.format == "lines":
        print(f"infinity {F.trace_bound}" if T is None else " ".join(map(str, T)))
    else:
        value = (f"infinity (no nonzero residue up to trace {F.trace_bound})"
                 if T is None else T)
        print(f"m_{args.prime}({args.expr}) = {value}")
    return 0


def _cmd_theta(args) -> int:
    node = _parse(args)
    theta_quarter(args.prime)  # p = 2 fails before the build
    print(_eval(node, args).theta().to_text(), end="")
    return 0


def _cmd_sturm(args) -> int:
    node = _parse(args)
    k = node.weight
    criterion, bound = (sturm_odd, sturm_bound_odd) if k % 2 else (sturm_even, sturm_bound_even)
    bound(k, args.prime)  # a weight or prime the criterion refuses fails before the build
    return _print_certificate(criterion(_eval(node, args), k, name=args.expr))


def _cmd_dump(args) -> int:
    print(_eval(_parse(args), args).to_text(), end="")
    return 0


# ----- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegel2",
        description="exact computations in the ring of degree-2 Siegel modular forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-bound", type=int, default=DEFAULT_TRACE_BOUND,
            help="truncation: indices with trace <= N are tracked "
            f"(default {DEFAULT_TRACE_BOUND}, at most {MAX_TRACE_BOUND})",
        )
        p.add_argument(
            "--cache-dir", default=None,
            help=f"expansion cache directory (default ${ENV_CACHE_DIR} or ./.siegel2-cache)",
        )

    def format_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("table", "lines"), default="table",
            help="human table or bare machine lines",
        )

    p = sub.add_parser("build", help="build and cache the generators")
    common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run the congruence verification")
    common(p)
    p.add_argument(
        "--prime", type=int, choices=(23, 5), default=DEFAULT_PRIME,
        help="23: the X35 congruence; 5: the theta(X6) = 4*X12 identity",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("coeff", help="print a(T) of an expression")
    common(p)
    format_option(p)
    p.add_argument("expr")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--prime", type=int, default=None, help="reduce mod this prime first")
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("minmat", help="p-minimum matrix of an expression")
    common(p)
    format_option(p)
    p.add_argument("expr")
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(func=_cmd_minmat)

    p = sub.add_parser("theta", help="dump the theta image of an expression")
    common(p)
    p.add_argument("expr")
    p.add_argument("--prime", type=int, default=None)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("sturm", help="finite vanishing criterion mod p")
    common(p)
    p.add_argument("expr")
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(func=_cmd_sturm)

    p = sub.add_parser("dump", help="dump an expression in the cache text format")
    common(p)
    p.add_argument("expr")
    p.add_argument("--prime", type=int, default=None)
    p.set_defaults(func=_cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _bind(*_USES[args.command])
    try:
        check_trace_bound(args.trace_bound)
        args.cache_dir = _cache_dir(args.cache_dir)
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
