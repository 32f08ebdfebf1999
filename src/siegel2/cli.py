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
SIEGEL2_CACHE_DIR when set and not empty, else ./.siegel2-cache; an empty
--cache-dir is refused); `coeff` and `minmat` also take --format
{table,lines}.  `main` checks the bound (`check_trace_bound`: 5 to 40)
and resolves the cache directory once, before any command reads a cache;
`sturm` takes the weight the parser infers.

The grammar is one table, `GRAMMAR`.  `main` reads a well-formed argv
from it directly (`_read`); only an argv `_read` refuses (--help, an
abbreviated flag, --flag=value, '--', any usage error) goes to the
argparse parser `build_parser` makes from the same table, so help and
usage errors are argparse's, and a well-formed command never imports
argparse.

A process starts at `entry` (the console script, `python -m siegel2.cli`,
and `scripts/reproduce_mod23.py ARGS` as `entry(["verify", *ARGS])`),
which calls `gc.freeze()` and then `main`, so the collector's passes at
exit skip what start-up and the imports made; `main` does not freeze.
A closed stdout ends the process with status 141 (128 + SIGPIPE).

`import siegel2.cli` imports `igusa`, `qexp` and `numtheory`.  The rest
is imported lazily, by one rule: a command imports the modules `_USES`
names for it, and `cli` binds the names of their `__all__` (a read of any
other public name binds them all, `__getattr__`); a cache miss imports
`construction` and `igusa` binds its `__all__` the same way.  `kernel` is
imported at the first product.  `coeff` evaluates its expression on the
box of its index (`eval_expr(..., at=T)`).

Exit status: 0 success/certified, 1 refuted (with witness), 2 usage error
or insufficient trace bound.
"""

from __future__ import annotations

import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .igusa import (
    CACHE_NAMES, ConstructionError, cache_path, ensure_generator_set, require_build_bound,
)
from .qexp import Expansion, iter_l2_indices, require_prime, theta_quarter

# the modules each command imports; `main` binds the names of their
# `__all__` here, `__getattr__` those of all of them on any other read
# (`cli.parse`, say).  A name bound already, to a caller's wrapper say, is kept.
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
    """Import each module and bind the names of its `__all__` where none is bound."""
    for name in modules:
        module = import_module(f".{name}", __package__)
        for attr in module.__all__:
            globals().setdefault(attr, getattr(module, attr))


def __getattr__(name):
    if not name.startswith("_"):  # the import system probes `__path__` and the like
        _bind(*sorted({module for uses in _USES.values() for module in uses}))
        if name in globals():
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
    """--cache-dir when given, else $SIEGEL2_CACHE_DIR when set and not
    empty, else ./.siegel2-cache.  An empty --cache-dir is refused: it
    would put the cache files in the working directory."""
    if given is None:
        return os.environ.get(ENV_CACHE_DIR) or ".siegel2-cache"
    if not given:
        raise ValueError("--cache-dir is empty")
    return given


def check_trace_bound(trace_bound: int) -> None:
    """Refuse a bound below the build floor or above the cap, before any
    cache is read."""
    require_build_bound(trace_bound)
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


# ----- grammar ------------------------------------------------------------

# an option: (flag, type, default, choices, required, help); its attribute
# is the flag without the dashes, '-' read as '_', as argparse names it
_COMMON = (
    ("--trace-bound", int, DEFAULT_TRACE_BOUND, None, False,
     "truncation: indices with trace <= N are tracked "
     f"(default {DEFAULT_TRACE_BOUND}, at most {MAX_TRACE_BOUND})"),
    ("--cache-dir", str, None, None, False,
     f"expansion cache directory (default ${ENV_CACHE_DIR} or ./.siegel2-cache)"),
)
_FORMAT = ("--format", str, "table", ("table", "lines"), False, "human table or bare machine lines")
_EXPR = (("expr", str),)

# a command: (help, handler, positionals as (name, type), options)
GRAMMAR = {
    "build": ("build and cache the generators", _cmd_build, (), _COMMON),
    "verify": ("run the congruence verification", _cmd_verify, (), (
        *_COMMON,
        ("--prime", int, DEFAULT_PRIME, (23, 5), False,
         "23: the X35 congruence; 5: the theta(X6) = 4*X12 identity"),
    )),
    "coeff": ("print a(T) of an expression", _cmd_coeff, (*_EXPR, ("m", int), ("n", int), ("r", int)), (
        *_COMMON, _FORMAT, ("--prime", int, None, None, False, "reduce mod this prime first"),
    )),
    "minmat": ("p-minimum matrix of an expression", _cmd_minmat, _EXPR, (
        *_COMMON, _FORMAT, ("--prime", int, None, None, True, None),
    )),
    "theta": ("dump the theta image of an expression", _cmd_theta, _EXPR, (
        *_COMMON, ("--prime", int, None, None, False, None),
    )),
    "sturm": ("finite vanishing criterion mod p", _cmd_sturm, _EXPR, (
        *_COMMON, ("--prime", int, None, None, True, None),
    )),
    "dump": ("dump an expression in the cache text format", _cmd_dump, _EXPR, (
        *_COMMON, ("--prime", int, None, None, False, None),
    )),
}


def build_parser():
    """argparse's parser for `GRAMMAR`: what prints help and usage errors."""
    import argparse

    class Parser(argparse.ArgumentParser):  # the subparsers' class too
        def _print_message(self, message, file=None):
            # argparse's drops the BrokenPipeError of a closed stdout, which `entry` must see
            (file or sys.stdout).write(message)

    parser = Parser(
        prog="siegel2",
        description="exact computations in the ring of degree-2 Siegel modular forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, positionals, options) in GRAMMAR.items():
        p = sub.add_parser(command, help=text)
        for flag, kind, default, choices, required, help_ in options:
            p.add_argument(flag, type=kind, default=default, choices=choices,
                           required=required, help=help_)
        for name, kind in positionals:
            p.add_argument(name, type=kind)
        p.set_defaults(func=handler)
    return parser


def _dashed(token: str) -> bool:
    """A token `_read` takes for an option string: '-' first, unless the
    rest is decimal digits, a negative number to argparse.  The other
    negative numbers argparse knows (-.5, -1.5) read as dashed: refused."""
    return token.startswith("-") and not token[1:].isdecimal()


def _read(argv):
    """The attributes `build_parser().parse_args(argv)` sets, read from
    `GRAMMAR` without argparse; None where argparse may answer otherwise.

    That is a dashed token other than an exact flag of the command (-h,
    an abbreviation, --flag=value, '--'), a missing or dashed value, a
    failed conversion, a value outside the choices, a missing required
    option and a wrong count of positionals.  A repeated option keeps its
    last value, as with argparse.
    """
    if not argv or argv[0] not in GRAMMAR:
        return None
    _, handler, positionals, options = GRAMMAR[argv[0]]
    attrs, flags, missing = {}, {}, set()
    for flag, kind, default, choices, required, _ in options:
        dest = flag[2:].replace("-", "_")
        attrs[dest] = default
        flags[flag] = dest, kind, choices
        if required:
            missing.add(flag)
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not _dashed(token):
            words.append(token)
            continue
        value = next(tokens, "-")  # no value left reads as dashed
        if token not in flags or _dashed(value):
            return None
        dest, kind, choices = flags[token]
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        attrs[dest] = value
        missing.discard(token)
    if missing or len(words) != len(positionals):
        return None
    for (name, kind), word in zip(positionals, words):
        try:
            attrs[name] = kind(word)
        except ValueError:
            return None
    return {"command": argv[0], **attrs, "func": handler}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    attrs = _read(argv)
    args = build_parser().parse_args(argv) if attrs is None else SimpleNamespace(**attrs)
    _bind(*_USES[args.command])
    try:
        check_trace_bound(args.trace_bound)
        args.cache_dir = _cache_dir(args.cache_dir)
        return args.func(args)
    except BrokenPipeError:
        raise  # a closed stdout is no usage error: `entry` ends the process
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry(argv=None) -> None:
    """Run `main` as a whole process and exit with its status.  Every
    object tracked so far, mostly the imported modules' functions and
    tables, is frozen first, so no later collection walks it, the passes
    at interpreter exit included."""
    gc.freeze()
    try:
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            status = exc.code
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except BrokenPipeError:
        # as the Python docs advise for SIGPIPE: what is left in the buffer
        # goes to devnull, so the flush at exit raises nothing; the status
        # is 128 + SIGPIPE, as for a process the signal ended
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    raise SystemExit(status)


if __name__ == "__main__":
    entry()
