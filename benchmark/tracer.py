"""Run one siegel2 command with spans around the calls into each layer.

Usage: python tracer.py SPANS.json ARGS...   (ARGS as for `siegel2`)

The wrappers are installed at the names where siegel2 looks the functions
up (`siegel2.igusa.cohen_h`, `siegel2.cli.verify_x35_mod23`, methods of
`Expansion`, ...), then `siegel2.cli.main(ARGS)` runs as usual.  Spans
(name, start, end, parent) stay in memory and are written with the counts
when the command ends.  Work done to compute a count runs outside the
span it describes, in a `trace.bookkeeping` span, so it is kept out of
every layer's self time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

import siegel2.cli as cli
import siegel2.congruence as congruence
import siegel2.igusa as igusa
from siegel2.qexp import Expansion

clock = time.perf_counter
spans: list[list] = []  # [name, start, end, parent index or -1]
stack: list[int] = []
counts: Counter = Counter()
h_arguments: set = set()


def traced(name, fn, note=None):
    """fn wrapped in a span; note(result, *args) then runs as bookkeeping."""

    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append([name, clock(), 0.0, parent])
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[index][2] = clock()
        if note is not None:
            start = clock()
            note(result, *args, **kwargs)
            spans.append(["trace.bookkeeping", start, clock(), parent])
        return result

    return wrapper


def _bits(c) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _mul_note(domain):
    def note(product, left, right):
        # term pairs: coefficient multiplications the bucketed convolution makes
        bound = min(left.trace_bound, right.trace_bound)
        by_trace = [0] * (bound + 2)
        for m, n, _ in right.coeffs:
            if m + n <= bound:
                by_trace[m + n + 1] += 1
        for t in range(bound + 1):
            by_trace[t + 1] += by_trace[t]
        counts[f"qexp.mul.{domain}.term_pairs"] += sum(
            by_trace[bound - m - n + 1] for m, n, _ in left.coeffs if m + n <= bound
        )
        if domain == "rational" and product.coeffs:
            top = max(_bits(c) for c in product.coeffs.values())
            counts["qexp.mul.max_bits"] = max(counts["qexp.mul.max_bits"], top)

    return note


def _traced_mul(mul):
    rational = traced("qexp.mul.rational", mul, _mul_note("rational"))
    modp = traced("qexp.mul.modp", mul, _mul_note("modp"))

    def wrapper(self, other):
        if not isinstance(other, Expansion):
            return mul(self, other)  # a scalar: Expansion.scale records it
        return (rational if self.modulus is None else modp)(self, other)

    return wrapper


def _terms(gen) -> int:
    forms = list(gen.eisenstein.values()) + list(gen.generators().values())
    return sum(len(f.coeffs) for f in forms)


def _save_note(paths, gen, cache_dir):
    counts["igusa.save.bytes"] += sum(os.path.getsize(p) for p in paths)
    counts["igusa.terms_stored"] = _terms(gen)


def _load_note(gen, trace_bound, cache_dir):
    if gen is not None:
        counts["igusa.load.bytes"] += sum(
            os.path.getsize(igusa.cache_path(cache_dir, name, trace_bound))
            for name in igusa.CACHE_NAMES
        )
        counts["igusa.terms_stored"] = _terms(gen)


def _counting_indices(iterate):
    def wrapper(trace_bound):
        for index in iterate(trace_bound):
            counts["congruence.scan_indices"] += 1
            yield index

    return wrapper


def install() -> None:
    igusa.cohen_h = traced(
        "numtheory.cohen_h", igusa.cohen_h, lambda value, r, n: h_arguments.add((r, n))
    )
    for name in ("siegel_eisenstein", "eisenstein_family", "build_generator_set",
                 "build_x10_x12", "build_x35"):
        setattr(igusa, name, traced(f"igusa.{name}", getattr(igusa, name)))
    igusa.save_generator_set = traced("igusa.save", igusa.save_generator_set, _save_note)
    igusa.load_generator_set = traced("igusa.load", igusa.load_generator_set, _load_note)

    Expansion.__mul__ = _traced_mul(Expansion.__mul__)
    for name in ("__add__", "scale", "derivative", "reduce_mod", "theta", "to_text"):
        label = name.strip("_")
        setattr(Expansion, name, traced(f"qexp.{label}", getattr(Expansion, name)))
    Expansion.from_text = classmethod(traced(
        "qexp.from_text", Expansion.from_text.__func__,
        lambda result, cls, text: counts.update({"qexp.terms_loaded": len(result.coeffs)}),
    ))

    cli.parse = traced("expr.parse", cli.parse)
    cli.eval_expr = traced("expr.eval", cli.eval_expr)
    for name in ("verify_x35_mod23", "verify_theta_mod5"):
        setattr(cli, name, traced(f"congruence.{name}", getattr(cli, name)))
    for module in (cli, congruence):
        for name in ("sturm_odd", "sturm_even"):
            setattr(module, name, traced("congruence.sturm", getattr(module, name)))
    cli.min_matrix = traced("congruence.min_matrix", cli.min_matrix)
    congruence.iter_l2_indices = _counting_indices(congruence.iter_l2_indices)
    cli.x35_reference_violations = traced("reference.check", cli.x35_reference_violations)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    install()
    status = 2
    try:
        status = traced("cli.main", cli.main)(argv)
    finally:
        counts["numtheory.h_values"] = len(h_arguments)
        with open(out_path, "w") as out:
            json.dump({"spans": spans, "counts": counts}, out)
    return status


if __name__ == "__main__":
    sys.exit(main())
