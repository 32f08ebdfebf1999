"""Trace-truncated Fourier expansions of degree-2 Siegel modular forms.

An index triple T = (m, n, r) stands for the half-integral symmetric matrix

    [[ m,  r/2 ],
     [ r/2, n  ]]

The positive semidefinite cone L2 is cut out by m >= 0, n >= 0 and
4mn - r^2 >= 0.  An `Expansion` stores the nonzero coefficients a(T) for
trace(T) = m + n <= N.  Traces are non-negative and add under index
addition, so sums and products of bound-N expansions are again *exact* at
every index of trace <= N: the truncation never corrupts tracked
coefficients.

Indices are plain `(m, n, r)` tuples everywhere: keys, witnesses and bound
matrices.  The code writes m + n and 4mn - r^2 = 4 det(T) inline; a
tuple's `+` concatenates, so the package does no index arithmetic.

Two coefficient domains are supported:

* exact rationals: plain `int` plus `fractions.Fraction` (kept canonical:
  integer-valued fractions are stored as `int`);
* residues mod a prime p: canonical ints in [0, p), with the modulus
  carried on the expansion (`modulus` attribute; `None` means rational).

Every operation computes with plain `+` and `*` in either domain and hands
each result to one normaliser, `_canon`, which also turns a rational
scalar into a coefficient of the domain.  The coefficient-wise operations
(`scale`, `derivative`, `theta`) are each one call of `Expansion._map`,
which maps every coefficient, canonicalises it and drops the zeros.

Products use one kernel, `kernel.product_sums` (sums of signed
products by Kronecker substitution), which `Expansion.__mul__` imports
at the first product, so a command that multiplies nothing never
compiles it; `Expansion.__mul__` is a sum of one term.

The text form has one grammar, written by `to_text` and alone read by
`from_text`: a header `qexp <weight|-> <trace_bound> <rational|mod p>`,
then `m n r numerator denominator` (rational) or `m n r residue` (mod p)
per nonzero coefficient, each field an ASCII integer 0|-?[1-9][0-9]*
one space from the next, each line ended by a line feed.

Indices are ordered lexicographically by (trace, m, r).  `order_key` is
the sort key realizing this total order on index triples (which need not
be positive semidefinite: the order lives on all of Lambda_2), and every
scan, minimum and serialization in the package follows it.

The weight slot is bookkeeping: `None` marks a non-modular intermediate
(raw partial derivatives, theta images).  Adding two expansions with
distinct known weights is refused; `None` absorbs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import isqrt
from typing import Iterator

from .numtheory import is_prime

__all__ = [
    "order_key",
    "iter_l2_indices",
    "Expansion",
    "ReductionError",
    "require_prime",
    "theta_quarter",
]


def order_key(t) -> tuple[int, int, int]:
    """Sort key of the (trace, m, r) lexicographic order on index triples."""
    return (t[0] + t[1], t[0], t[2])


def iter_l2_indices(trace_bound: int) -> Iterator[tuple[int, int, int]]:
    """All of L2 with trace <= trace_bound, ascending in the index order."""
    for t in range(trace_bound + 1):
        for m in range(t + 1):
            n = t - m
            rmax = isqrt(4 * m * n)
            for r in range(-rmax, rmax + 1):
                yield m, n, r


class ReductionError(ValueError):
    """A coefficient is not p-integral; carries the offending index."""

    def __init__(self, index, coefficient, modulus):
        self.index = index
        self.coefficient = coefficient
        self.modulus = modulus
        super().__init__(
            f"coefficient {coefficient} at index {index} is not {modulus}-integral"
        )


def require_prime(p: int) -> None:
    """Refuse a modulus that is not prime: residues need a field."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _canon(v, p: int | None, index=None):
    """v in the canonical form of the domain of p: an int in place of an
    integer-valued Fraction when p is None; mod p, a residue in [0, p),
    a Fraction's by the inverse of its denominator.

    A denominator divisible by p raises ReductionError at `index`, or a
    ValueError naming the scalar when no index is given.
    """
    if type(v) is not Fraction:
        return v if p is None else v % p
    num, den = v.numerator, v.denominator
    if p is None:
        return num if den == 1 else v
    if den % p == 0:
        if index is None:
            raise ValueError(f"scalar {v} is not {p}-integral")
        raise ReductionError(index, v, p)
    return num * pow(den, -1, p) % p


def theta_quarter(p: int | None):
    """The 1/4 of det(T) = (4mn - r^2)/4 in the domain of p, for theta."""
    if p == 2:
        raise ValueError("theta needs 4 invertible: p = 2 is not supported")
    return _canon(Fraction(1, 4), p)


_AXIS_SLOT = {"11": 0, "12": 2, "22": 1}  # which of (m, n, r) multiplies


# the text grammar of the module docstring, a line at a time: one match over
# all lines would keep backtracking state for every field
_INT = "(?:-?[1-9][0-9]*|0)"
_HEADER = re.compile(rf"qexp (?:-|({_INT})) ({_INT}) (?:rational|mod ({_INT}))\n")


@cache  # every cache file is rational: no command reads the 4-field grammar
def _line(fields: int) -> re.Pattern:
    """The coefficient line of `fields` integers: 5 rational, 4 mod p."""
    return re.compile(" ".join([_INT] * fields) + "\n")


class Expansion:
    """A trace-truncated Fourier expansion (see module docstring).

    Attributes:
        weight: modular weight, or None for non-modular intermediates.
        trace_bound: every index with trace <= trace_bound is tracked exactly.
        coeffs: dict mapping an index tuple (m, n, r) -> nonzero scalar
            (canonical form).
        modulus: None for the rational domain, a prime p for residues.
    """

    __slots__ = ("weight", "trace_bound", "coeffs", "modulus")

    def __init__(self, weight, trace_bound: int, coeffs=None, modulus: int | None = None):
        if trace_bound < 0:
            raise ValueError("trace bound must be >= 0")
        if modulus is not None:
            require_prime(modulus)
        canon = {}
        if coeffs:
            for T, val in coeffs.items():
                m, n, r = T
                if m < 0 or n < 0 or 4 * m * n < r * r:
                    raise ValueError(f"index {T} is not positive semidefinite")
                if m + n > trace_bound:
                    raise ValueError(f"index {T} exceeds the trace bound {trace_bound}")
                val = _canon(val, modulus, T)
                if val:
                    canon[T] = val
        self.weight = weight
        self.trace_bound = trace_bound
        self.coeffs = canon
        self.modulus = modulus

    # internal fast path: callers guarantee canonical nonzero values and
    # valid in-bound keys
    @classmethod
    def _raw(cls, weight, trace_bound, coeffs, modulus):
        obj = object.__new__(cls)
        obj.weight = weight
        obj.trace_bound = trace_bound
        obj.coeffs = coeffs
        obj.modulus = modulus
        return obj

    @classmethod
    def constant(cls, value, trace_bound: int, modulus: int | None = None) -> "Expansion":
        return cls(0, trace_bound, {(0, 0, 0): value}, modulus)

    @classmethod
    def one(cls, trace_bound: int, modulus: int | None = None) -> "Expansion":
        return cls.constant(1, trace_bound, modulus)

    # ----- basic protocol -------------------------------------------------

    def __repr__(self) -> str:
        w = "-" if self.weight is None else self.weight
        return f"<Expansion weight={w} bound={self.trace_bound} {self._domain()} terms={len(self.coeffs)}>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expansion):
            return NotImplemented
        return (self.weight, self.trace_bound, self.modulus, self.coeffs) == (
            other.weight, other.trace_bound, other.modulus, other.coeffs)

    __hash__ = None  # mutable-ish container semantics

    def coefficient(self, index):
        """a(T); 0 (int) for any tracked index off the support."""
        return self.coeffs.get(index, 0)

    def support(self) -> list[tuple[int, int, int]]:
        """Indices with nonzero coefficient, ascending in the index order."""
        return sorted(self.coeffs, key=order_key)

    def _domain(self) -> str:
        return "rational" if self.modulus is None else f"mod {self.modulus}"

    def _require_same_domain(self, other: "Expansion") -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"domain mismatch: {self._domain()} vs {other._domain()}")

    @staticmethod
    def _sum_weight(w1, w2):
        if w1 is None or w2 is None:
            return None
        if w1 != w2:
            raise ValueError(f"weight mismatch: {w1} vs {w2}")
        return w1

    # ----- ring operations ------------------------------------------------

    def __add__(self, other: "Expansion") -> "Expansion":
        return self._add(other, 1)

    def __neg__(self) -> "Expansion":
        return self.scale(-1)

    def __sub__(self, other: "Expansion") -> "Expansion":
        return self._add(other, -1)

    def _add(self, other, sign: int):
        """self + sign * other in one pass, for sign = 1 or -1."""
        if not isinstance(other, Expansion):
            return NotImplemented
        self._require_same_domain(other)
        w = self._sum_weight(self.weight, other.weight)
        bound = min(self.trace_bound, other.trace_bound)
        p = self.modulus
        out = {T: c for T, c in self.coeffs.items() if T[0] + T[1] <= bound}
        for T, c in other.coeffs.items():
            if T[0] + T[1] <= bound:
                if v := _canon(out.get(T, 0) + sign * c, p):
                    out[T] = v
                else:
                    out.pop(T, None)
        return Expansion._raw(w, bound, out, p)

    def _map(self, weight, value, p) -> "Expansion":
        """The expansion of `weight` with a(T) -> value(T, a(T)), canonical
        in the domain of p, zeros dropped."""
        out = {T: v for T, c in self.coeffs.items() if (v := _canon(value(T, c), p))}
        return Expansion._raw(weight, self.trace_bound, out, p)

    def scale(self, c) -> "Expansion":
        """Scalar multiple; preserves the weight."""
        p = self.modulus
        c = _canon(c, p)
        return self._map(self.weight, lambda T, v: v * c, p)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Expansion):
            return NotImplemented
        self._require_same_domain(other)
        w = None if self.weight is None or other.weight is None else self.weight + other.weight
        bound = min(self.trace_bound, other.trace_bound)
        p = self.modulus
        from .kernel import product_sums  # compiled at the first product only

        coeffs = product_sums([[(1, self.coeffs, other.coeffs)]], bound, p)[0]
        return Expansion._raw(w, bound, coeffs, p)

    __rmul__ = __mul__  # reached only with a scalar on the left

    def __pow__(self, e: int) -> "Expansion":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        if not e:
            return Expansion.one(self.trace_bound, self.modulus)
        result = self  # left to right: square, then multiply where a bit is set
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # ----- differential operators ------------------------------------------

    def derivative(self, axis: str) -> "Expansion":
        """(2 pi i)^(-1)-normalized partial in the variable of `axis`.

        axis "11" multiplies a(T) by m, "12" by r, "22" by n.  The result
        is a non-modular intermediate: its weight is None.
        """
        slot = _AXIS_SLOT.get(axis)
        if slot is None:
            raise ValueError(f"axis must be one of 11, 12, 22; got {axis!r}")
        return self._map(None, lambda T, c: c * T[slot], self.modulus)

    def theta(self) -> "Expansion":
        """a(T) -> det(T) a(T) with det(T) = (4mn - r^2)/4.

        Annihilates every index of rank <= 1.  In the mod-p domain the
        quarter means dividing by 4, so p = 2 is rejected.
        """
        p = self.modulus
        quarter = theta_quarter(p)
        return self._map(None, lambda T, c: (4 * T[0] * T[1] - T[2] * T[2]) * quarter * c, p)

    def phi(self) -> list:
        """Siegel restriction to genus 1: the coefficient list [a((j,0,0))]_j=0..N."""
        return [self.coeffs.get((j, 0, 0), 0) for j in range(self.trace_bound + 1)]

    # ----- domain changes ---------------------------------------------------

    def reduce_mod(self, p: int) -> "Expansion":
        """Reduce an exact rational expansion mod the prime p.

        Denominators must be prime to p; the first offender (in the index
        order) is reported in the raised ReductionError.
        """
        if self.modulus is not None:
            raise ValueError("expansion is already reduced")
        self.require_p_integral(p)
        out = {T: v for T, c in self.coeffs.items()
               if (v := c % p if type(c) is int else _canon(c, p))}
        return Expansion._raw(self.weight, self.trace_bound, out, p)

    def require_p_integral(self, p: int) -> None:
        """Raise the ReductionError of `reduce_mod(p)` when a denominator
        is divisible by p: at the least such index in the index order."""
        require_prime(p)
        T = min((T for T, c in self.coeffs.items() if type(c) is not int and not c.denominator % p),
                key=order_key, default=None)
        if T is not None:
            raise ReductionError(T, self.coeffs[T], p) from None

    # ----- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """The text form of the module docstring, lines in the index order."""
        w = "-" if self.weight is None else self.weight
        lines = [f"qexp {w} {self.trace_bound} {self._domain()}"]
        rational = self.modulus is None
        for T in self.support():
            c = self.coeffs[T]
            value = f"{c.numerator} {c.denominator}" if rational else c
            lines.append(f"{T[0]} {T[1]} {T[2]} {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Expansion":
        """Parse `to_text` output and nothing else: the text must match the
        grammar of the module docstring (ASCII integers 0|-?[1-9][0-9]*, one
        space apart, every line ended by a line feed) before a field is read.
        The constructor checks the header's bound and modulus; each line's
        index (psd, in the bound, new) and denominator are checked inline."""
        head = _HEADER.match(text)
        if head is None:
            first = text.partition("\n")[0]
            raise ValueError(f"bad expansion header: {first!r}" if text.strip() else "empty expansion text")
        weight, bound, p = (g and int(g) for g in head.groups())  # None: "-", rational
        out = cls(weight, bound, None, p)  # the constructor's bound and modulus checks
        body, line = text[head.end():], _line(5 if p is None else 4)
        if line.sub("", body):  # the body is not all lines of the grammar
            *lines, last = body.split("\n")  # last is "" after a final line feed
            bad = next((ln for ln in lines if not line.fullmatch(ln + "\n")), last)
            raise ValueError(f"bad coefficient line: {bad!r}")
        fields = map(int, body.split())
        coeffs = {}
        zeros = False
        for m, n, r, v, den in zip(*[fields] * 5) if p is None else zip(*[fields] * 4, repeat(1)):
            if den != 1:
                if not den:  # the grammar makes the line the text of its row
                    raise ValueError(f"bad coefficient line: '{m} {n} {r} {v} {den}'")
                v = _canon(Fraction(v, den), None)
            elif p is not None:
                v %= p
            T = m, n, r
            if T in coeffs:
                raise ValueError(f"duplicate index {T}")
            if m < 0 or n < 0 or 4 * m * n < r * r:
                raise ValueError(f"index {T} is not positive semidefinite")
            if m + n > bound:
                raise ValueError(f"index {T} exceeds the trace bound {bound}")
            # a zero stays until the end, so a later line at its index is a duplicate
            zeros = zeros or not v
            coeffs[T] = v
        out.coeffs = {T: v for T, v in coeffs.items() if v} if zeros else coeffs
        return out
