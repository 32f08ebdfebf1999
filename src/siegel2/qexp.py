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
each result to one normaliser, `_canon`; `_embed` turns a rational scalar
into a coefficient of the domain.  The coefficient-wise operations
(`scale`, `derivative`, `theta`) are each one call of `Expansion._map`,
which maps every coefficient, canonicalises it and drops the zeros.

Products use one kernel, `product_sums`: Kronecker substitution on the r
axis (D. Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 44, 2009), over sums of
signed products.  Each distinct factor is made integral and packed once,
each (m, n) block into one int with a(m, n, r) in the slot r + isqrt(4mn)
of a width that holds every coefficient of every sum.  A block pair costs
one big-int multiply, added with its sign into a target block of its sum,
and each target block is unpacked once with signed borrow.
`Expansion.__mul__` is a sum of one term.

A factor is a coefficient dict F or an operand (F, factor, parity): F
times 1, or times the m, n or r of each index for the axis "11", "22" or
"12" of `Expansion.derivative`; an integer multiplier belongs in the
term's sign.  Each distinct F is packed once; an axis operand's block is
F's block times m or n, and the r-weighted blocks come from the same
pass.  The parity e = +1 or -1 promises that F is e-symmetric under the
swap sigma: (m, n, r) -> (n, m, r), that is a(n, m, r) = e * a(m, n, r):
the kernel then packs F's blocks with m <= n and makes block (n, m) as e
times block (m, n), the same slots, the same r.  A sum with that promise
multiplies only the block pairs whose target block has m <= n and
returns only that half, ready to be handed on as an operand of parity e.
No promise is checked.

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
from math import isqrt, lcm
from typing import Iterator

from .numtheory import is_prime

__all__ = [
    "order_key",
    "iter_l2_indices",
    "Expansion",
    "product_sums",
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


def _canon(v, p: int | None):
    """v in the canonical form of its domain: a residue in [0, p) mod p,
    an int in place of an integer-valued Fraction when p is None."""
    if p is None:
        return int(v) if type(v) is Fraction and v.denominator == 1 else v
    return v % p


def _embed(c, p: int | None, index=None):
    """The rational c as a canonical coefficient of the domain of p.

    A denominator divisible by p raises ReductionError at `index`, or a
    ValueError naming the scalar when no index is given.
    """
    if p is None:
        return _canon(c, None)
    num, den = c.numerator, c.denominator
    if den % p == 0:
        if index is None:
            raise ValueError(f"scalar {c} is not {p}-integral")
        raise ReductionError(index, c, p)
    return num % p if den == 1 else num * pow(den, -1, p) % p


def theta_quarter(p: int | None):
    """The 1/4 of det(T) = (4mn - r^2)/4 in the domain of p, for theta."""
    if p == 2:
        raise ValueError("theta needs 4 invertible: p = 2 is not supported")
    return _embed(Fraction(1, 4), p)


def product_sums(sums, bound: int, p: int | None, parities=None,
                 reaches=None) -> list[dict[tuple[int, int, int], object]]:
    """The product kernel (see the module docstring).  Each sum is a list of
    terms (sign, left, right) with an integer sign and factors left and
    right, coefficient dicts or operands (F, 1 or an axis, parity); for each sum,
    the canonical nonzero coefficients of sum(sign * left * right) at every
    index of trace <= bound, or <= the sum's entry of `reaches`, only those
    with m <= n for a sum that `parities` gives a sigma-parity +1 or -1."""
    # block (m, n) is number m * step + n: index addition is one int addition
    step = bound + 1
    radius = [isqrt(4 * (k // step) * (k % step)) for k in range(step * step)]

    def key(x):  # an operand as (id(F), factor, parity)
        return (id(x[0]), *x[1:]) if type(x) is tuple else (id(x), 1, None)

    # each distinct (F, parity) is made integral to trace bound: times the lcm
    # d of its denominators there, with its term count and the bit length of
    # its largest coefficient times d; with a parity it is read on m <= n and
    # counts each term twice.  An axis adds at most the bits of bound - 1.
    forms, operands = {}, {}
    for terms in sums:
        for _, left, right in terms:
            for c, f, e in (x if type(x) is tuple else (x, 1, None) for x in (left, right)):
                if (id(c), e) not in forms:
                    kept = [v for (m, n, _), v in c.items() if m + n <= bound and (e is None or m <= n)]
                    d = lcm(*(v.denominator for v in kept if type(v) is not int))
                    top = int(max(map(abs, kept), default=0) * d)
                    forms[id(c), e] = c, d, len(kept) << (e is not None), top.bit_length()
                _, d, count, bits = forms[id(c), e]
                operands[id(c), f, e] = d, count, bits + (f != 1) * (bound - 1).bit_length()
    # a sum runs over the lcm of its terms' d_left * d_right, so each term
    # carries the multiplier lcm / (d_left * d_right) in its sign; at most
    # |sign| * min(#left, #right) term pairs of a term meet at one index, each
    # below 2^(bits_left + bits_right)
    plans, most = [], 0
    parities, reaches = parities or [None] * len(sums), reaches or [bound] * len(sums)
    for terms, parity, reach in zip(sums, parities, reaches):
        plan = [(sign, key(left), key(right)) for sign, left, right in terms]
        dens = [operands[a][0] * operands[b][0] for _, a, b in plan]
        den = lcm(*dens)
        plan = [(s * (den // d), a, b) for (s, a, b), d in zip(plan, dens)]
        most = max(most, sum(abs(s) * min(operands[a][1], operands[b][1])
                             << (operands[a][2] + operands[b][2]) for s, a, b in plan))
        plans.append((plan, den, parity, reach))
    # a slot holds any such sum, sign included
    width = most.bit_length() + 1
    # one int per (m, n) block, with a(m, n, r) in the width-bit slot
    # r + isqrt(4mn); blocks listed by trace.  Each (F, parity) is packed
    # once, with its r-weighted blocks in the same pass when an operand needs
    # them; forms[id(F), parity] then holds both
    weighted = {(i, e) for i, f, e in operands if f == "12"}
    for (i, e), (c, d, _, _) in forms.items():
        blocks, rblocks, w = {}, {}, (i, e) in weighted
        for (m, n, r), v in c.items():
            if m + n <= bound and (e is None or m <= n):
                v = v if d == 1 else v.numerator * (d // v.denominator)
                v <<= width * (r + radius[m * step + n])
                blocks[m, n] = blocks.get((m, n), 0) + v
                if w:
                    rblocks[m, n] = rblocks.get((m, n), 0) + r * v
        if e:  # block (n, m) is e * block (m, n): the same slots, the same r
            for b in blocks, rblocks:
                b |= {(n, m): e * x for (m, n), x in b.items() if m < n}
        forms[i, e] = sorted((m + n, m, n, x) for (m, n), x in blocks.items()), rblocks
    # an operand's nonzero blocks (trace, number, radius, block, m - n): its
    # form's, or times the m of axis 11, the n of axis 22, the r of axis 12
    packed = {}
    for i, f, e in operands:
        blocks, rblocks = forms[i, e]
        if f == "12":
            blocks = [(t, m, n, rblocks[m, n]) for t, m, n, _ in blocks]
        elif f != 1:
            slot = _AXIS_SLOT[f]
            blocks = [(t, m, n, x * (m, n)[slot]) for t, m, n, x in blocks]
        packed[i, f, e] = [(t, (k := m * step + n), radius[k], x, m - n) for t, m, n, x in blocks if x]

    @cache  # the blocks of operand b that land on m <= n from a left block with n1 - m1 = c
    def lower(b, c):
        return [x for x in packed[b] if x[4] <= c]

    half, mask = 1 << (width - 1), (1 << width) - 1
    out = []
    for plan, den, parity, reach in plans:
        acc: dict[int, int] = {}
        for s, a, b in plan:
            right = packed[b]
            for t1, k1, r1, x1, c1 in packed[a]:
                room, x1 = reach - t1, s * x1
                for t2, k2, r2, x2, _ in right if parity is None else lower(b, -c1):
                    if t2 > room:
                        break
                    k = k1 + k2
                    # the shift is >= 0: isqrt(4mn) is superadditive (Cauchy-Schwarz)
                    acc[k] = acc.get(k, 0) + (x1 * x2 << width * (radius[k] - r1 - r2))
        exact = p is None and den == 1  # int slots are canonical already
        coeffs = {}
        for k, x in acc.items():
            (m, n), r = divmod(k, step), -radius[k]
            while x:  # unpack each slot with signed borrow
                x += half
                if (v := (x & mask) - half) and not exact:
                    v = _canon(v if den == 1 else Fraction(v, den), p)
                if v:
                    coeffs[m, n, r] = v
                x >>= width
                r += 1
        out.append(coeffs)
    return out


_AXIS_SLOT = {"11": 0, "12": 2, "22": 1}  # which of (m, n, r) multiplies


# the text grammar of the module docstring, a line at a time: one match over
# all lines would keep backtracking state for every field
_INT = "(?:-?[1-9][0-9]*|0)"
_HEADER = re.compile(rf"qexp (?:-|({_INT})) ({_INT}) (?:rational|mod ({_INT}))\n")
_LINE = {count: re.compile(" ".join([_INT] * count) + "\n") for count in (4, 5)}


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
                val = _embed(val, modulus, T)
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
        return (
            self.weight == other.weight
            and self.trace_bound == other.trace_bound
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

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
        c = _embed(c, p)
        return self._map(self.weight, lambda T, v: v * c, p)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Expansion):
            return NotImplemented
        self._require_same_domain(other)
        if self.weight is None or other.weight is None:
            w = None
        else:
            w = self.weight + other.weight
        bound = min(self.trace_bound, other.trace_bound)
        p = self.modulus
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
        require_prime(p)
        try:
            out = {T: v for T, c in self.coeffs.items()
                   if (v := c % p if type(c) is int else _embed(c, p, T))}
        except ReductionError:
            T = min((T for T, c in self.coeffs.items() if c.denominator % p == 0), key=order_key)
            raise ReductionError(T, self.coeffs[T], p) from None
        return Expansion._raw(self.weight, self.trace_bound, out, p)

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
        body, line = text[head.end():], _LINE[5 if p is None else 4]
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
