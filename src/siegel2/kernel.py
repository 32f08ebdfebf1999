"""The product kernel of `qexp`, `product_sums`: Kronecker substitution on
the r axis (D. Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 44, 2009), over sums of
signed products.  Each distinct factor is made integral and packed once,
each (m, n) block into one int with a(m, n, r) in the slot r + isqrt(4mn)
of a width that holds every coefficient of every sum.  A block pair costs
one big-int multiply, added with its sign into a target block of its sum,
and each target block is unpacked once with signed borrow.
`Expansion.__mul__` is a sum of one term, and `construction.build_x35`
two sums of many.

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

This module is imported at the first product (`Expansion.__mul__`), or
by `construction`: a command that multiplies nothing does not compile it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt, lcm

from .qexp import _AXIS_SLOT, _canon

__all__ = ["product_sums"]


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
