"""Exact number-theoretic kernel for Eisenstein coefficient formulas.

Everything here is computed in exact rational arithmetic (`int` and
`fractions.Fraction`): Bernoulli numbers, divisor sums, and the
class-number-type function H(r, N) whose values parameterize the rank-2
Fourier coefficients of degree-2 Eisenstein series.

Conventions:

* Bernoulli numbers follow the B_1 = -1/2 convention.
* H(r, 0) = zeta(1-2r) = -B_{2r}/(2r).  For r >= 2, sum_N H(r, N) q^N
  lies in M_{r+1/2}(Gamma0(4)) (H. Cohen, Math. Ann. 217, 1975), which
  has the basis theta^(2r+1-4j) F^j for 0 <= j <= J = (2r+1)/4, with
  theta = sum_n q^(n^2) and F = sum_{n odd} sigma_1(n) q^n (N. Koblitz,
  GTM 97, ch. IV section 1).
* The series lies in Kohnen's plus space, a(N) = 0 whenever
  (-1)^r N ≡ 2, 3 (mod 4), and it is an eigenform of Kohnen's T(9) with
  eigenvalue 1 + 3^(2r-1) (W. Kohnen, Math. Ann. 248, 1980; Cohen 1975):

      a(9N) + ((-1)^r N / 3) 3^(r-1) a(N) + 3^(2r-1) a(N/9) = (1 + 3^(2r-1)) a(N),

  with a(N/9) = 0 unless 9 | N.  `h_series` finds the J + 1 coordinates
  from H(r, 0), one plus-space row for each N < 2J + 4 outside the plus
  space and one T(9) row for each 0 < N < 2J + 4, by fraction-free
  integer elimination.  The rows outnumber the coordinates, and the
  surplus checks the solve.  Every H(r, N) then comes from the series,
  as total[N] / den over one denominator (`h_series` returns total, den).

Factorization is plain trial division: every input in this package is desk
scale (bounded by a small multiple of the trace bound squared).  Primality
of a user-given modulus is deterministic Miller-Rabin (`is_prime`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd, isqrt, lcm

__all__ = [
    "bernoulli",
    "factorize",
    "divisors",
    "divisor_sigma",
    "is_prime",
    "cohen_h",
    "h_series",
]

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (convention B_1 = -1/2).

    Computed from the defining recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0
    and cached for the life of the process.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for j, bj in enumerate(_BERNOULLI):
            acc += comb(m + 1, j) * bj
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division; n >= 1."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def divisor_sigma(k: int, n: int) -> int:
    """sigma_k(n) = sum of d^k over positive divisors d of n."""
    return sum(d**k for d in divisors(n))


# Miller-Rabin with the first twelve primes as bases decides every n below
# the least strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n past the proved range."""
    if n >= _MR_LIMIT:
        raise ValueError(
            f"cannot decide whether {n} is prime: the test is proved below {_MR_LIMIT}"
        )
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _series_mul(a: list[int], b: list[int]) -> list[int]:
    """a * b to the common length of a and b, for power series with
    non-negative integer coefficients: one big-int product of the packed
    series (Kronecker substitution)."""
    size = (max(a).bit_length() + max(b).bit_length() + len(a).bit_length() + 7) // 8
    x, y = (int.from_bytes(b"".join(v.to_bytes(size, "little") for v in s), "little")
            for s in (a, b))
    out = (x * y).to_bytes(2 * len(a) * size, "little")
    return [int.from_bytes(out[i:i + size], "little") for i in range(0, len(a) * size, size)]


@cache
def _theta_f(a: int, j: int, count: int) -> list[int]:
    """theta^a F^j to q^(count - 1) (module docstring), for a >= 1 or
    (a, j) = (0, 1)."""
    if (a, j) == (1, 0):
        return [2 - (n == 0) if isqrt(n) ** 2 == n else 0 for n in range(count)]
    if (a, j) == (0, 1):
        return [n % 2 and divisor_sigma(1, n) for n in range(count)]
    if j:
        return _series_mul(_theta_f(a, j - 1, count), _theta_f(0, 1, count))
    b = a - 4 if a > 4 else a // 2  # past theta^4, theta^a = theta^(a-4) theta^4
    return _series_mul(_theta_f(b, 0, count), _theta_f(a - b, 0, count))


@cache
def cohen_h(r: int, n: int) -> Fraction:
    """H(r, N) for r >= 2 and N >= 0 (module docstring), memoized per process."""
    if r < 2:
        raise ValueError("H(r, N) needs r >= 2")
    if n < 0:
        raise ValueError("H(r, N) needs N >= 0")
    if n == 0:
        return -bernoulli(2 * r) / (2 * r)
    total, den = h_series(r, n + 1)
    return Fraction(total[n], den)


def _eliminate(row: list[int], pivot: list[int], col: int) -> list[int]:
    """row with its entry in column col cleared by the pivot row, kept integral."""
    if not row[col]:
        return row
    out = [pivot[col] * a - row[col] * b for a, b in zip(row, pivot)]
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def h_series(r: int, count: int) -> tuple[list[int], int]:
    """H(r, 0), ..., H(r, count - 1) for r >= 2 by the solve of the module
    docstring, as integers over one denominator: (total, den) with
    H(r, N) = total[N] / den.  ValueError when its rows leave the J + 1
    coordinates unfixed or contradict each other."""
    top = (2 * r + 1) // 4
    reach = 2 * top + 4  # the rows are set at n < reach and read a(9n)
    basis = [_theta_f(2 * r + 1 - 4 * j, j, max(count, 9 * reach - 8)) for j in range(top + 1)]
    sign, power = (-1) ** r, 3 ** (2 * r - 1)
    h0 = cohen_h(r, 0)
    # row [a_0, ..., a_J, b] says sum_j a_j c_j = b of the coordinates c_j
    rows = [[h0.denominator * b[0] for b in basis] + [h0.numerator]]
    for n in range(1, reach):
        if sign * n % 4 in (2, 3):
            rows.append([b[n] for b in basis] + [0])
        factor = (0, 1, -1)[sign * n % 3] * 3 ** (r - 1) - 1 - power
        rows.append([b[9 * n] + factor * b[n] + (power * b[n // 9] if n % 9 == 0 else 0)
                     for b in basis] + [0])
    solved: list[list[int]] = []
    for col in range(top + 1):  # Gauss-Jordan: solved ends up diagonal
        i = next((i for i, row in enumerate(rows) if row[col]), None)
        if i is None:
            raise ValueError(f"the plus-space and T(9) rows do not fix H({r}, N)")
        pivot = rows.pop(i)
        rows = [_eliminate(row, pivot, col) for row in rows]
        solved = [_eliminate(row, pivot, col) for row in solved] + [pivot]
    if any(row[-1] for row in rows):
        raise ValueError(f"the plus-space and T(9) rows for H({r}, N) contradict each other")
    coeffs = [Fraction(row[-1], row[j]) for j, row in enumerate(solved)]
    den = lcm(*(c.denominator for c in coeffs))
    total = [0] * count
    for c, b in zip(coeffs, basis):
        total = [t + c.numerator * (den // c.denominator) * v for t, v in zip(total, b)]
    return total, den
