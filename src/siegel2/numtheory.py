"""Exact number theory: Bernoulli numbers, divisor sums, primality.

Everything here is computed in exact rational arithmetic (`int` and
`fractions.Fraction`).  Bernoulli numbers follow the B_1 = -1/2
convention.  Cohen's H(r, N), which parameterizes the rank-2 Fourier
coefficients of degree-2 Eisenstein series, is solved for in
`construction`, the only code that needs it.

Factorization is plain trial division: every input in this package is desk
scale (bounded by a small multiple of the trace bound squared).  Primality
of a user-given modulus is deterministic Miller-Rabin (`is_prime`).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

__all__ = [
    "bernoulli",
    "factorize",
    "divisors",
    "divisor_sigma",
    "is_prime",
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
