"""Exact number-theoretic kernel for Eisenstein coefficient formulas.

Everything here is computed in exact rational arithmetic (`int` and
`fractions.Fraction`): Bernoulli numbers, Kronecker symbols, generalized
Bernoulli numbers of real quadratic characters, and the class-number-type
function H(r, N) whose values parameterize the rank-2 Fourier coefficients
of degree-2 Eisenstein series.

Conventions:

* Bernoulli numbers follow the B_1 = -1/2 convention.
* A discriminant D is *fundamental* when D = 1, or D ≡ 1 (mod 4) and
  squarefree, or D = 4m with m ≡ 2, 3 (mod 4) and squarefree.
* chi_D is the Kronecker symbol (D/·); for fundamental D it is the real
  primitive character mod |D|, and L(1-r, chi_D) = -B_{r,chi_D}/r.
* B_{n,chi} = q^(n-1) sum_{a=1}^{q} chi(a) B_n(a/q) with q = |D|.  Expanding
  the Bernoulli polynomial turns this into integer power sums of chi,

      B_{n,chi} = sum_j C(n, j) B_j q^(j-1) S_{n-j},   S_k = sum_{a=1}^{q} chi(a) a^k,

  so the only fractions are the Bernoulli numbers B_j and the factor 1/q.
* H(r, 0) = zeta(1-2r).  For N > 0 write (-1)^r N = D f^2 with D
  fundamental; then

      H(r, N) = L(1-r, chi_D) * sum_{d|f} mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d)

  and H(r, N) = 0 whenever (-1)^r N ≡ 2, 3 (mod 4).  H(1, N) is the
  Hurwitz class number.
* For r >= 2, sum_N H(r, N) q^N lies in M_{r+1/2}(Gamma0(4)) (H. Cohen,
  Math. Ann. 217, 1975), which has the basis theta^(2r+1-4j) F^j for
  0 <= j <= J = (2r+1)/4, with theta = sum_n q^(n^2) and
  F = sum_{n odd} sigma_1(n) q^n (N. Koblitz, GTM 97, ch. IV section 1).
  Basis element j is q^j + O(q^(j+1)), so H(r, 0..J) fix the coordinates
  triangularly.  `h_series` takes them and two check values from
  `cohen_h`, and every other H(r, N) from the series.

Factorization is plain trial division: every input in this package is desk
scale (bounded by a small multiple of the trace bound squared).  Primality
of a user-given modulus is deterministic Miller-Rabin (`is_prime`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, isqrt, lcm

__all__ = [
    "bernoulli",
    "kronecker",
    "is_fundamental_discriminant",
    "QuadCharacter",
    "gen_bernoulli",
    "fundamental_decomposition",
    "factorize",
    "divisors",
    "divisor_sigma",
    "moebius",
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


def kronecker(d: int, m: int) -> int:
    """Kronecker symbol (d/m), totally multiplicative in m.

    Conventions: (d/0) = 1 iff d = ±1 else 0; (d/-1) = -1 iff d < 0;
    (d/2) = 0 for even d, +1 for d ≡ ±1 (mod 8), -1 for d ≡ ±3 (mod 8).
    """
    if m == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and m % 2 == 0:
        return 0
    sign = 1
    if m < 0:
        m = -m
        if d < 0:
            sign = -1
    while m % 2 == 0:
        m //= 2
        if d % 8 in (3, 5):
            sign = -sign
    # Jacobi symbol (d/m) for odd positive m, by reciprocity
    d %= m
    while d:
        while d % 2 == 0:
            d //= 2
            if m % 8 in (3, 5):
                sign = -sign
        d, m = m, d
        if d % 4 == 3 and m % 4 == 3:
            sign = -sign
        d %= m
    return sign if m == 1 else 0


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


def moebius(n: int) -> int:
    """Moebius function mu(n)."""
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


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


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def is_fundamental_discriminant(d: int) -> bool:
    if d == 1:
        return True
    if d == 0:
        return False
    if d % 4 == 1:
        return _is_squarefree(abs(d))
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(abs(m))
    return False


class QuadCharacter:
    """The real character chi_D = (D/·) of a fundamental discriminant D.

    For D = 1 this is the trivial character mod 1 (identically 1), which
    makes B_{n,chi} degenerate to B_n(1), i.e. the plain Bernoulli number
    for n != 1 and +1/2 at n = 1.
    """

    __slots__ = ("discriminant",)

    def __init__(self, discriminant: int):
        if not is_fundamental_discriminant(discriminant):
            raise ValueError(f"{discriminant} is not a fundamental discriminant")
        self.discriminant = discriminant

    @property
    def modulus(self) -> int:
        return abs(self.discriminant)

    def __call__(self, m: int) -> int:
        return kronecker(self.discriminant, m)


def gen_bernoulli(n: int, chi: QuadCharacter) -> Fraction:
    """Generalized Bernoulli number B_{n,chi} for a quadratic character.

    B_{n,chi} = sum_j C(n, j) B_j q^(j-1) S_{n-j} with q = |D| and the
    integer power sums S_k = sum_{a=1}^{q} chi(a) a^k (module docstring).
    """
    if n < 1:
        raise ValueError("generalized Bernoulli index must be >= 1")
    q = chi.modulus
    nonzero = [(c, a) for a in range(1, q + 1) if (c := chi(a))]  # (chi(a), a)
    # q * B_{n,chi} is an integer combination of the B_j: sum it over their
    # common denominator and divide once
    terms = [(bj, comb(n, j) * q**j * sum(c * a ** (n - j) for c, a in nonzero))
             for j in range(n + 1) if (bj := bernoulli(j))]
    den = lcm(*(bj.denominator for bj, _ in terms))
    num = sum(bj.numerator * (den // bj.denominator) * c for bj, c in terms)
    return Fraction(num, den * q)


def fundamental_decomposition(r_parity: int, n: int) -> tuple[int, int]:
    """Write (-1)^r_parity * n = D * f^2 with D a fundamental discriminant.

    Returns (D, f).  Raises ValueError when (-1)^r * n ≡ 2, 3 (mod 4),
    where no such decomposition exists.
    """
    if n < 1:
        raise ValueError("n must be positive")
    signed = -n if r_parity % 2 else n
    if signed % 4 in (2, 3):
        raise ValueError(f"{signed} is 2 or 3 mod 4: no fundamental decomposition")
    f = 1
    for p, e in factorize(n).items():
        f *= p ** (e // 2)
    kernel = signed // (f * f)  # squarefree by construction, sign of `signed`
    if kernel % 4 == 1:
        return kernel, f
    # kernel ≡ 2, 3 (mod 4): fundamental discriminant is 4*kernel, and the
    # mod-4 precondition forces f to be even.
    assert f % 2 == 0
    return 4 * kernel, f // 2


@cache
def cohen_h(r: int, n: int) -> Fraction:
    """H(r, N) for r >= 1 and N >= 0 (module docstring), memoized per process.

    Values are exact reduced fractions, so a cleared and refilled cache
    agrees entry-wise with the old one.
    """
    if r < 1:
        raise ValueError("H(r, N) needs r >= 1")
    if n < 0:
        raise ValueError("H(r, N) needs N >= 0")
    if n == 0:
        return -bernoulli(2 * r) / (2 * r)
    signed = -n if r % 2 else n
    if signed % 4 in (2, 3):
        return Fraction(0)
    disc, f = fundamental_decomposition(r, n)
    chi = QuadCharacter(disc)
    lvalue = -gen_bernoulli(r, chi) / r
    total = 0
    for d in divisors(f):
        mu = moebius(d)
        if mu:
            total += mu * chi(d) * d ** (r - 1) * divisor_sigma(2 * r - 1, f // d)
    return lvalue * total


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


def h_series(r: int, count: int, seed=cohen_h) -> list[Fraction]:
    """[H(r, 0), ..., H(r, count - 1)] for r >= 2 by the identity of the
    module docstring.  The values seed(r, n) for n <= J fix the J + 1
    basis coefficients, J = (2r + 1) // 4, and seed(r, J + 1) and
    seed(r, J + 2) check them: ValueError when either disagrees."""
    top = (2 * r + 1) // 4
    known = [seed(r, n) for n in range(top + 3)]
    basis = [_theta_f(2 * r + 1 - 4 * j, j, max(count, top + 3)) for j in range(top + 1)]
    coeffs: list[Fraction] = []
    for j in range(top + 1):  # basis element j is q^j + O(q^(j+1))
        coeffs.append(known[j] - sum(c * b[j] for c, b in zip(coeffs, basis)))
    den = lcm(*(c.denominator for c in coeffs))
    total = [0] * len(basis[0])
    for c, b in zip(coeffs, basis):
        total = [t + c.numerator * (den // c.denominator) * v for t, v in zip(total, b)]
    out = [Fraction(t, den) for t in total]
    if out[:top + 3] != known:
        raise ValueError(f"H({r}, N) at N = {top + 1}, {top + 2} disagrees with "
                         f"the basis of M_({r}+1/2)(Gamma0(4))")
    return out[:count]
