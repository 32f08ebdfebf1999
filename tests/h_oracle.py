"""Cohen's H(r, N) from L-values: the test oracle for `siegel2.numtheory`.

The package gets H(r, N) from a linear solve in M_(r+1/2)(Gamma0(4));
this module computes it the classical way, sharing only Bernoulli numbers
and factorization with the package (H. Cohen, Math. Ann. 217, 1975):

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
"""

from fractions import Fraction
from functools import cache
from math import comb, lcm

from siegel2.numtheory import bernoulli, divisor_sigma, divisors, factorize


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


def moebius(n: int) -> int:
    """Moebius function mu(n)."""
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


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
def h_lvalue(r: int, n: int) -> Fraction:
    """H(r, N) for r >= 1 and N >= 0 (module docstring), memoized per process."""
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
