"""Oracle-first tests for the exact number-theoretic kernel."""

from fractions import Fraction
from functools import cache
from math import comb, gcd, isqrt, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from siegel2 import construction
from siegel2.construction import cohen_h, h_series
from siegel2.igusa import ConstructionError, siegel_eisenstein
from siegel2.numtheory import (
    bernoulli,
    divisor_sigma,
    divisors,
    factorize,
    is_prime,
)

from h_oracle import (
    QuadCharacter,
    fundamental_decomposition,
    gen_bernoulli,
    h_lvalue,
    is_fundamental_discriminant,
    kronecker,
    moebius,
)

# ----- independent oracles ------------------------------------------------


def bernoulli_oracle(n):
    """B_n via Stirling numbers: B_n = sum_k (-1)^k k!/(k+1) S(n,k)."""
    stirling = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    stirling[0][0] = Fraction(1)
    for i in range(1, n + 1):
        for k in range(1, i + 1):
            stirling[i][k] = k * stirling[i - 1][k] + stirling[i - 1][k - 1]
    total = Fraction(0)
    fact = 1
    for k in range(n + 1):
        if k:
            fact *= k
        total += Fraction((-1) ** k * fact, k + 1) * stirling[n][k]
    return total


@cache
def _bernoulli_poly_integral(n):
    """(L, [L C(n, j) B_j for j = 0..n]) with L the least common denominator."""
    den = lcm(*(bernoulli(j).denominator for j in range(n + 1)))
    return den, [int(comb(n, j) * bernoulli(j) * den) for j in range(n + 1)]


def bernoulli_poly(n, x):
    """Bernoulli polynomial B_n(x) = sum_{j} C(n, j) B_j x^(n-j) at a rational x.

    Horner's rule on the integer form L q^n B_n(p/q) = sum_j L C(n, j) B_j p^(n-j) q^j
    for x = p/q, which keeps the oracle fast enough to run over hundreds of
    characters.
    """
    x = Fraction(x)
    den, coeffs = _bernoulli_poly_integral(n)
    acc = 0
    for j, c in enumerate(coeffs):
        acc = acc * x.numerator + c * x.denominator**j
    return Fraction(acc, den * x.denominator**n)


def gen_bernoulli_definition_oracle(n, disc):
    """B_{n,chi} from its definition q^(n-1) sum_{a=1}^{q} chi(a) B_n(a/q)."""
    q = abs(disc)
    total = sum(kronecker(disc, a) * bernoulli_poly(n, Fraction(a, q)) for a in range(1, q + 1))
    return q ** (n - 1) * total


def hurwitz_oracle(n):
    """Hurwitz class number by counting reduced binary quadratic forms
    ax^2 + bxy + cy^2 of discriminant -n, weights 1/2 and 1/3 on the
    square and hexagonal classes."""
    assert n > 0 and n % 4 in (0, 3)
    total = Fraction(0)
    for a in range(1, isqrt(n // 3) + 1):
        for b in range(-a, a + 1):
            if (b * b + n) % (4 * a):
                continue
            c = (b * b + n) // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue  # not reduced: the mirror form is the representative
            if b == 0 and a == c:
                total += Fraction(1, 2)
            elif b == a == c:
                total += Fraction(1, 3)
            else:
                total += 1
    return total


def gen_bernoulli_series_oracle(n, disc, terms=16):
    """B_{n,chi} from the generating function
    sum_a chi(a) t e^{at} / (e^{|D|t} - 1) = sum_n B_{n,chi} t^n / n!
    computed by exact power-series division."""
    q = abs(disc)
    # numerator: sum_a chi(a) * t * e^{at}, as coefficients of t^j
    num = [Fraction(0)] * terms
    for a in range(1, q + 1):
        ca = kronecker(disc, a)
        if not ca:
            continue
        fact = Fraction(1)
        for j in range(terms - 1):
            num[j + 1] += ca * fact  # t * a^j t^j / j!
            fact = fact * a / (j + 1)
    # denominator: (e^{qt} - 1) = sum_{j>=1} q^j t^j / j!
    den = [Fraction(0)] * terms
    fact = Fraction(1)
    for j in range(1, terms):
        fact = fact * q / j
        den[j] = fact
    # series division num/den: both start at t^1
    num = num[1:]
    den = den[1:]
    quot = [Fraction(0)] * (terms - 1)
    for j in range(terms - 1):
        acc = num[j]
        for i in range(j):
            acc -= quot[i] * den[j - i]
        quot[j] = acc / den[0]
    fact = 1
    for j in range(1, n + 1):
        fact *= j
    return quot[n] * fact


# ----- Bernoulli -----------------------------------------------------------


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanishing():
    for n in range(3, 30, 2):
        assert bernoulli(n) == 0


@pytest.mark.parametrize("n", range(0, 15))
def test_bernoulli_against_stirling_oracle(n):
    assert bernoulli(n) == bernoulli_oracle(n)


def test_bernoulli_recurrence():
    # sum_{j=0}^{n-1} C(n, j) B_j = 0 for n >= 2
    for n in range(2, 20):
        assert sum(comb(n, j) * bernoulli(j) for j in range(n)) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_poly_properties():
    x = Fraction(3, 7)
    # B_n(x+1) - B_n(x) = n x^(n-1)
    for n in range(1, 8):
        assert bernoulli_poly(n, x + 1) - bernoulli_poly(n, x) == n * x ** (n - 1)
    assert bernoulli_poly(4, Fraction(0)) == bernoulli(4)
    # the term-by-term sum of the definition, at negative and integral points too
    for n in range(13):
        for x in (Fraction(3, 7), Fraction(-5, 2), Fraction(0), Fraction(11)):
            assert bernoulli_poly(n, x) == sum(
                comb(n, j) * bernoulli(j) * x ** (n - j) for j in range(n + 1)
            )


# ----- Kronecker symbol -----------------------------------------------------


def test_kronecker_examples():
    assert kronecker(-3, 1) == 1
    assert kronecker(-3, 2) == -1
    assert kronecker(-4, 3) == -1
    assert kronecker(1, 0) == 1
    assert kronecker(5, 0) == 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_kronecker_matches_euler_criterion(p):
    for d in range(-40, 41):
        want = pow(d % p, (p - 1) // 2, p)
        want = {0: 0, 1: 1, p - 1: -1}[want]
        assert kronecker(d, p) == want, (d, p)


@given(
    d=st.sampled_from([1, -3, -4, 5, 8, -8, -7, 12, 13, -15, 17, 21, -23, 24]),
    m1=st.integers(-60, 60),
    m2=st.integers(-60, 60),
)
def test_kronecker_totally_multiplicative(d, m1, m2):
    assert kronecker(d, m1 * m2) == kronecker(d, m1) * kronecker(d, m2)


def test_kronecker_periodicity():
    # for fundamental D, (D/.) has period |D| on positive integers
    for d in (-3, -4, 5, 8, -8, 12):
        q = abs(d)
        for m in range(1, 3 * q):
            assert kronecker(d, m) == kronecker(d, m + q)


# ----- characters and generalized Bernoulli ----------------------------------


def test_fundamental_discriminant_classifier():
    for d in (1, -3, -4, 5, 8, -8, 12, 13, -15, -7, 21, 24, -23):
        assert is_fundamental_discriminant(d), d
    for d in (0, -1, 2, 3, 4, -9, 9, -12, 18, 25, 45):
        assert not is_fundamental_discriminant(d), d


def test_quad_character_validation():
    with pytest.raises(ValueError):
        QuadCharacter(-12)
    chi = QuadCharacter(-4)
    assert chi(1) == 1 and chi(3) == -1 and chi(2) == 0
    assert chi.modulus == 4


def test_quad_character_vanishing_locus():
    for d in (-3, -4, 8, 12, -15):
        chi = QuadCharacter(d)
        for m in range(1, abs(d) + 1):
            assert (chi(m) == 0) == (gcd(m, d) > 1), (d, m)


def test_gen_bernoulli_examples():
    assert gen_bernoulli(1, QuadCharacter(-4)) == Fraction(-1, 2)
    assert gen_bernoulli(1, QuadCharacter(-3)) == Fraction(-1, 3)
    assert gen_bernoulli(6, QuadCharacter(1)) == Fraction(1, 42)


@pytest.mark.parametrize("disc", [1, -3, -4, 5, 8, -8, 12, 13, -15, -23, 24])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_gen_bernoulli_against_series_oracle(n, disc):
    assert gen_bernoulli(n, QuadCharacter(disc)) == gen_bernoulli_series_oracle(n, disc)


@pytest.mark.parametrize(
    "disc", [d for d in range(-200, 201) if is_fundamental_discriminant(d)]
)
def test_gen_bernoulli_against_definition_oracle(disc):
    chi = QuadCharacter(disc)
    for n in range(1, 13):
        assert gen_bernoulli(n, chi) == gen_bernoulli_definition_oracle(n, disc), n


# ----- decomposition, divisors, moebius ---------------------------------------


def test_fundamental_decomposition_examples():
    assert fundamental_decomposition(1, 3) == (-3, 1)
    assert fundamental_decomposition(1, 4) == (-4, 1)
    assert fundamental_decomposition(1, 12) == (-3, 2)
    assert fundamental_decomposition(0, 8) == (8, 1)
    assert fundamental_decomposition(0, 4) == (1, 2)


def test_fundamental_decomposition_rejects_bad_residues():
    with pytest.raises(ValueError):
        fundamental_decomposition(1, 5)  # -5 is 3 mod 4
    with pytest.raises(ValueError):
        fundamental_decomposition(0, 7)
    with pytest.raises(ValueError):
        fundamental_decomposition(1, 0)


def test_fundamental_decomposition_exhaustive_small():
    for parity in (0, 1):
        for n in range(1, 400):
            signed = -n if parity else n
            if signed % 4 in (2, 3):
                continue
            d, f = fundamental_decomposition(parity, n)
            assert d * f * f == signed
            assert is_fundamental_discriminant(d)


def test_factorize_and_divisors():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 120):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_divisor_sigma():
    assert divisor_sigma(3, 1) == 1
    assert divisor_sigma(3, 2) == 9
    assert divisor_sigma(9, 6) == 1 + 2**9 + 3**9 + 6**9
    for n in range(1, 80):
        for k in range(0, 4):
            assert divisor_sigma(k, n) == sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_moebius():
    assert moebius(1) == 1
    assert moebius(4) == 0
    assert moebius(6) == 1
    assert moebius(30) == -1
    # sum over divisors is the unit of Dirichlet convolution
    for n in range(1, 300):
        assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_agrees_with_trial_division_below_1e5():
    for n in range(10**5):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))), n


@pytest.mark.parametrize("n", [
    3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 9746347772161,  # Carmichael
    3825123056546413051,  # a strong pseudoprime to the first nine prime bases
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [10000000000000061, 2**61 - 1, 2**64 - 59])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


def test_is_prime_refuses_past_the_proved_range():
    # the least strong pseudoprime to the first twelve prime bases
    limit = 318665857834031151167461
    assert not is_prime(limit - 1)
    with pytest.raises(ValueError, match=f"cannot decide whether {limit} is prime"):
        is_prime(limit)


# ----- Cohen H ------------------------------------------------------------------


def test_cohen_h_examples():
    assert h_lvalue(1, 1) == 0  # -1 is 3 mod 4
    assert h_lvalue(1, 3) == Fraction(1, 3)
    assert h_lvalue(1, 4) == Fraction(1, 2)
    assert h_lvalue(1, 0) == Fraction(-1, 12)
    assert cohen_h(3, 0) == h_lvalue(3, 0) == Fraction(-1, 252)


def test_cohen_h_exclusion_locus():
    for r in range(1, 6):
        for n in range(1, 100):
            if ((-1) ** r * n) % 4 in (2, 3):
                assert h_lvalue(r, n) == 0, (r, n)
                assert r == 1 or cohen_h(r, n) == 0, (r, n)


def test_cohen_h_matches_hurwitz_class_numbers():
    for n in range(1, 201):
        if n % 4 in (0, 3):
            assert h_lvalue(1, n) == hurwitz_oracle(n), n


def test_cohen_h_table_reproducible():
    cohen_h.cache_clear()
    values1 = [cohen_h(2, n) for n in range(40)]
    cached = [cohen_h(2, n) for n in range(40)]
    cohen_h.cache_clear()
    fresh = [cohen_h(2, n) for n in range(40)]
    assert values1 == cached == fresh


@pytest.mark.parametrize("r", range(2, 12))
def test_h_series_equals_cohen_h(r):
    # the weights 4..12 use r = 3, 5, 7, 9, 11; both parities of (-1)^r
    # meet the plus-space rows.  The series shares no arithmetic with the
    # L-value oracle but Bernoulli numbers and divisor sums
    want = [h_lvalue(r, n) for n in range(401)]
    total, den = h_series(r, 401)
    assert [Fraction(v, den) for v in total] == want
    for count in range(4):
        total, den = h_series(r, count)
        assert [Fraction(v, den) for v in total] == want[:count]


def _patch_top_basis(monkeypatch, r, change):
    """Make construction._theta_f return change(series) for the top basis
    element theta^(2r+1-4J) F^J of weight r + 1/2, which no other series
    is built from, so the real cache stays clean."""
    top = (2 * r + 1) // 4
    real = construction._theta_f

    def patched(a, j, count):
        series = real(a, j, count)
        return change(list(series), count) if (a, j) == (2 * r + 1 - 4 * top, top) else series

    monkeypatch.setattr(construction, "_theta_f", patched)


def _refused(r, message):
    with pytest.raises(ValueError, match=message):
        h_series(r, 50)
    with pytest.raises(ConstructionError, match=message):
        siegel_eisenstein(r + 1, 5)


@pytest.mark.parametrize("n", range(1, 6))
def test_h_series_refuses_a_perturbed_basis_series(monkeypatch, n):
    # r = 11: n = 1, 2, 4 and 5 meet a plus-space row, n = 3 only a T(9)
    # row.  n = 0 meets only the H(11, 0) row, the one row that is not
    # homogeneous: a change there rescales H(11, N > 0) against H(11, 0),
    # which no row can see
    def perturbed(series, count):
        series[n] += 1
        return series

    _patch_top_basis(monkeypatch, 11, perturbed)
    _refused(11, r"rows for H\(11, N\) contradict each other")


def test_h_series_refuses_two_equal_basis_series(monkeypatch):
    # theta^3 F^5 replaced by theta^7 F^4: the coordinates of the pair are unfixed
    _patch_top_basis(monkeypatch, 11, lambda series, count: construction._theta_f(7, 4, count))
    _refused(11, r"rows do not fix H\(11, N\)")


def test_cohen_h_rejects_bad_input():
    with pytest.raises(ValueError):
        h_lvalue(1, -4)
    with pytest.raises(ValueError):
        h_lvalue(0, 5)
    for r, n in [(2, -4), (0, 5)] + [(1, n) for n in range(5)]:
        # H(1, N) is the Hurwitz class number, not a modular form: only the oracle has it
        with pytest.raises(ValueError, match=r"needs"):
            cohen_h(r, n)
