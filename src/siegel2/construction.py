"""Construction of the five ring generators as exact truncated expansions.

Only a cache miss runs this module: `igusa.ensure_generator_set` imports
it to build and binds its `__all__` in `igusa` (see `cli` for the rule),
so a command on a complete cache never compiles it.

Every even form here is a Maass lift (Eichler-Zagier, *The Theory of
Jacobi Forms*, 1985, section 6): from the coefficients c(D) of a Jacobi
form of weight k and index 1, indexed by the discriminant D = 4n - r^2,

    a(T) = sum_{d | content(T)} d^(k-1) c(4 det(T) / d^2)   (T != 0),
    a(0) = -B_k / (2k) * c(0).

a(T) depends on T only through (4 det(T), content(T)), so `maass_lift`
sums once per such pair, over integers with one denominator per lift;
the lifts at one bound share the map from indices to pairs.
The degree-2 Eisenstein series E_k (k = 4, 6, 8, 10, 12) lift
c(D) = 2 / (zeta(1-k) zeta(3-2k)) * H(k-1, D) with Cohen's H, so
a(0) = 1 and on rank-1 indices the lift degenerates to the classical
-2k/B_k * sigma_{k-1}(content).  Every build checks each E_k by
`igusa.check_form` (its Siegel restriction is the genus-1 series) and
the one-dimensionality identity E4^2 = E8 exactly; a failure of either is
a construction bug and raises instead of producing output, as does a
failed solve of `h_series`.

H(r, 0) = zeta(1-2r) = -B_{2r}/(2r).  For r >= 2, sum_N H(r, N) q^N lies
in M_{r+1/2}(Gamma0(4)) (H. Cohen, Math. Ann. 217, 1975), which has the
basis theta^(2r+1-4j) F^j for 0 <= j <= J = (2r+1)/4, with
theta = sum_n q^(n^2) and F = sum_{n odd} sigma_1(n) q^n (N. Koblitz,
GTM 97, ch. IV section 1).  The series lies in Kohnen's plus space,
a(N) = 0 whenever (-1)^r N ≡ 2, 3 (mod 4), and it is an eigenform of
Kohnen's T(9) with eigenvalue 1 + 3^(2r-1) (W. Kohnen, Math. Ann. 248,
1980; Cohen 1975):

    a(9N) + ((-1)^r N / 3) 3^(r-1) a(N) + 3^(2r-1) a(N/9) = (1 + 3^(2r-1)) a(N),

with a(N/9) = 0 unless 9 | N.  `h_series` finds the J + 1 coordinates
from H(r, 0), one plus-space row for each N < 2J + 4 outside the plus
space and one T(9) row for each 0 < N < 2J + 4, by fraction-free integer
elimination.  The rows outnumber the coordinates, and the surplus checks
the solve.  Every H(r, N) then comes from the series, as total[N] / den
over one denominator (`h_series` returns total, den).

X4 = E4 and X6 = E6; the normalizations are those of `igusa`.
X10 and X12 lift phi_{10,1} = eta^18 theta(tau, z)^2 and
19 E2 phi_{10,1} - 6 L phi_{10,1} with the heat operator L (see
`build_x10_x12`).  X35 is the normalized 4x4 determinant whose first row is
(4 X4, 6 X6, 10 X10, 12 X12) and whose other rows are the three
(2 pi i)^(-1)-normalized partials of the four even generators: weighting
the first row by the weights makes the inhomogeneous terms of the
derivative transformation law cancel, so the determinant is a cusp form
of weight 4+6+10+12+3 = 35.  A build checks each generator once, by the
rule a load applies to its cache file (`igusa.check_form`).

The determinant is the Laplace expansion along the rows (k X, d12 X): the
signed sum of six products of a 2x2 minor of those rows and the
complementary minor of the rows (d11 X, d22 X).  The row order (k X,
d12 X, d11 X, d22 X) negates the determinant; the normalization at
(2, 3, -1) cancels the sign.  The swap sigma: (m, n, r) -> (n, m, r)
fixes each modular even generator, so it fixes k X and d12 X and swaps
d11 X and d22 X: the top minors are sigma-symmetric, the low minors and
the six products antisymmetric.  `build_x35` takes sigma-symmetric
columns only and refuses others.  It hands the product kernel each row
entry as an operand of its generator with these parities (X itself for
k X, with k in the signs of the top-minor terms, else an axis partial):
the 12 minors in one call, each only to the trace its complementary
minor leaves, then the six products, and gets the minors and the
determinant on their half m <= n; it normalizes that half at (2, 3, -1),
leaving a Fraction only where the pivot does not divide, and mirrors it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, isqrt, lcm

from .igusa import (
    GENERATOR_NAMES, NORMALIZATION, SUPPORTED_WEIGHTS, ConstructionError, GeneratorSet,
    check_form, require_build_bound,
)
from .kernel import product_sums
from .numtheory import bernoulli, divisor_sigma, divisors
from .qexp import Expansion, _canon, iter_l2_indices

__all__ = [
    "cohen_h",
    "h_series",
    "maass_lift",
    "siegel_eisenstein",
    "eisenstein_family",
    "build_x10_x12",
    "build_x35",
    "build_generator_set",
]


# ----- H(r, N) ------------------------------------------------------------


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


def _h0(r: int) -> Fraction:
    """H(r, 0) = zeta(1 - 2r)."""
    return -bernoulli(2 * r) / (2 * r)


@cache
def cohen_h(r: int, n: int) -> Fraction:
    """H(r, N) for r >= 2 and N >= 0 (module docstring), memoized per process."""
    if r < 2:
        raise ValueError("H(r, N) needs r >= 2")
    if n < 0:
        raise ValueError("H(r, N) needs N >= 0")
    if n == 0:
        return _h0(r)
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
    h0 = _h0(r)
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


# ----- the generators -------------------------------------------------------


@cache
def _lift_keys(trace_bound: int):
    """The index map of every lift at one bound: each index T != 0, in the
    order of `iter_l2_indices`, with its key (4 det T, content T); and each
    distinct key with the terms (4 det(T) / d^2, d) of its divisor sum."""
    indices, keys = [], {}
    for T in iter_l2_indices(trace_bound):
        m, n, r = T
        if m + n:
            key = (4 * m * n - r * r, gcd(m, n, r))
            if key not in keys:
                keys[key] = [(key[0] // (d * d), d) for d in divisors(key[1])]
            indices.append((T, key))
    return indices, keys


def maass_lift(nums, den: int, k: int, trace_bound: int) -> Expansion:
    """The weight-k Maass lift of the index-1 Jacobi form whose coefficient
    at discriminant D = 4n - r^2 is c(D) = nums[D] / den, for integers
    nums[D] and den > 0 (see the module docstring)."""
    powers = [d ** (k - 1) for d in range(trace_bound + 1)]
    indices, keys = _lift_keys(trace_bound)
    lifted = {key: sum(nums[D] * powers[d] for D, d in terms) for key, terms in keys.items()}
    if den != 1:
        lifted = {key: _canon(Fraction(a, den), None) for key, a in lifted.items()}
    a0 = _canon(-bernoulli(k) * nums[0] / (2 * k * den), None)
    coeffs = {(0, 0, 0): a0} if a0 else {}
    coeffs |= {T: v for T, key in indices if (v := lifted[key])}
    return Expansion._raw(k, trace_bound, coeffs, None)


def siegel_eisenstein(k: int, trace_bound: int) -> Expansion:
    """The degree-2 Eisenstein series E_k, exact to the trace bound."""
    if k not in SUPPORTED_WEIGHTS:
        raise ValueError(f"weight must be one of {SUPPORTED_WEIGHTS}")
    zeta_1mk = -bernoulli(k) / k
    zeta_3m2k = cohen_h(k - 1, 0)
    a, b = (2 / (zeta_1mk * zeta_3m2k)).as_integer_ratio()  # c(D) = a/b H(k-1, D)
    try:  # every H(k-1, D), D <= trace_bound^2
        total, den = h_series(k - 1, trace_bound * trace_bound + 1)
    except ValueError as exc:
        raise ConstructionError(str(exc)) from None
    return maass_lift([a * t for t in total], b * den, k, trace_bound)


def eisenstein_family(trace_bound: int) -> dict[int, Expansion]:
    """All supported E_k at one bound, each checked by `check_form`, and E4^2 = E8."""
    family = {k: siegel_eisenstein(k, trace_bound) for k in SUPPORTED_WEIGHTS}
    for k, form in family.items():
        check_form(f"E{k}", form)
    if family[4] * family[4] != family[8]:
        raise ConstructionError("E4^2 != E8: coefficient formula is inconsistent")
    return family


def build_x10_x12(trace_bound: int) -> tuple[Expansion, Expansion]:
    """The weight-10 and weight-12 cusp generators as Maass lifts.

    X10 lifts phi_{10,1} = eta^18 theta^2 with
    theta(tau, z) = sum_s (-1)^s q^((2s+1)^2/8) zeta^((2s+1)/2).  Its
    coefficient at q^n zeta^r depends on D = 4n - r^2 alone:

        c10(D) = sum of (-1)^s p_i over s in Z, i >= 0 with D = 3 + s^2 + 4i,

    where sum_i p_i q^i = prod_j (1 - q^j)^18.  X12 lifts the heat-operator
    form 19 E2 phi_{10,1} - 6 L phi_{10,1} (Eichler-Zagier, sections 3 and
    9; L multiplies c(D) by D, 19/6 is (2k - 1)/6 at k = 10), with
    E2 = 1 - 24 sum sigma_1(j) q^j:

        c12(D) = 19 sum_j e2_j c10(D - 4j) - 6 D c10(D).

    c(0) = 0 makes both lifts cusp forms, c(3) = 1 gives a((1,1,1)) = 1,
    and D = 4 det(T) <= trace_bound^2 on the whole truncation.
    """
    max_disc = trace_bound * trace_bound
    p = [1] + [0] * (max_disc // 4)
    for j in range(1, len(p)):
        for _ in range(18):
            for i in range(len(p) - 1, j - 1, -1):
                p[i] -= p[i - j]
    c10 = [0] * (max_disc + 1)
    for s in range(-isqrt(max_disc), isqrt(max_disc) + 1):
        for i in range((max_disc - 3 - s * s) // 4 + 1):
            c10[3 + s * s + 4 * i] += (-1) ** abs(s) * p[i]
    e2 = [1] + [-24 * divisor_sigma(1, j) for j in range(1, len(p))]
    c12 = [
        19 * sum(e2[j] * c10[D - 4 * j] for j in range(D // 4 + 1)) - 6 * D * c10[D]
        for D in range(max_disc + 1)
    ]
    return maass_lift(c10, 1, 10, trace_bound), maass_lift(c12, 1, 12, trace_bound)


def build_x35(x4: Expansion, x6: Expansion, x10: Expansion, x12: Expansion) -> Expansion:
    """The odd generator: normalized determinant of the four even generators
    and their normalized partials (weight 35), by the Laplace expansion of
    the module docstring; a column that is not sigma-symmetric raises ValueError."""
    forms = (x4, x6, x10, x12)
    bound = min(f.trace_bound for f in forms)
    require_build_bound(bound)
    p = x4.modulus
    if any(f.modulus != p for f in forms):
        raise ValueError("domain mismatch: the four generators must share one domain")
    if any(f.coeffs != {(n, m, r): v for (m, n, r), v in f.coeffs.items()} for f in forms):
        raise ValueError("not sigma-symmetric: the four generators need a(m, n, r) = a(n, m, r)")
    # a minor is needed only to trace bound - t, where t is the lowest trace of
    # its complementary minor, so at least that of a product of two entries:
    # an entry's is its generator's, and at least 2 in row d12 (r != 0 needs
    # m, n >= 1) and 1 in rows d11 and d22
    lowest = [min(m + n for m, n, _ in f.coeffs) if f.coeffs else bound for f in forms]
    lowest = [[max(t, least) for t in lowest] for least in (0, 2, 1, 1)]
    pairs = list(combinations(range(4), 2))  # pairs[5 - q] is the complement of pairs[q]
    first = [min(lowest[a][i] + lowest[b][j], lowest[a][j] + lowest[b][i])
             for a, b in ((0, 1), (2, 3)) for i, j in pairs]  # of the 12 minors
    reaches = [bound - t for t in first[:5:-1] + first[5::-1]]
    # the minor (i, j) of rows a, b is a_i b_j - a_j b_i; the row k X enters as
    # X, each weight k in the signs.  The top minors (rows k X, d12 X) have
    # parity +1, the low minors and their products -1
    x, d12, d11, d22 = ([(f.coeffs, axis, 1) for f in forms] for axis in (1, "12", "11", "22"))
    k = [f.weight for f in forms]
    sums = [[(k[i], x[i], d12[j]), (-k[j], x[j], d12[i])] for i, j in pairs]
    sums += [[(1, d11[i], d22[j]), (-1, d11[j], d22[i])] for i, j in pairs]
    minors = product_sums(sums, max(reaches), p, [1] * 6 + [-1] * 6, reaches)
    # term q: top minor q times the low minor of its complement, sign (-1)^(1+i+j)
    terms = [((-1) ** (1 + i + j), (minors[q], 1, 1), (minors[11 - q], 1, -1))
             for q, (i, j) in enumerate(pairs)]
    det = product_sums([terms], bound, p, [-1])[0]
    pivot = det.get(NORMALIZATION["X35"])
    if not pivot:
        raise ConstructionError("determinant vanishes at the normalization index (2,3,-1)")
    if p:
        inverse = pow(pivot, -1, p)
        x35 = {T: v * inverse % p for T, v in det.items()}
    else:  # a Fraction only where the pivot does not divide, for check_form
        x35 = {T: Fraction(v) / pivot if rest else q
               for T, v in det.items() for q, rest in [divmod(v, pivot)]}
    # the determinant is sigma-antisymmetric: its half m <= n gives the rest
    x35 |= {(n, m, r): -v % p if p else -v for (m, n, r), v in x35.items() if m < n}
    return Expansion._raw(35, bound, x35, p)


def build_generator_set(trace_bound: int) -> GeneratorSet:
    """Build all five generators (and the Eisenstein family) at one bound."""
    require_build_bound(trace_bound)
    family = eisenstein_family(trace_bound)
    forms = {f"E{k}": family[k] for k in SUPPORTED_WEIGHTS}
    forms["X4"], forms["X6"] = family[4], family[6]
    forms["X10"], forms["X12"] = build_x10_x12(trace_bound)
    columns = GENERATOR_NAMES[:4]
    for name in columns:  # before build_x35 reads them
        check_form(name, forms[name])
    forms["X35"] = build_x35(*(forms[name] for name in columns))
    check_form("X35", forms["X35"])
    return GeneratorSet(forms, trace_bound)
