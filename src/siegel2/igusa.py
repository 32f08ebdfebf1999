"""Construction of the five ring generators as exact truncated expansions.

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
-2k/B_k * sigma_{k-1}(content).  Every build cross-checks the family
against the genus-1 series under the Siegel restriction and checks the
one-dimensionality identity E4^2 = E8 exactly; a failure of either is a
construction bug and raises instead of producing output, as does a
failed solve of `numtheory.h_series`, which fixes H(k-1, ·) from H(k-1, 0),
Kohnen's plus space and the T(9) eigenvalue (Kohnen, Math. Ann. 248, 1980;
Cohen, Math. Ann. 217, 1975).

Generators and normalizations:

    X4  = E4,  X6 = E6               a((0,0,0)) = 1
    X10, X12: cusp forms             a((1,1,1)) = 1, zero on rank <= 1
    X35: odd generator               a((2,3,-1)) = 1

X10 and X12 lift phi_{10,1} = eta^18 theta(tau, z)^2 and
19 E2 phi_{10,1} - 6 L phi_{10,1} with the heat operator L (see
`build_x10_x12`).  X35 is the normalized 4x4 determinant whose first row is
(4 X4, 6 X6, 10 X10, 12 X12) and whose other rows are the three
(2 pi i)^(-1)-normalized partials of the four even generators: weighting
the first row by the weights makes the inhomogeneous terms of the
derivative transformation law cancel, so the determinant is a cusp form
of weight 4+6+10+12+3 = 35.  A build checks each generator once, at
the index of `NORMALIZATION`: a cusp form must vanish on rank <= 1, each
must be 1 at its index, and all coefficients must be integers.

The determinant is the Laplace expansion along the rows (k X, d12 X): the
signed sum of six products of a 2x2 minor of those rows and the
complementary minor of the rows (d11 X, d22 X).  The row order (k X,
d12 X, d11 X, d22 X) negates the determinant; the normalization at
(2, 3, -1) cancels the sign.  The swap sigma: (m, n, r) -> (n, m, r)
fixes each modular even generator, so it fixes k X and d12 X and swaps
d11 X and d22 X: the top minors are sigma-symmetric, the low minors and
the six products antisymmetric.  `build_x35` takes sigma-symmetric
columns only and refuses others.  It hands the `qexp` kernel each row
entry as an operand of its generator with these parities (X itself for
k X, with k in the signs of the top-minor terms, else an axis partial):
the 12 minors in one call, each only to the trace its complementary
minor leaves, then the six products, and gets the minors and the
determinant on their half m <= n; it normalizes that half at (2, 3, -1),
leaving a Fraction only where the pivot does not divide, and mirrors it.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, isqrt
from pathlib import Path

from .numtheory import bernoulli, cohen_h, divisor_sigma, divisors, h_series
from .qexp import Expansion, _canon, iter_l2_indices, order_key, product_sums

__all__ = [
    "ConstructionError",
    "FORMULA_VERSION",
    "SUPPORTED_WEIGHTS",
    "GENERATOR_NAMES",
    "MIN_BUILD_BOUND",
    "genus1_eisenstein",
    "maass_lift",
    "siegel_eisenstein",
    "eisenstein_family",
    "build_x10_x12",
    "build_x35",
    "GeneratorSet",
    "build_generator_set",
    "cache_path",
    "save_generator_set",
    "load_generator_set",
    "ensure_generator_set",
]

# bump when any coefficient formula changes: cache files are keyed by it
FORMULA_VERSION = "v1"

SUPPORTED_WEIGHTS = (4, 6, 8, 10, 12)
# the X35 normalization index (2,3,-1) has trace 5
MIN_BUILD_BOUND = 5
GENERATOR_NAMES = ("X4", "X6", "X10", "X12", "X35")
# the index where each generator is 1; the cusp forms are those normalized off (0, 0, 0)
NORMALIZATION = {"X4": (0, 0, 0), "X6": (0, 0, 0), "X10": (1, 1, 1), "X12": (1, 1, 1),
                 "X35": (2, 3, -1)}
CACHE_NAMES = ("E4", "E6", "E8", "E10", "E12") + GENERATOR_NAMES
# the atoms of the expression language; each name carries its weight
ATOM_WEIGHTS = {name: int(name[1:]) for name in CACHE_NAMES}


class ConstructionError(RuntimeError):
    """A generator build failed an internal identity or normalization."""


def genus1_eisenstein(k: int, trace_bound: int) -> list:
    """Coefficients [a_0..a_N] of the genus-1 series 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if k < 4 or k % 2:
        raise ValueError("weight must be even and >= 4")
    factor = Fraction(-2 * k) / bernoulli(k)
    out: list = [1]
    for n in range(1, trace_bound + 1):
        v = factor * divisor_sigma(k - 1, n)
        out.append(int(v) if v.denominator == 1 else v)
    return out


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
    """All supported E_k at one bound, with the mandatory self-checks."""
    family = {k: siegel_eisenstein(k, trace_bound) for k in SUPPORTED_WEIGHTS}
    for k in SUPPORTED_WEIGHTS:
        if family[k].phi() != genus1_eisenstein(k, trace_bound):
            raise ConstructionError(
                f"restriction of E{k} disagrees with the genus-1 series"
            )
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
    if bound < MIN_BUILD_BOUND:
        raise ConstructionError("normalization index (2,3,-1) has trace 5: need bound >= 5")
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
    else:  # a Fraction only where the pivot does not divide, for _check_generator
        x35 = {T: Fraction(v) / pivot if rest else q
               for T, v in det.items() for q, rest in [divmod(v, pivot)]}
    # the determinant is sigma-antisymmetric: its half m <= n gives the rest
    x35 |= {(n, m, r): -v % p if p else -v for (m, n, r), v in x35.items() if m < n}
    return Expansion._raw(35, bound, x35, p)


class GeneratorSet:
    """The five ring generators plus the Eisenstein family they came from.

    `forms` maps cache names (E4..E12, X4..X35) to expansions.  A built set
    holds all ten.  A set loaded by `load_generator_set` starts with an
    empty `forms` and the paths of the ten cache files: `atom(name)` reads
    and checks a file (`_load_form`) the first time a caller asks for its
    form and keeps it in `forms`, so a command reads only the files of the
    forms it uses.  A set with other forms is a new `GeneratorSet`, not an
    edited one.
    """

    __slots__ = ("forms", "trace_bound", "_paths")

    def __init__(self, forms: dict[str, Expansion], trace_bound: int):
        self.forms = forms
        self.trace_bound = trace_bound
        self._paths: dict[str, Path] = {}  # a loaded set: the cache file of each name

    @property
    def eisenstein(self) -> dict[int, Expansion]:
        return {k: self.atom(f"E{k}") for k in SUPPORTED_WEIGHTS}

    def generators(self) -> dict[str, Expansion]:
        return {name: self.atom(name) for name in GENERATOR_NAMES}

    def atom(self, name: str) -> Expansion:
        """Expansion for an atom name (X4..X35 or E4..E12); KeyError otherwise."""
        if name not in self.forms:
            self.forms[name] = _load_form(name, self._paths[name], self.trace_bound)
        return self.forms[name]


def _check_generator(name: str, F: Expansion) -> None:
    """Refuse a built generator, naming the least offending index: a nonzero
    coefficient of rank <= 1 (4mn = r^2) in a cusp form, a value other
    than 1 at its normalization index, a non-integral coefficient."""
    index = NORMALIZATION[name]
    flat = [T for T in F.coeffs if 4 * T[0] * T[1] == T[2] * T[2]] if any(index) else []
    if flat:
        raise ConstructionError(
            f"{name} has a nonzero rank<=1 coefficient at {min(flat, key=order_key)}"
        )
    if F.coefficient(index) != 1:
        raise ConstructionError(f"{name} normalization at {index} failed")
    bad = [T for T, c in F.coeffs.items() if c.denominator != 1]
    if bad:
        T = min(bad, key=order_key)
        raise ConstructionError(f"non-integral coefficient {F.coeffs[T]} at {T} in {name}")


def build_generator_set(trace_bound: int) -> GeneratorSet:
    """Build all five generators (and the Eisenstein family) at one bound."""
    if trace_bound < MIN_BUILD_BOUND:
        raise ConstructionError(
            f"generator builds need trace bound >= {MIN_BUILD_BOUND} "
            "(the X35 normalization index (2,3,-1) has trace 5)"
        )
    family = eisenstein_family(trace_bound)
    forms = {f"E{k}": family[k] for k in SUPPORTED_WEIGHTS}
    forms["X4"], forms["X6"] = family[4], family[6]
    forms["X10"], forms["X12"] = build_x10_x12(trace_bound)
    columns = GENERATOR_NAMES[:4]
    for name in columns:  # before build_x35 reads them
        _check_generator(name, forms[name])
    forms["X35"] = build_x35(*(forms[name] for name in columns))
    _check_generator("X35", forms["X35"])
    return GeneratorSet(forms, trace_bound)


# ----- cache ------------------------------------------------------------


def cache_path(cache_dir, name: str, trace_bound: int) -> Path:
    return Path(cache_dir) / f"{name}_N{trace_bound}_{FORMULA_VERSION}.qexp"


def save_generator_set(gen: GeneratorSet, cache_dir) -> list[Path]:
    """Write the ten expansion files (five E's, five X's); returns the paths.

    Each file is written to a temporary file in the cache directory (named
    by the process id, so concurrent builds do not share one) and then
    renamed over its final name, so a reader never sees a partial file.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    paths, texts = [], {}  # one text per expansion: a built X4 is its E4
    for name in CACHE_NAMES:
        path = cache_path(cache_dir, name, gen.trace_bound)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        form = gen.atom(name)
        if id(form) not in texts:
            texts[id(form)] = form.to_text()
        try:
            tmp.write_text(texts[id(form)], newline="")  # "\n" on every platform
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)  # left over only when a step failed
        paths.append(path)
    return paths


def _load_form(name: str, path: Path, trace_bound: int) -> Expansion:
    """Read one cache file and check it against its name (see
    `load_generator_set`); a mismatch or a line that does not parse raises
    ValueError naming the file."""
    try:
        with path.open(newline="") as f:  # no newline translation: "\r\n" is refused
            text = f.read()
        exp = Expansion.from_text(text)
    except ValueError as exc:
        raise ValueError(f"cache file {path}: {exc}") from None
    if exp.trace_bound != trace_bound:
        raise ValueError(f"cache file {path} has inconsistent trace bound")
    if exp.weight != ATOM_WEIGHTS[name] or exp.modulus is not None:
        raise ValueError(
            f"cache file {path} holds a {exp._domain()} expansion of weight {exp.weight}, "
            f"expected a rational one of weight {ATOM_WEIGHTS[name]}"
        )
    eisenstein_type = name[0] == "E" or name in ("X4", "X6")
    if eisenstein_type and exp.phi() != genus1_eisenstein(exp.weight, trace_bound):
        raise ValueError(
            f"cache file {path} is cut short or damaged: its restriction "
            f"disagrees with the genus-1 series of weight {exp.weight}"
        )
    return exp


def load_generator_set(trace_bound: int, cache_dir) -> GeneratorSet | None:
    """A cached build; None when any of the ten files is missing.

    No file is read here: the set starts empty, and `gen.atom(name)` reads
    and checks a file the first time a caller asks for its form, so a
    command reads only the files it uses.  Each file's header must match
    its name: the weight in the name (E10 -> 10, X35 -> 35), the rational
    domain and the trace bound.  The Siegel restriction of E4..E12, X4 and
    X6 must be the genus-1 series: their last line, at (N, 0, 0), is
    nonzero, so a file cut short fails this.  A mismatch raises ValueError
    naming the file, at that first use.  Other coefficients are *not*
    re-derived here (a cut X10, X12 or X35 file passes), so integrity
    questions about a cache are answered by the verification pipeline.
    """
    paths = {name: cache_path(cache_dir, name, trace_bound) for name in CACHE_NAMES}
    if not all(p.is_file() for p in paths.values()):
        return None
    gen = GeneratorSet({}, trace_bound)
    gen._paths = paths
    return gen


def ensure_generator_set(trace_bound: int, cache_dir) -> tuple[GeneratorSet, bool]:
    """Load from the cache directory when complete, else build and cache.

    Returns (generator_set, came_from_cache).
    """
    cached = load_generator_set(trace_bound, cache_dir)
    if cached is not None:
        return cached, True
    gen = build_generator_set(trace_bound)
    save_generator_set(gen, cache_dir)
    return gen, False
