"""Tests of the generator construction.

The key independent oracle: the degree-2 theta series of the E8 root lattice
is the weight-4 Eisenstein series.  Its coefficient at (m, n, r) counts the
lattice pairs (x, y) with |x|^2 = 2m, |y|^2 = 2n, <x, y> = r, which we get by
direct enumeration, with no shared code or number theory.
"""

import hashlib
import itertools
import random
import re
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from siegel2.cli import main
from siegel2.construction import (
    build_generator_set,
    build_x35,
    cohen_h,
    eisenstein_family,
    maass_lift,
    siegel_eisenstein,
)
from siegel2.igusa import (
    CACHE_NAMES,
    ConstructionError,
    GeneratorSet,
    cache_path,
    ensure_generator_set,
    genus1_eisenstein,
    load_generator_set,
    save_generator_set,
)
from siegel2.numtheory import bernoulli
from siegel2.qexp import Expansion, iter_l2_indices
from siegel2.reference import MIN_MATRIX_REFERENCE, X35_LOW_TRACE, x35_reference_violations

# ----- E8 lattice oracle ----------------------------------------------------


def e8_vectors_up_to_norm4():
    """All E8 vectors with |x|^2 <= 4, in doubled coordinates u = 2x.

    E8 = D8 union (D8 + (1/2)^8): coordinates all integral or all half
    integral, with even coordinate sum.  In doubled coordinates that means
    all u_i even or all odd, sum u_i divisible by 4, |u|^2 = 4 |x|^2 <= 16.
    """
    found = []
    for u in itertools.product((-4, -2, 0, 2, 4), repeat=8):
        if sum(u) % 4 == 0 and sum(c * c for c in u) <= 16:
            found.append(u)
    for u in itertools.product((-3, -1, 1, 3), repeat=8):
        if sum(u) % 4 == 0 and sum(c * c for c in u) <= 16:
            found.append(u)
    return found


def test_e4_matches_e8_theta_series():
    by_norm = {0: [], 2: [], 4: []}
    for u in e8_vectors_up_to_norm4():
        norm = sum(c * c for c in u) // 4
        by_norm[norm].append(u)
    assert len(by_norm[0]) == 1
    assert len(by_norm[2]) == 240
    assert len(by_norm[4]) == 2160

    e4 = siegel_eisenstein(4, 2)
    for T in iter_l2_indices(2):
        m, n, r = T
        pairs = 0
        for x in by_norm[2 * m]:
            for y in by_norm[2 * n]:
                if sum(a * b for a, b in zip(x, y)) == 4 * r:
                    pairs += 1
        assert e4.coefficient(T) == pairs, T


# ----- Eisenstein series ----------------------------------------------------


def test_genus1_values():
    assert genus1_eisenstein(4, 2) == [1, 240, 2160]
    assert genus1_eisenstein(6, 2) == [1, -504, -16632]
    assert genus1_eisenstein(8, 1) == [1, 480]
    assert genus1_eisenstein(10, 1) == [1, -264]
    assert genus1_eisenstein(12, 1) == [1, Fraction(65520, 691)]
    with pytest.raises(ValueError):
        genus1_eisenstein(3, 2)
    with pytest.raises(ValueError):
        genus1_eisenstein(2, 2)


def test_e4_known_coefficients():
    e4 = siegel_eisenstein(4, 2)
    assert e4.coefficient((0, 0, 0)) == 1
    assert e4.coefficient((1, 0, 0)) == 240
    assert e4.coefficient((2, 0, 0)) == 2160
    assert e4.coefficient((1, 1, 0)) == 30240
    assert e4.coefficient((1, 1, 1)) == 13440
    assert e4.coefficient((1, 1, 2)) == 240
    assert all(isinstance(c, int) for c in e4.coeffs.values())


@pytest.mark.parametrize("k", [4, 10])
def test_maass_lift_matches_the_divisor_sum(k):
    # an arbitrary c: the lift must not assume anything of it; the sum runs
    # over every divisor d of the content, with no memo
    rng = random.Random(k)
    values = {D: Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for D in range(8 * 8 + 1)}
    den = lcm(*(v.denominator for v in values.values()))
    F = maass_lift([values[D].numerator * (den // values[D].denominator) for D in values], den, k, 8)
    assert all(type(T) is tuple for T in F.coeffs)
    assert F.coefficient((0, 0, 0)) == -bernoulli(k) / (2 * k) * values[0]
    contents = set()
    for m in range(9):
        for n in range(9 - m):
            rmax = isqrt(4 * m * n)
            for r in range(-rmax, rmax + 1):
                if (m, n, r) == (0, 0, 0):
                    continue
                g = gcd(m, n, r)
                contents.add(g)
                want = sum(
                    d ** (k - 1) * values[(4 * m * n - r * r) // (d * d)]
                    for d in range(1, g + 1) if g % d == 0
                )
                assert F.coefficient((m, n, r)) == want, (m, n, r)
    assert contents == set(range(1, 9))


def test_siegel_eisenstein_rejects_unsupported_weight():
    with pytest.raises(ValueError):
        siegel_eisenstein(5, 3)
    with pytest.raises(ValueError):
        siegel_eisenstein(14, 3)


def test_family_gates(genset_small):
    fam = genset_small.eisenstein
    assert sorted(fam) == [4, 6, 8, 10, 12]
    for k, F in fam.items():
        assert F.weight == k
        assert F.phi() == genus1_eisenstein(k, F.trace_bound)
    assert fam[4] * fam[4] == fam[8]


def test_family_validation_catches_corruption(monkeypatch):
    import siegel2.construction as con

    real = con.siegel_eisenstein

    def corrupted(k, bound):
        F = real(k, bound)
        if k != 8:
            return F
        wrong = dict(F.coeffs)
        wrong[1, 0, 0] += 1
        return Expansion(8, bound, wrong)

    monkeypatch.setattr(con, "siegel_eisenstein", corrupted)
    with pytest.raises(ConstructionError):
        con.eisenstein_family(2)


def test_eisenstein_family_refuses_a_wrong_h0(monkeypatch):
    # a wrong zeta(3 - 2k) = H(k - 1, 0) rescales all of E_k, a(0) = 1
    # included; the solve in h_series takes its own H(r, 0) from bernoulli
    import siegel2.construction as con

    def wrong(r, n):
        return cohen_h(r, n) * (2 if (r, n) == (11, 0) else 1)

    monkeypatch.setattr(con, "cohen_h", wrong)
    with pytest.raises(ConstructionError, match="restriction of E12 disagrees"):
        con.eisenstein_family(6)


def test_eisenstein_family_refuses_e8_unequal_to_e4_squared(monkeypatch):
    # a rank-2 coefficient is off the Siegel restriction: only E4^2 = E8 sees it
    import siegel2.construction as con

    real = con.siegel_eisenstein

    def corrupted(k, bound):
        F = real(k, bound)
        if k == 8:
            F.coeffs[1, 1, 0] += 1
        return F

    monkeypatch.setattr(con, "siegel_eisenstein", corrupted)
    with pytest.raises(ConstructionError, match=re.escape("E4^2 != E8")):
        build_generator_set(5)


# ----- cusp generators ------------------------------------------------------


def test_x10_x12_normalizations(genset_small):
    x10, x12 = genset_small.atom("X10"), genset_small.atom("X12")
    assert x10.weight == 10 and x12.weight == 12
    assert x10.coefficient((1, 1, 1)) == 1
    assert x10.coefficient((1, 1, -1)) == 1
    assert x12.coefficient((1, 1, 1)) == 1
    assert x12.coefficient((1, 0, 0)) == 0
    for F in (x10, x12):
        assert F.phi() == [0] * (F.trace_bound + 1)


def test_cusp_forms_vanish_on_singular_indices(genset_small):
    for F in (genset_small.atom("X10"), genset_small.atom("X12"), genset_small.atom("X35")):
        for T in F.support():
            m, n, r = T
            assert 4 * m * n - r * r > 0, (F.weight, T)


@pytest.mark.parametrize("extra, named", [
    ({(1, 0, 0): 1}, (1, 0, 0)),
    # dict order puts (2, 0, 0) first; the index order puts (1, 1, 2) first
    ({(2, 0, 0): 3, (1, 1, 2): -1}, (1, 1, 2)),
], ids=["one", "least-in-index-order"])
def test_build_refuses_a_cusp_form_with_a_rank1_coefficient(monkeypatch, extra, named):
    import siegel2.construction as con

    real = con.build_x10_x12

    def corrupted(bound):
        x10, x12 = real(bound)
        return Expansion(10, bound, {**extra, **x10.coeffs}), x12

    monkeypatch.setattr(con, "build_x10_x12", corrupted)
    message = f"X10 has a nonzero rank<=1 coefficient at {named}"
    with pytest.raises(ConstructionError, match=re.escape(message)):
        build_generator_set(5)


def test_build_refuses_a_generator_off_its_normalization(monkeypatch):
    import siegel2.construction as con

    real = con.build_x10_x12

    def corrupted(bound):
        x10, x12 = real(bound)
        return x10, x12.scale(2)

    monkeypatch.setattr(con, "build_x10_x12", corrupted)
    with pytest.raises(ConstructionError, match=re.escape("X12 normalization at (1, 1, 1) failed")):
        build_generator_set(5)


@pytest.mark.parametrize("name, fault", [
    ("X12", "X12 normalization at (1, 1, 1) failed"),
    ("E8", "restriction of E8 disagrees with the genus-1 series"),
], ids=["X12", "E8"])
def test_a_build_and_a_load_refuse_one_fault_in_one_text(
    monkeypatch, genset_small, tmp_path, name, fault
):
    # the form scaled by 2, built or cached: one rule (`igusa.check_form`) refuses both
    import siegel2.construction as con

    if name == "E8":
        real_e = con.siegel_eisenstein
        monkeypatch.setattr(con, "siegel_eisenstein",
                            lambda k, bound: real_e(k, bound).scale(2 if k == 8 else 1))
    else:
        real_x = con.build_x10_x12
        monkeypatch.setattr(con, "build_x10_x12",
                            lambda bound: (real_x(bound)[0], real_x(bound)[1].scale(2)))
    with pytest.raises(ConstructionError) as built:
        build_generator_set(5)
    forms = {**genset_small.forms, name: genset_small.atom(name).scale(2)}
    save_generator_set(GeneratorSet(forms, 5), tmp_path)
    with pytest.raises(ValueError) as loaded:
        load_generator_set(5, tmp_path).atom(name)
    path = cache_path(tmp_path, name, 5)
    assert str(built.value) == fault
    assert str(loaded.value) == f"cache file {path} is cut short or damaged: {fault}"


def test_build_refuses_a_non_integral_coefficient_at_the_least_index(monkeypatch):
    import siegel2.construction as con

    real = con.build_x10_x12
    # sigma-symmetric; dict order puts (2, 1, 0) first, the index order (1, 1, -1)
    extra = {(2, 1, 0): Fraction(1, 3), (1, 2, 0): Fraction(1, 3), (1, 1, -1): Fraction(-7, 2)}

    def corrupted(bound):
        x10, x12 = real(bound)
        rest = {T: v for T, v in x10.coeffs.items() if T not in extra}
        return Expansion(10, bound, {**extra, **rest}), x12

    monkeypatch.setattr(con, "build_x10_x12", corrupted)
    message = "non-integral coefficient -7/2 at (1, 1, -1) in X10"
    with pytest.raises(ConstructionError, match=re.escape(message)):
        build_generator_set(5)


def test_a_build_below_the_trace_of_the_x35_index_is_refused_in_one_text(genset_small):
    # the text the command line prints for --trace-bound 4 (tests/test_scripts.py)
    message = ("generator builds need trace bound >= 5 "
               "(the X35 normalization index (2,3,-1) has trace 5)")
    cut = [Expansion(F.weight, 4, {T: v for T, v in F.coeffs.items() if T[0] + T[1] <= 4})
           for F in (genset_small.atom(name) for name in ("X4", "X6", "X10", "X12"))]
    with pytest.raises(ConstructionError, match=re.escape(message)):
        build_x35(*cut)
    with pytest.raises(ConstructionError, match=re.escape(message)):
        build_generator_set(4)


def cusp_projection(basis, conditions):
    """The combination of `basis` whose coefficients at the `conditions`
    indices are 0, ..., 0, 1, solved exactly by Cramer's rule."""
    matrix = [[b.coefficient(T) for b in basis] for T in conditions]
    rhs = [0] * (len(conditions) - 1) + [1]
    det = det_oracle(matrix)
    assert det != 0
    total = None
    for j, b in enumerate(basis):
        swapped = [row[:j] + [v] + row[j + 1 :] for row, v in zip(matrix, rhs)]
        term = b.scale(det_oracle(swapped) / det)
        total = term if total is None else total + term
    return total


def test_x10_x12_equal_the_cusp_projections(genset):
    # the construction that the Maass lifts replaced: project out of
    # Eisenstein products, sharing no code with the Jacobi forms
    e4, e6, fam = genset.eisenstein[4], genset.eisenstein[6], genset.eisenstein
    x10 = cusp_projection([e4 * e6, fam[10]], [(0, 0, 0), (1, 1, 1)])
    x12 = cusp_projection([e4 * e4 * e4, e6 * e6, fam[12]], [(0, 0, 0), (1, 0, 0), (1, 1, 1)])
    assert x10 == genset.atom("X10")
    assert x12 == genset.atom("X12")


# ----- the odd generator ----------------------------------------------------


def test_x35_matches_reference_table(genset):
    assert x35_reference_violations(genset.atom("X35")) == []


def test_x35_normalization_and_witness(genset_small):
    x35 = genset_small.atom("X35")
    assert x35.weight == 35
    assert x35.coefficient((2, 3, -1)) == 1
    assert x35.coefficient((2, 3, 1)) == -1
    assert x35.coefficient((3, 2, -1)) == -1


def test_x35_vanishing_witness(genset):
    m, n, r = T = (1, 6, 1)
    assert 4 * m * n - r * r == 23
    assert genset.atom("X35").coefficient(T) == 0


def test_x35_odd_weight_forced_zeros(genset):
    x35 = genset.atom("X35")
    for T in iter_l2_indices(x35.trace_bound):
        if T[0] == T[1] or T[2] == 0:
            assert x35.coefficient(T) == 0, T


def symmetry_check(F: Expansion) -> list[tuple[tuple, str, object, object]]:
    """Check unimodular covariance a(T) = det(U)^k a(U^T T U) inside the bound.

    U ranges over the swap (m <-> n), the r-negation (both determinant -1)
    and the unit shear (determinant +1), which generate GL2(Z).  Image
    indices outside the trace bound are skipped.  Returns the violations
    as (index, transform, expected, actual); empty means covariant as far
    as the bound can see.
    """
    if F.weight is None:
        raise ValueError("symmetry check requires a definite weight")
    sign = -1 if F.weight % 2 else 1
    p = F.modulus
    bound = F.trace_bound
    out = []
    for T in iter_l2_indices(bound):
        m, n, r = T
        a = F.coefficient(T)
        for label, T2, s in (
            ("swap", (n, m, r), sign),
            ("negate-r", (m, n, -r), sign),
            ("shear", (m, m + n + r, 2 * m + r), 1),
        ):
            if T2[0] + T2[1] > bound:
                continue
            expect = s * F.coefficient(T2)
            if p is not None:
                expect %= p
            if a != expect:
                out.append((T, label, expect, a))
    return out


def test_symmetry_check_flags_violations():
    # even weight: a((m,n,r)) must equal a((m,n,-r))
    F = Expansion(4, 2, {(1, 1, 1): 1, (1, 1, -1): 2})
    bad = symmetry_check(F)
    assert bad and all(m + n <= 2 for (m, n, _), *_ in bad)
    G = Expansion(4, 2, {(1, 1, 1): 1, (1, 1, -1): 1})
    assert symmetry_check(G) == []
    with pytest.raises(ValueError):
        symmetry_check(Expansion(None, 2))


def test_generators_have_expected_symmetries(genset_small):
    for F in genset_small.generators().values():
        assert symmetry_check(F) == []


def test_integrality(genset):
    assert all(type(c) is int for F in genset.generators().values() for c in F.coeffs.values())


def test_min_matrix_reference_names(genset_small):
    # sanity: the reference minima really are nonzero coefficients
    for name, T in MIN_MATRIX_REFERENCE.items():
        assert genset_small.atom(name).coefficient(T) != 0


def test_reference_table_is_antisymmetric():
    for (m, n, r), v in X35_LOW_TRACE.items():
        assert X35_LOW_TRACE[(n, m, r)] == -v


# ----- determinant helper ---------------------------------------------------


def det_oracle(values):
    """Exact determinant of a square matrix by cofactor expansion on plain fractions."""

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = Fraction(0)
        for j, head in enumerate(rows[0]):
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * head * det(minor)
        return total

    return det([list(map(Fraction, row)) for row in values])


def reference_product(F, G):
    """F * G by a bucketed convolution over packed indices, sharing no
    product code with `Expansion.__mul__`."""
    # (m, n, r) packs into the integer (m*(N+1) + n)*(4N+1) + r + N, so index
    # addition is one integer addition; the right factor is packed without
    # the +N offset.  Every index here has |r| <= trace <= N.
    bound = min(F.trace_bound, G.trace_bound)
    stride_n, stride_r = bound + 1, 4 * bound + 1
    buckets = [[] for _ in range(bound + 1)]
    for (m2, n2, r2), c2 in G.coeffs.items():
        if m2 + n2 <= bound:
            buckets[m2 + n2].append(((m2 * stride_n + n2) * stride_r + r2, c2))
    # partners[t]: every right term of trace <= t
    partners, running = [], []
    for bucket in buckets:
        running = running + bucket
        partners.append(running)
    out = {}
    for (m1, n1, r1), c1 in F.coeffs.items():
        if m1 + n1 <= bound:
            k1 = (m1 * stride_n + n1) * stride_r + r1 + bound
            for k2, c2 in partners[bound - m1 - n1]:
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    coeffs = {}
    for k, v in out.items():
        mn, r = divmod(k, stride_r)
        m, n = divmod(mn, stride_n)
        coeffs[m, n, r - bound] = v
    return Expansion(None, bound, coeffs, F.modulus)


DET4_LAPLACE_TERMS = (
    # (top column pair, bottom column pair, sign) along the first two rows
    ((0, 1), (2, 3), 1),
    ((0, 2), (1, 3), -1),
    ((0, 3), (1, 2), 1),
    ((1, 2), (0, 3), 1),
    ((1, 3), (0, 2), -1),
    ((2, 3), (0, 1), 1),
)


def det4_oracle(rows):
    """The 4x4 determinant of a matrix of expansions by the Laplace
    expansion along its first two rows: 24 reference products form the
    2x2 minors."""

    def minor(i, j, a, b):
        return reference_product(rows[a][i], rows[b][j]) - reference_product(rows[a][j], rows[b][i])

    total = None
    for (i, j), (i2, j2), sign in DET4_LAPLACE_TERMS:
        term = reference_product(minor(i, j, 0, 1), minor(i2, j2, 2, 3))
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def test_det4_matches_cofactor_expansion():
    rng = random.Random(4)
    for _ in range(20):
        values = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        rows = [[Expansion(0, 0, {(0, 0, 0): v}) for v in row] for row in values]
        got = det4_oracle(rows).coefficient((0, 0, 0))
        assert got == det_oracle(values)


def x35_oracle(forms):
    """The determinant of `build_x35` by `det4_oracle`: the first row weights
    each form by its weight, the other three rows are its partials;
    normalised at (2, 3, -1)."""
    rows = [[f.scale(f.weight) for f in forms]]
    rows += [[f.derivative(axis) for f in forms] for axis in ("11", "12", "22")]
    det = det4_oracle(rows)
    F = det.scale(Fraction(1) / det.coefficient((2, 3, -1)))
    return Expansion(35, F.trace_bound, F.coeffs, F.modulus)


def test_x35_equals_the_determinant_oracle(genset):
    assert x35_oracle((genset.atom("X4"), genset.atom("X6"), genset.atom("X10"), genset.atom("X12"))) == genset.atom("X35")


TOP = 2**64 - 1


def dense_columns(value, modulus=None, bound=7):
    """Four operands of weights 4, 6, 10, 12 with the coefficient value(T, j)
    of column j at every index to the bound."""
    return [
        Expansion(w, bound, {T: value(T, j) for T in iter_l2_indices(bound)}, modulus)
        for j, w in enumerate((4, 6, 10, 12))
    ]


def flip(T, j):
    """-1 on the blocks (j, 1) and (1, j) of column j, else 1: the columns
    stay sigma-symmetric, no two of them are proportional, and the
    determinant does not vanish."""
    return -1 if j in T[:2] and 1 in T[:2] else 1


# every coefficient at the top of its range fills the slots of the packed
# determinant to near their widths
@pytest.mark.parametrize("forms", [
    dense_columns(lambda T, j: flip(T, j) * TOP),
    dense_columns(lambda T, j: Fraction(flip(T, j) * TOP, 10**9 + 7 if j == 2 else 1)),
    dense_columns(lambda T, j: flip(T, j) * 22, modulus=23),
], ids=["2^64-1", "denominator", "mod23"])
def test_build_x35_on_dense_extreme_operands(forms):
    assert build_x35(*forms) == x35_oracle(forms)


# small columns whose determinant the pivot at (2, 3, -1) mostly does not
# divide: X35 keeps a Fraction there for the build check to name
@pytest.mark.parametrize("value", [
    lambda T, j: (3 * (T[0] + T[1]) + T[0] * T[1] + abs(T[2]) + 7 * j) % 11 - 5,
], ids=["sigma-symmetric-columns"])
def test_build_x35_keeps_a_fraction_where_the_pivot_does_not_divide(value):
    forms = dense_columns(value, bound=6)
    x35 = build_x35(*forms)
    assert x35 == x35_oracle(forms)
    assert any(type(c) is Fraction for c in x35.coeffs.values())


def test_build_x35_takes_rational_and_mod_p_operands(genset):
    # the determinant is linear in each column, so the normalization
    # cancels a scaled operand, and reduction mod p commutes with it
    x4, x6, x10, x12 = (genset.atom("X4"), genset.atom("X6"), genset.atom("X10"), genset.atom("X12"))
    assert build_x35(x4, x6, x10.scale(Fraction(1, 2)), x12) == genset.atom("X35")
    assert build_x35(x4, x6.scale(Fraction(3, 7)), x10, x12.scale(Fraction(-1, 2))) == genset.atom("X35")
    for p in (5, 7, 23):
        reduced = [f.reduce_mod(p) for f in (x4, x6, x10, x12)]
        assert build_x35(*reduced) == genset.atom("X35").reduce_mod(p)


@pytest.fixture(scope="module")
def genset16():
    return build_generator_set(16)


@pytest.mark.parametrize("p", [5, 7, 23])
def test_build_x35_from_the_reduced_generators_is_the_reduced_x35_at_trace_16(genset16, p):
    reduced = [genset16.atom(name).reduce_mod(p) for name in ("X4", "X6", "X10", "X12")]
    assert build_x35(*reduced) == genset16.atom("X35").reduce_mod(p)


def test_build_x35_refuses_columns_that_are_not_sigma_symmetric():
    forms = dense_columns(lambda T, j: flip(T, j) * 22)
    forms[2].coeffs[1, 2, 1] = 7  # a(2, 1, 1) stays -22
    with pytest.raises(ValueError, match="not sigma-symmetric"):
        build_x35(*forms)


def test_build_x35_requires_trace_five():
    fam = eisenstein_family(4)
    x4, x6 = fam[4], fam[6]
    with pytest.raises(ConstructionError):
        build_x35(x4, x6, x4, x6)  # wrong forms, but the bound check fires first


# ----- builder and cache ----------------------------------------------------


def test_build_generator_set_rejects_small_bound():
    with pytest.raises(ConstructionError):
        build_generator_set(4)


def test_generator_set_atom(genset_small):
    assert genset_small.atom("X4") == genset_small.atom("X4")
    assert genset_small.atom("E8") == genset_small.eisenstein[8]
    with pytest.raises(KeyError):
        genset_small.atom("X5")


def test_cache_round_trip(tmp_path, genset_small):
    assert load_generator_set(5, tmp_path) is None
    paths = save_generator_set(genset_small, tmp_path)
    assert sorted(p.name for p in paths) == sorted(
        cache_path(tmp_path, name, 5).name for name in CACHE_NAMES
    )
    loaded = load_generator_set(5, tmp_path)
    assert isinstance(loaded, GeneratorSet)
    assert loaded.generators() == genset_small.generators()
    assert loaded.eisenstein == genset_small.eisenstein


def test_ensure_generator_set_uses_cache(tmp_path):
    gen1, cached1 = ensure_generator_set(5, tmp_path)
    assert not cached1
    gen2, cached2 = ensure_generator_set(5, tmp_path)
    assert cached2
    assert gen1.atom("X35") == gen2.atom("X35")


def test_load_rejects_bound_mismatch(tmp_path, genset_small):
    save_generator_set(genset_small, tmp_path)
    assert load_generator_set(7, tmp_path) is None


@pytest.mark.parametrize("failure", ["in to_text", "mid-write"])
def test_save_interrupted_leaves_no_partial_file(tmp_path, genset_small, monkeypatch, failure):
    to_text = Expansion.to_text
    calls = []

    def fifth_fails(self):
        calls.append(self)
        if len(calls) < 5:
            return to_text(self)
        if failure == "in to_text":
            raise RuntimeError("interrupted")
        # a lone surrogate cannot be encoded, so the write fails after the
        # output file has been opened
        return to_text(self)[:200] + "\ud800"

    monkeypatch.setattr(Expansion, "to_text", fifth_fails)
    with pytest.raises((RuntimeError, UnicodeEncodeError)):
        save_generator_set(genset_small, tmp_path)
    monkeypatch.undo()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(cache_path(tmp_path, name, 5).name for name in CACHE_NAMES[:4])
    for name in CACHE_NAMES[:4]:
        text = cache_path(tmp_path, name, 5).read_text()
        assert text == genset_small.atom(name).to_text()
    assert load_generator_set(5, tmp_path) is None


# SHA-256 of every cache file at N = 12 and N = 16: the byte format and
# every coefficient are pinned, whatever kernels compute them
CACHE_SHA256 = {
    12: {
        "E4": "5e5b32ffbe68cd2cd0eb5e8877c8d3d4d7da0ab3f1841a8b7061a3716780ccc6",
        "E6": "c5a8704c77b3f4a5289322aa9ebfdc76a256c296c882644083f8ccd09643fa05",
        "E8": "ee946970bfa2f6631d4d6cb4d9117729bbaf843700b5369d5da59a46ac68c37c",
        "E10": "75664bb6641975d4877d8d7dd6c0db20956a3ac3c0e66858c7e489f9baaadd88",
        "E12": "c6fb1a34e66a78d72ef488101f29f73e7e70782a73fc338a311d5a090a234b23",
        "X4": "5e5b32ffbe68cd2cd0eb5e8877c8d3d4d7da0ab3f1841a8b7061a3716780ccc6",
        "X6": "c5a8704c77b3f4a5289322aa9ebfdc76a256c296c882644083f8ccd09643fa05",
        "X10": "cd9e17dd64532f490c4bc2a142f0dfa8a31aa30635ccddb28258318b385cb3e6",
        "X12": "cb5fe39a874cf77a9356dcc6a676bf365441c03c34a8b58d82a941bce3cefd98",
        "X35": "d68a69b5c4e3ff182833a17b1df15d4ea25547ddff284347ca52e63539831c80",
    },
    16: {
        "E4": "10d607cf79731294450f3be06cf4f552e252acd7cf563f83ca334b4f696cf6cd",
        "E6": "70f0cd14a57a7f0627b6e397d748c28dcc3c942279302b231c1783cf94723784",
        "E8": "d01c51de6cb7e32264b8e04b4eb530db90f634b79fd46634a4f82d4bde6c688b",
        "E10": "f9297b560aa205c621fbb8b6a950ca80320fdf6a8017119128d0b0c8cd2deed6",
        "E12": "2a5ab0b21887805dbe984ec04b97eb28eed2b20bae17ca50615fea97e72546fd",
        "X4": "10d607cf79731294450f3be06cf4f552e252acd7cf563f83ca334b4f696cf6cd",
        "X6": "70f0cd14a57a7f0627b6e397d748c28dcc3c942279302b231c1783cf94723784",
        "X10": "b823525d45cdf0ddb7c04ed2cf4d59b00d3ed7965b94cbb9768ead9410b75337",
        "X12": "eb75e00ffe5faa3cfb85c0ac1e7c9e36345dab0cab7c86c19ad2d4d548476b93",
        "X35": "983d615084b6e364f2d7fa8b62bacf2de7a4d01fdefe426539d1d1d6cea66e12",
    },
    20: {
        "E4": "905caa336e0293a529c33a6e09aff31e7d8b245d528fcf4732de5f07ea750e51",
        "E6": "e2501809bfd530c6dfb72c7ef2142a9089e9b987760ce9672fdba1b113579bbc",
        "E8": "b70f63916f9e0ea6e8f7e341a118efe8be2a91d2d1bef655fe43e8a59d48a994",
        "E10": "e4e1643600259560a0e112412ad93b478795e87bcbe5494a6ef8babd02f810ed",
        "E12": "21b540a01419d845ef80f89689f8078666e362d9d02e2e389942d1414f4ae813",
        "X4": "905caa336e0293a529c33a6e09aff31e7d8b245d528fcf4732de5f07ea750e51",
        "X6": "e2501809bfd530c6dfb72c7ef2142a9089e9b987760ce9672fdba1b113579bbc",
        "X10": "555b646167a87943bd20ba8224a63acd471fe32255b89b411580a351fdcbf70c",
        "X12": "465f9780d12f2461f67d12504b0bdda0a7d73c3b484250ac7cf1a69a44bd13e5",
        "X35": "7db974b4f46f041b9ff2c0f3f6e8e5efde47a63cbaad7b4b797a2aaa6c1cfcf0",
    },
}


@pytest.mark.parametrize("bound", sorted(CACHE_SHA256))
def test_cache_files_are_pinned(tmp_path, genset, bound):
    gen = genset if bound == genset.trace_bound else build_generator_set(bound)
    paths = save_generator_set(gen, tmp_path)
    digests = {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in zip(CACHE_NAMES, paths)
    }
    assert digests == CACHE_SHA256[bound]


# SHA-256 of the stdout of theta and dump at N = 9, in both domains; the two
# mod-p theta images vanish, so they are the bare header line
CLI_OUTPUT_SHA256_N9 = {
    ("theta", "X6"): "505d82e38d04fff7a76e6e4afb6cb67b4d2edbd082a31961c725a659b28f85d3",
    ("theta", "X35", "--prime", "23"):
        "2e9a4d91392aabb4edf5a02e90cceb30febd347637ab85e42f004db66b5e9bfc",
    ("theta", "E10", "--prime", "7"):
        "0cef97dbf5cb30000a49fd1f8b1da1ad8e38ed93206c7266692b54f47c45ce70",
    ("dump", "1/2*X4^3 - X6^2 + 3/7*E12"):
        "7802580137230aadf30680640ca6bbbdd44d85d85790d5d562c4202651ce06ca",
    ("dump", "X10*X12*X4", "--prime", "23"):
        "a703bf014d4cf9825327d3da6e117046d8e7691cc4ba2bf3f09e7f3eb97ff0c3",
}


@pytest.fixture(scope="module")
def cache9(tmp_path_factory, genset9):
    cache = tmp_path_factory.mktemp("cache9")
    save_generator_set(genset9, cache)
    return cache


@pytest.mark.parametrize("argv", list(CLI_OUTPUT_SHA256_N9), ids=" ".join)
def test_theta_and_dump_outputs_at_n9_are_pinned(cache9, capsys, argv):
    assert main([*argv, "--trace-bound", "9", "--cache-dir", str(cache9)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_OUTPUT_SHA256_N9[argv]
