"""Tests of the index order, expansion arithmetic, operators and text format."""

import re
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from indices import index_add
from siegel2.qexp import (
    Expansion,
    ReductionError,
    iter_l2_indices,
    order_key,
)
from siegel2.kernel import product_sums

# the order lives on all of Lambda_2: arbitrary integer triples
lambda2 = st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))


@st.composite
def l2_indices(draw, max_trace=7):
    m = draw(st.integers(0, max_trace))
    n = draw(st.integers(0, max_trace - m))
    rmax = isqrt(4 * m * n)
    r = draw(st.integers(-rmax, rmax))
    return (m, n, r)


@st.composite
def expansions(draw, max_trace=5, weight=0, modulus=None):
    bound = draw(st.integers(0, max_trace))
    pool = list(iter_l2_indices(bound))
    support = draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
    if modulus is None:
        values = st.one_of(
            st.integers(-9, 9),
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
        )
    else:
        values = st.integers(0, modulus - 1)
    coeffs = {T: draw(values) for T in support}
    return Expansion(weight, bound, coeffs, modulus)


def assert_canonical(F):
    """Rational values are an int or a non-integral Fraction; residues are
    ints in [1, p)."""
    for c in F.coeffs.values():
        if F.modulus is None:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
        else:
            assert type(c) is int and 0 < c < F.modulus, c


# ----- index helpers ------------------------------------------------------


def test_order_examples():
    k = order_key
    assert k((1, 1, 0)) < k((2, 0, 0))  # same trace, smaller m
    assert k((2, 3, -1)) < k((2, 3, 1))  # same trace and m, smaller r
    assert k((0, 0, 0)) < k((1, 0, 0))
    assert k((2, 3, -1)) == k((2, 3, -1))
    assert k((1, 2, 0)) < k((2, 1, 0))


@given(a=lambda2, b=lambda2)
def test_order_trichotomy_and_antisymmetry(a, b):
    ka, kb = order_key(a), order_key(b)
    assert (ka < kb) + (ka == kb) + (ka > kb) == 1
    assert (ka < kb) == (kb > ka)
    assert (ka == kb) == (a == b)  # equal iff component-wise equal


@given(a=lambda2, b=lambda2, c=lambda2)
def test_order_transitivity(a, b, c):
    x, y, z = sorted([a, b, c], key=order_key)
    assert order_key(x) <= order_key(y) <= order_key(z)
    assert order_key(x) <= order_key(z)


@given(t1=lambda2, t2=lambda2, s1=lambda2, s2=lambda2)
def test_order_adds_over_sums(t1, t2, s1, s2):
    # strict inequalities survive index addition
    if order_key(t1) > order_key(t2) and order_key(s1) > order_key(s2):
        assert order_key(index_add(t1, s1)) > order_key(index_add(t2, s2))


@given(t1=lambda2, t2=lambda2, s=lambda2)
def test_order_shear_invariance(t1, t2, s):
    # translation by any index preserves the strict order
    if order_key(t1) > order_key(t2):
        assert order_key(index_add(t1, s)) > order_key(index_add(t2, s))
        assert order_key(index_add(t1, s, -1)) > order_key(index_add(t2, s, -1))


@given(t=lambda2, t2=lambda2, s2=lambda2)
def test_order_cancellation(t, t2, s2):
    # T + S = T' + S' and T > T'  implies  S < S'
    s = index_add(index_add(t2, s2), t, -1)
    if order_key(t) > order_key(t2):
        assert order_key(s) < order_key(s2)


def test_iter_l2_indices_is_sorted_and_complete():
    got = list(iter_l2_indices(4))
    assert all(type(T) is tuple for T in got)
    assert len(got) == len(set(got))
    assert got == sorted(got, key=order_key)
    brute = [
        (m, n, r)
        for m in range(5)
        for n in range(5 - m)
        for r in range(-10, 11)
        if 4 * m * n - r * r >= 0
    ]
    assert set(got) == set(brute)


# ----- expansion construction and validation --------------------------------


def test_constructor_validates():
    for T in ((1, 1, 3), (-1, 2, 0), (-1, -2, 0), (0, -1, 0)):
        with pytest.raises(ValueError, match=re.escape(f"index {T} is not positive semidefinite")):
            Expansion(4, 3, {T: 1})
    with pytest.raises(ValueError, match=re.escape("index (1, 1, 0) exceeds the trace bound 1")):
        Expansion(4, 1, {(1, 1, 0): 1})
    with pytest.raises(ValueError):
        Expansion(4, -1, {})
    with pytest.raises(ValueError):
        Expansion(4, 3, {}, modulus=6)  # composite modulus
    # zero coefficients are dropped, fractions canonicalized
    F = Expansion(4, 3, {(1, 0, 0): Fraction(4, 2), (1, 1, 0): 0})
    assert F.coeffs == {(1, 0, 0): 2}
    assert isinstance(F.coefficient((1, 0, 0)), int)
    assert all(type(T) is tuple for T in F.coeffs)


def test_mod_p_constructor_canonicalizes():
    F = Expansion(4, 2, {(1, 0, 0): -1, (1, 1, 0): Fraction(1, 2)}, modulus=7)
    assert F.coefficient((1, 0, 0)) == 6
    assert F.coefficient((1, 1, 0)) == 4  # inverse of 2 mod 7
    with pytest.raises(ReductionError):
        Expansion(4, 2, {(1, 0, 0): Fraction(1, 7)}, modulus=7)


def test_add_and_weight_rules():
    F = Expansion(4, 4, {(1, 0, 0): 3})
    G = Expansion(4, 4, {(1, 0, 0): -3, (1, 1, 1): 5})
    H = F + G
    assert H.coefficient((1, 0, 0)) == 0
    assert (1, 0, 0) not in H.coeffs  # exact cancellation drops the key
    assert H.coefficient((1, 1, 1)) == 5
    assert H.weight == 4
    assert F + Expansion(4, 4) == F
    with pytest.raises(ValueError):
        F + Expansion(6, 4, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        F + Expansion(4, 4, {(1, 0, 0): 1}, modulus=5)
    # a weightless operand absorbs
    assert (F + Expansion(None, 4)).weight is None


def test_add_respects_min_bound():
    F = Expansion(0, 5, {(2, 3, 0): 1, (1, 0, 0): 1})
    G = Expansion(0, 3, {(1, 1, 0): 1})
    H = F + G
    assert H.trace_bound == 3
    assert (2, 3, 0) not in H.coeffs


def test_scale():
    F = Expansion(10, 3, {(1, 1, 1): 6})
    assert F.scale(Fraction(1, 2)).coefficient((1, 1, 1)) == 3
    assert F.scale(0).coeffs == {}
    assert F.scale(0).weight == 10
    assert (2 * F).coefficient((1, 1, 1)) == 12  # __rmul__ scalar path
    Fp = F.reduce_mod(5)
    assert Fp.scale(Fraction(1, 2)).coefficient((1, 1, 1)) == 3  # 6/2 = 3 mod 5
    with pytest.raises(ValueError):
        Fp.scale(Fraction(1, 5))


def test_mul_binomial_example():
    F = Expansion(0, 4, {(0, 0, 0): 1, (1, 0, 0): 1})
    sq = F * F
    assert sq.coefficient((0, 0, 0)) == 1
    assert sq.coefficient((1, 0, 0)) == 2
    assert sq.coefficient((2, 0, 0)) == 1
    assert sq.weight == 0
    cube = F ** 3
    assert cube.coefficient((2, 0, 0)) == 3
    assert cube.coefficient((3, 0, 0)) == 1


@pytest.mark.parametrize("e", range(18))
def test_pow_is_repeated_multiplication_by_square_and_multiply(monkeypatch, e):
    F = Expansion(4, 6, {(0, 0, 0): 1, (1, 0, 0): 2, (1, 1, -1): Fraction(-1, 3)})
    power = Expansion.one(6)
    for _ in range(e):
        power = power * F
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return product_sums(*args, **kwargs)

    monkeypatch.setattr("siegel2.kernel.product_sums", counted)
    assert F ** e == power
    # bit_length - 1 squarings and popcount - 1 multiplies by F
    assert len(calls) == ((e.bit_length() - 1) + (bin(e).count("1") - 1) if e else 0)


def test_mul_weight_addition_and_identity():
    F = Expansion(4, 4, {(1, 1, 0): 7})
    G = Expansion(6, 4, {(1, 0, 0): 2})
    assert (F * G).weight == 10
    assert (F * G).coefficient((2, 1, 0)) == 14
    one = Expansion.one(4)
    assert F * one == F


def conv_oracle(F, G, T):
    """Brute-force double sum over the full supports."""
    total = 0
    for S1, c1 in F.coeffs.items():
        for S2, c2 in G.coeffs.items():
            if index_add(S1, S2) == T:
                total += c1 * c2
    return total


@given(F=expansions(), G=expansions())
def test_mul_matches_brute_force_convolution(F, G):
    H = F * G
    for T in iter_l2_indices(H.trace_bound):
        want = conv_oracle(F, G, T)
        got = H.coefficient(T)
        assert got == want


@st.composite
def mul_operands(draw):
    """Two expansions in one domain, each with its own bound (0..8) and weight."""
    modulus = draw(st.sampled_from([None, 5, 23]))
    if modulus is None:
        values = st.one_of(
            st.integers(-10**30, 10**30),
            st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12)),
        )
    else:
        values = st.integers(0, modulus - 1)
    operands = []
    for _ in range(2):
        bound = draw(st.integers(0, 8))
        weight = draw(st.sampled_from([None, 0, 4, 35]))
        pool = list(iter_l2_indices(bound))
        support = draw(st.lists(st.sampled_from(pool), max_size=40, unique=True))
        coeffs = {T: draw(values) for T in support}
        operands.append(Expansion(weight, bound, coeffs, modulus))
    return operands


def naive_product(F, G):
    """Every pair of terms, index added as triples; dropped past the smaller bound."""
    bound = min(F.trace_bound, G.trace_bound)
    acc = {}
    for (m1, n1, r1), c1 in F.coeffs.items():
        for (m2, n2, r2), c2 in G.coeffs.items():
            T = (m1 + m2, n1 + n2, r1 + r2)
            if T[0] + T[1] <= bound:
                acc[T] = acc.get(T, 0) + c1 * c2
    if F.modulus is not None:
        acc = {T: c % F.modulus for T, c in acc.items()}
    return {T: c for T, c in acc.items() if c}


def dense(value, modulus=None):
    """Every index to trace 8 with the coefficient value(T)."""
    return Expansion(None, 8, {T: value(T) for T in iter_l2_indices(8)}, modulus)


TOP = 2**64 - 1


# dense operands fill every slot of the block kernel to near its width
@example(operands=[dense(lambda T: TOP)] * 2)
@example(operands=[dense(lambda T: TOP), dense(lambda T: -TOP)])
@example(operands=[dense(lambda T: 22, 23)] * 2)
@example(operands=[
    dense(lambda T: Fraction(TOP, 10**9 + 7) if T[2] % 2 else TOP),
    dense(lambda T: Fraction(-TOP, 998244353)),
])
@given(operands=mul_operands())
def test_mul_matches_naive_convolution(operands):
    F, G = operands
    H = F * G
    assert H.trace_bound == min(F.trace_bound, G.trace_bound)
    assert H.modulus == F.modulus
    if F.weight is None or G.weight is None:
        assert H.weight is None
    else:
        assert H.weight == F.weight + G.weight
    assert H.coeffs == naive_product(F, G)
    assert all(type(T) is tuple for T in H.coeffs)
    assert_canonical(H)


# on the line (j, 0, 0) all seven term pairs of F * F meet at (6, 0, 0)
@pytest.mark.parametrize("support, scales", [
    (list(iter_l2_indices(6)), [1] * 6),
    ([(j, 0, 0) for j in range(7)], [1] * 6),
    ([(j, 0, 0) for j in range(7)], [Fraction(1, k) for k in range(1, 7)]),
], ids=["dense", "line", "line-over-1..6"])
def test_product_sums_width_counts_the_term_pairs(support, scales):
    # the six terms k * F * F add coherently, so a slot needs the term-count
    # bits of all six, each with its denominator multiplier
    F = Expansion(None, 6, {T: TOP for T in support})
    terms = [(1, F.scale(k).coeffs, F.coeffs) for k in scales]
    want = {T: sum(scales) * c for T, c in naive_product(F, F).items()}
    assert product_sums([terms], 6, None) == [want]


# a ray of indices that the factor weights, with its sigma image: on the ray
# every term pair of F * F meeting at its end adds coherently.  An integer
# factor rides in the term's sign, as the weights of the first row of X35 do
@pytest.mark.parametrize("factor, ray", [
    (35, [(j, 0, 0) for j in range(7)]),
    ("11", [(j, 0, 0) for j in range(7)]),
    ("22", [(0, j, 0) for j in range(7)]),
    ("12", [(j, j, 2 * j) for j in range(4)]),
])
@pytest.mark.parametrize("parity", [None, 1])
def test_product_sums_width_holds_the_operand_factors(factor, ray, parity):
    F = Expansion(None, 6, {T: TOP for m, n, r in ray for T in ((m, n, r), (n, m, r))})
    sign, axis = (factor, 1) if type(factor) is int else (1, factor)
    x, operand = weighted(F, axis), (F.coeffs, axis, parity)
    want = {T: sign * c for T, c in naive_product(x, x).items()}
    assert product_sums([[(sign, operand, operand)]], 6, None) == [want]


@st.composite
def product_sum_calls(draw):
    """(sums, bound, modulus): 1-3 sums of 1-6 signed terms over a pool of
    1-4 operands (some empty, some shared between terms) to trace bound + 1;
    rational operands carry distinct denominators."""
    modulus = draw(st.sampled_from([None, 5, 23]))
    bound = draw(st.integers(0, 6))
    if modulus is None:
        values = st.integers(-10**20, 10**20)
    else:
        values = st.integers(0, modulus - 1)
    indices = list(iter_l2_indices(bound + 1))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.lists(st.sampled_from(indices), max_size=20, unique=True))
        F = Expansion(None, bound + 1, {T: draw(values) for T in support}, modulus)
        if modulus is None:
            F = F.scale(Fraction(1, draw(st.integers(1, 12))))
        pool.append(F)
    term = st.tuples(st.sampled_from([1, -1, 2, -3]), st.sampled_from(pool), st.sampled_from(pool))
    sums = draw(st.lists(st.lists(term, min_size=1, max_size=6), min_size=1, max_size=3))
    return sums, bound, modulus


EMPTY, ONE = Expansion(None, 3), Expansion(None, 3, {(1, 1, 1): Fraction(2, 3)})


@example(call=([[(1, EMPTY, ONE)], [(-1, ONE, ONE), (2, ONE, EMPTY)]], 2, None))
@given(call=product_sum_calls())
def test_product_sums_match_the_naive_convolutions(call):
    sums, bound, modulus = call
    got = product_sums([[(s, F.coeffs, G.coeffs) for s, F, G in terms] for terms in sums],
                       bound, modulus)
    assert len(got) == len(sums)
    for terms, coeffs in zip(sums, got):
        assert coeffs == naive_sum(terms, bound, modulus)
        assert_canonical(Expansion._raw(None, bound, coeffs, modulus))
        assert all(type(T) is tuple for T in coeffs)


@given(call=product_sum_calls(), data=st.data())
def test_product_sums_stop_each_sum_at_its_reach(call, data):
    sums, bound, modulus = call
    reaches = [data.draw(st.integers(0, bound)) for _ in sums]
    got = product_sums([[(s, F.coeffs, G.coeffs) for s, F, G in terms] for terms in sums],
                       bound, modulus, reaches=reaches)
    assert got == [naive_sum(terms, reach, modulus) for terms, reach in zip(sums, reaches)]


def naive_sum(terms, bound, modulus):
    """sum(s * F * G) over the terms (s, F, G) to the bound, by naive_product."""
    want = {}
    for s, F, G in terms:
        for T, c in naive_product(F, G).items():
            if T[0] + T[1] <= bound:
                want[T] = want.get(T, 0) + s * c
    if modulus is not None:
        want = {T: c % modulus for T, c in want.items()}
    return {T: c for T, c in want.items() if c}


def swap(F):
    """F with m and n swapped: the image of F under sigma."""
    return Expansion(F.weight, F.trace_bound, {(n, m, r): c for (m, n, r), c in F.coeffs.items()},
                     F.modulus)


@st.composite
def kernel_operands(draw, bound, modulus):
    """An expansion to trace bound + 1 with up to 20 terms; a rational one
    over a denominator up to 12."""
    values = st.integers(-10**20, 10**20) if modulus is None else st.integers(0, modulus - 1)
    support = draw(st.lists(st.sampled_from(list(iter_l2_indices(bound + 1))), max_size=20, unique=True))
    F = Expansion(None, bound + 1, {T: draw(values) for T in support}, modulus)
    return F if modulus else F.scale(Fraction(1, draw(st.integers(1, 12))))


@st.composite
def parity_calls(draw):
    """(sums, parities, bound, modulus) as `product_sum_calls`, each sum of
    sigma-parity e = +1 or -1.  A term is a product of two operands that are
    sigma-symmetric or -antisymmetric with parities of product e, or the pair
    F*G and e * sigma(F)*sigma(G) of two arbitrary operands."""
    modulus = draw(st.sampled_from([None, 5, 23]))
    bound = draw(st.integers(0, 6))
    operand = kernel_operands(bound, modulus)
    sums, parities = [], []
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.sampled_from([1, -1]))
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            s, F, G = draw(st.sampled_from([1, -1, 2, -3])), draw(operand), draw(operand)
            if draw(st.booleans()):
                terms += [(s, F, G), (e * s, swap(F), swap(G))]
            else:
                f = draw(st.sampled_from([1, -1]))
                terms.append((s, F + swap(F).scale(f), G + swap(G).scale(e * f)))
        sums.append(terms)
        parities.append(e)
    return sums, parities, bound, modulus


def mirror(half, e, modulus):
    """The coefficients on m <= n completed by a(n, m, r) = e * a(m, n, r)."""
    rest = {(n, m, r): e * c for (m, n, r), c in half.items() if m < n}
    return half | ({T: c % modulus for T, c in rest.items()} if modulus else rest)


@given(call=parity_calls())
def test_product_sums_with_a_parity_match_the_naive_convolutions(call):
    sums, parities, bound, modulus = call
    dicts = [[(s, F.coeffs, G.coeffs) for s, F, G in terms] for terms in sums]
    want = [naive_sum(terms, bound, modulus) for terms in sums]
    got = product_sums(dicts, bound, modulus, parities)
    # the kernel returns the half m <= n of each sum, and the parity gives the rest
    assert got == [{T: c for T, c in coeffs.items() if T[0] <= T[1]} for coeffs in want]
    assert [mirror(half, e, modulus) for half, e in zip(got, parities)] == want
    # the wrong parity fails as soon as a coefficient off m = n is nonzero
    wrong = [mirror(half, -e, modulus)
             for half, e in zip(product_sums(dicts, bound, modulus, [-e for e in parities]), parities)]
    assert (wrong == want) == all(T[0] == T[1] for coeffs in want for T in coeffs)


FACTORS = [1, "11", "12", "22"]


def weighted(F, factor):
    """F times the factor of a kernel operand: F itself or its `derivative`."""
    return F if factor == 1 else F.derivative(factor)


@st.composite
def operand_calls(draw):
    """(terms, bound, modulus): 1-4 signed terms (s, (F, op), (G, op)), where
    op is None for the plain operand F or (factor, e) for the operand
    (F, factor, e) of an e-symmetric F, e = +1 or -1."""
    modulus = draw(st.sampled_from([None, 5, 23]))
    bound = draw(st.integers(0, 6))

    def operand():
        F = draw(kernel_operands(bound, modulus))
        if draw(st.booleans()):
            return F, None
        e = draw(st.sampled_from([1, -1]))
        return F + swap(F).scale(e), (draw(st.sampled_from(FACTORS)), e)

    terms = [(draw(st.sampled_from([1, -1, 2, -3])), operand(), operand())
             for _ in range(draw(st.integers(1, 4)))]
    return terms, bound, modulus


@given(call=operand_calls())
def test_product_sums_with_operand_factors_match_scale_and_derivative(call):
    terms, bound, modulus = call

    def operand(F, op):
        return F.coeffs if op is None else (F.coeffs, *op)

    def oracle(F, op):
        return F if op is None else weighted(F, op[0])

    got = product_sums([[(s, operand(*a), operand(*b)) for s, a, b in terms]], bound, modulus)
    assert got == [naive_sum([(s, oracle(*a), oracle(*b)) for s, a, b in terms], bound, modulus)]


@given(call=operand_calls())
def test_a_wrong_operand_parity_changes_the_product_off_the_diagonal(call):
    # times 1, the operand read on m <= n and mirrored with -e differs from the
    # true one exactly where the true one has a nonzero coefficient with m > n
    terms, bound, modulus = call
    one = Expansion.one(bound, modulus)
    for F, op in (a for _, a, _ in terms):
        if op is not None:
            factor, e = op
            want = naive_sum([(1, weighted(F, factor), one)], bound, modulus)
            got = product_sums([[(1, (F.coeffs, factor, -e), one.coeffs)]], bound, modulus)[0]
            assert (got == want) == all(T[0] <= T[1] for T in want)


@given(data=st.data(), modulus=st.sampled_from([None, 5, 23]))
def test_sub_is_add_of_the_negation(data, modulus):
    weights = st.sampled_from([None, 4, 6])
    F, G = (data.draw(expansions(modulus=modulus, weight=data.draw(weights))) for _ in range(2))
    try:
        want = F + (-G)
    except ValueError as err:  # distinct known weights
        with pytest.raises(ValueError, match=re.escape(str(err))):
            F - G
        return
    got = F - G
    assert got == want
    assert_canonical(got)


@given(F=expansions(max_trace=4), G=expansions(max_trace=4), H=expansions(max_trace=4))
def test_ring_laws(F, G, H):
    assert F * G == G * F
    assert (F * G) * H == F * (G * H)
    assert F * (G + H) == F * G + F * H
    for result in (F + G, F - G, F * G, F.scale(Fraction(2, 3)), F.scale(6), F.theta()):
        assert_canonical(result)


@given(F=expansions(modulus=7), G=expansions(modulus=7))
def test_mod_p_mul_matches_brute_force(F, G):
    H = F * G
    for T in iter_l2_indices(H.trace_bound):
        assert H.coefficient(T) == conv_oracle(F, G, T) % 7
    for result in (F, H, F + G, F - G, F.scale(Fraction(3, 2)), F.theta()):
        assert_canonical(result)
    for axis in ("11", "12", "22"):
        assert_canonical(F.derivative(axis))


# ----- operators ---------------------------------------------------------


def test_derivative_axes():
    F = Expansion(4, 5, {(2, 3, -1): 5})
    assert F.derivative("11").coefficient((2, 3, -1)) == 10
    assert F.derivative("22").coefficient((2, 3, -1)) == 15
    assert F.derivative("12").coefficient((2, 3, -1)) == -5
    assert F.derivative("11").weight is None
    with pytest.raises(ValueError):
        F.derivative("21")
    half = Expansion(None, 3, {(2, 0, 0): Fraction(1, 2)}).derivative("11")
    assert half.coeffs == {(2, 0, 0): 1}
    assert_canonical(half)


@pytest.mark.parametrize("axis", ["11", "12", "22"])
@given(F=expansions(max_trace=4), G=expansions(max_trace=4))
def test_derivative_leibniz(axis, F, G):
    lhs = (F * G).derivative(axis)
    rhs = F.derivative(axis) * G + F * G.derivative(axis)
    assert lhs == rhs
    assert_canonical(F.derivative(axis))


def test_theta_examples():
    F = Expansion(35, 5, {(2, 3, -1): 1})
    assert F.theta().coefficient((2, 3, -1)) == Fraction(23, 4)
    assert F.theta().weight is None
    # rank <= 1 indices are annihilated
    G = Expansion(4, 4, {(0, 0, 0): 3, (1, 0, 0): 5, (1, 1, 2): 7, (1, 1, 1): 11})
    th = G.theta()
    assert th.coeffs == {(1, 1, 1): Fraction(33, 4)}


def test_theta_mod_p():
    F = Expansion(35, 5, {(2, 3, -1): 1}).reduce_mod(23)
    assert F.theta().coeffs == {}  # 23/4 = 0 mod 23
    G = Expansion(10, 2, {(1, 1, 1): 1}).reduce_mod(5)
    # det = 3/4, and 3 * inv(4) = 3 * 4 = 12 = 2 mod 5
    assert G.theta().coefficient((1, 1, 1)) == 2
    with pytest.raises(ValueError):
        Expansion(10, 2, {(1, 1, 1): 1}).reduce_mod(2).theta()


def test_phi():
    F = Expansion(4, 3, {(0, 0, 0): 1, (1, 0, 0): 240, (2, 0, 0): 2160, (1, 1, 1): 5})
    assert F.phi() == [1, 240, 2160, 0]


# ----- reduction ----------------------------------------------------------


def test_reduce_mod_examples():
    F = Expansion(0, 2, {(0, 0, 0): Fraction(23, 4), (1, 0, 0): 46, (1, 1, 1): 3})
    G = F.reduce_mod(23)
    assert G.coeffs == {(1, 1, 1): 3}
    assert all(type(T) is tuple for T in G.coeffs)
    assert G.modulus == 23 and G.weight == 0
    with pytest.raises(ValueError):
        G.reduce_mod(23)  # already reduced
    with pytest.raises(ValueError):
        F.reduce_mod(4)  # not prime


def test_reduce_mod_reports_offending_index():
    F = Expansion(0, 4, {(1, 1, 1): Fraction(1, 23), (0, 0, 0): 1})
    with pytest.raises(ReductionError) as err:
        F.reduce_mod(23)
    assert err.value.index == (1, 1, 1)
    assert err.value.modulus == 23


def test_reduce_mod_reports_the_least_offender_in_index_order():
    # dict order puts (2, 1, 1) first; the index order puts (1, 2, 1) first
    coeffs = {(2, 1, 1): Fraction(1, 23), (0, 0, 0): 1, (1, 2, 1): Fraction(2, 23)}
    F = Expansion(0, 4, coeffs)
    assert list(F.coeffs)[0] == (2, 1, 1)
    with pytest.raises(ReductionError) as err:
        F.reduce_mod(23)
    assert err.value.index == (1, 2, 1)
    assert err.value.coefficient == Fraction(2, 23)


def test_require_p_integral_raises_the_error_of_reduce_mod():
    coeffs = {(2, 1, 1): Fraction(1, 23), (0, 0, 0): Fraction(1, 2), (1, 2, 1): Fraction(2, 23)}
    F = Expansion(0, 4, coeffs)
    with pytest.raises(ReductionError) as scanned:
        F.require_p_integral(23)
    with pytest.raises(ReductionError) as reduced:
        F.reduce_mod(23)
    assert (scanned.value.index, scanned.value.coefficient) == ((1, 2, 1), Fraction(2, 23))
    assert str(scanned.value) == str(reduced.value)
    F.require_p_integral(5)  # every denominator is prime to 5
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        F.require_p_integral(4)


@given(F=expansions())
def test_reduce_mod_is_ring_map(F):
    p = 11
    try:
        Fp = F.reduce_mod(p)
    except ReductionError:
        return
    assert_canonical(Fp)
    assert (F + F).reduce_mod(p) == Fp + Fp
    assert (F * F).reduce_mod(p) == Fp * Fp


# ----- serialization --------------------------------------------------------


@given(F=expansions(weight=4))
def test_text_round_trip_rational(F):
    text = F.to_text()
    G = Expansion.from_text(text)
    assert G == F
    assert_canonical(G)
    assert G.to_text() == text


@given(F=expansions(weight=0, modulus=13))
def test_text_round_trip_mod_p(F):
    text = F.to_text()
    G = Expansion.from_text(text)
    assert G == F
    assert_canonical(G)
    assert G.to_text() == text


def test_text_format_shape():
    F = Expansion(10, 3, {(1, 1, -1): Fraction(3, 2), (1, 1, 1): 4})
    lines = F.to_text().splitlines()
    assert lines[0] == "qexp 10 3 rational"
    assert lines[1] == "1 1 -1 3 2"
    assert lines[2] == "1 1 1 4 1"
    weightless = Expansion(None, 2).to_text()
    assert weightless.splitlines()[0] == "qexp - 2 rational"
    assert Expansion.from_text(weightless).weight is None


MALFORMED = [  # (text, the message of its refusal)
    ("", "empty expansion text"),
    ("\n  \n", "empty expansion text"),
    ("qexp 4 x rational\n", "bad expansion header: 'qexp 4 x rational'"),
    ("nope 4 3 rational\n", "bad expansion header: 'nope 4 3 rational'"),
    ("qexp 4 3 rational 7\n", "bad expansion header: 'qexp 4 3 rational 7'"),
    ("qexp 4 3 mod\n", "bad expansion header: 'qexp 4 3 mod'"),
    ("qexp 4 3 mod 4\n", "modulus 4 is not prime"),
    ("qexp 4 -1 rational\n", "trace bound must be >= 0"),
    ("qexp 4 3 rational\n1 1 1 1\n", "bad coefficient line: '1 1 1 1'"),  # no denominator
    ("qexp 4 3 mod 23\n1 1 1 1 1\n", "bad coefficient line: '1 1 1 1 1'"),
    ("qexp 4 3 rational\n1 1 1 1 0\n", "bad coefficient line: '1 1 1 1 0'"),
    ("qexp 4 3 rational\n1 0 0 1e3 1\n", "bad coefficient line: '1 0 0 1e3 1'"),
    ("qexp 4 3 rational\n1 0 0 x 1\n", "bad coefficient line: '1 0 0 x 1'"),
    # int() reads these, to_text never writes them
    ("qexp 4 3 rational\n1 0 0 \u0663 1\n", "bad coefficient line: '1 0 0 \u0663 1'"),
    ("qexp 4 3 rational\n1 0 0 2_40 1\n", "bad coefficient line: '1 0 0 2_40 1'"),
    ("qexp 4 3 rational\n1 0 0 +7 1\n", "bad coefficient line: '1 0 0 +7 1'"),
    ("qexp \u0664 3 rational\n", "bad expansion header: 'qexp \u0664 3 rational'"),
    ("qexp 4 3 mod 2_3\n", "bad expansion header: 'qexp 4 3 mod 2_3'"),
    # str.split() and int() read these too: separators other than one
    # space, leading zeros, -0, a blank line, a last line without its "\n"
    ("qexp 4 3 rational\n1\x1f0 0 3 1\n", "bad coefficient line: '1\\x1f0 0 3 1'"),
    ("qexp 4 3 rational\n1\t0 0 3 1\n", "bad coefficient line: '1\\t0 0 3 1'"),
    ("qexp 4 3 rational\n1  0 0 3 1\n", "bad coefficient line: '1  0 0 3 1'"),
    ("qexp 4 3 rational\n1 0 0 007 1\n", "bad coefficient line: '1 0 0 007 1'"),
    ("qexp 4 3 rational\n1 0 0 -0 1\n", "bad coefficient line: '1 0 0 -0 1'"),
    ("qexp 4 3 rational\n1 0 0 3 1\n\n1 1 0 3 1\n", "bad coefficient line: ''"),
    ("qexp 4 3 rational\n1 0 0 3 1", "bad coefficient line: '1 0 0 3 1'"),
    ("qexp\x1f4 3 rational\n", "bad expansion header: 'qexp\\x1f4 3 rational'"),
    ("qexp 4 03 rational\n", "bad expansion header: 'qexp 4 03 rational'"),
    ("qexp 4 3 rational\n1 1 1 1 1\n1 1 1 2 1\n", "duplicate index (1, 1, 1)"),
    ("qexp 4 3 rational\n1 1 1 0 1\n1 1 1 2 1\n", "duplicate index (1, 1, 1)"),
    ("qexp 4 3 mod 23\n1 1 3 1\n", "index (1, 1, 3) is not positive semidefinite"),
    ("qexp 4 3 mod 23\n-1 0 0 1\n", "index (-1, 0, 0) is not positive semidefinite"),
    ("qexp 4 3 rational\n2 2 0 1 1\n", "index (2, 2, 0) exceeds the trace bound 3"),
]


def test_from_text_rejects_malformed():
    for text, message in MALFORMED:
        with pytest.raises(ValueError, match=re.escape(message)):
            Expansion.from_text(text)


@given(F=st.one_of(expansions(weight=4), expansions(modulus=13)), data=st.data())
def test_from_text_refuses_any_one_character_changed_to_a_foreign_one(F, data):
    # every text to_text writes is ASCII integers one space apart, each line
    # ending with "\n": none of these characters can take one's place
    text = F.to_text()
    i = data.draw(st.integers(0, len(text) - 1))
    c = data.draw(st.sampled_from([c for c in "\t\x1c\x1d\x1e\x1f\r +_\u0663" if c != text[i]]))
    with pytest.raises(ValueError):
        Expansion.from_text(text[:i] + c + text[i + 1:])


def test_from_text_stores_canonical_nonzero_values():
    F = Expansion.from_text("qexp 4 3 rational\n0 0 0 1 1\n1 1 1 0 1\n1 1 0 2 2\n1 1 -1 3 -6\n")
    assert F.coeffs == {(0, 0, 0): 1, (1, 1, 0): 1, (1, 1, -1): Fraction(-1, 2)}
    assert type(F.coeffs[(1, 1, 0)]) is int
    assert all(type(T) is tuple for T in F.coeffs)
    G = Expansion.from_text("qexp 4 3 mod 23\n0 0 0 24\n1 1 1 23\n1 1 0 -1\n")
    assert G.coeffs == {(0, 0, 0): 1, (1, 1, 0): 22}
    assert G.modulus == 23 and G.weight == 4 and G.trace_bound == 3
