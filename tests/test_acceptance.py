"""Release gate: one test per acceptance criterion, one PASS/FAIL line each.

Run with `-s` to see the lines:

    pytest tests/test_acceptance.py -s

Everything here is redundant with the unit suites by design; this file is
the single place that demonstrates the full claim list end to end.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

from siegel2.congruence import (
    CERTIFIED,
    _box_region,
    _order_region,
    min_matrix,
    sturm_odd,
    theta_landing_assumption,
    verify_theta_mod5,
    verify_x35_mod23,
)
from siegel2.igusa import build_generator_set, genus1_eisenstein
from indices import index_add
from siegel2.qexp import Expansion, iter_l2_indices, order_key
from siegel2.reference import (
    MIN_MATRIX_REFERENCE,
    X35_LOW_TRACE,
    x35_reference_violations,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def random_expansion(rng, bound, weight=0):
    pool = list(iter_l2_indices(bound))
    support = rng.sample(pool, k=min(len(pool), rng.randint(1, 8)))
    coeffs = {}
    for T in support:
        num = rng.randint(-99, 99)
        den = rng.choice((1, 1, 2, 3, 5))
        coeffs[T] = Fraction(num, den)
    return Expansion(weight, bound, coeffs)


def test_criterion_1_golden_low_trace_expansion(genset):
    with criterion(1, "golden X35 expansion to trace 9"):
        assert x35_reference_violations(genset.atom("X35")) == []
        x35 = genset.atom("X35")
        assert x35.coefficient((2, 3, -1)) == 1
        assert x35.coefficient((2, 4, -1)) == -69
        assert x35.coefficient((3, 4, -2)) == -32384
        assert x35.coefficient((3, 6, -1)) == 105235626
        assert x35.coefficient((4, 5, -3)) == 107121810
        assert len(X35_LOW_TRACE) == 108
        # a fresh full build must be fast (well under desk scale)
        start = time.perf_counter()
        build_generator_set(12)
        assert time.perf_counter() - start < 600


def test_criterion_2_congruence_scan_to_trace_12(genset):
    with criterion(2, "mod-23 scan at trace <= 12 plus converse witness"):
        x35 = genset.atom("X35")
        violations = [
            T
            for T in iter_l2_indices(12)
            if (4 * T[0] * T[1] - T[2] * T[2]) % 23 and x35.coefficient(T) % 23
        ]
        assert violations == []
        m, n, r = w = (1, 6, 1)
        assert 4 * m * n - r * r == 23 and x35.coefficient(w) == 0


def test_criterion_3_theta_pipeline_certificate(genset):
    with criterion(3, "theta image certificate at weight 59"):
        theta_image = genset.atom("X35").reduce_mod(23).theta()
        assert all(theta_image.coefficient(T) == 0 for T in iter_l2_indices(9))
        cert = sturm_odd(theta_image, 59, name="theta(X35) mod 23")
        assert cert.verdict == CERTIFIED
        assert cert.bound_matrix == (4, 5, 3)
        # the pipeline states that the theta image lands on a cusp form of weight 59
        assumptions = verify_x35_mod23(genset).assumptions
        assert assumptions == [theta_landing_assumption(35, 23)] and "weight 59" in assumptions[0]


def test_criterion_4_theta_identity_mod_5(genset):
    with criterion(4, "theta(X6) = 4*X12 mod 5 with even-weight certificate"):
        lhs = genset.atom("X6").reduce_mod(5).theta()
        rhs = genset.atom("X12").reduce_mod(5).scale(4)
        for T in iter_l2_indices(10):
            assert lhs.coefficient(T) == rhs.coefficient(T), T
        cert = verify_theta_mod5(genset)
        assert cert.verdict == CERTIFIED
        assert cert.bound_matrix == (1, 1, 2)  # the m, n <= 1 region


def test_criterion_5_eisenstein_self_consistency(genset):
    with criterion(5, "restriction and squaring checks on the E family"):
        fam = genset.eisenstein
        for k in (4, 6, 8, 10, 12):
            assert fam[k].phi() == genus1_eisenstein(k, 12)
        assert fam[4] * fam[4] == fam[8]


def test_criterion_6_min_matrix_table_and_additivity(genset):
    with criterion(6, "p-minimum table and additivity under products"):
        for p in (5, 7, 11, 13, 23):
            for name, want in MIN_MATRIX_REFERENCE.items():
                assert min_matrix(genset.atom(name).reduce_mod(p)) == want, (name, p)
        rng = random.Random(20260818)
        names = list(MIN_MATRIX_REFERENCE)
        done = 0
        while done < 20:
            p = rng.choice((5, 7, 11, 13, 23))
            F = genset.atom(rng.choice(names)).reduce_mod(p)
            G = genset.atom(rng.choice(names)).reduce_mod(p)
            total = index_add(min_matrix(F), min_matrix(G))
            if total[0] + total[1] > 12:
                continue  # outside the truncation, additivity is untestable
            assert min_matrix(F * G) == total
            done += 1


def test_criterion_7_property_suites(genset):
    with criterion(7, "order laws, Leibniz, convolution, round-trip, inclusion"):
        rng = random.Random(35)
        draw = lambda: (
            rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6)
        )
        for _ in range(10_000):
            a, b, s, c, d = draw(), draw(), draw(), draw(), draw()
            ka, kb = order_key(a), order_key(b)
            # antisymmetry and translation invariance
            assert (ka < kb) == (kb > ka) and (ka > kb) == (kb < ka)
            kas, kbs = order_key(index_add(a, s)), order_key(index_add(b, s))
            assert (kas < kbs, kas == kbs) == (ka < kb, ka == kb)
            # strict monotonicity under sums
            if ka > kb and order_key(c) >= order_key(d):
                assert order_key(index_add(a, c)) > order_key(index_add(b, d))
            # cancellation: equal sums with a > b force e < d
            e = index_add(index_add(b, d), a, -1)
            if ka > kb:
                assert order_key(e) < order_key(d)

        for _ in range(10):  # Leibniz rule on random products
            F = random_expansion(rng, rng.randint(2, 5))
            G = random_expansion(rng, rng.randint(2, 5))
            for axis in ("11", "12", "22"):
                lhs = (F * G).derivative(axis)
                assert lhs == F.derivative(axis) * G + F * G.derivative(axis)

        for _ in range(10):  # convolution against the brute-force double sum
            F = random_expansion(rng, rng.randint(2, 6))
            G = random_expansion(rng, rng.randint(2, 6))
            H = F * G
            for T in iter_l2_indices(H.trace_bound):
                want = sum(
                    c1 * c2
                    for S1, c1 in F.coeffs.items()
                    for S2, c2 in G.coeffs.items()
                    if index_add(S1, S2) == T
                )
                assert H.coefficient(T) == want

        for F in (  # byte-exact serialization round trips
            genset.atom("X35"),
            genset.eisenstein[12],
            genset.atom("X10").reduce_mod(7),
            random_expansion(rng, 4, weight=8),
        ):
            text = F.to_text()
            G = Expansion.from_text(text)
            assert G == F and G.to_text() == text

        for k in (10, 12, 20, 30):  # the even box inside the order set
            t = k // 10
            assert set(_box_region(t)) <= set(_order_region((t, t, 2 * t)))
        # strictness witness at k = 20: outside the box, before the bound
        w, bound = (3, 0, 0), (2, 2, 4)
        assert order_key(w) < order_key(bound)
        assert w not in set(_box_region(2)) and order_key(w) > order_key((0, 0, 0))


def test_criterion_8_integrality(genset):
    with criterion(8, "integral coefficients for all five generators"):
        for F in genset.generators().values():
            assert all(isinstance(c, int) for c in F.coeffs.values())
