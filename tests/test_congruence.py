"""Tests of the p-minimum matrix, the vanishing criteria and the verifiers."""

import random

import pytest

from siegel2.congruence import (
    CERTIFIED,
    INSUFFICIENT,
    REFUTED,
    Certificate,
    _box_region,
    _order_region,
    min_matrix,
    sturm_bound_even,
    sturm_bound_odd,
    sturm_even,
    sturm_odd,
    verify_x35_mod23,
    verify_theta_mod5,
)
from siegel2.igusa import GeneratorSet
from indices import index_add
from siegel2.qexp import Expansion, order_key
from siegel2.reference import MIN_MATRIX_REFERENCE

# ----- p-minimum matrix -----------------------------------------------------


def test_min_matrix_examples(genset):
    assert min_matrix(genset.atom("X35").reduce_mod(23)) == (2, 3, -1)
    assert min_matrix(genset.atom("X10").reduce_mod(7)) == (1, 1, -1)


def test_min_matrix_reference_table(genset):
    for p in (5, 7, 11, 13, 23):
        for name, want in MIN_MATRIX_REFERENCE.items():
            got = min_matrix(genset.atom(name).reduce_mod(p))
            assert got == want, (name, p)


def test_min_matrix_zero_is_infinity():
    assert min_matrix(Expansion(4, 3).reduce_mod(7)) is None
    assert min_matrix(Expansion(4, 3, {(1, 1, 0): 7}).reduce_mod(7)) is None


def test_min_matrix_requires_reduction(genset_small):
    with pytest.raises(ValueError):
        min_matrix(genset_small.atom("X4"))


def test_min_matrix_is_order_minimal(genset):
    F = genset.atom("X35").reduce_mod(23)
    mk = order_key(min_matrix(F))
    assert all(order_key(T) >= mk for T in F.support())


# ----- bound formulas -------------------------------------------------------


def test_sturm_bound_even_values():
    assert sturm_bound_even(12, 5) == (1, 1, 2)
    assert sturm_bound_even(4, 5) == (0, 0, 0)
    assert sturm_bound_even(40, 7) == (4, 4, 8)
    with pytest.raises(ValueError):
        sturm_bound_even(35, 5)
    with pytest.raises(ValueError):
        sturm_bound_even(12, 3)


def test_sturm_bound_odd_values():
    assert sturm_bound_odd(35, 23) == (2, 3, -1)
    assert sturm_bound_odd(59, 23) == (4, 5, 3)
    assert sturm_bound_odd(45, 5) == (3, 4, 1)
    with pytest.raises(ValueError):
        sturm_bound_odd(34, 23)
    with pytest.raises(ValueError):
        sturm_bound_odd(25, 23)
    with pytest.raises(ValueError):
        sturm_bound_odd(59, 2)


def test_inclusion_check():
    # the even criterion's box lies inside the indices up to its bound matrix,
    # properly from k = 20 on: (t+1, 0, 0) precedes it from outside the box
    for k in (10, 12, 20, 30, 59):
        t = k // 10
        bound, box = (t, t, 2 * t), set(_box_region(t))
        assert box <= set(_order_region(bound))
        if k >= 20:
            w = (t + 1, 0, 0)
            assert order_key(w) < order_key(bound) and w not in box


# ----- even criterion -------------------------------------------------------


def test_sturm_even_certifies_zero(genset):
    F = genset.atom("X12").scale(5).reduce_mod(5)
    cert = sturm_even(F, 12, name="5*X12 mod 5")
    assert cert.verdict == CERTIFIED
    assert cert.bound_matrix == (1, 1, 2)
    assert cert.trace_checked == 2
    assert cert.witness is None


def test_sturm_even_refutes_with_witness(genset):
    cert = sturm_even(genset.atom("X4").reduce_mod(5), 4)
    assert cert.verdict == REFUTED
    assert cert.witness == (0, 0, 0)  # constant term 1


def test_sturm_even_methods_agree(genset):
    # the box criterion and a scan of every index up to the bound matrix
    # imply each other, so their verdicts and first witnesses agree
    cases = [
        (genset.atom("X12").scale(5).reduce_mod(5), 12),
        (genset.atom("X4").reduce_mod(5), 4),
        (genset.atom("X10").reduce_mod(7), 10),
        ((genset.atom("X4") * genset.atom("X6")).scale(7).reduce_mod(7), 10),
    ]
    for F, k in cases:
        cert = sturm_even(F, k)
        region = _order_region(sturm_bound_even(k, F.modulus))
        witness = next((T for T in region if F.coefficient(T)), None)
        assert cert.verdict == (CERTIFIED if witness is None else REFUTED)
        assert cert.witness == witness


def test_sturm_even_insufficient():
    F = Expansion(12, 1, {}, modulus=5)
    cert = sturm_even(F, 12)
    assert cert.verdict == INSUFFICIENT
    assert cert.trace_checked is None


# ----- odd criterion --------------------------------------------------------


def test_sturm_odd_refutes_x35_mod7(genset):
    cert = sturm_odd(genset.atom("X35").reduce_mod(7), 35)
    assert cert.verdict == REFUTED
    assert cert.witness == (2, 3, -1)
    assert cert.bound_matrix == (2, 3, -1)


def test_sturm_odd_certifies_theta_image(genset):
    F = genset.atom("X35").reduce_mod(23).theta()
    theta_image = Expansion(59, F.trace_bound, F.coeffs, F.modulus)
    cert = sturm_odd(theta_image, 59, name="theta(X35) mod 23")
    assert cert.verdict == CERTIFIED
    assert cert.bound_matrix == (4, 5, 3)
    assert cert.trace_checked == 9


def test_sturm_odd_insufficient(genset_small):
    theta_image = genset_small.atom("X35").reduce_mod(23).theta()
    cert = sturm_odd(theta_image, 59)
    assert cert.verdict == INSUFFICIENT


# ----- top-level verifiers --------------------------------------------------


def test_x35_mod23_certified(genset):
    cert = verify_x35_mod23(gen=genset)
    assert cert.verdict == CERTIFIED
    assert cert.witness is None
    assert cert.bound_matrix == (4, 5, 3)
    assert cert.trace_checked == 12
    assert len(cert.checks) == 4 and all(c.passed for c in cert.checks)
    assert any("existence" in a for a in cert.assumptions)


def test_x35_mod23_insufficient(genset_small):
    assert verify_x35_mod23(genset_small).verdict == INSUFFICIENT


def test_x35_mod23_refutes_faulty_input(genset):
    coeffs = dict(genset.atom("X35").coeffs)
    coeffs[(2, 3, 0)] = 1  # 4*det = 24, not divisible by 23
    x35 = Expansion(35, genset.trace_bound, coeffs)
    bad = GeneratorSet({**genset.forms, "X35": x35}, genset.trace_bound)
    cert = verify_x35_mod23(bad)
    assert cert.verdict == REFUTED
    assert cert.witness == (2, 3, 0)
    assert not all(c.passed for c in cert.checks)


def test_theta_mod5_certified(genset):
    cert = verify_theta_mod5(genset)
    assert cert.verdict == CERTIFIED
    assert cert.bound_matrix == (1, 1, 2)
    assert cert.trace_checked == 10
    assert cert.prime == 5


def test_theta_mod5_insufficient(genset_small):
    assert verify_theta_mod5(genset_small).verdict == INSUFFICIENT


# ----- additivity of the minimum --------------------------------------------


def assert_minmat_additive(F, G):
    """m_p(F*G) = m_p(F) + m_p(G), for factors whose minima sum inside the bound."""
    m, n, r = total = index_add(min_matrix(F), min_matrix(G))
    assert m + n <= min(F.trace_bound, G.trace_bound)
    assert min_matrix(F * G) == total


def test_minmat_additivity_examples(genset):
    assert_minmat_additive(genset.atom("X10").reduce_mod(23), genset.atom("X12").reduce_mod(23))
    assert_minmat_additive(genset.atom("X35").reduce_mod(7), genset.atom("X35").reduce_mod(7))


def test_minmat_additivity_random_products(genset):
    rng = random.Random(23)
    atoms = [genset.atom("X4"), genset.atom("X6"), genset.atom("X10"), genset.atom("X12")]
    for _ in range(10):
        p = rng.choice((5, 7, 11, 13, 23))
        F = rng.choice(atoms).reduce_mod(p)
        G = rng.choice(atoms).reduce_mod(p)
        assert_minmat_additive(F, G)


# ----- certificate text -----------------------------------------------------


def test_certificate_text_is_deterministic(genset):
    a = verify_x35_mod23(genset).to_text()
    b = verify_x35_mod23(genset).to_text()
    assert a == b
    assert a.startswith("certificate: a(T; X35) = 0 mod 23")
    assert "prime: 23\n" in a
    assert "bound-matrix: (4, 5, 3)\n" in a
    assert a.rstrip().endswith("verdict: Certified")
    assert "check: " in a and "assumption: " in a


def test_certificate_text_shape():
    cert = Certificate("demo claim", 7, None, None, None, verdict=REFUTED,
                       witness=(1, 1, 0))
    text = cert.to_text()
    assert text == (
        "certificate: demo claim\n"
        "prime: 7\n"
        "weight: -\n"
        "witness: (1, 1, 0)\n"
        "verdict: Refuted\n"
    )
