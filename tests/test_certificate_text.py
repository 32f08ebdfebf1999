"""Full certificate text of every verdict path, pinned.

Certified, Refuted and Insufficient for both vanishing criteria and both
verifiers, and the `verify` command's certificate with the reference
record: each must keep printing these texts byte for byte, whatever code
builds it.
"""

import pytest

from siegel2.cli import main
from siegel2.congruence import sturm_even, sturm_odd, verify_theta_mod5, verify_x35_mod23
from siegel2.igusa import GeneratorSet, cache_path, save_generator_set
from siegel2.qexp import Expansion

PINNED = {
    "even_certified": (
        "certificate: 5*X12 mod 5 vanishes identically mod 5\n"
        "prime: 5\n"
        "weight: 12\n"
        "bound-matrix: (1, 1, 2)\n"
        "trace-checked: 2\n"
        "check: a(m,n,r) = 0 mod 5 on the box 0 <= m,n <= 1: pass [indices=8]\n"
        "verdict: Certified\n"
    ),
    "even_refuted": (
        "certificate: F vanishes identically mod 5\n"
        "prime: 5\n"
        "weight: 4\n"
        "bound-matrix: (0, 0, 0)\n"
        "trace-checked: 0\n"
        "check: a(m,n,r) = 0 mod 5 on the box 0 <= m,n <= 0: FAIL [nonzero residue at (0, 0, 0)]\n"
        "witness: (0, 0, 0)\n"
        "verdict: Refuted\n"
    ),
    "even_insufficient": (
        "certificate: F vanishes identically mod 5\n"
        "prime: 5\n"
        "weight: 12\n"
        "bound-matrix: (1, 1, 2)\n"
        "check: hypothesis region inside the trace bound: FAIL [need trace 2, have 1]\n"
        "verdict: Insufficient\n"
    ),
    "odd_certified": (
        "certificate: 23*X35 mod 23 vanishes identically mod 23\n"
        "prime: 23\n"
        "weight: 35\n"
        "bound-matrix: (2, 3, -1)\n"
        "trace-checked: 5\n"
        "check: a(T) = 0 mod 23 for every T up to the bound matrix: pass [indices=61]\n"
        "verdict: Certified\n"
    ),
    "odd_refuted": (
        "certificate: F vanishes identically mod 7\n"
        "prime: 7\n"
        "weight: 35\n"
        "bound-matrix: (2, 3, -1)\n"
        "trace-checked: 5\n"
        "check: a(T) = 0 mod 7 for every T up to the bound matrix: FAIL [nonzero residue at (2, 3, -1)]\n"
        "witness: (2, 3, -1)\n"
        "verdict: Refuted\n"
    ),
    "odd_insufficient": (
        "certificate: theta(X35) mod 23 vanishes identically mod 23\n"
        "prime: 23\n"
        "weight: 59\n"
        "bound-matrix: (4, 5, 3)\n"
        "check: hypothesis region inside the trace bound: FAIL [need trace 9, have 5]\n"
        "verdict: Insufficient\n"
    ),
    "x35_certified": (
        "certificate: a(T; X35) = 0 mod 23 at every index with 4*det(T) not divisible by 23\n"
        "prime: 23\n"
        "weight: 35\n"
        "bound-matrix: (4, 5, 3)\n"
        "trace-checked: 12\n"
        "check: theta image of X35 vanishes mod 23 at every index of trace <= 9: pass [indices=431]\n"
        "check: odd-weight criterion at weight 59 with bound matrix (4, 5, 3): pass [verdict=Certified]\n"
        "check: direct scan to trace 12: coefficients vanish mod 23 off the divisibility locus: pass [checked=892, exempt=103]\n"
        "check: converse refuted: a((1,6,1)) = 0 although 4*det((1,6,1)) = 23: pass [coefficient=0, fourdet=23]\n"
        "assumption: existence: the theta image of a weight-35 form with 23-integral coefficients is congruent mod 23 to some cusp form of weight 59 (used, not constructed)\n"
        "verdict: Certified\n"
    ),
    "x35_insufficient_small": (
        "certificate: a(T; X35) = 0 mod 23 at every index with 4*det(T) not divisible by 23\n"
        "prime: 23\n"
        "weight: 35\n"
        "trace-checked: 5\n"
        "check: trace bounds cover the proof region: FAIL [need 9 <= scan bound <= built bound 5, got 5]\n"
        "verdict: Insufficient\n"
    ),
    "theta5_certified": (
        "certificate: theta(X6) = 4*X12 mod 5\n"
        "prime: 5\n"
        "weight: 12\n"
        "bound-matrix: (1, 1, 2)\n"
        "trace-checked: 10\n"
        "check: theta(X6) and 4*X12 agree mod 5 at every index of trace <= 10: pass [indices=590]\n"
        "check: even-weight criterion at weight 12 with bound matrix (1, 1, 2): pass [verdict=Certified]\n"
        "assumption: existence: the theta image of a weight-6 form with 5-integral coefficients is congruent mod 5 to some cusp form of weight 12 (used, not constructed)\n"
        "verdict: Certified\n"
    ),
    "theta5_insufficient": (
        "certificate: theta(X6) = 4*X12 mod 5\n"
        "prime: 5\n"
        "weight: 12\n"
        "check: comparison region inside the trace bound: FAIL [need trace 10, have 5]\n"
        "verdict: Insufficient\n"
    ),
    "x35_refuted": (
        "certificate: a(T; X35) = 0 mod 23 at every index with 4*det(T) not divisible by 23\n"
        "prime: 23\n"
        "weight: 35\n"
        "bound-matrix: (4, 5, 3)\n"
        "trace-checked: 12\n"
        "check: theta image of X35 vanishes mod 23 at every index of trace <= 9: FAIL [nonzero at (2, 3, 0)]\n"
        "check: odd-weight criterion at weight 59 with bound matrix (4, 5, 3): FAIL [verdict=Refuted]\n"
        "check: direct scan to trace 12: coefficients vanish mod 23 off the divisibility locus: FAIL [checked=892, exempt=103, nonzero at (2, 3, 0)]\n"
        "check: converse refuted: a((1,6,1)) = 0 although 4*det((1,6,1)) = 23: pass [coefficient=0, fourdet=23]\n"
        "assumption: existence: the theta image of a weight-35 form with 23-integral coefficients is congruent mod 23 to some cusp form of weight 59 (used, not constructed)\n"
        "witness: (2, 3, 0)\n"
        "verdict: Refuted\n"
    ),
    # bumped off the locus past trace 9: only the direct scan sees it
    "x35_refuted_off_locus": (
        "certificate: a(T; X35) = 0 mod 23 at every index with 4*det(T) not divisible by 23\n"
        "prime: 23\n"
        "weight: 35\n"
        "bound-matrix: (4, 5, 3)\n"
        "trace-checked: 12\n"
        "check: theta image of X35 vanishes mod 23 at every index of trace <= 9: pass [indices=431]\n"
        "check: odd-weight criterion at weight 59 with bound matrix (4, 5, 3): pass [verdict=Certified]\n"
        "check: direct scan to trace 12: coefficients vanish mod 23 off the divisibility locus: FAIL [checked=892, exempt=103, nonzero at (5, 6, 1)]\n"
        "check: converse refuted: a((1,6,1)) = 0 although 4*det((1,6,1)) = 23: pass [coefficient=0, fourdet=23]\n"
        "assumption: existence: the theta image of a weight-35 form with 23-integral coefficients is congruent mod 23 to some cusp form of weight 59 (used, not constructed)\n"
        "witness: (5, 6, 1)\n"
        "verdict: Refuted\n"
    ),
    # bumped on the locus (4*det = 92 = 4*23): exempt, so still certified
    "x35_certified_on_locus_bump": (
        "certificate: a(T; X35) = 0 mod 23 at every index with 4*det(T) not divisible by 23\n"
        "prime: 23\n"
        "weight: 35\n"
        "bound-matrix: (4, 5, 3)\n"
        "trace-checked: 12\n"
        "check: theta image of X35 vanishes mod 23 at every index of trace <= 9: pass [indices=431]\n"
        "check: odd-weight criterion at weight 59 with bound matrix (4, 5, 3): pass [verdict=Certified]\n"
        "check: direct scan to trace 12: coefficients vanish mod 23 off the divisibility locus: pass [checked=892, exempt=103]\n"
        "check: converse refuted: a((1,6,1)) = 0 although 4*det((1,6,1)) = 23: pass [coefficient=0, fourdet=23]\n"
        "assumption: existence: the theta image of a weight-35 form with 23-integral coefficients is congruent mod 23 to some cusp form of weight 59 (used, not constructed)\n"
        "verdict: Certified\n"
    ),
    "theta5_refuted": (
        "certificate: theta(X6) = 4*X12 mod 5\n"
        "prime: 5\n"
        "weight: 12\n"
        "bound-matrix: (1, 1, 2)\n"
        "trace-checked: 10\n"
        "check: theta(X6) and 4*X12 agree mod 5 at every index of trace <= 10: FAIL [disagree at (2, 3, 1)]\n"
        "check: even-weight criterion at weight 12 with bound matrix (1, 1, 2): pass [verdict=Certified]\n"
        "assumption: existence: the theta image of a weight-6 form with 5-integral coefficients is congruent mod 5 to some cusp form of weight 12 (used, not constructed)\n"
        "witness: (2, 3, 1)\n"
        "verdict: Refuted\n"
    ),
    "cli_verify": (
        "certificate: a(T; X35) = 0 mod 23 at every index with 4*det(T) not divisible by 23\n"
        "prime: 23\n"
        "weight: 35\n"
        "bound-matrix: (4, 5, 3)\n"
        "trace-checked: 12\n"
        "check: X35 matches the reference coefficients at every index of trace <= 9: pass [indices=431, nonzero reference entries=108]\n"
        "check: theta image of X35 vanishes mod 23 at every index of trace <= 9: pass [indices=431]\n"
        "check: odd-weight criterion at weight 59 with bound matrix (4, 5, 3): pass [verdict=Certified]\n"
        "check: direct scan to trace 12: coefficients vanish mod 23 off the divisibility locus: pass [checked=892, exempt=103]\n"
        "check: converse refuted: a((1,6,1)) = 0 although 4*det((1,6,1)) = 23: pass [coefficient=0, fourdet=23]\n"
        "assumption: existence: the theta image of a weight-35 form with 23-integral coefficients is congruent mod 23 to some cusp form of weight 59 (used, not constructed)\n"
        "verdict: Certified\n"
    ),
    "cli_verify_tampered": (
        "certificate: a(T; X35) = 0 mod 23 at every index with 4*det(T) not divisible by 23\n"
        "prime: 23\n"
        "weight: 35\n"
        "bound-matrix: (4, 5, 3)\n"
        "trace-checked: 12\n"
        "check: X35 matches the reference coefficients at every index of trace <= 9: FAIL [at (2, 4, -1): expected -69, got -68]\n"
        "check: theta image of X35 vanishes mod 23 at every index of trace <= 9: FAIL [nonzero at (2, 4, -1)]\n"
        "check: odd-weight criterion at weight 59 with bound matrix (4, 5, 3): FAIL [verdict=Refuted]\n"
        "check: direct scan to trace 12: coefficients vanish mod 23 off the divisibility locus: FAIL [checked=892, exempt=103, nonzero at (2, 4, -1)]\n"
        "check: converse refuted: a((1,6,1)) = 0 although 4*det((1,6,1)) = 23: pass [coefficient=0, fourdet=23]\n"
        "assumption: existence: the theta image of a weight-35 form with 23-integral coefficients is congruent mod 23 to some cusp form of weight 59 (used, not constructed)\n"
        "witness: (2, 4, -1)\n"
        "verdict: Refuted\n"
    ),
}


def _bump(form, T):
    """form with its coefficient at T raised by one."""
    coeffs = dict(form.coeffs)
    coeffs[T] = form.coefficient(T) + 1
    return Expansion(form.weight, form.trace_bound, coeffs)


# case -> certificate, from the trace-12 and the trace-5 generator sets
CASES = {
    "even_certified": lambda g, s: sturm_even(
        g.atom("X12").scale(5).reduce_mod(5), 12, name="5*X12 mod 5"
    ),
    "even_refuted": lambda g, s: sturm_even(g.atom("X4").reduce_mod(5), 4),
    "even_insufficient": lambda g, s: sturm_even(Expansion(12, 1, {}, modulus=5), 12),
    "odd_certified": lambda g, s: sturm_odd(
        g.atom("X35").scale(23).reduce_mod(23), 35, name="23*X35 mod 23"
    ),
    "odd_refuted": lambda g, s: sturm_odd(g.atom("X35").reduce_mod(7), 35),
    "odd_insufficient": lambda g, s: sturm_odd(
        s.atom("X35").reduce_mod(23).theta(), 59, name="theta(X35) mod 23"
    ),
    "x35_certified": lambda g, s: verify_x35_mod23(g),
    "x35_insufficient_small": lambda g, s: verify_x35_mod23(s),
    "x35_refuted": lambda g, s: verify_x35_mod23(
        GeneratorSet({**g.forms, "X35": _bump(g.atom("X35"), (2, 3, 0))}, g.trace_bound)
    ),
    "x35_refuted_off_locus": lambda g, s: verify_x35_mod23(
        GeneratorSet({**g.forms, "X35": _bump(g.atom("X35"), (5, 6, 1))}, g.trace_bound)
    ),
    "x35_certified_on_locus_bump": lambda g, s: verify_x35_mod23(
        GeneratorSet({**g.forms, "X35": _bump(g.atom("X35"), (4, 6, 2))}, g.trace_bound)
    ),
    "theta5_certified": lambda g, s: verify_theta_mod5(g),
    "theta5_insufficient": lambda g, s: verify_theta_mod5(s),
    "theta5_refuted": lambda g, s: verify_theta_mod5(
        GeneratorSet({**g.forms, "X12": _bump(g.atom("X12"), (2, 3, 1))}, g.trace_bound)
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_certificate_text_is_pinned(case, genset, genset_small):
    assert CASES[case](genset, genset_small).to_text() == PINNED[case]


@pytest.mark.parametrize("case, status", [("cli_verify", 0), ("cli_verify_tampered", 1)])
def test_cli_verify_text_is_pinned(case, status, genset, tmp_path, capsys):
    save_generator_set(genset, tmp_path)
    if case == "cli_verify_tampered":
        x35_file = cache_path(tmp_path, "X35", 12)
        text = x35_file.read_text()
        x35_file.write_text(text.replace("\n2 4 -1 -69 1\n", "\n2 4 -1 -68 1\n"))
    assert main(["verify", "--cache-dir", str(tmp_path)]) == status
    out = capsys.readouterr()
    assert (out.out, out.err) == (PINNED[case], "")
