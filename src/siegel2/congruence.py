"""Mod-p calculus: p-minimum matrices, finite vanishing criteria, and the
end-to-end mod-23 verification for the odd generator, with plain-text
certificates.

The p-minimum matrix m_p(F) of an expansion reduced mod p is the least
index (in the (trace, m, r) order) carrying a nonzero residue, or infinity
when everything vanishes; it is additive under multiplication.

Vanishing criteria.  For p >= 5 and even weight k, a form vanishes mod p
as soon as its coefficients vanish on the finite box 0 <= m, n <= floor(k/10)
(equivalently, by inclusion, at every index preceding the bound matrix
(t, t, 2t) with t = floor(k/10)).  For odd weight k >= 35 the form is
divisible by the weight-35 generator and the criterion tightens to the
set of indices preceding (t+2, t+3, 2t-1) with t = floor((k-35)/10).
`sturm_even` and `sturm_odd` run one criterion body: the even one scans
the box (`_box_region`), the odd one the order set (`_order_region`).
Both verifiers run one theta-congruence routine, `_theta_checks`: a mod-p
difference is scanned (`_scan_region`) on every index up to a trace, then
the criterion of the weight's parity certifies that it vanishes identically.
Every verifier emits a `Certificate`, a named tuple holding its
`CheckRecord`s and assumptions, and never widens its hypotheses silently:
an expansion whose trace bound cannot host the required region yields the
one "Insufficient" certificate shape (`_insufficient`), and every unproved
existence statement consumed by a pipeline is spelled out in the
certificate's assumption list.

The mod-23 theorem: every Fourier coefficient of X35 sitting at an index
T with 4*det(T) not divisible by 23 vanishes mod 23.  `verify_x35_mod23`
certifies it in two independent ways: (a) the theta image of X35 mod 23
is checked to vanish for trace <= 9 and then certified identically zero
mod 23 through the odd-weight criterion at weight 59 = 35 + 23 + 1
(assuming the theta image lands on a cusp form of that weight mod 23);
(b) a direct scan of the built coefficients up to the working bound.
The converse of the theorem is refuted by the witness a((1,6,1)) = 0
whose index has 4*det = 23.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .qexp import Expansion, iter_l2_indices, order_key

__all__ = [
    "CERTIFIED",
    "REFUTED",
    "INSUFFICIENT",
    "min_matrix",
    "sturm_bound_even",
    "sturm_bound_odd",
    "CheckRecord",
    "Certificate",
    "sturm_even",
    "sturm_odd",
    "theta_landing_assumption",
    "x35_mod23_insufficient",
    "verify_x35_mod23",
    "theta_mod5_insufficient",
    "verify_theta_mod5",
]

CERTIFIED = "Certified"
REFUTED = "Refuted"
INSUFFICIENT = "Insufficient"


def _modulus_of(F: Expansion) -> int:
    if F.modulus is None:
        raise ValueError("expansion must be reduced mod p first")
    return F.modulus


def min_matrix(F: Expansion) -> tuple[int, int, int] | None:
    """Least index (in the (trace, m, r) order) with a nonzero residue, or
    None for infinity: F vanishes mod p up to its trace bound."""
    _modulus_of(F)
    # residues are stored canonical and nonzero: the support is the key set
    return min(F.coeffs, key=order_key) if F.coeffs else None


def _require_prime_ge5(p: int) -> None:
    if p < 5:
        raise ValueError(f"the vanishing criteria need p >= 5; got {p}")


def sturm_bound_even(k: int, p: int) -> tuple[int, int, int]:
    """Bound matrix (t, t, 2t), t = floor(k/10), of the even-weight criterion."""
    if k <= 0 or k % 2:
        raise ValueError("even positive weight required")
    _require_prime_ge5(p)
    t = k // 10
    return t, t, 2 * t


def sturm_bound_odd(k: int, p: int) -> tuple[int, int, int]:
    """Bound matrix (t+2, t+3, 2t-1), t = floor((k-35)/10), of the odd-weight criterion."""
    if k < 35 or k % 2 == 0:
        raise ValueError("odd weight >= 35 required")
    _require_prime_ge5(p)
    t = (k - 35) // 10
    return t + 2, t + 3, 2 * t - 1


class CheckRecord(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class Certificate(NamedTuple):
    """Deterministic, machine-parseable record of one verification run.

    No timestamps, no environment data: the same inputs always produce
    byte-identical text.  A record is a named tuple: `_replace` makes an
    amended copy.
    """

    claim: str
    prime: int
    weight: int | None
    bound_matrix: tuple[int, int, int] | None
    trace_checked: int | None
    checks: Sequence[CheckRecord] = ()
    assumptions: Sequence[str] = ()
    verdict: str = INSUFFICIENT
    witness: tuple[int, int, int] | None = None

    def to_text(self) -> str:
        lines = [
            f"certificate: {self.claim}",
            f"prime: {self.prime}",
            f"weight: {'-' if self.weight is None else self.weight}",
        ]
        if self.bound_matrix is not None:
            lines.append(f"bound-matrix: {self.bound_matrix}")
        if self.trace_checked is not None:
            lines.append(f"trace-checked: {self.trace_checked}")
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f" [{c.detail}]" if c.detail else ""
            lines.append(f"check: {c.name}: {status}{suffix}")
        for a in self.assumptions:
            lines.append(f"assumption: {a}")
        if self.witness is not None:
            lines.append(f"witness: {self.witness}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def _insufficient(claim, p, k, bound, trace, check, detail) -> Certificate:
    """The certificate of a run whose data cannot host the region it needs."""
    return Certificate(
        claim, p, k, bound, trace, [CheckRecord(check, False, detail)], [], INSUFFICIENT
    )


def _verdict(checks) -> str:
    return CERTIFIED if all(c.passed for c in checks) else REFUTED


def _box_region(t: int) -> list[tuple[int, int, int]]:
    """The box 0 <= m, n <= t of the even criterion, in the index order."""
    return [T for T in iter_l2_indices(2 * t) if T[0] <= t and T[1] <= t]


def _order_region(bound) -> list[tuple[int, int, int]]:
    """Every index preceding or equal to the bound matrix, in the index order."""
    bk = order_key(bound)
    return [T for T in iter_l2_indices(bound[0] + bound[1]) if order_key(T) <= bk]


def _scan_region(F: Expansion, region) -> tuple[int, int, int] | None:
    """First violation (in the index order) of 'residue == 0' on the region."""
    for T in region:
        if F.coefficient(T):
            return T
    return None


def _sturm(F: Expansion, k: int, bound, name: str) -> Certificate:
    """The criterion body shared by both parities: scan the hypothesis
    region of the bound matrix, the box for even k and the order set for
    odd k."""
    p = F.modulus
    claim = f"{name} vanishes identically mod {p}"
    needed = bound[0] + bound[1]
    if F.trace_bound < needed:
        return _insufficient(
            claim, p, k, bound, None, "hypothesis region inside the trace bound",
            f"need trace {needed}, have {F.trace_bound}",
        )
    if k % 2 == 0:
        region = _box_region(bound[0])
        desc = f"a(m,n,r) = 0 mod {p} on the box 0 <= m,n <= {bound[0]}"
    else:
        region = _order_region(bound)
        desc = f"a(T) = 0 mod {p} for every T up to the bound matrix"
    witness = _scan_region(F, region)
    detail = f"indices={len(region)}" if witness is None else f"nonzero residue at {witness}"
    checks = [CheckRecord(desc, witness is None, detail)]
    return Certificate(claim, p, k, bound, needed, checks, [], _verdict(checks), witness)


def sturm_even(F: Expansion, k: int, name: str = "F") -> Certificate:
    """Certify F == 0 mod p from finitely many vanishing coefficients (even k).

    The hypothesis region is the box 0 <= m, n <= floor(k/10); it lies
    inside the set of indices up to the bound matrix (t, t, 2t).
    """
    return _sturm(F, k, sturm_bound_even(k, _modulus_of(F)), name)


def sturm_odd(F: Expansion, k: int, name: str = "F") -> Certificate:
    """Certify F == 0 mod p for odd weight k >= 35 (F divisible by X35)."""
    return _sturm(F, k, sturm_bound_odd(k, _modulus_of(F)), name)


def theta_landing_assumption(k: int, p: int) -> str:
    return (
        f"existence: the theta image of a weight-{k} form with {p}-integral "
        f"coefficients is congruent mod {p} to some cusp form of weight {k + p + 1} "
        f"(used, not constructed)"
    )


def _theta_checks(F: Expansion, k: int, trace: int, claim: str, miss: str):
    """The theta-congruence pipeline of both verifiers: F, a mod-p difference,
    must vanish at every index of trace <= `trace`, and the criterion of k's
    parity then certifies it vanishes identically.  Returns (witness or None,
    the criterion's bound matrix, [scan record named `claim`, criterion
    record]); `miss` words the scan's witness."""
    region = list(iter_l2_indices(trace))
    witness = _scan_region(F, region)
    criterion, parity = (sturm_odd, "odd") if k % 2 else (sturm_even, "even")
    sub = criterion(F, k)
    detail = f"indices={len(region)}" if witness is None else f"{miss} {witness}"
    return witness, sub.bound_matrix, [
        CheckRecord(claim, witness is None, detail),
        CheckRecord(
            f"{parity}-weight criterion at weight {k} with bound matrix {sub.bound_matrix}",
            sub.verdict == CERTIFIED, f"verdict={sub.verdict}",
        ),
    ]


_X35_CLAIM = "a(T; X35) = 0 mod 23 at every index with 4*det(T) not divisible by 23"


def x35_mod23_insufficient(trace_bound: int) -> Certificate | None:
    """The Insufficient certificate of `verify_x35_mod23` when the trace
    bound cannot host its proof region, else None: it depends on the bound alone."""
    if trace_bound < 9:
        return _insufficient(
            _X35_CLAIM, 23, 35, None, trace_bound, "trace bounds cover the proof region",
            f"need 9 <= scan bound <= built bound {trace_bound}, got {trace_bound}",
        )
    return None


def verify_x35_mod23(gen) -> Certificate:
    """Certify: a(T; X35) = 0 mod 23 whenever 23 does not divide 4*det(T).

    gen: a GeneratorSet with trace_bound >= 9.
    Runs the theta-image pipeline (trace <= 9 vanishing + odd-weight
    criterion at weight 59) and an independent direct scan to the trace bound.
    """
    short = x35_mod23_insufficient(gen.trace_bound)
    if short is not None:
        return short
    p, bound = 23, gen.trace_bound
    x35 = gen.atom("X35")
    residues = x35.reduce_mod(p)

    # (a) theta pipeline at weight 59 = 35 + 23 + 1
    witness, bound_matrix, checks = _theta_checks(
        residues.theta(), 59, 9,
        "theta image of X35 vanishes mod 23 at every index of trace <= 9", "nonzero at",
    )

    # (b) direct scan of the residues up to the working bound, off the locus 23 | 4*det(T)
    indices = list(iter_l2_indices(bound))
    off_locus = [(m, n, r) for m, n, r in indices if (4 * m * n - r * r) % p]
    scan_witness = _scan_region(residues, off_locus)
    checks.append(CheckRecord(
        f"direct scan to trace {bound}: coefficients vanish mod 23 off the divisibility locus",
        scan_witness is None,
        f"checked={len(off_locus)}, exempt={len(indices) - len(off_locus)}"
        + ("" if scan_witness is None else f", nonzero at {scan_witness}"),
    ))
    if witness is None:
        witness = scan_witness

    # the converse direction fails: a zero coefficient on the divisibility locus
    m, n, r = cw = (1, 6, 1)
    a, fourdet = x35.coefficient(cw), 4 * m * n - r * r
    checks.append(CheckRecord(
        "converse refuted: a((1,6,1)) = 0 although 4*det((1,6,1)) = 23",
        a == 0 and fourdet % p == 0, f"coefficient={a}, fourdet={fourdet}",
    ))
    return Certificate(
        _X35_CLAIM, p, 35, bound_matrix, bound, checks,
        [theta_landing_assumption(35, p)], _verdict(checks), witness,
    )


_THETA_CLAIM = "theta(X6) = 4*X12 mod 5"


def theta_mod5_insufficient(trace_bound: int) -> Certificate | None:
    """The Insufficient certificate of `verify_theta_mod5` at a trace bound
    below its comparison region, else None."""
    if trace_bound < 10:
        return _insufficient(
            _THETA_CLAIM, 5, 12, None, None, "comparison region inside the trace bound",
            f"need trace 10, have {trace_bound}",
        )
    return None


def verify_theta_mod5(gen) -> Certificate:
    """Certify the congruence theta(X6) = 4 * X12 mod 5.

    Coefficient-wise comparison to trace 10, then the even-weight
    criterion at weight 12 certifies the difference is identically zero.
    """
    short = theta_mod5_insufficient(gen.trace_bound)
    if short is not None:
        return short
    difference = gen.atom("X6").reduce_mod(5).theta() - gen.atom("X12").reduce_mod(5).scale(4)
    witness, bound_matrix, checks = _theta_checks(
        difference, 12, 10,
        "theta(X6) and 4*X12 agree mod 5 at every index of trace <= 10", "disagree at",
    )
    return Certificate(
        _THETA_CLAIM, 5, 12, bound_matrix, 10, checks,
        [theta_landing_assumption(6, 5)], _verdict(checks), witness,
    )
