"""Checks of siegel2's outputs that share no code with siegel2.

Everything here is computed from the text the program writes: its own
parser of the `qexp` format, its own Bernoulli numbers, divisor sums,
reductions mod p, single-index convolutions and p-minimum scans.  A check
that disagrees raises `CheckError` naming the index; the caller counts the
operation as failed.

The mathematical facts checked on a cache (trace bound N):

* the theorem of the paper: a(T; X35) = 0 mod 23 whenever 23 does not
  divide 4 det T;
* X35 changes sign under m <-> n and under r -> -r (odd weight);
* X4 ... X35 are integral, with a(0,0,0) = 1 for X4, X6 and every E_k,
  a(1,1,1) = 1 for X10 and X12, a(1,0,0) = 0 for X12, a(2,3,-1) = 1 for X35;
* X10, X12 and X35 vanish at every index of rank <= 1;
* E4 * E4 = E8 at seeded indices;
* the Maass relations a(m,n,r) = sum_{d | (m,n,r)} d^(k-1) a(mn/d^2, 1, r/d)
  for E4 ... E12, X10 and X12 at every index with mn + 1 <= N
  (Eichler-Zagier, The Theory of Jacobi Forms, 1985, section 6);
* the genus-1 restriction a((n,0,0); E_k) = -2k/B_k sigma_{k-1}(n).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from typing import NamedTuple

ATOM_WEIGHTS = {
    "E4": 4, "E6": 6, "E8": 8, "E10": 10, "E12": 12,
    "X4": 4, "X6": 6, "X10": 10, "X12": 12, "X35": 35,
}
EISENSTEIN = ("E4", "E6", "E8", "E10", "E12")
GENERATORS = ("X4", "X6", "X10", "X12", "X35")
E4_SQUARED_SAMPLES = 12


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


class Series(NamedTuple):
    """A parsed expansion: coefficients keyed by (m, n, r), zeros absent."""

    weight: int | None
    bound: int
    modulus: int | None
    coeffs: dict


def order_key(T):
    """The (trace, m, r) order that siegel2 documents for its output."""
    return (T[0] + T[1], T[0], T[2])


def l2_indices(bound: int):
    """Every positive semidefinite (m, n, r) of trace <= bound, in order."""
    for t in range(bound + 1):
        for m in range(t + 1):
            rmax = isqrt(4 * m * (t - m))
            for r in range(-rmax, rmax + 1):
                yield (m, t - m, r)


def _ints(fields, line):
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise CheckError(f"non-integer field in line {line!r}") from None


def parse_qexp(text: str) -> Series:
    """Parse the documented `qexp` text format, refusing anything malformed."""
    if not text.endswith("\n"):
        raise CheckError("expansion text does not end with a newline")
    lines = text[:-1].split("\n")
    head = lines[0].split(" ")
    if head[0] != "qexp" or len(head) not in (4, 5):
        raise CheckError(f"bad header {lines[0]!r}")
    weight = None if head[1] == "-" else _ints(head[1:2], lines[0])[0]
    bound = _ints(head[2:3], lines[0])[0]
    if head[3:] == ["rational"]:
        modulus, width = None, 5
    elif head[3] == "mod" and len(head) == 5:
        modulus, width = _ints(head[4:5], lines[0])[0], 4
    else:
        raise CheckError(f"bad header {lines[0]!r}")
    coeffs = {}
    previous = None
    for line in lines[1:]:
        fields = _ints(line.split(" "), line)
        if len(fields) != width:
            raise CheckError(f"bad coefficient line {line!r}")
        m, n, r = T = tuple(fields[:3])
        if m < 0 or n < 0 or 4 * m * n < r * r or m + n > bound:
            raise CheckError(f"index {T} is outside the tracked cone")
        if previous is not None and order_key(T) <= order_key(previous):
            raise CheckError(f"index {T} is out of order")
        previous = T
        if modulus is None:
            num, den = fields[3:]
            if den <= 0 or num == 0 or gcd(num, den) != 1:
                raise CheckError(f"non-canonical coefficient in line {line!r}")
            coeffs[T] = num if den == 1 else Fraction(num, den)
        else:
            if not 0 < fields[3] < modulus:
                raise CheckError(f"non-canonical residue in line {line!r}")
            coeffs[T] = fields[3]
    return Series(weight, bound, modulus, coeffs)


def read_cache(cache_dir, bound: int) -> dict[str, Series]:
    """Parse the ten files of one cache, checking their headers."""
    forms = {}
    for name, weight in ATOM_WEIGHTS.items():
        path = Path(cache_dir) / f"{name}_N{bound}_v1.qexp"
        form = parse_qexp(path.read_text())
        if (form.weight, form.bound, form.modulus) != (weight, bound, None):
            raise CheckError(f"{path.name} has header {form[:3]}")
        forms[name] = form
    return forms


# ----- number theory, written independently of siegel2.numtheory ---------


def bernoulli(n: int) -> Fraction:
    """B_n by the Akiyama-Tanigawa recurrence (B_1 = +1/2; n >= 2 is standard)."""
    row = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def residue(c, p: int) -> int:
    """c mod p for an int or a p-integral Fraction."""
    if isinstance(c, int):
        return c % p
    if c.denominator % p == 0:
        raise CheckError(f"{c} is not {p}-integral")
    return c.numerator * pow(c.denominator, -1, p) % p


def reduce(coeffs: dict, p: int) -> dict:
    out = {}
    for T, c in coeffs.items():
        v = residue(c, p)
        if v:
            out[T] = v
    return out


def product_coefficient(factors, T, p=None):
    """a(T) of the product of coefficient dicts, by convolution at T alone.

    Only indices S with S and T - S both positive semidefinite can
    contribute, so every partial product is kept on that set.
    """
    m, n, r = T
    below = set()
    for m1 in range(m + 1):
        for n1 in range(n + 1):
            m2, n2 = m - m1, n - n1
            for r1 in range(-isqrt(4 * m1 * n1), isqrt(4 * m1 * n1) + 1):
                if 4 * m2 * n2 >= (r - r1) ** 2:
                    below.add((m1, n1, r1))
    partial = {(0, 0, 0): 1}
    for factor in factors[:-1]:
        terms = [(S, c) for S, c in factor.items() if S in below]
        nxt = {}
        for (m1, n1, r1), c1 in partial.items():
            for (m2, n2, r2), c2 in terms:
                S = (m1 + m2, n1 + n2, r1 + r2)
                if S in below:
                    nxt[S] = nxt.get(S, 0) + c1 * c2
        partial = nxt if p is None else {S: c % p for S, c in nxt.items()}
    last = factors[-1]
    total = sum(c * last.get((m - a, n - b, r - s), 0) for (a, b, s), c in partial.items())
    return total if p is None else total % p


def p_minimum(coeffs: dict, p: int):
    """Least index in the (trace, m, r) order with a nonzero residue, or None."""
    support = [T for T, c in coeffs.items() if residue(c, p)]
    return min(support, key=order_key) if support else None


def genus1_eisenstein(k: int, bound: int) -> list:
    """[a_0 .. a_bound] of the elliptic Eisenstein series of weight k."""
    factor = Fraction(-2 * k) / bernoulli(k)
    return [Fraction(1)] + [factor * sigma(k - 1, n) for n in range(1, bound + 1)]


def series_product(a: list, b: list) -> list:
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


# ----- checks on a cache --------------------------------------------------


def expect(ok: bool, message: str) -> None:
    """Raise CheckError with the message unless ok."""
    if not ok:
        raise CheckError(message)


def maass_violation(coeffs: dict, k: int, bound: int):
    """First index with mn + 1 <= bound breaking the Maass relation, or None."""
    a = coeffs.get
    for T in l2_indices(bound):
        m, n, r = T
        if T == (0, 0, 0) or m * n + 1 > bound:
            continue
        g = gcd(gcd(m, n), r)
        lifted = sum(
            d ** (k - 1) * a((m * n // (d * d), 1, r // d), 0)
            for d in range(1, g + 1) if g % d == 0
        )
        if a(T, 0) != lifted:
            return T
    return None


def check_cache(forms: dict[str, Series], bound: int, rng) -> None:
    """Run every cache check; raises CheckError at the first mismatch."""
    for name in GENERATORS + ("E4", "E6", "E8"):
        bad = [T for T, c in forms[name].coeffs.items() if not isinstance(c, int)]
        expect(not bad, f"{name} is not integral at {bad[:1]}")
    x35 = forms["X35"].coeffs
    for T, c in x35.items():
        m, n, r = T
        expect((4 * m * n - r * r) % 23 == 0 or c % 23 == 0,
               f"X35 breaks the mod-23 theorem at {T}: a = {c}")
        expect(x35.get((n, m, r), 0) == -c, f"X35 is not odd under m <-> n at {T}")
        expect(x35.get((m, n, -r), 0) == -c, f"X35 is not odd under r -> -r at {T}")
    for name in ("X10", "X12", "X35"):
        bad = [T for T in forms[name].coeffs if 4 * T[0] * T[1] == T[2] * T[2]]
        expect(not bad, f"{name} does not vanish at the rank <= 1 index {bad[:1]}")
    normalizations = [(name, (0, 0, 0), 1) for name in EISENSTEIN + ("X4", "X6")]
    normalizations += [
        ("X10", (1, 1, 1), 1), ("X12", (1, 1, 1), 1), ("X12", (1, 0, 0), 0),
        ("X35", (2, 3, -1), 1),
    ]
    for name, T, want in normalizations:
        got = forms[name].coeffs.get(T, 0)
        expect(got == want, f"{name} normalization at {T}: {got} != {want}")
    expect(forms["X4"].coeffs == forms["E4"].coeffs, "X4 differs from E4")
    expect(forms["X6"].coeffs == forms["E6"].coeffs, "X6 differs from E6")

    e4, e8 = forms["E4"].coeffs, forms["E8"].coeffs
    for T in rng.sample(list(l2_indices(bound)), E4_SQUARED_SAMPLES):
        got = product_coefficient([e4, e4], T)
        expect(got == e8.get(T, 0), f"E4 * E4 != E8 at {T}: {got} vs {e8.get(T, 0)}")

    for name in EISENSTEIN + ("X10", "X12"):
        bad = maass_violation(forms[name].coeffs, ATOM_WEIGHTS[name], bound)
        expect(bad is None, f"{name} breaks the Maass relation at {bad}")

    for name in EISENSTEIN:
        restriction = [forms[name].coeffs.get((j, 0, 0), 0) for j in range(bound + 1)]
        expect(restriction == genus1_eisenstein(ATOM_WEIGHTS[name], bound),
               f"{name} restricted to genus 1 is not the elliptic Eisenstein series")


# ----- checks on one warm query -------------------------------------------


def _index_text(T) -> str:
    return f"({T[0]}, {T[1]}, {T[2]})"


def _certificate_verdict(stdout: str, returncode: int, verdict: str, status: int) -> list:
    lines = stdout.splitlines()
    expect(returncode == status and lines[-1:] == [f"verdict: {verdict}"],
           f"expected verdict {verdict} with exit {status}, got exit {returncode}")
    return lines


def check_query(query: dict, forms: dict[str, Series], bound: int,
                returncode: int, stdout: str) -> None:
    """Compare one query's exit status and stdout with the independent answer."""
    kind = query["kind"]
    if kind == "verify":
        lines = _certificate_verdict(stdout, returncode, "Certified", 0)
        expect(f"prime: {query['prime']}" in lines, "certificate names another prime")
        return
    if kind == "sturm":
        lines = _certificate_verdict(stdout, returncode, "Refuted", 1)
        reduced = reduce(forms[query["expr"]].coeffs, query["prime"])
        want = f"witness: {_index_text(p_minimum(reduced, query['prime']))}"
        expect(want in lines, f"sturm witness is not {want}")
        return
    expect(returncode == 0, f"exit status {returncode}")
    p = query.get("prime")
    if kind == "theta":
        # every coefficient of theta(X35) vanishes mod 23 by the theorem
        expect(stdout == f"qexp - {bound} mod {p}\n", "theta image is not zero mod 23")
    elif kind == "minmat":
        T = p_minimum(forms[query["expr"]].coeffs, p)
        value = (f"infinity (no nonzero residue up to trace {bound})"
                 if T is None else _index_text(T))
        expect(stdout == f"m_{p}({query['expr']}) = {value}\n",
               f"p-minimum is not {value}")
    elif kind == "coeff":
        factors = [forms[name].coeffs for name in query["expr"].split("*")]
        if p is not None:
            factors = [reduce(f, p) for f in factors]
        value = product_coefficient(factors, query["index"], p)
        m, n, r = query["index"]
        mod = "" if p is None else f" mod {p}"
        want = f"a(({m},{n},{r}); {query['expr']}){mod} = {value}\n"
        expect(stdout == want, f"expected {want!r}, got {stdout!r}")
    elif kind == "dump":
        check_dump(parse_qexp(stdout), forms, bound, query["samples"])
    else:
        raise ValueError(f"unknown query kind {kind!r}")


def check_dump(out: Series, forms: dict[str, Series], bound: int, samples) -> None:
    """Check a dump of X4^3 - X6^2 against convolutions of the cached X4, X6."""
    expect((out.weight, out.bound, out.modulus) == (12, bound, None),
           f"dump header is {out[:3]}")
    e4, e6 = genus1_eisenstein(4, bound), genus1_eisenstein(6, bound)
    want = [a - b for a, b in zip(series_product(series_product(e4, e4), e4),
                                  series_product(e6, e6))]
    got = [out.coeffs.get((j, 0, 0), 0) for j in range(bound + 1)]
    expect(got == want, "dump restricted to genus 1 is not E4^3 - E6^2")
    x4, x6 = forms["X4"].coeffs, forms["X6"].coeffs
    for T in samples:
        value = product_coefficient([x4, x4, x4], T) - product_coefficient([x6, x6], T)
        expect(out.coeffs.get(T, 0) == value, f"dump differs at {T}")
