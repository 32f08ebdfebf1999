"""End-to-end tests of the command line driver (via main(argv))."""

import gc
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import siegel2
from parser_texts import HELP, USAGE_ERRORS
from siegel2 import cli, igusa
from siegel2.cli import ENV_CACHE_DIR, MAX_TRACE_BOUND, _print_certificate, main, verify_certificate
from siegel2.expr import MAX_NESTING
from siegel2.igusa import CACHE_NAMES, GeneratorSet, cache_path, save_generator_set
from siegel2.qexp import Expansion


@pytest.fixture(scope="module")
def cli_cache(tmp_path_factory, genset):
    """A warm cache directory holding the session's trace-12 build."""
    cache = tmp_path_factory.mktemp("cli-cache")
    save_generator_set(genset, cache)
    return cache


def run(capsys, *argv):
    status = main([str(a) for a in argv])
    out = capsys.readouterr()
    return status, out.out, out.err


# ----- build ---------------------------------------------------------------


def test_build_writes_cache_and_is_idempotent(tmp_path, capsys):
    status, out, err = run(
        capsys, "build", "--trace-bound", 5, "--cache-dir", tmp_path
    )
    assert status == 0 and err == ""
    assert out.startswith("built (trace bound 5)")
    for name in CACHE_NAMES:
        assert cache_path(tmp_path, name, 5).is_file()
    status, out, err = run(
        capsys, "build", "--trace-bound", 5, "--cache-dir", tmp_path
    )
    assert status == 0
    assert out.startswith("cache up to date")


def test_build_rejects_tiny_bound(tmp_path, capsys):
    status, out, err = run(
        capsys, "build", "--trace-bound", 1, "--cache-dir", tmp_path
    )
    assert status == 2
    assert err.startswith("error:")


def test_huge_trace_bound_is_refused_before_any_build(tmp_path, capsys):
    status, out, err = run(
        capsys, "coeff", "X4", 1, 1, 0, "--trace-bound", 100000000, "--cache-dir", tmp_path
    )
    assert status == 2 and out == ""
    assert err == f"error: trace bound 100000000 exceeds the maximum {MAX_TRACE_BOUND}\n"
    assert list(tmp_path.iterdir()) == []
    status, out, err = run(
        capsys, "build", "--trace-bound", MAX_TRACE_BOUND + 1, "--cache-dir", tmp_path
    )
    assert status == 2 and err.startswith("error: trace bound")
    assert list(tmp_path.iterdir()) == []


def test_trace_bound_help_names_the_cap(capsys):
    with pytest.raises(SystemExit):
        main(["build", "--help"])
    assert f"at most {MAX_TRACE_BOUND})" in " ".join(capsys.readouterr().out.split())


# ----- verify --------------------------------------------------------------


def test_verify_certifies(cli_cache, capsys):
    status, out, err = run(capsys, "verify", "--cache-dir", cli_cache)
    assert status == 0, err
    assert "verdict: Certified" in out
    assert "witness" not in out
    assert "X35 matches the reference coefficients" in out
    assert "bound-matrix: (4, 5, 3)" in out


def test_verify_insufficient_at_small_bound(tmp_path, capsys):
    status, out, err = run(
        capsys, "verify", "--trace-bound", 5, "--cache-dir", tmp_path
    )
    assert status == 2
    assert "verdict: Insufficient" in out


# the certificates at these bounds, as printed by a build at every bound
INSUFFICIENT_VERIFY = {
    ("--trace-bound", 8): (
        "certificate: a(T; X35) = 0 mod 23 at every index with 4*det(T) not divisible by 23\n"
        "prime: 23\n"
        "weight: 35\n"
        "trace-checked: 8\n"
        "check: trace bounds cover the proof region: FAIL "
        "[need 9 <= scan bound <= built bound 8, got 8]\n"
        "verdict: Insufficient\n"
    ),
    ("--prime", 5, "--trace-bound", 5): (
        "certificate: theta(X6) = 4*X12 mod 5\n"
        "prime: 5\n"
        "weight: 12\n"
        "check: comparison region inside the trace bound: FAIL [need trace 10, have 5]\n"
        "verdict: Insufficient\n"
    ),
}


@pytest.mark.parametrize("argv", list(INSUFFICIENT_VERIFY), ids=lambda a: "-".join(map(str, a)))
def test_insufficient_verify_builds_nothing(tmp_path, capsys, argv):
    status, out, err = run(capsys, "verify", *argv, "--cache-dir", tmp_path)
    assert (status, out, err) == (2, INSUFFICIENT_VERIFY[argv], "")
    assert list(tmp_path.iterdir()) == []


def test_verify_certificate_below_trace_9_skips_the_reference_check(capsys):
    # a set without forms: reading X35 for the reference check would raise
    status = _print_certificate(verify_certificate(GeneratorSet({}, 5), 23))
    assert (status, capsys.readouterr().out) == (2, (
        "certificate: a(T; X35) = 0 mod 23 at every index with 4*det(T) not divisible by 23\n"
        "prime: 23\n"
        "weight: 35\n"
        "trace-checked: 5\n"
        "check: trace bounds cover the proof region: FAIL "
        "[need 9 <= scan bound <= built bound 5, got 5]\n"
        "verdict: Insufficient\n"
    ))


def test_verify_detects_tampered_cache(cli_cache, tmp_path, capsys, genset):
    # copy the warm cache, then corrupt one X35 coefficient on disk
    import shutil

    bad = tmp_path / "cache"
    shutil.copytree(cli_cache, bad)
    x35_file = cache_path(bad, "X35", 12)
    text = x35_file.read_text()
    assert "\n2 4 -1 -69 1\n" in text
    x35_file.write_text(text.replace("\n2 4 -1 -69 1\n", "\n2 4 -1 -68 1\n"))

    status, out, err = run(capsys, "verify", "--cache-dir", bad)
    assert status == 1
    assert "verdict: Refuted" in out
    assert "witness: (2, 4, -1)" in out
    assert "expected -69, got -68" in out


def test_verify_theta_identity_mod5(cli_cache, capsys):
    status, out, err = run(capsys, "verify", "--prime", 5, "--cache-dir", cli_cache)
    assert status == 0
    assert "theta(X6) = 4*X12 mod 5" in out
    assert "verdict: Certified" in out


# ----- coeff ---------------------------------------------------------------


def test_coeff_table_and_lines(cli_cache, capsys):
    status, out, err = run(
        capsys, "coeff", "X35", 2, 3, -1, "--cache-dir", cli_cache
    )
    assert status == 0
    assert out.strip() == "a((2,3,-1); X35) = 1"
    status, out, err = run(
        capsys, "coeff", "X35", 2, 4, -1, "--format", "lines", "--cache-dir", cli_cache
    )
    assert status == 0
    assert out.strip() == "-69"


def test_coeff_mod_p(cli_cache, capsys):
    status, out, err = run(
        capsys, "coeff", "X10*X12", 2, 2, -2, "--prime", 23,
        "--cache-dir", cli_cache,
    )
    assert status == 0
    assert "mod 23" in out


@pytest.fixture(scope="module")
def cli_cache9(tmp_path_factory, genset9):
    """A warm cache directory holding the session's trace-9 build."""
    cache = tmp_path_factory.mktemp("cli-cache9")
    save_generator_set(genset9, cache)
    return cache


@pytest.mark.parametrize("prime", [None, 5, 7, 23])
@pytest.mark.parametrize("expr", ["X10*X12*X4", "X4^3 - X6^2", "-2*X4*X6 + 1/3*E10", "X35*X4"])
def test_coeff_agrees_with_dump(cli_cache9, capsys, expr, prime):
    # `coeff` multiplies only the box {m' <= m, n' <= n} of its index, `dump`
    # the whole expansion; the corners of trace 9 and inner indices
    common = ["--trace-bound", 9, "--cache-dir", cli_cache9]
    common += [] if prime is None else ["--prime", prime]
    status, text, _ = run(capsys, "dump", expr, *common)
    assert status == 0
    full = Expansion.from_text(text)
    for T in [(0, 0, 0), (9, 0, 0), (0, 9, 0), (1, 1, 1), (2, 3, -1), (3, 3, 0), (4, 5, -8), (5, 4, 2)]:
        want = full.coefficient(T)
        assert run(capsys, "coeff", expr, *T, "--format", "lines", *common) == (0, f"{want}\n", "")


@pytest.mark.parametrize("expr, index", [("E12", (0, 0, 0)), ("E12*X4", (1, 0, 0)), ("E12", (1, 0, 0))])
def test_coeff_reduces_each_atom_whole(cli_cache, capsys, expr, index):
    # the box of the index holds no coefficient that is not 691-integral, but
    # E12 does, first at (0, 1, 0): the answer is the error of a whole evaluation
    assert run(capsys, "coeff", expr, *index, "--prime", 691, "--cache-dir", cli_cache) == (
        2, "", "error: coefficient 65520/691 at index (0, 1, 0) is not 691-integral\n"
    )


def test_an_expression_with_a_leading_minus_follows_the_options_and_a_double_dash(
    cli_cache, capsys
):
    status, out, err = run(
        capsys, "coeff", "--trace-bound", 12, "--cache-dir", cli_cache, "--", "-X4", 1, 0, 0
    )
    assert (status, out, err) == (0, "a((1,0,0); -X4) = -240\n", "")


def test_coeff_rejects_bad_index(cli_cache, capsys):
    status, out, err = run(
        capsys, "coeff", "X4", 1, 1, 3, "--cache-dir", cli_cache
    )
    assert status == 2 and "positive semidefinite" in err
    status, out, err = run(
        capsys, "coeff", "X4", 9, 9, 0, "--trace-bound", 5, "--cache-dir", cli_cache
    )
    assert status == 2 and "trace bound" in err


BUILD_FLOOR_ERROR = ("error: generator builds need trace bound >= 5 "
                     "(the X35 normalization index (2,3,-1) has trace 5)\n")


@pytest.mark.parametrize("argv", [
    ["build"], ["verify"], ["verify", "--prime", "5"], ["coeff", "X4", "0", "0", "0"],
    ["minmat", "X4", "--prime", "23"], ["theta", "X4"], ["sturm", "X4", "--prime", "23"],
    ["dump", "X4"],
], ids=" ".join)
def test_a_bound_below_the_build_floor_is_refused_before_any_cache_is_read(
    tmp_path, capsys, monkeypatch, argv
):
    def load(*args):
        raise AssertionError("the cache was read")

    monkeypatch.setattr(igusa, "load_generator_set", load)
    status, out, err = run(capsys, *argv, "--trace-bound", 4, "--cache-dir", tmp_path)
    assert (status, out, err) == (2, "", BUILD_FLOOR_ERROR)


@pytest.mark.parametrize("argv, message", [
    (["coeff", "X4", -1, 0, 0], "error: index (-1, 0, 0) is not positive semidefinite\n"),
    (["coeff", "X4", 9, 9, 0], "error: index (9, 9, 0) exceeds the trace bound 14\n"),
    (["coeff", "X4/X6", 1, 0, 0], "error: there is no division operator (at position 2)\n"),
    (["sturm", "X4 + 1", "--prime", 5], "error: weight mismatch in sum: 4 vs 0 (at position 3)\n"),
    (["sturm", "X4", "--prime", 3], "error: the vanishing criteria need p >= 5; got 3\n"),
    (["coeff", "X4", 1, 0, 0, "--prime", 4], "error: modulus 4 is not prime\n"),
    (["coeff", "X4", 1, 0, 0, "--prime", 318665857834031151167461],
     "error: cannot decide whether 318665857834031151167461 is prime: "
     "the test is proved below 318665857834031151167461\n"),
    (["theta", "X4", "--prime", 2], "error: theta needs 4 invertible: p = 2 is not supported\n"),
    (["coeff", "1/5*X4", 1, 0, 0, "--prime", 5],
     "error: coefficient 1/5 at index (0, 0, 0) is not 5-integral\n"),
    (["coeff", "1/X4", 1, 0, 0], "error: rational literal needs an integer denominator (at position 2)\n"),
    (["coeff", "1/0", 1, 0, 0], "error: zero denominator (at position 2)\n"),
    (["dump", "(" * 400 + "X4" + ")" * 400, "--prime", 23],
     f"error: parentheses nested deeper than {MAX_NESTING} (at position {MAX_NESTING})\n"),
    (["coeff", "X4", 0, 0, 0, "--trace-bound", -1], BUILD_FLOOR_ERROR),
    # ids: the argv after the expression, then the message
], ids=lambda case: "-".join(map(str, case[2:])) if isinstance(case, list) else case)
def test_coeff_rejects_bad_index_before_any_build(tmp_path, capsys, argv, message):
    # argv alone decides these: the cache directory stays empty; a bound in
    # argv comes later than the default 14, so it wins
    status, out, err = run(capsys, argv[0], "--trace-bound", 14, *argv[1:], "--cache-dir", tmp_path)
    assert (status, out, err) == (2, "", message)
    assert list(tmp_path.iterdir()) == []


def test_a_17_digit_prime_is_accepted_at_once(genset_small, tmp_path, capsys):
    # trial division spent about 12 s of CPU deciding this modulus
    save_generator_set(genset_small, tmp_path)
    start = time.process_time()
    status, out, err = run(
        capsys, "coeff", "X4", 1, 0, 0, "--prime", 10000000000000061,
        "--trace-bound", 5, "--cache-dir", tmp_path,
    )
    assert (status, out, err) == (0, "a((1,0,0); X4) mod 10000000000000061 = 240\n", "")
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("name, expr, index, header", [
    # a reduced expansion under a rational name
    ("X4", "X4", (1, 0, 0), "a mod 23 expansion of weight 4"),
    # the header of another weight
    ("E10", "E10 - X10", (1, 1, 1), "a rational expansion of weight 12"),
])
def test_cache_file_whose_header_contradicts_its_name_is_refused(
    genset_small, tmp_path, capsys, name, expr, index, header
):
    save_generator_set(genset_small, tmp_path)
    path = cache_path(tmp_path, name, 5)
    if name == "X4":
        path.write_text(genset_small.atom("X4").reduce_mod(23).to_text())
    else:
        path.write_text(path.read_text().replace("qexp 10 5 ", "qexp 12 5 ", 1))
    status, out, err = run(
        capsys, "coeff", expr, *index, "--trace-bound", 5, "--cache-dir", tmp_path
    )
    assert (status, out) == (2, "")
    assert err == (
        f"error: cache file {path} holds {header}, "
        f"expected a rational one of weight {name[1:]}\n"
    )


def test_cache_file_whose_header_bound_contradicts_its_name_is_refused(genset_small, tmp_path, capsys):
    save_generator_set(genset_small, tmp_path)
    path = cache_path(tmp_path, "X4", 5)
    path.write_text(path.read_text().replace("qexp 4 5 ", "qexp 4 6 ", 1))
    assert run(capsys, "coeff", "X4", 1, 0, 0, "--trace-bound", 5, "--cache-dir", tmp_path) == (
        2, "", f"error: cache file {path} has inconsistent trace bound\n"
    )


@pytest.mark.parametrize("name", ["E4", "E6", "E8", "E10", "E12", "X4", "X6"])
def test_cache_file_cut_short_is_refused(genset9, tmp_path, capsys, name):
    # every Eisenstein-type file ends with its nonzero (N, 0, 0) line, so a
    # file cut short changes its Siegel restriction; E10 cut to 150 lines
    # used to answer a((4,5,2); E10) = 0 with exit 0.  A command reads only
    # the files it uses, so `coeff` asks for the damaged form itself.
    save_generator_set(genset9, tmp_path)
    argv = ["coeff", name, 4, 5, 2, "--format", "lines", "--trace-bound", 9,
            "--cache-dir", tmp_path]
    value = genset9.atom(name).coefficient((4, 5, 2))
    assert run(capsys, *argv) == (0, f"{value}\n", "")
    if name == "E10":
        assert str(value) == "194405271862840758720/43867"
    path = cache_path(tmp_path, name, 9)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) > 150
    path.write_text("".join(lines[:150]))
    assert run(capsys, *argv) == (2, "", (
        f"error: cache file {path} is cut short or damaged: restriction of {name} "
        f"disagrees with the genus-1 series\n"
    ))


def _damage(gen, path, name):
    """Cut an Eisenstein-type file short; give X10, X12 or X35 a mod 23
    header.  Returns the load error `main` prints for it."""
    weight = name[1:]
    if name[0] == "E" or name in ("X4", "X6"):
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:150]))
        return (f"error: cache file {path} is cut short or damaged: restriction of {name} "
                f"disagrees with the genus-1 series\n")
    path.write_text(gen.atom(name).reduce_mod(23).to_text())
    return (f"error: cache file {path} holds a mod 23 expansion of weight {weight}, "
            f"expected a rational one of weight {weight}\n")


@pytest.mark.parametrize("name", CACHE_NAMES)
def test_build_checks_every_cache_file(genset9, tmp_path, capsys, name):
    # "cache up to date" vouches for all ten files, though a query reads
    # only the files of the forms it names
    save_generator_set(genset9, tmp_path)
    message = _damage(genset9, cache_path(tmp_path, name, 9), name)
    assert run(capsys, "build", "--trace-bound", 9, "--cache-dir", tmp_path) == (2, "", message)


# a line of the trace-5 cache file, what replaces it and the fault the load
# names; at the parent of the one rule each answered `coeff` with exit 0
RULE_DAMAGE = {
    "X12": ("1 1 1 1 1\n", "1 1 1 2 1\n", "X12 normalization at (1, 1, 1) failed"),
    "X10": ("1 1 -1 1 1\n", "1 0 0 7 1\n1 1 -1 1 1\n",
            "X10 has a nonzero rank<=1 coefficient at (1, 0, 0)"),
    "X35": ("2 3 -1 1 1\n", "2 3 -1 1 2\n", "X35 normalization at (2, 3, -1) failed"),
    "X4": ("1 1 -1 13440 1\n", "1 1 -1 13440 11\n",
           "non-integral coefficient 13440/11 at (1, 1, -1) in X4"),
}


@pytest.mark.parametrize("name", list(RULE_DAMAGE))
def test_a_load_refuses_what_a_build_refuses(genset_small, tmp_path, capsys, name):
    # a load applies the build's rule (`igusa.check_form`) to every cache form
    save_generator_set(genset_small, tmp_path)
    path = cache_path(tmp_path, name, 5)
    line, damaged, fault = RULE_DAMAGE[name]
    text = path.read_text()
    assert f"\n{line}" in text
    path.write_text(text.replace(f"\n{line}", f"\n{damaged}", 1))
    common = ["--trace-bound", 5, "--cache-dir", tmp_path]
    assert run(capsys, "coeff", name, *damaged.split()[:3], *common) == (
        2, "", f"error: cache file {path} is cut short or damaged: {fault}\n"
    )
    # the other forms of the cache still answer
    assert run(capsys, "coeff", "X6", 1, 0, 0, *common) == (0, "a((1,0,0); X6) = -504\n", "")


@pytest.mark.parametrize("argv, reads", [
    (["coeff", "X12", 1, 1, 1], 1),
    (["verify"], 1),
    (["verify", "--prime", 5], 2),
    (["coeff", "X10*X12*X4", 2, 2, -2, "--prime", 23], 3),
    (["dump", "X4^3 - X6^2"], 2),
    (["build"], 10),
], ids=lambda case: " ".join(map(str, case)) if isinstance(case, list) else None)
def test_each_command_reads_only_the_cache_files_it_uses(
    cli_cache, capsys, monkeypatch, argv, reads
):
    # trace bound 12: below 10, `verify --prime 5` answers Insufficient
    # without reading any file
    from_text = Expansion.from_text
    texts = []

    def counting(text):
        texts.append(text)
        return from_text(text)

    monkeypatch.setattr(Expansion, "from_text", staticmethod(counting))
    status, _, err = run(capsys, *argv, "--cache-dir", cli_cache)
    assert (status, err) == (0, "")
    assert len(texts) == reads


def test_zero_denominator_in_a_cache_file_is_refused(genset9, tmp_path, capsys):
    # a zero denominator used to end in a ZeroDivisionError traceback with
    # exit status 1, the status of a refutation
    save_generator_set(genset9, tmp_path)
    path = cache_path(tmp_path, "X35", 9)
    text = path.read_text()
    assert "\n2 3 1 -1 1\n" in text
    path.write_text(text.replace("\n2 3 1 -1 1\n", "\n2 3 1 -1 0\n"))
    assert run(capsys, "coeff", "X35", 2, 3, -1, "--trace-bound", 9, "--cache-dir", tmp_path) == (
        2, "", f"error: cache file {path}: bad coefficient line: '2 3 1 -1 0'\n"
    )


def test_control_character_in_a_cache_file_is_refused(genset9, tmp_path, capsys):
    # str.split() reads "\x1f" as a space: the damaged line used to load,
    # and `coeff` answered with exit status 0
    save_generator_set(genset9, tmp_path)
    path = cache_path(tmp_path, "X35", 9)
    text = path.read_text()
    assert "\n2 3 1 -1 1\n" in text
    path.write_text(text.replace("\n2 3 1 -1 1\n", "\n2 3 1\x1f-1 1\n"))
    assert run(capsys, "coeff", "X35", 2, 3, -1, "--trace-bound", 9, "--cache-dir", tmp_path) == (
        2, "", f"error: cache file {path}: bad coefficient line: '2 3 1\\x1f-1 1'\n"
    )


@pytest.mark.parametrize("header_end, line_end, bad", [
    ("\r\n", "\r\n", "bad expansion header: 'qexp 35 9 rational\\r'"),
    ("\n", "\r\n", "bad coefficient line: '2 3 -1 1 1\\r'"),
    ("\r", "\r", "bad expansion header: 'qexp 35 9 rational\\r2 3 -1 1 1\\r"),
], ids=["crlf", "crlf-after-the-header", "cr"])
def test_carriage_return_in_a_cache_file_is_refused(
    genset9, tmp_path, capsys, header_end, line_end, bad
):
    # a universal-newline read turned "\r\n" and a lone "\r" into "\n", so
    # such a file loaded, and `coeff` answered with exit status 0
    save_generator_set(genset9, tmp_path)
    path = cache_path(tmp_path, "X35", 9)
    head, body = path.read_text().split("\n", 1)
    path.write_bytes((head + header_end + body.replace("\n", line_end)).encode())
    status, out, err = run(capsys, "coeff", "X35", 2, 3, -1, "--trace-bound", 9,
                           "--cache-dir", tmp_path)
    assert (status, out) == (2, "")
    assert err.startswith(f"error: cache file {path}: {bad}")


def test_coeff_rejects_bad_expression(cli_cache, capsys):
    status, out, err = run(
        capsys, "coeff", "X4 + X6", 1, 1, 0, "--cache-dir", cli_cache
    )
    assert status == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("expr, prime, same_as", [
    ("+".join(["X4"] * 3000), None, "3000*X4"),
    ("+".join(["X4"] * 900), None, "900*X4"),
    ("*".join(["X4"] * 1000), 7, "X4^1000"),
    ("*".join(["2"] * 2999 + ["X4"]), None, f"{2 ** 2999}*X4"),
], ids=["sum-3000", "sum-900", "product-1000-mod-7", "literal-product-3000"])
def test_long_sums_and_products_evaluate(genset_small, tmp_path, capsys, expr, prime, same_as):
    # a tree thousands of nodes deep: the evaluator must not recurse on it
    save_generator_set(genset_small, tmp_path)
    argv = ["--format", "lines", "--trace-bound", 5, "--cache-dir", tmp_path]
    argv += [] if prime is None else ["--prime", prime]
    status, want, err = run(capsys, "coeff", same_as, 1, 1, 1, *argv)
    assert status == 0 and err == ""
    assert run(capsys, "coeff", expr, 1, 1, 1, *argv) == (0, want, "")


# ----- minmat / theta / sturm / dump ----------------------------------------


def test_minmat_formats(cli_cache, capsys):
    status, out, err = run(
        capsys, "minmat", "X35", "--prime", 23, "--cache-dir", cli_cache
    )
    assert status == 0
    assert "(2, 3, -1)" in out
    status, out, err = run(
        capsys, "minmat", "X35", "--prime", 23, "--format", "lines",
        "--cache-dir", cli_cache,
    )
    assert out.strip() == "2 3 -1"


def test_minmat_infinity_formats(cli_cache, capsys):
    status, out, err = run(capsys, "minmat", "5*X4", "--prime", 5, "--cache-dir", cli_cache)
    assert (status, out, err) == (
        0, "m_5(5*X4) = infinity (no nonzero residue up to trace 12)\n", ""
    )
    status, out, err = run(
        capsys, "minmat", "5*X4", "--prime", 5, "--format", "lines", "--cache-dir", cli_cache
    )
    assert (status, out, err) == (0, "infinity 12\n", "")


@pytest.mark.parametrize("argv", [
    ["build"], ["verify"], ["theta", "X6"], ["sturm", "X12", "--prime", "5"], ["dump", "X4"],
], ids=lambda argv: argv[0])
def test_format_is_refused_where_it_has_no_effect(tmp_path, capsys, argv):
    # only coeff and minmat print in two formats
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "lines", "--trace-bound", "9", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format lines" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_theta_output_parses(cli_cache, capsys):
    status, out, err = run(
        capsys, "theta", "X6", "--prime", 5, "--cache-dir", cli_cache
    )
    assert status == 0
    assert out.splitlines()[0] == "qexp - 12 mod 5"
    F = Expansion.from_text(out)
    assert F.modulus == 5 and F.weight is None


def test_sturm_refutes_x35_mod7(cli_cache, capsys):
    status, out, err = run(
        capsys, "sturm", "X35", "--prime", 7, "--cache-dir", cli_cache
    )
    assert status == 1
    assert "witness: (2, 3, -1)" in out


def test_sturm_certifies_scaled_zero(cli_cache, capsys):
    status, out, err = run(
        capsys, "sturm", "5*X12", "--prime", 5, "--cache-dir", cli_cache
    )
    assert status == 0
    assert "verdict: Certified" in out


def test_sturm_refuses_a_weight_flag(tmp_path, capsys):
    # the criterion must run at the weight the parser infers: at weight 2 it
    # scanned too small a region and certified X12 mod 5, though a((1,1,1)) = 1
    with pytest.raises(SystemExit) as exc:
        main(["sturm", "X12", "--prime", "5", "--weight", "2",
              "--trace-bound", "9", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --weight 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_dump_round_trips(cli_cache, capsys):
    status, out, err = run(
        capsys, "dump", "X10*X12", "--prime", 23, "--trace-bound", 12,
        "--cache-dir", cli_cache,
    )
    assert status == 0
    F = Expansion.from_text(out)
    assert F.weight == 22 and F.modulus == 23
    assert F.coefficient((2, 2, -2)) != 0


# ----- configuration --------------------------------------------------------


def test_cache_dir_env_var(cli_cache, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(ENV_CACHE_DIR, str(cli_cache))
    status, out, err = run(capsys, "coeff", "X35", 2, 3, -1)
    assert status == 0
    assert out.strip() == "a((2,3,-1); X35) = 1"
    assert not (tmp_path / ".siegel2-cache").exists()


def test_flag_overrides_env_var(cli_cache, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "unused"))
    status, out, err = run(
        capsys, "coeff", "X4", 1, 0, 0, "--cache-dir", cli_cache
    )
    assert status == 0
    assert "240" in out
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize("command", [["build"], ["coeff", "X4", "1", "0", "0"]], ids=" ".join)
def test_an_empty_env_var_reads_as_unset(tmp_path, capsys, monkeypatch, command):
    # an empty path would be the working directory: the ten files would land there
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(ENV_CACHE_DIR, "")
    status, out, err = run(capsys, *command, "--trace-bound", 5)
    assert (status, err) == (0, "")
    assert [path.name for path in tmp_path.iterdir()] == [".siegel2-cache"]
    assert len(list((tmp_path / ".siegel2-cache").iterdir())) == len(CACHE_NAMES)


@pytest.mark.parametrize("command", [["build"], ["verify"], ["coeff", "X4", "1", "0", "0"]],
                         ids=" ".join)
def test_an_empty_cache_dir_is_refused_before_any_cache_is_read(tmp_path, capsys, monkeypatch,
                                                                 command):
    monkeypatch.chdir(tmp_path)
    status, out, err = run(capsys, *command, "--trace-bound", 9, "--cache-dir", "")
    assert (status, out, err) == (2, "", "error: --cache-dir is empty\n")
    assert list(tmp_path.iterdir()) == []


# ----- parser --------------------------------------------------------------


def _exits(argv):
    """(status, stdout, stderr) of `main(argv)` where it exits."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


# the texts were printed by Python 3.11's argparse, whose wording and wrapping
# other versions change
PINNED_ARGPARSE = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                     reason="texts printed by Python 3.11's argparse")


@PINNED_ARGPARSE
@pytest.mark.parametrize("command", list(HELP), ids=lambda command: command or "top")
def test_help_is_the_pinned_text(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    assert _exits(argv) == (0, HELP[command], "")


@PINNED_ARGPARSE
@pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=" ".join)
def test_a_usage_error_is_the_pinned_text(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exits(list(argv)) == (2, "", USAGE_ERRORS[argv])


@cache
def _parser():
    return cli.build_parser()


def _parsed(argv):
    """vars() of argparse's namespace for `argv`, or None where it exits."""
    try:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            return vars(_parser().parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize("argv", [
    ["build"],
    ["verify", "--prime", "5", "--trace-bound", "16", "--cache-dir", "c"],
    ["coeff", "X35", "3", "4", "2"],
    ["coeff", "X10*X12*X4", "3", "4", "-2", "--prime", "23", "--format", "lines"],
    ["coeff", "--prime", "-7", "X4", "-1", "--cache-dir", "-5", "0", "-0"],  # negative numbers
    ["coeff", "X4", "1", "--trace-bound", "9", "--trace-bound", "10", "0", "0"],  # the last wins
    ["minmat", "X35", "--prime", "23", "--format", "table"],
    ["theta", "X6", "--prime", "5"],
    ["sturm", "--prime", "5", "X4-E4"],
    ["dump", "X4^3 - X6^2", "--cache-dir", ""],
], ids=" ".join)
def test_a_well_formed_command_is_read_without_argparse(argv):
    assert cli._read(argv) == _parsed(argv) is not None


# tokens that a perturbation puts in: argparse's abbreviations, --flag=value,
# '--', help, negative numbers argparse reads as values, bad ints and choices
NOISE = [
    "--", "-h", "--help", "--trace", "--cache", "--pr", "--form", "--weight",
    "--prime=23", "--format=lines", "--trace-bound=9", "--cache-dir=c",
    "-1", "-0", "-17", "-.5", "-1.5", "-X4", "-", "- 1", "",
    "x", "1.5", "99", "7", "23", "5", "table", "lines", "X4", "c",
]


def _value(kind, choices):
    """An option's value: three times in four one it takes, else one argparse refuses."""
    if choices is not None:
        good = st.sampled_from([str(choice) for choice in choices])
    else:
        good = st.integers(-20, 50).map(str) if kind is int else st.sampled_from(["X4", "c", "-3", ""])
    return st.one_of(good, good, good, st.sampled_from(["7", "x", "1.5", "-X4", "--prime", "-h"]))


@st.composite
def _argvs(draw):
    """A well-formed argv of a random command, then up to three tokens
    inserted, replaced or deleted (the command included)."""
    command = draw(st.sampled_from(list(cli.GRAMMAR)))
    _, _, positionals, options = cli.GRAMMAR[command]
    pieces = [[draw(st.integers(-9, 9).map(str) if kind is int else st.sampled_from(["X4", "X35*X4"]))]
              for _, kind in positionals]
    for flag, kind, _, choices, required, _ in options:
        for _ in range(draw(st.integers(0, 2))):  # options between positionals
            pieces.insert(draw(st.integers(0, len(pieces))), [flag, draw(_value(kind, choices))])
    argv = [command, *(token for piece in pieces for token in piece)]
    flags = [option[0] for option in options]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(flags) | st.sampled_from(NOISE) | st.sampled_from(list(cli.GRAMMAR)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or at == len(argv):
            argv.insert(at, token)
        elif edit == "replace":
            argv[at] = token
        else:
            del argv[at]
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["verify", "--prime", "7"])  # outside the choices
@example(["coeff", "X4", "1", "0", "x"])  # a bad int
@example(["coeff", "X4", "1", "0", "0", "--cache-dir"])  # no value
@example(["coeff", "X4", "1", "0", "0", "--cache-dir", "--prime", "5"])  # a flag for a value
@example(["minmat", "X35"])  # a required option missing
@example(["dump", "X4", "X6"])  # a positional too many
@example(["coeff", "X4", "1", "0", "0", "--trace", "9"])  # an abbreviation
@example(["coeff", "X4", "1", "0", "0", "--prime=5"])
@example(["coeff", "--", "-X4", "1", "0", "0"])
@example(["verify", "-h"])
def test_the_reader_agrees_with_argparse_or_refuses(argv):
    # None where argparse prints help or a usage error, or may read it otherwise
    read = cli._read(argv)
    assert read is None or read == _parsed(argv)


# ----- start-up ------------------------------------------------------------


def _python(*args):
    """(stdout, stderr, exit status) of a fresh interpreter on the package's
    sources, given the interpreter arguments `args`."""
    src = Path(siegel2.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    return proc.stdout, proc.stderr, proc.returncode


def _modules(code):
    """The modules a fresh interpreter holds after running `code`."""
    out, err, status = _python("-c", f"{code}\nimport sys; print(*sys.modules)")
    assert status == 0, err
    return set(out.splitlines()[-1].split())


@cache
def _bare():
    """The modules a bare interpreter holds: whatever `site` preloads is allowed."""
    return frozenset(_modules(""))


def test_import_loads_no_heavy_stdlib_modules():
    new = _modules("import siegel2.cli") - _bare()
    assert "siegel2.cli" in new
    assert not new & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


# what argparse imports, its first message included (`gettext` imports `locale`)
ARGPARSE = {"argparse", "gettext", "locale"}

# a command on a complete cache builds nothing: no `construction`; only a
# product compiles the product kernel, `kernel`
BUILD = {"construction", "kernel"}


@pytest.mark.parametrize("argv, used, unused", [
    ([], set(), {"congruence", "expr", "reference"} | BUILD),
    (["build"], set(), {"congruence", "expr", "reference"} | BUILD),
    (["coeff", "X35", "2", "3", "-1"], {"expr"}, {"congruence", "reference"} | BUILD),
    (["dump", "X4"], {"expr"}, {"congruence", "reference"} | BUILD),
    (["theta", "X6", "--prime", "5"], {"expr"}, {"congruence", "reference"} | BUILD),
    (["verify"], {"congruence", "reference"}, {"expr"} | BUILD),
    (["minmat", "X35", "--prime", "23"], {"congruence", "expr"}, {"reference"} | BUILD),
    (["sturm", "X4-E4", "--prime", "23"], {"congruence", "expr"}, {"reference"} | BUILD),
    (["coeff", "X10*X12*X4", "2", "3", "-1", "--prime", "23"], {"expr", "kernel"},
     {"congruence", "reference", "construction"}),
], ids=lambda case: " ".join(case) or "import" if isinstance(case, list) else None)
def test_a_command_imports_only_the_modules_it_uses(cli_cache, argv, used, unused):
    call = f"assert siegel2.cli.main({argv + ['--cache-dir', str(cli_cache)]!r}) == 0" if argv else ""
    modules = _modules(f"import siegel2.cli\n{call}")
    loaded = {m.removeprefix("siegel2.") for m in modules}
    assert used <= loaded
    assert not unused & loaded
    # a well-formed command is read without argparse
    assert not (modules - _bare()) & ARGPARSE


@pytest.mark.parametrize("argv", [["--help"], ["coeff", "X4", "1", "0"]], ids=" ".join)
def test_help_and_a_usage_error_import_argparse(argv):
    code = f"import siegel2.cli\ntry:\n    siegel2.cli.main({argv!r})\nexcept SystemExit:\n    pass"
    assert "argparse" in _modules(code) - _bare()


def test_a_build_into_an_empty_directory_imports_the_construction(tmp_path):
    argv = ["build", "--trace-bound", "5", "--cache-dir", str(tmp_path / "empty")]
    loaded = _modules(f"import siegel2.cli\nassert siegel2.cli.main({argv!r}) == 0")
    assert {"siegel2.construction", "siegel2.kernel"} <= loaded


@pytest.mark.parametrize("module, name, argv", [
    (cli, "parse", ["coeff", "X4", "1", "0", "0"]),
    (cli, "min_matrix", ["minmat", "X35", "--prime", "23"]),
    (cli, "x35_reference_violations", ["verify"]),
    (igusa, "build_generator_set", ["build", "--trace-bound", "5"]),  # on an empty directory
], ids=lambda case: " ".join(case) if isinstance(case, list) else getattr(case, "__name__", case))
def test_main_calls_a_wrapper_bound_before_it(cli_cache, tmp_path, capsys, monkeypatch,
                                              module, name, argv):
    # `main` and a cache miss bind a module's names only where none is bound
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    cache = tmp_path if module is igusa else cli_cache
    assert run(capsys, *argv, "--cache-dir", cache)[0] == 0
    assert calls


# ----- process entry -------------------------------------------------------


# a fresh process runs `call`, then prints the frozen count before and after it
FREEZE_COUNTS = """
import gc, sys
before = gc.get_freeze_count()
try:
    {call}
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(before, gc.get_freeze_count())
"""


@pytest.mark.parametrize("call", [
    "import siegel2.cli; siegel2.cli.entry(ARGV)",
    # as `python -m siegel2.cli` runs it: the module is not imported first
    "import runpy; sys.argv = ['siegel2', *ARGV]; runpy.run_module('siegel2.cli', run_name='__main__')",
], ids=["entry", "run_module"])
def test_a_process_started_at_entry_freezes_what_it_tracks(cli_cache, call):
    argv = ["coeff", "X4", "1", "0", "0", "--cache-dir", str(cli_cache)]
    code = f"ARGV = {argv!r}" + FREEZE_COUNTS.format(call=call)
    out, err, status = _python("-c", code)
    assert (err, status) == ("", 0)
    answer, counts = out.splitlines()
    assert answer == "a((1,0,0); X4) = 240"
    before, after = map(int, counts.split())
    assert after > before


@pytest.mark.parametrize("argv, unbuffered", [
    pytest.param(argv, flag, id=" ".join([*argv, mode]).removeprefix("build "))
    for argv in (["build"], ["--help"], ["coeff", "--help"])
    for flag, mode in (("1", "unbuffered"), ("", "buffered"))
])
def test_a_closed_stdout_ends_the_process_with_the_sigpipe_status(cli_cache, argv, unbuffered):
    # no usage error (2) and no "Exception ignored" at exit (120): 128 + SIGPIPE,
    # quietly; also for argparse's help, whose own write drops the error
    read, write = os.pipe()
    os.close(read)
    src = Path(siegel2.__file__).resolve().parents[1]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "siegel2.cli", *argv, "--cache-dir", str(cli_cache)],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_main_leaves_the_collector_unfrozen(cli_cache, capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "coeff", "X4", 1, 0, 0, "--cache-dir", cli_cache)[0] == 0
    assert run(capsys, "verify", "--trace-bound", 8, "--cache-dir", cli_cache)[0] == 2
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["coeff", "X4", "1", "0", "0"],
    ["verify"],
    ["verify", "--prime", "7"],
    ["coeff", "X4", "1", "1", "5"],
], ids=" ".join)
def test_python_m_prints_what_main_prints(cli_cache, capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this width
    argv = [*argv, "--cache-dir", str(cli_cache)] if argv != ["--help"] else argv
    try:
        status = main(argv)
    except SystemExit as exc:  # --help and argparse's own errors
        status = exc.code
    out = capsys.readouterr()
    assert _python("-m", "siegel2.cli", *argv) == (out.out, out.err, status)
