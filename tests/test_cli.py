"""End-to-end tests of the command line driver (via main(argv))."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import siegel2
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


@pytest.mark.parametrize("expr, index", [("E12", (0, 0, 0)), ("E12*X4", (1, 0, 0))])
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
    (["coeff", "X4", 0, 0, 0, "--trace-bound", -1], "error: trace bound must be >= 0\n"),
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
        f"error: cache file {path} is cut short or damaged: its restriction "
        f"disagrees with the genus-1 series of weight {name[1:]}\n"
    ))


def _damage(gen, path, name):
    """Cut an Eisenstein-type file short; give X10, X12 or X35 a mod 23
    header.  Returns the load error `main` prints for it."""
    weight = name[1:]
    if name[0] == "E" or name in ("X4", "X6"):
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:150]))
        return (f"error: cache file {path} is cut short or damaged: its restriction "
                f"disagrees with the genus-1 series of weight {weight}\n")
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


# ----- start-up ------------------------------------------------------------


def _modules(code):
    """The modules a fresh interpreter holds after running `code`."""
    src = Path(siegel2.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_heavy_stdlib_modules():
    # compared with a bare interpreter, so whatever `site` preloads is allowed
    new = _modules("import siegel2.cli") - _modules("")
    assert "siegel2.cli" in new
    assert not new & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


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
    loaded = {m.removeprefix("siegel2.") for m in _modules(f"import siegel2.cli\n{call}")}
    assert used <= loaded
    assert not unused & loaded


def test_a_build_into_an_empty_directory_imports_the_construction(tmp_path):
    argv = ["build", "--trace-bound", "5", "--cache-dir", str(tmp_path / "empty")]
    loaded = _modules(f"import siegel2.cli\nassert siegel2.cli.main({argv!r}) == 0")
    assert {"siegel2.construction", "siegel2.kernel"} <= loaded
