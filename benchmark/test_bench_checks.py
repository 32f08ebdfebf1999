"""Tests of the benchmark's own checks, query stream and calibration.

Run from the repository root:  PYTHONPATH=src python -m pytest -q benchmark
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys

import pytest

import checks
import run

BOUND = 10  # the smallest bound every query kind accepts (verify --prime 5)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache")
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    subprocess.run(
        [sys.executable, "-m", "siegel2.cli", "build", "--trace-bound", str(BOUND),
         "--cache-dir", str(path)],
        check=True, env=env, capture_output=True,
    )
    return path


@pytest.fixture
def damaged(cache, tmp_path):
    """A copy of the cache, to be damaged by the test."""
    return shutil.copytree(cache, tmp_path / "damaged")


def check(cache_dir):
    checks.check_cache(checks.read_cache(cache_dir, BOUND), BOUND, random.Random(0))


def test_checks_pass_on_a_fresh_cache(cache):
    check(cache)


def test_a_flipped_x35_digit_beyond_trace_9_fails(damaged):
    path = damaged / f"X35_N{BOUND}_v1.qexp"
    lines = path.read_text().split("\n")
    i = next(i for i, line in enumerate(lines[1:], 1)
             if sum(map(int, line.split()[:2])) > 9)
    m, n, r, num, den = lines[i].split()
    num = num[:-1] + ("2" if num[-1] == "1" else "1")
    lines[i] = " ".join((m, n, r, num, den))
    path.write_text("\n".join(lines))
    with pytest.raises(checks.CheckError):
        check(damaged)


def test_an_e10_file_cut_short_fails(damaged):
    path = damaged / f"E10_N{BOUND}_v1.qexp"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:150]))
    with pytest.raises(checks.CheckError):
        check(damaged)


def test_the_query_stream_depends_on_the_seed_alone():
    assert run.query_round(7, 3, 16) == run.query_round(7, 3, 16)
    assert run.query_round(7, 3, 16) != run.query_round(8, 3, 16)
    kinds = [q["kind"] for q in run.query_round(7, 3, 16)]
    assert len(kinds) == 22 and kinds.count("dump") == 1


def test_query_checks_accept_the_program_and_reject_a_wrong_answer(cache, tmp_path):
    forms = checks.read_cache(cache, BOUND)
    runner = run.Runner(tmp_path, BOUND)
    for query in run.query_round(1, 0, BOUND):
        op = runner.query(query, cache, traced=False)
        op.check()
        proc = op.procs[0]
        if query["kind"] in ("verify", "sturm"):
            wrong = proc.stdout.replace("verdict: ", "verdict: not ")
        else:
            wrong = proc.stdout.replace("1", "2", 1) if "1" in proc.stdout else proc.stdout + "x"
        with pytest.raises(checks.CheckError):
            checks.check_query(query, forms, BOUND, proc.returncode, wrong)


def test_calibration_scales_cpu_time_by_the_nearby_reference_times(tmp_path):
    runner = run.Runner(tmp_path, BOUND)
    # (start, wall, cpu) of three reference runs; only the one at 10.0 lies
    # within REF_WINDOW of the process below
    runner.refs = [(0.0, 0.1, 0.05), (10.0, 0.1, 0.1), (100.0, 0.2, 0.2)]
    proc = run.Proc(argv=[], wall=1.0, returncode=0, stdout="", stderr="", maxrss_mb=0.0,
                    trace=None, start=10.5, cpu=0.5)
    assert run.REF_WINDOW < 8
    assert runner.calibrated(proc) == pytest.approx(0.5 * run.REF_SECONDS / 0.1)
