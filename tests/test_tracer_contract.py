"""The benchmark tracer still binds every name it wraps.

`benchmark/tracer.py` installs its spans at module attributes of siegel2
(`cli.min_matrix`, `Expansion.derivative`, ...).  A rename or deletion in
the package would otherwise break only traced benchmark runs; here each
command runs under the tracer, on a warm cache at trace bound 9, and
must exit as usual and record the spans of the layers it goes through;
a cold build runs too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from siegel2.igusa import save_generator_set

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "benchmark" / "tracer.py"

COMMON = {"cli.main", "igusa.load", "qexp.from_text", "trace.bookkeeping"}
QUERY = COMMON | {"expr.parse", "expr.eval"}

# argv -> (exit status, span names recorded)
RUNS = {
    ("build",): (0, COMMON),
    ("verify",): (0, COMMON | {
        "congruence.verify_x35_mod23", "congruence.sturm", "reference.check",
        "qexp.reduce_mod", "qexp.theta",
    }),
    ("coeff", "X35", "2", "4", "-1"): (0, QUERY),
    ("minmat", "X35", "--prime", "23"): (0, QUERY | {"congruence.min_matrix", "qexp.reduce_mod"}),
    ("sturm", "X35", "--prime", "23"): (1, QUERY | {"congruence.sturm", "qexp.reduce_mod"}),
    ("theta", "X6", "--prime", "5"): (0, QUERY | {"qexp.reduce_mod", "qexp.theta", "qexp.to_text"}),
    # a subtraction is one pass of its own; a negation scales by -1
    ("dump", "X4^3-X6^2"): (0, QUERY | {"qexp.mul.rational", "qexp.to_text"}),
    ("dump", "X4^3+(-X6^2)"): (0, QUERY | {
        "qexp.mul.rational", "qexp.add", "qexp.scale", "qexp.to_text",
    }),
}


@pytest.fixture(scope="module")
def cache9(tmp_path_factory, genset9):
    cache = tmp_path_factory.mktemp("tracer-cache9")
    save_generator_set(genset9, cache)
    return cache


@pytest.mark.parametrize("argv", list(RUNS), ids=" ".join)
def test_tracer_runs_each_command(cache9, tmp_path, argv):
    status, names = RUNS[argv]
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *argv,
         "--trace-bound", "9", "--cache-dir", str(cache9)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == status, proc.stderr
    recorded = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert recorded == names


def test_tracer_runs_a_cold_build(tmp_path):
    # a build into an empty directory: the construction checks each form
    # (`igusa.check_form`) inside the span of `igusa.build_generator_set`
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "build",
         "--trace-bound", "5", "--cache-dir", str(tmp_path / "cache")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert recorded == {
        "cli.main", "igusa.build_generator_set", "igusa.load", "igusa.save",
        "qexp.mul.rational", "qexp.to_text", "trace.bookkeeping",
    }
