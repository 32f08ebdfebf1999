"""Tests of the runnable scripts under scripts/."""

import importlib.util
import re
from pathlib import Path

import pytest

from siegel2.cli import ENV_CACHE_DIR, MAX_TRACE_BOUND, main
from siegel2.igusa import CACHE_NAMES, cache_path, save_generator_set
from siegel2.reference import MIN_MATRIX_REFERENCE


def load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_mod23_refutes_a_cache_that_verify_refutes(genset9, tmp_path, capsys):
    # -32361 = -32384 mod 23, off the normalization index, so only the
    # reference coefficients catch this edit
    save_generator_set(genset9, tmp_path)
    x35_file = cache_path(tmp_path, "X35", 9)
    text = x35_file.read_text()
    assert "\n3 4 -2 -32384 1\n" in text
    x35_file.write_text(text.replace("\n3 4 -2 -32384 1\n", "\n3 4 -2 -32361 1\n"))

    argv = ["--trace-bound", "9", "--cache-dir", str(tmp_path)]
    assert main(["verify", *argv]) == 1
    verify_out = capsys.readouterr()
    assert "verdict: Refuted" in verify_out.out

    assert load_script("reproduce_mod23").main(argv) == 1
    assert capsys.readouterr() == verify_out


def test_reproduce_mod23_refuses_a_cache_that_verify_refuses(genset9, tmp_path, capsys):
    # 24 = 1 mod 23 at the normalization index: the load's rule refuses it
    save_generator_set(genset9, tmp_path)
    x35_file = cache_path(tmp_path, "X35", 9)
    text = x35_file.read_text()
    assert "\n2 3 -1 1 1\n" in text
    x35_file.write_text(text.replace("\n2 3 -1 1 1\n", "\n2 3 -1 24 1\n"))

    argv = ["--trace-bound", "9", "--cache-dir", str(tmp_path)]
    assert main(["verify", *argv]) == 2
    verify_out = capsys.readouterr()
    assert verify_out == ("", (
        f"error: cache file {x35_file} is cut short or damaged: "
        "X35 normalization at (2, 3, -1) failed\n"
    ))

    assert load_script("reproduce_mod23").main(argv) == 2
    assert capsys.readouterr() == verify_out


def test_reproduce_mod23_answers_insufficient_without_a_build(tmp_path, capsys):
    argv = ["--trace-bound", "8", "--cache-dir", str(tmp_path)]
    assert main(["verify", *argv]) == 2
    verify_out = capsys.readouterr()
    assert verify_out.out.endswith("verdict: Insufficient\n")

    assert load_script("reproduce_mod23").main(argv) == 2
    assert capsys.readouterr() == verify_out
    assert list(tmp_path.iterdir()) == []


def test_minmat_table_prints_the_five_row_table(tmp_path, capsys):
    script = load_script("minmat_table")
    assert script.main(["--trace-bound", "6", "--cache-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    header, *rows = [re.split(r" {2,}", line) for line in out.splitlines()]
    assert header == ["form", "p=5", "p=7", "p=11", "p=13", "p=23", "expected"]
    assert rows == [
        [name] + [str(tuple(want))] * 6 for name, want in MIN_MATRIX_REFERENCE.items()
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        cache_path(tmp_path, name, 6).name for name in CACHE_NAMES
    )


def test_minmat_table_uses_the_cache_directory_of_siegel2(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "env-cache"
    monkeypatch.setenv(ENV_CACHE_DIR, str(cache))
    monkeypatch.chdir(tmp_path)
    assert load_script("minmat_table").main(["--trace-bound", "6"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        cache_path(cache, name, 6).name for name in CACHE_NAMES
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["env-cache"]


@pytest.mark.parametrize("name", ["reproduce_mod23", "minmat_table"])
@pytest.mark.parametrize("bound, message", [
    (4, "error: generator builds need trace bound >= 5 "
        "(the X35 normalization index (2,3,-1) has trace 5)\n"),
    (MAX_TRACE_BOUND + 1,
     f"error: trace bound {MAX_TRACE_BOUND + 1} exceeds the maximum {MAX_TRACE_BOUND}\n"),
])
def test_scripts_refuse_a_bound_before_any_build(tmp_path, capsys, name, bound, message):
    script = load_script(name)
    assert script.main(["--trace-bound", str(bound), "--cache-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", message)
    assert list(tmp_path.iterdir()) == []


# the file each script's refusal is tested on: one that its command reads
# (`verify` reads X35 alone; the minimum table reads every generator)
DAMAGED = {"reproduce_mod23": "X35", "minmat_table": "X4"}


@pytest.mark.parametrize("name", list(DAMAGED))
def test_scripts_refuse_a_cache_file_whose_header_contradicts_its_name(
    genset9, tmp_path, capsys, name
):
    # bound 9: below it `verify` answers Insufficient without reading the cache
    save_generator_set(genset9, tmp_path)
    atom = DAMAGED[name]
    path = cache_path(tmp_path, atom, 9)
    path.write_text(genset9.atom(atom).reduce_mod(23).to_text())
    script = load_script(name)
    assert script.main(["--trace-bound", "9", "--cache-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: cache file {path} holds a mod 23 expansion of weight {atom[1:]}, "
        f"expected a rational one of weight {atom[1:]}\n"
    ))
