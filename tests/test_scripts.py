"""Tests of the runnable scripts under scripts/."""

import importlib.util
from pathlib import Path

from siegel2.cli import main
from siegel2.igusa import build_generator_set, cache_path, save_generator_set


def load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_mod23_refutes_a_cache_that_verify_refutes(tmp_path, capsys):
    # 24 = 1 mod 23, so only the reference coefficients catch this edit
    save_generator_set(build_generator_set(9), tmp_path)
    x35_file = cache_path(tmp_path, "X35", 9)
    text = x35_file.read_text()
    assert "\n2 3 -1 1 1\n" in text
    x35_file.write_text(text.replace("\n2 3 -1 1 1\n", "\n2 3 -1 24 1\n"))

    assert main(["verify", "--trace-bound", "9", "--cache-dir", str(tmp_path)]) == 1
    verify_out = capsys.readouterr().out
    assert "verdict: Refuted" in verify_out

    script = load_script("reproduce_mod23")
    assert script.main(["--trace-bound", "9", "--cache-dir", str(tmp_path)]) == 1
    summary, certificate = capsys.readouterr().out.split("\n\n", 1)
    assert summary.startswith("# generators at trace bound 9 (cache, ")
    assert certificate == verify_out
