"""The in-house special functions against scipy, and the import paths that
load neither scipy nor numpy: the runtime is the standard library, and each
stage loads only the parts of it that it uses.

scipy is a test-only dependency: each comparison skips when it is missing.
"""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import syntaxprobe
import syntaxprobe.toydata
from syntaxprobe.stats import _Z95, expit


@pytest.mark.parametrize("module", ["syntaxprobe.cli", "syntaxprobe.pcfg_scorer"])
def test_entry_points_do_not_import_scipy(module):
    src = str(pathlib.Path(syntaxprobe.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _src_env():
    src = str(pathlib.Path(syntaxprobe.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("module", [
    "syntaxprobe", "syntaxprobe.cli", "syntaxprobe.pcfg_scorer", "syntaxprobe.stats",
    "syntaxprobe.analysis"])
def test_entry_points_do_not_import_numpy(module):
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'numpy' or m.startswith('numpy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


#: Standard-library modules that cost start-up time and that no entry point
#: loads; of the stages, only gen, which hashes, loads hashlib.
_COSTLY = ("dataclasses", "hashlib", "inspect")


@pytest.mark.parametrize("module, loaded", [
    ("syntaxprobe", ["syntaxprobe"]),
    ("syntaxprobe.pcfg_scorer", ["syntaxprobe", "syntaxprobe.actions",
                                 "syntaxprobe.beamsearch", "syntaxprobe.errors",
                                 "syntaxprobe.pcfg_scorer"]),
    # corpus checks the bucket table when the config is loaded.
    ("syntaxprobe.cli", ["syntaxprobe", "syntaxprobe.cli", "syntaxprobe.corpus",
                         "syntaxprobe.errors"]),
])
def test_entry_points_load_only_their_modules(module, loaded):
    # The package re-exports nothing, so its __init__ loads no submodule.
    code = (f"import sys, {module}\n"
            "print(' '.join(sorted(m for m in sys.modules\n"
            f"                      if m.startswith('syntaxprobe') or m in {_COSTLY})))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == loaded


def test_no_stage_imports_numpy(tmp_path):
    # Each stage of the toy pipeline in a fresh interpreter; -X importtime
    # names every module the stage imports on stderr.  Each stage loads
    # exactly its package modules (cli runs as __main__, so it is not among
    # them), none loads numpy, and none but gen loads a _COSTLY module.
    config = tmp_path / "probe.cfg"
    config.write_text("[syntaxprobe]\n"
                      f"corpus = {syntaxprobe.toydata.toy_treebank_path()}\n"
                      "lowercase = true\nseed = 13\nwords_per_category = 2\n")
    suite, surp = "out/suites/number_base.suite", "out/surprisals/number_base.m.surp"
    evaluating = {"scoring", "stats", "suites"}
    stages = [
        (["ingest"], set()),
        (["stats"], {"toydata"}),
        (["gen", "--suite", "number_base"], {"suites", "toydata"}),
        (["train-ngram"], {"ngram"}),
        (["score", "--suite-file", suite, "--model-name", "m"], {"ngram"} | evaluating),
        (["eval", "--suite-file", suite, "--surprisal-file", surp,
          "--model-name", "m"], evaluating),
        (["analyze", "--items", "out/eval/number_base.m.items.csv"],
         {"analysis"} | evaluating),
        (["report", "--eval", "out/eval/number_base.m.eval.csv",
          "--fits", "out/analysis/fits.csv"], {"analysis"} | evaluating),
    ]
    base = [sys.executable, "-X", "importtime", "-m", "syntaxprobe.cli",
            "--config", str(config), "--out", "out"]
    for stage, modules in stages:
        proc = subprocess.run(base + stage, cwd=tmp_path, env=_src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        imported = re.findall(r"^import time:.*\|\s*([\w.]+)\s*$", proc.stderr,
                              re.M)
        loaded = {m for m in imported if m.startswith("syntaxprobe")}
        assert loaded == {"syntaxprobe", "syntaxprobe.corpus", "syntaxprobe.errors"} | {
            f"syntaxprobe.{m}" for m in modules}, stage[0]
        assert not any(m == "numpy" or m.startswith("numpy.") for m in imported), stage[0]
        assert set(_COSTLY) & set(imported) == ({"hashlib"} if stage[0] == "gen"
                                                 else set()), stage[0]


def test_analyze_and_report_run_on_the_standard_library(tmp_path):
    # python -S keeps site-packages off sys.path, so a stage that needed an
    # installed package would fail to import it.  The stages before analyze
    # run in-process; analyze and report run in-process too, then again
    # under -S, and must rewrite the same bytes.
    from syntaxprobe import cli

    config = tmp_path / "probe.cfg"
    config.write_text("[syntaxprobe]\n"
                      f"corpus = {syntaxprobe.toydata.toy_treebank_path()}\n"
                      "lowercase = true\nseed = 13\nwords_per_category = 2\n"
                      "frames_per_word = 20\n")
    out = tmp_path / "out"
    suite = str(out / "suites" / "argstruct_active_inf.suite")
    items = str(out / "eval" / "argstruct_active_inf.m.items.csv")
    evals = str(out / "eval" / "argstruct_active_inf.m.eval.csv")
    fits = str(out / "analysis" / "fits.csv")
    base = ["--config", str(config), "--out", str(out)]
    for stage in (["ingest"], ["gen", "--suite", "argstruct_active_inf"], ["train-ngram"],
                  ["score", "--suite-file", suite, "--model-name", "m"],
                  ["eval", "--suite-file", suite, "--surprisal-file",
                   str(out / "surprisals" / "argstruct_active_inf.m.surp"),
                   "--model-name", "m"]):
        assert cli.main(base + stage) == 0, stage
    late = (["analyze", "--items", items], ["report", "--eval", evals, "--fits", fits])
    written = ["analysis/fits.csv", "analysis/curves.csv", "analysis/charts.json",
               "report/table.csv", "report/table.txt"]
    for stage in late:
        assert cli.main(base + stage) == 0, stage
    want = {rel: (out / rel).read_bytes() for rel in written}
    assert b"occurrences," in want["analysis/fits.csv"]  # a fit, not an error row
    for rel in written:
        (out / rel).unlink()
    env = dict(os.environ, PYTHONPATH=str(
        pathlib.Path(syntaxprobe.__file__).resolve().parent.parent))
    for stage in late:
        proc = subprocess.run([sys.executable, "-S", "-m", "syntaxprobe.cli"] + base + stage,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert {rel: (out / rel).read_bytes() for rel in written} == want


def test_expit_matches_scipy_bits():
    special = pytest.importorskip("scipy.special")
    # Past -709.78 exp(-x) overflows and both give exactly 0.0.
    x = np.concatenate([np.linspace(-800.0, 800.0, 400_001),
                        np.random.default_rng(0).normal(0.0, 4.0, 50_000)])
    got, want = np.array([expit(v) for v in x.tolist()]), special.expit(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_wilson_z_matches_norm_ppf():
    scipy_stats = pytest.importorskip("scipy.stats")
    assert _Z95 == scipy_stats.norm.ppf(0.5 + 0.95 / 2.0)
