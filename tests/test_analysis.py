"""The analyses and the report grid on hand-written rows, and the files the
``analyze`` and ``report`` stages write from the same rows."""

import csv
import json
from collections import Counter

import pytest

from syntaxprobe import analysis, cli, scoring, stats
from syntaxprobe.errors import AlignmentError, UsageError

COUNTS = Counter({"fast": 2, "calm": 5, "wild": 30})


def _items():
    """Typed item rows, as ``read_items`` gives them: suite "tiny" with
    models "a" and "b" over three exposures, suite "flat" with one."""
    rows = []
    for suite, targets, model, correct in (
            ("flat", ("fast",), "a", lambda i: i % 2),
            ("tiny", ("fast", "calm", "wild"), "a", lambda i: (i // 2) % 2),
            ("tiny", ("fast", "calm", "wild"), "b", lambda i: int(i % 4 > 0))):
        for i in range(12):
            target = targets[i % len(targets)]
            rows.append({"suite": suite, "model": model, "item_id": f"{suite}.{i}",
                         "bucket": COUNTS[target], "category": "singular",
                         "target": target, "gram_bits": "1.0", "ungram_bits": "2.0",
                         "correct": correct(i)})
    return rows


def _groups(rows):
    groups: dict = {}
    for r in rows:
        groups.setdefault(r["suite"], {}).setdefault(r["model"], []).append(r)
    return groups


def test_analyze_hand_written_rows():
    fits, charts = analysis.analyze(_groups(_items()), COUNTS.__getitem__, "lex.tsv")
    assert [row[:4] for row in fits] == [
        ["flat", "a", "exposure", "error:rank-error"],  # one exposure value
        ["tiny", "a", "exposure", "intercept"], ["tiny", "a", "exposure", "occurrences"],
        ["tiny", "b", "exposure", "intercept"], ["tiny", "b", "exposure", "occurrences"],
        ["tiny", "*", "supervision", "intercept"], ["tiny", "*", "supervision", "model:b"],
        ["tiny", "*", "supervision", "bucket_log10"]]
    assert fits[0][4:] == ["nan", "nan", "nan", "nan", ""]
    assert all(len(row) == len(analysis.FITS_COLUMNS) for row in fits)

    assert [(c["suite"], c["model"]) for c in charts] == [
        ("flat", "a"), ("tiny", "a"), ("tiny", "b")]
    assert charts[0]["curve"] == [] and charts[0]["curve_error"] == "error:undefined-input"
    assert len(charts[1]["curve"]) == 100 and "curve_error" not in charts[1]
    # One point per bucket, the eval "all" row of the group's items.
    assert [(p["bucket"], p["n"], p["accuracy"]) for p in charts[2]["points"]] == [
        (2, 4, 0.75), (5, 4, 0.75), (30, 4, 0.75)]
    curves = analysis.curve_rows(charts)
    assert len(curves) == 200 and {tuple(r[:2]) for r in curves} == {("tiny", "a"),
                                                                     ("tiny", "b")}

    fits, _ = analysis.analyze(_groups(_items()), COUNTS.__getitem__, "lex.tsv",
                               reference_model="b")
    assert [row[3] for row in fits if row[2] == "supervision"] == [
        "intercept", "model:a", "bucket_log10"]


def test_analyze_rejects_a_target_the_lexicon_never_counted():
    with pytest.raises(AlignmentError, match="target 'fast' of suite flat does not "
                                             "occur in lexicon lex.tsv"):
        analysis.analyze(_groups(_items()), Counter().__getitem__, "lex.tsv")


def _tiny_rows(*models):
    return [dict(r, model=m) for m in models for r in _items()
            if r["suite"] == "tiny" and r["model"] == "a"]


def test_a_term_with_zero_robust_variance_gets_no_test():
    # Two models that agree on every item: each item's score for the model
    # term cancels, so its cluster-robust variance is 0 up to rounding.  The
    # same holds for the exposure fits, where every target is half correct.
    # Such a term has no z or p, and no stars (it once read inf, 0, ***).
    fits, _ = analysis.analyze(_groups(_tiny_rows("a", "b")), COUNTS.__getitem__,
                               "lex.tsv")
    no_test = ["0.000000", "0.000000", "nan", "nan", ""]
    assert fits == [
        ["tiny", "a", "exposure", "intercept", *no_test],
        ["tiny", "a", "exposure", "occurrences", *no_test],
        ["tiny", "b", "exposure", "intercept", *no_test],
        ["tiny", "b", "exposure", "occurrences", *no_test],
        ["tiny", "*", "supervision", "intercept", "0.000000", "1.184431", "0.0000", "1", ""],
        ["tiny", "*", "supervision", "model:b", *no_test],
        ["tiny", "*", "supervision", "bucket_log10", "0.000000", "1.234617", "0.0000", "1",
         ""]]
    # Without clusters the same contrast has its model-based se, not 0, and
    # keeps its test.
    rows = _tiny_rows("a", "b")
    fit = stats.fit_logistic([[float(r["model"] == "b")] for r in rows],
                             [r["correct"] for r in rows])
    assert fit.se[1] > 0.5 and abs(fit.z[1]) < 1e-9 and fit.p[1] > 0.99


def test_analyze_rejects_a_reference_model_the_suite_lacks():
    with pytest.raises(UsageError) as err:
        analysis.analyze(_groups(_tiny_rows("kn3", "ngram5")), COUNTS.__getitem__,
                         "lex.tsv", reference_model="kn33")
    assert str(err.value) == ("reference_model 'kn33' is not a model of suite tiny "
                              "(models: kn3, ngram5)")


def test_cli_analyze_rejects_a_reference_model_of_no_run_model(tmp_path, capsys):
    # One model per suite gives no supervision fit, but a reference that names
    # no analysed model is still a mistake: exit 2 before anything is written.
    items_csv = tmp_path / "tiny.items.csv"
    scoring.write_csv(items_csv, scoring.ITEMS_COLUMNS,
                      ([r[c] for c in scoring.ITEMS_COLUMNS] for r in _tiny_rows("ngram5")))
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       + "".join(f"{w}\t{n}\tJJ:{n}\t0\t0\t0\t0\n"
                                 for w, n in sorted(COUNTS.items())))
    config = tmp_path / "probe.cfg"
    config.write_text("[syntaxprobe]\nreference_model = kn33\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), "analyze", "--items",
                     str(items_csv), "--lexicon", str(lexicon)]) == 2
    assert capsys.readouterr().err == (
        "error:usage-error: reference_model 'kn33' is not a model of suite tiny "
        "(models: ngram5)\n")
    assert not out.exists()


_EVALS = [  # (suite, model, bucket, category, p_above_chance)
    ("s2", "m", "2", "all", 0.01), ("s2", "m", "2", "singular", 0.01),
    ("s2", "m", "3", "all", 0.5),
    ("s1", "m", "2", "all", 0.2), ("s1", "n", "2", "all", 0.049)]
_FITS = [
    ["s1", "n", "exposure", "occurrences", "0.1", "0.1", "1.0", "0.3", ""],
    ["s1", "*", "supervision", "intercept", "0.1", "0.1", "1.0", "0.001", "**"],
    ["s1", "*", "supervision", "model:n", "0.1", "0.1", "1.0", "0.002", "**"]]


def _eval_rows():
    return [{"suite": s, "model": m, "bucket": b, "category": c, "n": "4", "k": "3",
             "accuracy": "0.75", "ci_lo": "0.3", "ci_hi": "0.95", "p_above_chance": p}
            for s, m, b, c, p in _EVALS]


def test_report_table_hand_written_rows():
    fits = [dict(zip(analysis.FITS_COLUMNS, row)) for row in _FITS]
    assert analysis.report_table(_eval_rows(), fits) == (
        ["m", "n"],
        ["suite", "m_above_chance", "n_above_chance", "m_vs_reference", "n_vs_reference"],
        [["s2", "1/2", "-", "", ""], ["s1", "0/1", "1/1", "", "**"]])
    assert analysis.report_table(_eval_rows()) == (
        ["m", "n"], ["suite", "m_above_chance", "n_above_chance"],
        [["s2", "1/2", "-"], ["s1", "0/1", "1/1"]])


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_cli_analyze_and_report_write_those_rows(tmp_path):
    items = _items()
    items_csv = tmp_path / "tiny.items.csv"
    scoring.write_csv(items_csv, scoring.ITEMS_COLUMNS,
                      ([r[c] for c in scoring.ITEMS_COLUMNS] for r in items))
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       + "".join(f"{w}\t{n}\tJJ:{n}\t0\t0\t0\t0\n"
                                 for w, n in sorted(COUNTS.items())))
    config = tmp_path / "empty.cfg"
    config.write_text("[syntaxprobe]\n")
    out = tmp_path / "out"
    base = ["--config", str(config), "--out", str(out)]
    assert cli.main(base + ["analyze", "--items", str(items_csv),
                            "--lexicon", str(lexicon)]) == 0
    fits, charts = analysis.analyze(_groups(items), COUNTS.__getitem__, str(lexicon))
    assert _read_csv(out / "analysis" / "fits.csv") == [list(analysis.FITS_COLUMNS),
                                                        *fits]
    assert _read_csv(out / "analysis" / "curves.csv") == [
        list(analysis.CURVES_COLUMNS), *analysis.curve_rows(charts)]
    written = json.loads((out / "analysis" / "charts.json").read_text(encoding="utf-8"))
    assert written == {"version": 1, "charts": charts}

    evals_csv, fits_csv = tmp_path / "s.eval.csv", tmp_path / "fits.csv"
    scoring.write_csv(evals_csv, scoring.EVAL_COLUMNS,
                      ([r[c] for c in scoring.EVAL_COLUMNS] for r in _eval_rows()))
    scoring.write_csv(fits_csv, analysis.FITS_COLUMNS, _FITS)
    assert cli.main(base + ["report", "--eval", str(evals_csv),
                            "--fits", str(fits_csv)]) == 0
    _, header, rows = analysis.report_table(
        _eval_rows(), [dict(zip(analysis.FITS_COLUMNS, row)) for row in _FITS])
    assert _read_csv(out / "report" / "table.csv") == [header, *rows]
    assert (out / "report" / "table.txt").read_text(encoding="utf-8").splitlines() == [
        "suite" + " " * 13 + "m" + " " * 13 + "n",
        "s2" + " " * 14 + "1/2" + " " * 13 + "-",
        "s1" + " " * 14 + "0/1" + " " * 8 + "1/1 **"]
