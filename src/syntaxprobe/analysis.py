"""The exposure and supervision analyses and the report grid, as functions
from rows to rows.

This module owns the formats of ``analysis/fits.csv``, ``curves.csv`` and
``charts.json`` and of ``report/table.{csv,txt}``, and :func:`read_fits` is
the one reader of ``fits.csv``.
"""

from __future__ import annotations

import json
import math
import os

from . import scoring, stats
from .corpus import parse_bucket_label
from .errors import (AlignmentError, InputError, RankError, SeparationError, UsageError,
                     write_text)

FITS_COLUMNS = ("suite", "model", "analysis", "term", "estimate", "se", "z", "p",
                "stars")
CURVES_COLUMNS = ("suite", "model", "log10_exposure", "p_hat", "band_lo", "band_hi")


def _outcome(text: str) -> int:
    """A ``correct`` value: 0 or 1.  Anything else is a ValueError."""
    return ("0", "1").index(text)


def read_items(paths) -> dict:
    """``{suite: {model: rows}}`` from per-item CSVs.  A second row for a
    (suite, model, item_id), in any of the files, is an AlignmentError."""
    groups: dict = {}
    seen: dict = {}
    for path in paths:
        for row in scoring.read_items_csv(path, scoring.ITEMS_COLUMNS,
                                          {"correct": _outcome,
                                           "bucket": parse_bucket_label},
                                          key=("suite", "model", "item_id"), seen=seen):
            groups.setdefault(row["suite"], {}).setdefault(row["model"], []).append(row)
    return groups


def _fit_rows(key: tuple, X, y, labels, clusters) -> list:
    """fits.csv rows for one logistic fit; a separated or rank-deficient
    design gives one ``error:`` row."""
    try:
        fit = stats.fit_logistic(X, y, labels=labels, clusters=clusters)
    except (SeparationError, RankError) as exc:
        return [[*key, f"error:{exc.category}", "nan", "nan", "nan", "nan", ""]]
    return [[*key, label, f"{fit.coef[i]:.6f}", f"{fit.se[i]:.6f}", f"{fit.z[i]:.4f}",
             f"{fit.p[i]:.6g}", stats.stars(fit.p[i])]
            for i, label in enumerate(fit.labels)]


def _chart(suite_id: str, model: str, rows, counts) -> dict:
    """A group's pooled accuracy per bucket and its fitted curve, or the
    error that kept the curve from being fit."""
    points = [{"bucket": c.bucket, "log10_exposure": math.log10(c.bucket),
               "accuracy": c.summary.accuracy, "ci_lo": c.summary.ci_lo,
               "ci_hi": c.summary.ci_hi, "n": c.summary.n}
              for c in scoring.summarize((r["bucket"], r["category"], r["correct"])
                                         for r in rows)
              if c.category == "all"]
    chart = {
        "title": f"{suite_id} / {model}",
        "suite": suite_id,
        "model": model,
        "encoding": {
            "x": {"field": "log10_exposure", "title": "training exposures (log10)"},
            "y": {"field": "accuracy", "domain": [0.0, 1.0]},
            "error": {"lo": "ci_lo", "hi": "ci_hi"},
            "chance": 0.5,
        },
        "points": points,
        "curve": [],
        "curve_separated": False,
    }
    try:
        curve = stats.accuracy_curve(list(zip(counts, (r["correct"] for r in rows))))
    except (InputError, RankError) as exc:  # one exposure value, a singular design
        chart["curve_error"] = f"error:{exc.category}"
    else:
        chart["curve"] = [{"log10_exposure": x, "accuracy": p, "band_lo": lo,
                           "band_hi": hi}
                          for x, p, lo, hi in curve.samples]
        chart["curve_separated"] = curve.separated
    return chart


def analyze(groups: dict, count, lexicon: str, reference_model: str = ""):
    """fits.csv rows and the charts for :func:`read_items` groups.

    ``count`` gives a target's training count in ``lexicon``; a target it
    never counted means the suite came from another lexicon.  Each group
    gets an ``exposure`` fit, cluster-robust by target, and a chart; each
    suite with two or more models a ``supervision`` fit, cluster-robust by
    item, against ``reference_model`` (unset: the first model name).

    A set ``reference_model`` must name a model of the run and a model of
    every suite with a supervision fit; else a UsageError names the first
    suite it misses and that suite's models."""
    run_models = {m for models in groups.values() for m in models}
    for suite_id, models in sorted(groups.items()):
        if reference_model and reference_model not in models and (
                len(models) > 1 or reference_model not in run_models):
            raise UsageError(f"reference_model {reference_model!r} is not a model of "
                             f"suite {suite_id} (models: {', '.join(sorted(models))})")
    fits_rows, charts = [], []
    for suite_id, models in sorted(groups.items()):
        for model, rows in sorted(models.items()):
            counts = [float(count(r["target"])) for r in rows]
            if 0.0 in counts:
                raise AlignmentError(
                    f"target {rows[counts.index(0.0)]['target']!r} of suite "
                    f"{suite_id} does not occur in lexicon {lexicon}")
            fits_rows += _fit_rows((suite_id, model, "exposure"), [[c] for c in counts],
                                   [r["correct"] for r in rows], ["occurrences"],
                                   [r["target"] for r in rows])
            charts.append(_chart(suite_id, model, rows, counts))

    for suite_id, models in sorted(groups.items()):
        if len(models) < 2:
            continue
        names = sorted(models)
        reference = reference_model or names[0]
        contrasts = [m for m in names if m != reference]
        rows = [(m, r) for m in names for r in models[m]]
        fits_rows += _fit_rows(
            (suite_id, "*", "supervision"),
            [[1.0 if m == c else 0.0 for c in contrasts] + [math.log10(r["bucket"])]
             for m, r in rows],
            [r["correct"] for _, r in rows],
            [f"model:{m}" for m in contrasts] + ["bucket_log10"],
            [r["item_id"] for _, r in rows])
    return fits_rows, charts


def curve_rows(charts) -> list:
    """curves.csv rows: each chart's fitted curve, one row per sample."""
    return [[chart["suite"], chart["model"], f"{s['log10_exposure']:.6f}",
             f"{s['accuracy']:.6f}", f"{s['band_lo']:.6f}", f"{s['band_hi']:.6f}"]
            for chart in charts for s in chart["curve"]]


def write_analysis(directory, fits_rows, charts) -> str:
    """Writes the three analysis files; returns the path of fits.csv."""
    fits = os.path.join(directory, "fits.csv")
    scoring.write_csv(fits, FITS_COLUMNS, fits_rows)
    scoring.write_csv(os.path.join(directory, "curves.csv"), CURVES_COLUMNS,
                      curve_rows(charts))
    with write_text(os.path.join(directory, "charts.json")) as fh:
        json.dump({"version": 1, "charts": charts}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return fits


def read_evals(paths) -> list:
    """Eval rows; a second (suite, model, bucket, category) row, in any of
    the files, is an AlignmentError."""
    seen: dict = {}
    return [row for path in paths for row in scoring.read_eval_csv(path, seen)]


def read_fits(path) -> list:
    return scoring.read_items_csv(path, FITS_COLUMNS)


def report_table(eval_rows, fits_rows=()) -> tuple[list, list, list]:
    """``(models, header, rows)`` of the buckets-above-chance grid: "k/n"
    buckets above chance per suite (in eval order) and model (sorted), then,
    with supervision fits, each model's stars against the reference."""
    counts: dict = {}
    for row in eval_rows:
        if row["category"] == "all":
            got = counts.setdefault((row["suite"], row["model"]), [0, 0])
            got[0] += row["p_above_chance"] < 0.05
            got[1] += 1
    stars = {(row["suite"], row["term"][len("model:"):]): row["stars"]
             for row in fits_rows
             if row["analysis"] == "supervision" and row["term"].startswith("model:")}
    suite_ids = list(dict.fromkeys(suite_id for suite_id, _ in counts))
    models = sorted({model for _, model in counts})
    header = ["suite"] + [f"{m}_above_chance" for m in models]
    if stars:
        header += [f"{m}_vs_reference" for m in models]
    rows = [[s] + [f"{counts[s, m][0]}/{counts[s, m][1]}" if (s, m) in counts else "-"
                   for m in models]
            + ([stars.get((s, m), "") for m in models] if stars else [])
            for s in suite_ids]
    return models, header, rows


def write_report(directory, models, header, rows) -> str:
    """table.csv, and table.txt with each model's stars beside its cell;
    returns the path of table.txt."""
    scoring.write_csv(os.path.join(directory, "table.csv"), header, rows)
    table_txt = os.path.join(directory, "table.txt")
    n = len(models)
    width = max([len(row[0]) for row in rows] + [5])
    with write_text(table_txt) as fh:
        fh.write("suite".ljust(width) + "  " + "  ".join(m.rjust(12) for m in models) + "\n")
        for row in rows:
            cells = [f"{cell} {star}".rstrip()
                     for cell, star in zip(row[1:n + 1], row[n + 1:] or [""] * n)]
            fh.write("  ".join([row[0].ljust(width)] + [c.rjust(12) for c in cells]) + "\n")
    return table_txt
