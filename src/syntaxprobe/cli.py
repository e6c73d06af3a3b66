"""Pipeline driver: ingest -> stats -> gen -> train/score -> eval -> analyze -> report.

Every subcommand reads and writes the textual formats defined by the
library modules, so each stage can be replaced by an external tool.  All
outputs are byte-deterministic for fixed inputs and seed.  Configuration
comes from an INI file (``[syntaxprobe]`` section), overridden by
``SP_``-prefixed environment variables, overridden by flags.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import shlex
from dataclasses import dataclass, fields

from . import beamsearch, corpus, ngram, scoring, stats, suites, toydata
from .corpus import DEFAULT_BUCKETS
from .errors import (AlignmentError, DeadBeamError, FormatError, SyntaxProbeError,
                     UsageError, gc_paused, open_text, report, write_text)


@dataclass
class RunConfig:
    corpus: str = ""
    dependencies: str = ""
    suite_defs: str = ""
    transitivity: str = ""
    irregular: str = ""
    out: str = "out"
    seed: int | None = None
    lowercase: bool = False
    filler_min_count: int = 50
    transitive_hi: float = 0.9
    intransitive_lo: float = 0.1
    eps_tie: float = scoring.DEFAULT_TIE_EPS
    words_per_category: int = 20
    frames_per_word: int = 20
    order: int = 5
    map_singletons: bool = False
    model: str = ""
    buckets: tuple = DEFAULT_BUCKETS  # ``corpus`` in this body is the field
    reference_model: str = ""

    def corpus_paths(self) -> list:
        paths = [p.strip() for p in self.corpus.split(",") if p.strip()]
        if not paths:
            raise UsageError("no corpus configured (config key 'corpus')")
        return paths

    def seed_value(self) -> int:
        if self.seed is None:
            raise UsageError("a seed is required (config key 'seed' or --seed)")
        return self.seed

    def suite_defs_path(self) -> str:
        return self.suite_defs or str(toydata.default_suites_path())

    def transitivity_path(self) -> str:
        return self.transitivity or str(toydata.default_transitivity_path())

    def irregular_path(self) -> str:
        return self.irregular or str(toydata.default_irregular_path())


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _number(kind, lo, hi=math.inf):
    """(parse, rule) for a ``kind`` in [lo, hi]; NaN is out of range."""
    def parse(text: str):
        if not lo <= (value := kind(text)) <= hi:
            raise ValueError(text)
        return value
    return parse, f"{kind.__name__} in [{lo}, {hi}]"


def _blank_is(default, parse):
    return lambda text: parse(text) if text.strip() else default


#: configparser's booleans, which ``invariance`` in the suite definitions
#: reads too; a blank value is False.
_BOOLEAN = (_blank_is(False, lambda text:
                      configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]),
            "boolean")

#: Every typed key's (parse, rule): ``parse`` maps the key's text to its
#: RunConfig value, raising ValueError, KeyError or FormatError against ``rule``.
_TYPED = {
    "seed": (_blank_is(None, int), "an integer"),
    "lowercase": _BOOLEAN,
    "map_singletons": _BOOLEAN,
    "order": _number(int, 1),
    "words_per_category": _number(int, 1),
    "frames_per_word": _number(int, 1),
    "filler_min_count": _number(int, 0),
    "transitive_hi": _number(float, 0.0, 1.0),
    "intransitive_lo": _number(float, 0.0, 1.0),
    "eps_tie": _number(float, 0.0),
    "buckets": (_blank_is(DEFAULT_BUCKETS, corpus.parse_bucket_table),
                "a bucket table LABEL:LO-HI,..."),
}


def load_config(path: str | None, env: dict, overrides: dict) -> RunConfig:
    """Settings from the config file, then the ``SP_`` variables (text,
    parsed here through ``_TYPED``), then the already typed ``overrides``;
    a later source wins."""
    texts: dict = {}
    if path:
        if not os.path.exists(path):
            raise UsageError(f"config file {path!r} does not exist")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open_text(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise UsageError(f"bad config file: {' '.join(str(exc).split())}") from exc
        section = parser["syntaxprobe"] if parser.has_section("syntaxprobe") \
            else parser["DEFAULT"]
        for key in section:
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r} in {path}")
            texts[key] = section[key]
    for key in _CONFIG_KEYS:
        env_key = "SP_" + key.upper()
        if env_key in env:
            texts[key] = env[env_key]
    values = dict(texts)
    for key, text in texts.items():
        if key not in _TYPED:
            continue
        parse, rule = _TYPED[key]
        try:
            values[key] = parse(text)
        except (ValueError, KeyError, FormatError) as exc:
            why = f" ({exc})" if isinstance(exc, FormatError) else ""
            raise UsageError(f"config key {key} must be {rule}{why}, "
                             f"got {text!r}") from None
    values.update((key, v) for key, v in overrides.items() if v is not None)
    cfg = RunConfig(**values)
    if not cfg.transitive_hi > cfg.intransitive_lo:
        raise UsageError(f"config key transitive_hi must be > intransitive_lo "
                         f"({cfg.intransitive_lo}), got '{cfg.transitive_hi}'")
    return cfg


def _require(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"missing upstream artifact: {what} ({path})")
    return path


def _read_corpus(cfg: RunConfig) -> list:
    trees = []
    for path in cfg.corpus_paths():
        trees.extend(corpus.read_treebank(_require(path, "treebank")))
    return trees


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(cfg: RunConfig, args) -> int:
    trees = _read_corpus(cfg)
    deps = None
    if cfg.dependencies.strip():
        deps = corpus.read_dependency_sidecar(_require(cfg.dependencies, "sidecar"))
    lex = corpus.build_lexicon(trees, lowercase=cfg.lowercase,
                               dependencies=deps)
    out = os.path.join(cfg.out, "lexicon.tsv")
    corpus.write_lexicon(lex, out)
    print(f"ingest: {len(trees)} trees, {len(lex)} word forms -> {out}")
    return 0


def _lexicon_path(cfg: RunConfig, args) -> str:
    return getattr(args, "lexicon", None) or os.path.join(cfg.out, "lexicon.tsv")


def _load_lexicon(cfg: RunConfig, args) -> corpus.LexiconStats:
    return corpus.read_lexicon(_require(_lexicon_path(cfg, args),
                                        "lexicon table (run ingest)"))


def _resources(cfg: RunConfig, lex) -> suites.SuiteResources:
    marks = corpus.read_transitivity_lexicon(cfg.transitivity_path())
    irregular = corpus.read_irregular_verbs(cfg.irregular_path())
    calls = corpus.classify_transitivity(
        lex, marks, hi=cfg.transitive_hi, lo=cfg.intransitive_lo)
    return suites.SuiteResources(marks, calls, irregular)


def cmd_stats(cfg: RunConfig, args) -> int:
    lex = _load_lexicon(cfg, args)
    res = _resources(cfg, lex)
    base = os.path.join(cfg.out, "wordstats")

    with write_text(os.path.join(base, "transitivity.tsv")) as fh:
        fh.write("#word\tmarked\tclass\treason\tobj_fraction\n")
        for word in sorted(res.transitivity_calls):
            c = res.transitivity_calls[word]
            frac = "" if c.obj_fraction is None else f"{c.obj_fraction:.4f}"
            fh.write(f"{word}\t{c.marked}\t{c.klass.value}\t{c.reason}\t{frac}\n")

    active = corpus.active_only_verbs(lex, res.irregular)
    with write_text(os.path.join(base, "active_only.txt")) as fh:
        for w in active:
            fh.write(w + "\n")

    nouns = [w for w in lex.words()
             if corpus.majority_tag(lex.stats(w)) in ("NN", "NNS")]
    kept, removed = corpus.filter_polar_overlap(nouns, lex)
    with write_text(os.path.join(base, "polar_overlap.tsv")) as fh:
        fh.write(f"#nouns\t{len(nouns)}\tremoved\t{len(removed)}\n")
        for w in removed:
            fh.write(f"{w}\tremoved\n")

    with write_text(os.path.join(base, "vbn_fractions.tsv")) as fh:
        fh.write("#word\ttotal\tvbn\tfraction\n")
        for word in sorted(res.transitivity_calls):
            if lex.count(word) == 0:
                continue
            frac = corpus.vbn_fraction(lex, word)
            s = lex.stats(word)
            fh.write(f"{word}\t{s.total}\t{s.vbn}\t{frac:.4f}\n")
    print(f"stats: {len(active)} active-only verbs, "
          f"{len(removed)} polar-overlap nouns -> {base}")
    return 0


def cmd_gen(cfg: RunConfig, args) -> int:
    """Every suite is generated before the first is written."""
    lex = _load_lexicon(cfg, args)
    defs = suites.read_suite_defs(cfg.suite_defs_path())
    res = _resources(cfg, lex)
    seed = cfg.seed_value()
    ids = defs.ids() if args.suite == "all" else [args.suite]
    generated = [suites.generate_suite(
        suite_id, defs, lex, seed,
        resources=res,
        words_per_category=cfg.words_per_category,
        frames_per_word=cfg.frames_per_word,
        filler_min_count=cfg.filler_min_count,
        bucket_table=cfg.buckets,
    ) for suite_id in ids]
    for suite in generated:
        out = os.path.join(cfg.out, "suites", f"{suite.suite_id}.suite")
        suites.write_suite(suite, out)
        note = f" ({len(suite.shortfalls)} shortfalls)" if suite.shortfalls else ""
        print(f"gen: {suite.suite_id}: {len(suite.items)} items, "
              f"{suite.sentence_count()} sentences{note} -> {out}")
    return 0


def cmd_train_ngram(cfg: RunConfig, args) -> int:
    trees = _read_corpus(cfg)
    sentences = [[w for w, _ in t.terminals()] for t in trees]
    model = ngram.train(sentences, order=cfg.order,
                        map_singletons=cfg.map_singletons)
    out = os.path.join(cfg.out, "ngram.model")
    ngram.write_model(model, out)
    fell = ", ".join(f"order {k} ({why})"
                     for k, why in model.discount_fallbacks.items())
    fell = f", discounts fell back to 0.5 at {fell}" if fell else ""
    print(f"train-ngram: order {model.order}, |V|={len(model.support)}{fell} -> {out}")
    return 0


def _model_spec(cfg: RunConfig, args):
    spec = getattr(args, "model", None) or cfg.model
    if not spec:
        default_path = os.path.join(cfg.out, "ngram.model")
        if os.path.exists(default_path):
            spec = f"ngram:{default_path}"
        else:
            raise UsageError("no model configured (config key 'model' or --model)")
    kind, _, arg = spec.partition(":")
    if kind == "subprocess":
        try:
            arg = shlex.split(arg)  # the scorer's argv
        except ValueError:  # an unclosed quote
            arg = []
    if kind not in ("ngram", "pcfg", "subprocess") or not arg:
        raise UsageError(f"bad model spec {spec!r} "
                         "(expected ngram:PATH, pcfg:PATH or subprocess:CMD)")
    return kind, arg


def _sentences(suite) -> list:
    """(sentence id, tokens) for each item's two conditions, in file order."""
    return [(scoring.sentence_id(item.item_id, condition), item.tokens(condition))
            for item in suite.items for condition in suites.CONDITIONS]


def _write_surprisals(cfg: RunConfig, suite, name: str, records) -> None:
    out = os.path.join(cfg.out, "surprisals", f"{suite.suite_id}.{name}.surp")
    scoring.write_surprisal_file(records, out)
    # An n-gram trained without singleton mapping scores inf exactly its
    # out-of-vocabulary tokens.
    oov = sum(r.surprisals.count(math.inf) for r in records)
    print(f"score: {len(records)} sentences with {name}, "
          f"{oov} tokens scored inf -> {out}")


def cmd_score(cfg: RunConfig, args) -> int:
    """Score every suite under one model, loaded once.  All suite files are
    read before the first surprisal file is written; a dead beam stops the
    call at its sentence, so that suite gets no surprisal file."""
    loaded = [suites.read_suite(_require(path, "suite file"))
              for path in args.suite_file]
    kind, arg = _model_spec(cfg, args)
    name = args.model_name or kind

    closer = None
    if kind == "ngram":
        model = ngram.read_model(_require(arg, "ngram model (run train-ngram)"))
        surprisals = model.surprisals
    else:
        if kind == "pcfg":
            model = beamsearch.PCFGActionModel(
                beamsearch.read_grammar(_require(arg, "grammar file")))
        else:
            model = closer = beamsearch.SubprocessActionModel(arg)

        def surprisals(tokens):
            return beamsearch.word_sync_beam(model, tokens).surprisals
    try:
        for path, suite in zip(args.suite_file, loaded):
            records = []
            for sid, tokens in _sentences(suite):
                try:
                    records.append(scoring.SurprisalRecord(
                        sid, tuple(tokens), tuple(surprisals(tokens))))
                except DeadBeamError as exc:
                    exc.args = (f"{path}: {sid}: {exc}",)
                    raise
            _write_surprisals(cfg, suite, name, records)
    finally:
        if closer is not None:
            closer.close()
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    """Evaluate each suite against the surprisal file in the same position.
    Every input is read and aligned before the first output is written."""
    if len(args.suite_file) != len(args.surprisal_file):
        raise UsageError(f"{len(args.suite_file)} --suite-file paths but "
                         f"{len(args.surprisal_file)} --surprisal-file paths; "
                         "eval pairs them by position")
    evaluated = []
    for suite_path, surprisal_path in zip(args.suite_file, args.surprisal_file):
        suite = suites.read_suite(_require(suite_path, "suite file"))
        records = scoring.read_surprisal_file(
            _require(surprisal_path, "surprisal file"))
        evaluated.append((suite, *scoring.evaluate_suite(
            suite, records, eps_tie=cfg.eps_tie, path=suite_path)))
    name = args.model_name or "model"
    for suite, results, cells in evaluated:
        items_out = os.path.join(cfg.out, "eval", f"{suite.suite_id}.{name}.items.csv")
        scoring.write_items_csv(results, items_out, suite.suite_id, name)
        eval_out = os.path.join(cfg.out, "eval", f"{suite.suite_id}.{name}.eval.csv")
        scoring.write_eval_csv(cells, eval_out, suite.suite_id, name)
        pooled = sum(r.correct for r in results) / len(results)
        print(f"eval: {suite.suite_id} x {name}: accuracy {pooled:.3f} "
              f"({len(results)} items) -> {eval_out}")
    return 0


def _items_by_group(paths):
    groups: dict = {}
    for path in paths:
        for row in scoring.read_items_csv(_require(path, "items csv"),
                                          scoring.ITEMS_COLUMNS,
                                          {"correct": int,
                                           "bucket": corpus.parse_bucket_label}):
            key = (row["suite"], row["model"])
            groups.setdefault(key, []).append(row)
    return groups


def _fit_rows(key: tuple, X, y, labels, clusters) -> list:
    """fits.csv rows (key + term, estimate, se, z, p) for one logistic fit;
    a separated or rank-deficient design gives one ``error:`` row."""
    try:
        fit = stats.fit_logistic(X, y, labels=labels, clusters=clusters)
    except (stats.SeparationError, stats.RankError) as exc:
        return [key + (f"error:{exc.category}",) + (math.nan,) * 4]
    return [key + (label, fit.coef[i], fit.se[i], fit.z[i], fit.p[i])
            for i, label in enumerate(fit.labels)]


FITS_COLUMNS = ("suite", "model", "analysis", "term", "estimate", "se", "z", "p",
                "stars")


def cmd_analyze(cfg: RunConfig, args) -> int:
    lex = _load_lexicon(cfg, args)
    groups = _items_by_group(args.items)
    fits_rows = []
    curve_rows = []
    charts = []

    for (suite_id, model), rows in sorted(groups.items()):
        # Targets are drawn from the lexicon that made the suite, so a
        # target it never counted means the suite came from another one.
        counts = [float(lex.count(r["target"])) for r in rows]
        if 0.0 in counts:
            raise AlignmentError(
                f"target {rows[counts.index(0.0)]['target']!r} of suite "
                f"{suite_id} does not occur in lexicon {_lexicon_path(cfg, args)}")
        correct = [r["correct"] for r in rows]
        targets = [r["target"] for r in rows]

        # Exposure effect on accuracy, raw occurrence counts as predictor,
        # cluster-robust by target word.
        fits_rows += _fit_rows((suite_id, model, "exposure"),
                               [[c] for c in counts], correct, ["occurrences"],
                               targets)

        # A group whose curve cannot be fit (one exposure value, a singular
        # design) gets no curve and names the error, like _fit_rows.
        try:
            curve = stats.accuracy_curve(list(zip(counts, correct)))
        except (stats.InputError, stats.RankError) as exc:
            samples, separated, curve_error = [], False, f"error:{exc.category}"
        else:
            samples, separated, curve_error = curve.samples, curve.separated, None
        for x, p, lo, hi in samples:
            curve_rows.append((suite_id, model, x, p, lo, hi))

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
                "x": {"field": "log10_exposure",
                      "title": "training exposures (log10)"},
                "y": {"field": "accuracy", "domain": [0.0, 1.0]},
                "error": {"lo": "ci_lo", "hi": "ci_hi"},
                "chance": 0.5,
            },
            "points": points,
            "curve": [{"log10_exposure": float(x), "accuracy": float(p),
                       "band_lo": float(lo), "band_hi": float(hi)}
                      for x, p, lo, hi in samples],
            "curve_separated": separated,
        }
        if curve_error is not None:
            chart["curve_error"] = curve_error
        charts.append(chart)

    # Structural-supervision contrast: accuracy ~ model + bucket, fit over
    # all models per suite, cluster-robust by item id.
    by_suite: dict = {}
    for (suite_id, model), rows in groups.items():
        by_suite.setdefault(suite_id, {})[model] = rows
    for suite_id, models in sorted(by_suite.items()):
        if len(models) < 2:
            continue
        names = sorted(models)
        reference = cfg.reference_model if cfg.reference_model in names else names[0]
        contrasts = [m for m in names if m != reference]
        X, y, clusters = [], [], []
        for m in names:
            for r in models[m]:
                dummies = [1.0 if m == c else 0.0 for c in contrasts]
                X.append(dummies + [math.log10(r["bucket"])])
                y.append(r["correct"])
                clusters.append(r["item_id"])
        labels = [f"model:{m}" for m in contrasts] + ["bucket_log10"]
        fits_rows += _fit_rows((suite_id, "*", "supervision"), X, y, labels,
                               clusters)

    fits_out = os.path.join(cfg.out, "analysis", "fits.csv")
    scoring.write_csv(
        fits_out, FITS_COLUMNS,
        ([suite_id, model, analysis, term, f"{est:.6f}", f"{se:.6f}",
          f"{z:.4f}", f"{p:.6g}", stats.stars(p) if not math.isnan(p) else ""]
         for suite_id, model, analysis, term, est, se, z, p in fits_rows))
    scoring.write_csv(
        os.path.join(cfg.out, "analysis", "curves.csv"),
        ["suite", "model", "log10_exposure", "p_hat", "band_lo", "band_hi"],
        ([suite_id, model, f"{x:.6f}", f"{p:.6f}", f"{lo:.6f}", f"{hi:.6f}"]
         for suite_id, model, x, p, lo, hi in curve_rows))
    with write_text(os.path.join(cfg.out, "analysis", "charts.json")) as fh:
        json.dump({"version": 1, "charts": charts}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"analyze: {len(groups)} suite/model groups -> {fits_out}")
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    counts: dict = {}
    for path in args.eval:
        for row in scoring.read_eval_csv(_require(path, "eval csv")):
            if row["category"] == "all":
                got = counts.setdefault((row["suite"], row["model"]), [0, 0])
                got[0] += row["p_above_chance"] < 0.05
                got[1] += 1
    grid = {key: f"{above}/{total}" for key, (above, total) in counts.items()}
    suite_ids = list(dict.fromkeys(suite_id for suite_id, _ in grid))
    models = sorted({model for _, model in grid})

    star_cols: dict = {}
    if args.fits:
        for row in scoring.read_items_csv(_require(args.fits, "fits csv"),
                                          FITS_COLUMNS):
            if row["analysis"] == "supervision" and row["term"].startswith("model:"):
                star_cols[(row["suite"], row["term"][len("model:"):])] = row["stars"]

    header = ["suite"] + [f"{m}_above_chance" for m in models]
    if star_cols:
        header += [f"{m}_vs_reference" for m in models]
    rows = [[s] + [grid.get((s, m), "-") for m in models]
            + ([star_cols.get((s, m), "") for m in models] if star_cols else [])
            for s in suite_ids]
    scoring.write_csv(os.path.join(cfg.out, "report", "table.csv"), header, rows)

    table_txt = os.path.join(cfg.out, "report", "table.txt")
    width = max([len(s) for s in suite_ids] + [5])
    with write_text(table_txt) as fh:
        fh.write("suite".ljust(width) + "  " +
                 "  ".join(m.rjust(12) for m in models) + "\n")
        for s in suite_ids:
            cells = [f"{grid.get((s, m), '-')} {star_cols.get((s, m), '')}".rstrip()
                     for m in models]
            fh.write("  ".join([s.ljust(width)] + [c.rjust(12) for c in cells]) + "\n")
    print(f"report: {len(suite_ids)} suites x {len(models)} models -> {table_txt}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syntaxprobe",
        description="Exposure-controlled grammaticality suites and "
                    "surprisal-based evaluation.",
    )
    parser.add_argument("--config", help="INI config file ([syntaxprobe] section)")
    parser.add_argument("--seed", type=int, help="generation seed")
    parser.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", help="read treebank(s), write the lexicon table")

    p = sub.add_parser("stats", help="word classifications from the lexicon")
    p.add_argument("--lexicon")

    p = sub.add_parser("gen", help="generate a test suite")
    p.add_argument("--suite", required=True, help="suite id or 'all'")
    p.add_argument("--lexicon")

    sub.add_parser("train-ngram", help="train the n-gram baseline")

    p = sub.add_parser("score", help="surprisals for suites under a model")
    p.add_argument("--suite-file", nargs="+", required=True)
    p.add_argument("--model", help="ngram:PATH | pcfg:PATH | subprocess:CMD")
    p.add_argument("--model-name")

    p = sub.add_parser("eval", help="accuracy per bucket and category")
    p.add_argument("--suite-file", nargs="+", required=True)
    p.add_argument("--surprisal-file", nargs="+", required=True,
                   help="one per --suite-file, paired by position")
    p.add_argument("--model-name")

    p = sub.add_parser("analyze", help="exposure and supervision fits")
    p.add_argument("--items", nargs="+", required=True)
    p.add_argument("--lexicon")

    p = sub.add_parser("report", help="buckets-above-chance summary grid")
    p.add_argument("--eval", nargs="+", required=True)
    p.add_argument("--fits")
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "stats": cmd_stats,
    "gen": cmd_gen,
    "train-ngram": cmd_train_ngram,
    "score": cmd_score,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, os.environ,
                          {"seed": args.seed, "out": args.out})
        with gc_paused():  # the stage's data dies with it (errors.gc_paused)
            return _COMMANDS[args.command](cfg, args)
    except (SyntaxProbeError, OSError) as exc:
        return report(exc)
    except UnicodeDecodeError as exc:
        return report(FormatError(f"input is not UTF-8: {exc}"))


if __name__ == "__main__":
    raise SystemExit(main())
