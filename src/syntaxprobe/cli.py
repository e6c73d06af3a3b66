"""Pipeline driver: ingest -> stats -> gen -> train/score -> eval -> analyze -> report.

Every subcommand reads and writes the textual formats defined by the
library modules, so each stage can be replaced by an external tool.  All
outputs are byte-deterministic for fixed inputs and seed.  Configuration
comes from an INI file (``[syntaxprobe]`` section), overridden by
``SP_``-prefixed environment variables, overridden by flags.

This module parses arguments, builds the config and dispatches; each stage
imports the modules it runs when it runs, so it loads only those, and of the
standard library only what they use: records are ``typing.NamedTuple``
classes, whose creation loads nothing (no ``inspect``), and only ``gen``,
which hashes, loads ``hashlib``.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import math
import os
import shlex
from typing import NamedTuple

from . import corpus
from .corpus import DEFAULT_BUCKETS
from .errors import (DeadBeamError, FormatError, SyntaxProbeError, UsageError, gc_paused,
                     landing, open_text, report, write_text)


class RunConfig(NamedTuple):
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
    eps_tie: float = 1e-9
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

    def data_path(self, key: str) -> str:
        """The file config key ``key`` names, else the bundled default."""
        from . import toydata
        default = {"suite_defs": toydata.default_suites_path,
                   "transitivity": toydata.default_transitivity_path,
                   "irregular": toydata.default_irregular_path}[key]
        return getattr(self, key) or str(default())


def _number(kind, lo, hi=math.inf):
    """(parse, rule) for a ``kind`` in [lo, hi]; NaN is out of range."""
    def parse(text: str):
        if not lo <= (value := kind(text)) <= hi:
            raise ValueError(text)
        return value
    return parse, f"{kind.__name__} in [{lo}, {hi}]"


def _blank_is(default, parse):
    return lambda text: parse(text) if text.strip() else default


#: The one boolean rule, which ``invariance`` in the suite definitions
#: follows too: configparser's booleans, and a blank value is False.
_BOOLEAN = (corpus.parse_boolean, "boolean")

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
            if key not in RunConfig._fields:
                raise UsageError(f"unknown config key {key!r} in {path}")
            texts[key] = section[key]
    for key in RunConfig._fields:
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


def _read_corpus(cfg: RunConfig):
    """The trees of every configured treebank, one at a time; each path is
    checked before the first tree is read."""
    paths = [_require(path, "treebank") for path in cfg.corpus_paths()]
    return (tree for path in paths for tree in corpus.iter_treebank(path))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(cfg: RunConfig, args) -> int:
    trees = _read_corpus(cfg)
    deps = None
    if cfg.dependencies.strip():
        deps = corpus.read_dependency_sidecar(_require(cfg.dependencies, "sidecar"))
    # zip takes a tree before it advances the counter, so the counter stops
    # at the number of trees.
    counted = itertools.count()
    lex = corpus.build_lexicon((tree for tree, _ in zip(trees, counted)),
                               lowercase=cfg.lowercase, dependencies=deps)
    out = os.path.join(cfg.out, "lexicon.tsv")
    corpus.write_lexicon(lex, out)
    print(f"ingest: {next(counted)} trees, {len(lex)} word forms -> {out}")
    return 0


def _lexicon_path(cfg: RunConfig, args) -> str:
    return getattr(args, "lexicon", None) or os.path.join(cfg.out, "lexicon.tsv")


def _load_lexicon(cfg: RunConfig, args) -> corpus.LexiconStats:
    return corpus.read_lexicon(_require(_lexicon_path(cfg, args),
                                        "lexicon table (run ingest)"))


def _resources(cfg: RunConfig, lex) -> tuple:
    """(transitivity calls, irregular verbs)."""
    marks = corpus.read_transitivity_lexicon(cfg.data_path("transitivity"))
    irregular = corpus.read_irregular_verbs(cfg.data_path("irregular"))
    calls = corpus.classify_transitivity(
        lex, marks, hi=cfg.transitive_hi, lo=cfg.intransitive_lo)
    return calls, irregular


def cmd_stats(cfg: RunConfig, args) -> int:
    lex = _load_lexicon(cfg, args)
    calls, irregular = _resources(cfg, lex)
    base = os.path.join(cfg.out, "wordstats")

    with write_text(os.path.join(base, "transitivity.tsv")) as fh:
        fh.write("#word\tmarked\tclass\treason\tobj_fraction\n")
        for word in sorted(calls):
            c = calls[word]
            frac = "" if c.obj_fraction is None else f"{c.obj_fraction:.4f}"
            fh.write(f"{word}\t{c.marked}\t{c.klass.value}\t{c.reason}\t{frac}\n")

    active = corpus.active_only_verbs(lex, irregular)
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
        for word in sorted(calls):
            if lex.count(word) == 0:
                continue
            frac = corpus.vbn_fraction(lex, word)
            s = lex.stats(word)
            fh.write(f"{word}\t{s.total}\t{s.vbn}\t{frac:.4f}\n")
    print(f"stats: {len(active)} active-only verbs, "
          f"{len(removed)} polar-overlap nouns -> {base}")
    return 0


def cmd_gen(cfg: RunConfig, args) -> int:
    from . import suites
    lex = _load_lexicon(cfg, args)
    defs = suites.read_suite_defs(cfg.data_path("suite_defs"))
    res = suites.SuiteResources(*_resources(cfg, lex))
    seed = cfg.seed_value()
    for suite_id in defs.ids() if args.suite == "all" else [args.suite]:
        suite = suites.generate_suite(
            suite_id, defs, lex, seed,
            resources=res,
            words_per_category=cfg.words_per_category,
            frames_per_word=cfg.frames_per_word,
            filler_min_count=cfg.filler_min_count,
            bucket_table=cfg.buckets,
        )
        out = os.path.join(cfg.out, "suites", f"{suite.suite_id}.suite")
        suites.write_suite(suite, out)
        note = f" ({len(suite.shortfalls)} shortfalls)" if suite.shortfalls else ""
        print(f"gen: {suite.suite_id}: {len(suite.items)} items, "
              f"{suite.sentence_count()} sentences{note} -> {out}")
        del suite  # before the next suite is generated
    return 0


def cmd_train_ngram(cfg: RunConfig, args) -> int:
    from . import ngram
    # train reads each sentence once, so one tree is alive at a time.
    sentences = ([w for w, _ in t.terminals()] for t in _read_corpus(cfg))
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


def cmd_score(cfg: RunConfig, args) -> int:
    """Score every suite under one model, loaded once; a dead beam stops the
    call at its sentence."""
    from . import scoring, suites
    paths = [_require(path, "suite file") for path in args.suite_file]
    kind, arg = _model_spec(cfg, args)
    name = args.model_name or kind

    with contextlib.ExitStack() as stack:
        if kind == "ngram":
            from . import ngram
            surprisals = ngram.read_model(
                _require(arg, "ngram model (run train-ngram)")).surprisals
        else:
            from . import beamsearch
            if kind == "pcfg":
                model = beamsearch.PCFGActionModel(
                    beamsearch.read_grammar(_require(arg, "grammar file")))
            else:
                model = stack.enter_context(beamsearch.SubprocessActionModel(arg))

            def surprisals(tokens):
                return beamsearch.word_sync_beam(model, tokens).surprisals
        for path in paths:
            suite = suites.read_suite(path)
            records = []
            for item in suite.items:
                for condition in suites.CONDITIONS:
                    sid = scoring.sentence_id(item.item_id, condition)
                    tokens = item.tokens(condition)
                    try:
                        records.append(scoring.SurprisalRecord(
                            sid, tuple(tokens), tuple(surprisals(tokens))))
                    except DeadBeamError as exc:
                        exc.args = (f"{path}: {sid}: {exc}",)
                        raise
            out = os.path.join(cfg.out, "surprisals", f"{suite.suite_id}.{name}.surp")
            scoring.write_surprisal_file(records, out)
            # An n-gram trained without singleton mapping scores inf exactly
            # its out-of-vocabulary tokens.
            oov = sum(r.surprisals.count(math.inf) for r in records)
            print(f"score: {len(records)} sentences with {name}, "
                  f"{oov} tokens scored inf -> {out}")
            del suite, records  # before the next suite is read
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    """Evaluate each suite against the surprisal file in the same position."""
    from . import scoring, suites
    if len(args.suite_file) != len(args.surprisal_file):
        raise UsageError(f"{len(args.suite_file)} --suite-file paths but "
                         f"{len(args.surprisal_file)} --surprisal-file paths; "
                         "eval pairs them by position")
    name = args.model_name or "model"
    for suite_path, surprisal_path in zip(args.suite_file, args.surprisal_file):
        suite = suites.read_suite(_require(suite_path, "suite file"))
        records = scoring.read_surprisal_file(
            _require(surprisal_path, "surprisal file"))
        results, cells = scoring.evaluate_suite(suite, records, eps_tie=cfg.eps_tie,
                                                path=suite_path)
        items_out = os.path.join(cfg.out, "eval", f"{suite.suite_id}.{name}.items.csv")
        scoring.write_items_csv(results, items_out, suite.suite_id, name)
        eval_out = os.path.join(cfg.out, "eval", f"{suite.suite_id}.{name}.eval.csv")
        scoring.write_eval_csv(cells, eval_out, suite.suite_id, name)
        pooled = sum(r.correct for r in results) / len(results)
        print(f"eval: {suite.suite_id} x {name}: accuracy {pooled:.3f} "
              f"({len(results)} items) -> {eval_out}")
        del suite, records, results, cells  # before the next suite is read
    return 0


def cmd_analyze(cfg: RunConfig, args) -> int:
    from . import analysis
    lex = _load_lexicon(cfg, args)
    groups = analysis.read_items(_require(path, "items csv") for path in args.items)
    fits_rows, charts = analysis.analyze(groups, lex.count, _lexicon_path(cfg, args),
                                         cfg.reference_model)
    fits_out = analysis.write_analysis(os.path.join(cfg.out, "analysis"),
                                       fits_rows, charts)
    print(f"analyze: {len(charts)} suite/model groups -> {fits_out}")
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    from . import analysis
    eval_rows = analysis.read_evals(_require(path, "eval csv") for path in args.eval)
    fits_rows = analysis.read_fits(_require(args.fits, "fits csv")) if args.fits else []
    models, header, rows = analysis.report_table(eval_rows, fits_rows)
    table_txt = analysis.write_report(os.path.join(cfg.out, "report"), models,
                                      header, rows)
    print(f"report: {len(rows)} suites x {len(models)} models -> {table_txt}")
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
        # The stage's data dies with it (errors.gc_paused), and its outputs
        # land together (errors.landing).
        with gc_paused(), landing():
            return _COMMANDS[args.command](cfg, args)
    except (SyntaxProbeError, OSError) as exc:
        return report(exc)
    except UnicodeDecodeError as exc:
        return report(FormatError(f"input is not UTF-8: {exc}"))


if __name__ == "__main__":
    raise SystemExit(main())
