"""Spans and counters recorded around syntaxprobe's public functions.

Nothing here edits the package: :func:`instrument` replaces module
attributes and class methods with wrappers, from the outside, so every call
that goes through the module (``corpus.read_treebank(...)`` in the CLI, the
search's ``model.actions(...)``) opens a span.  Spans are kept in memory as
``(id, parent, name, start, end)`` and written out at the end; hot calls
(thousands per second) are folded into one aggregate span per parent and
name, with a call count, so tracing them costs two clock reads.

Per-layer numbers are derived from the spans by :func:`layer_metrics`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
import warnings
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str = ""):
        self.run_id = run_id or f"{os.getpid()}"
        self.enabled = True
        self.spans: list = []      # [id, parent, name, start, end]
        self.hot: dict = {}        # (parent, name) -> [calls, seconds]
        self.counts: Counter = Counter()
        self.samples: dict = defaultdict(list)
        self._ids = itertools.count(1)
        self._open: list = []

    @property
    def current(self):
        return self._open[-1] if self._open else None

    def begin(self, name: str) -> list:
        span = [next(self._ids), self.current, name, clock(), None]
        self.spans.append(span)
        self._open.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[4] = clock()
        self._open.pop()

    def adopt(self, records: dict, parent) -> None:
        """Merge a child process's dump under span ``parent``."""
        remap = {None: parent}
        for sid, par, name, start, end in records["spans"]:
            remap[sid] = new = next(self._ids)
            self.spans.append([new, remap[par], name, start, end])
        for par, name, calls, secs in records["hot"]:
            self._add_hot(remap[par], name, calls, secs)
        self.counts.update(records["counts"])
        for name, values in records["samples"].items():
            self.samples[name].extend(values)

    def _add_hot(self, parent, name, calls, secs):
        acc = self.hot.setdefault((parent, name), [0, 0.0])
        acc[0] += calls
        acc[1] += secs

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "hot": [[p, n, c, s] for (p, n), (c, s) in self.hot.items()],
                       "counts": dict(self.counts),
                       "samples": dict(self.samples)}, fh)


def wrap(tracer: Tracer, owner, attr: str, name: str, *, hot=False,
         after=None):
    """Replace ``owner.attr`` by a traced wrapper.

    ``after(args, kwargs, result, seconds)`` runs once the call returns;
    exceptions are counted as ``<name>.errors`` and re-raised.
    """
    raw = owner.__dict__[attr]
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if hot:
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                seconds = clock() - t0
                tracer._add_hot(tracer.current, name, 1, seconds)
            if after is not None:
                after(args, kwargs, result, seconds)
            return result
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.counts[name + ".errors"] += 1
            raise
        finally:
            tracer.end(span)
        if after is not None:
            after(args, kwargs, result, span[4] - span[3])
        return result

    setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports on."""
    from syntaxprobe import beamsearch, corpus, ngram, scoring, stats, suites

    counts = tracer.counts

    def catching_warnings(owner, attr, name):
        # KN discount fallbacks surface only as UserWarnings; count them here.
        fn = owner.__dict__[attr]

        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            if tracer.enabled:
                counts["ngram.discount_fallbacks"] += sum(
                    issubclass(w.category, UserWarning) for w in caught)
            return result

        setattr(owner, attr, counted)
        wrap(tracer, owner, attr, name)

    for attr in ("read_treebank", "build_lexicon", "write_lexicon", "read_lexicon"):
        wrap(tracer, corpus, attr, f"corpus.{attr}")
    wrap(tracer, suites, "generate_suite", "suites.generate_suite",
         after=lambda a, kw, r, s: counts.update({"suites.items": len(r.items)}))
    wrap(tracer, suites, "write_suite", "suites.write_suite")
    wrap(tracer, suites, "read_suite", "suites.read_suite")
    catching_warnings(ngram, "train", "ngram.train")
    catching_warnings(ngram, "read_model", "ngram.read_model")
    wrap(tracer, ngram, "write_model", "ngram.write_model")
    wrap(tracer, ngram.NGramModel, "surprisals", "ngram.surprisals", hot=True,
         after=lambda a, kw, r, s: counts.update({"ngram.tokens": len(r)}))
    wrap(tracer, scoring, "write_surprisal_file", "scoring.write_surprisal_file")
    wrap(tracer, scoring, "read_surprisal_file", "scoring.read_surprisal_file",
         after=lambda a, kw, r, s: counts.update({"scoring.surprisal_records": len(r)}))
    wrap(tracer, scoring, "evaluate_suite", "scoring.evaluate_suite")
    for attr in ("write_eval_csv", "write_items_csv", "read_items_csv",
                 "read_eval_csv"):
        wrap(tracer, scoring, attr, f"scoring.{attr}")
    wrap(tracer, stats, "fit_logistic", "stats.fit_logistic")
    wrap(tracer, stats, "accuracy_curve", "stats.accuracy_curve")
    wrap(tracer, stats.BinomialSummary, "from_counts", "stats.from_counts", hot=True)

    wrap(tracer, beamsearch, "read_grammar", "beamsearch.read_grammar")
    wrap(tracer, beamsearch.PCFGActionModel, "__init__", "beamsearch.model_init")
    wrap(tracer, beamsearch, "word_sync_beam", "beamsearch.word_sync_beam",
         after=lambda a, kw, r, s: counts.update({"beamsearch.words": len(a[1])}))
    wrap(tracer, beamsearch.PCFGActionModel, "actions", "beamsearch.actions",
         hot=True)

    # One model call over the pipe is one round trip.  Its time is kept per
    # call for percentiles; its bytes are the protocol v1 lines, rebuilt from
    # the request arguments and the parsed reply (floats print round-trip).
    serialize = beamsearch.serialize_action

    def round_trip(args, kwargs, result, seconds):
        tracer.samples["subprocess.rtt_s"].append(seconds)
        state = args[1]
        next_word = args[2] if len(args) > 2 else kwargs.get("next_word")
        history = " ".join(serialize(a) for a in state.history)
        counts["subprocess.request_bytes"] += len(
            f"SCORE\t{history}\t{next_word or ''}\n".encode())
        counts["subprocess.response_bytes"] += len(
            (" ".join(f"{serialize(a)}={lp!r}" for a, lp in result) + "\n").encode())

    wrap(tracer, beamsearch.SubprocessActionModel, "actions",
         "subprocess.actions", hot=True, after=round_trip)


# ---------------------------------------------------------------------------
# Derived metrics

STAGES = ("ingest", "stats", "gen", "train-ngram", "score", "eval", "analyze",
          "report")

LAYER_GROUPS = {
    "corpus.read_treebank_s": ("corpus.read_treebank",),
    "corpus.build_lexicon_s": ("corpus.build_lexicon",),
    "corpus.lexicon_io_s": ("corpus.write_lexicon", "corpus.read_lexicon"),
    "suites.generate_s": ("suites.generate_suite",),
    "suites.write_s": ("suites.write_suite",),
    "suites.read_s": ("suites.read_suite",),
    "ngram.train_s": ("ngram.train",),
    "ngram.write_model_s": ("ngram.write_model",),
    "ngram.read_model_s": ("ngram.read_model",),
    "ngram.score_s": ("ngram.surprisals",),
    "scoring.write_surprisal_s": ("scoring.write_surprisal_file",),
    "scoring.read_surprisal_s": ("scoring.read_surprisal_file",),
    "scoring.evaluate_s": ("scoring.evaluate_suite",),
    "scoring.csv_io_s": ("scoring.write_eval_csv", "scoring.write_items_csv",
                         "scoring.read_items_csv", "scoring.read_eval_csv"),
    "stats.fit_logistic_s": ("stats.fit_logistic",),
    "stats.accuracy_curve_s": ("stats.accuracy_curve",),
    "stats.binomial_s": ("stats.from_counts",),
    "beamsearch.search_s": ("beamsearch.word_sync_beam",),
    "beamsearch.model_s": ("beamsearch.actions", "subprocess.actions"),
    "beamsearch.grammar_load_s": ("beamsearch.read_grammar",
                                  "beamsearch.model_init"),
}

CALL_COUNTS = {
    "corpus.read_treebank_calls": ("corpus.read_treebank",),
    "suites.read_calls": ("suites.read_suite",),
    "ngram.read_model_calls": ("ngram.read_model",),
    "stats.fit_logistic_calls": ("stats.fit_logistic",),
    "beamsearch.model_calls": ("beamsearch.actions", "subprocess.actions"),
    "subprocess.round_trips": ("subprocess.actions",),
}

COUNTERS = ("suites.items", "ngram.tokens", "ngram.discount_fallbacks",
            "scoring.surprisal_records", "beamsearch.words",
            "subprocess.request_bytes", "subprocess.response_bytes")


def _percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals from the recorded spans and counters.

    A group's time is the time of its outermost spans, so a call nested in
    another call of the same group is not counted twice.
    """
    by_id = {s[0]: s for s in tracer.spans}
    group_of = {}
    for metric, names in LAYER_GROUPS.items():
        for name in names:
            group_of[name] = metric
    out = {metric: 0.0 for metric in LAYER_GROUPS}
    calls: Counter = Counter()
    children_time: Counter = Counter()
    for sid, parent, name, start, end in tracer.spans:
        dur = end - start
        calls[name] += 1
        if parent is not None:
            children_time[parent] += dur
        metric = group_of.get(name)
        if metric is None:
            continue
        anc = parent
        while anc is not None and group_of.get(by_id[anc][2]) != metric:
            anc = by_id[anc][1]
        if anc is None:
            out[metric] += dur
    for (parent, name), (n, secs) in tracer.hot.items():
        calls[name] += n
        if parent is not None:
            children_time[parent] += secs
        out[group_of[name]] += secs

    for metric, names in CALL_COUNTS.items():
        out[metric] = sum(calls[n] for n in names)
    for name in COUNTERS:
        out[name] = tracer.counts[name]
    out["stats.fit_failures"] = tracer.counts["stats.fit_logistic.errors"]
    out["beamsearch.dead_beams"] = tracer.counts["beamsearch.word_sync_beam.errors"]

    out["ngram.tokens_per_s"] = (out["ngram.tokens"] / out["ngram.score_s"]
                                 if out["ngram.score_s"] else 0.0)
    out["beamsearch.self_s"] = out["beamsearch.search_s"] - out["beamsearch.model_s"]
    out["beamsearch.calls_per_word"] = (
        out["beamsearch.model_calls"] / out["beamsearch.words"]
        if out["beamsearch.words"] else 0.0)
    rtt = tracer.samples.get("subprocess.rtt_s", [])
    out["subprocess.rtt_us_p50"] = _percentile(rtt, 50) * 1e6
    out["subprocess.rtt_us_p99"] = _percentile(rtt, 99) * 1e6

    # CLI stages: the benchmark opens one "cli.<stage>" span per call.
    stage_s: Counter = Counter()
    self_s = 0.0
    n_calls = 0
    for sid, parent, name, start, end in tracer.spans:
        if name.startswith("cli."):
            n_calls += 1
            stage_s[name[4:]] += end - start
            self_s += (end - start) - children_time[sid]
    out["cli.calls"] = n_calls
    out["cli.self_s"] = self_s
    for stage in STAGES:
        out[f"cli.stage_s.{stage}"] = stage_s[stage]
    return out
