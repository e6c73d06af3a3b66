"""Benchmark of the syntaxprobe pipeline, run against the working tree's src/.

Usage::

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (bench/README.md says why each exists):

* ``cli_toy``          the CLI pipeline on the bundled toy treebank, one
                       ``python -m syntaxprobe.cli`` process per stage;
* ``inproc_paper``     the same stage argvs through ``cli.main`` in this
                       process, on a paper-scale treebank built here;
* ``beam_pcfg``        ``word_sync_beam`` in-process at word_beam_k 10 and 100
                       over a PCFG induced from the toy treebank;
* ``beam_subprocess``  the same search at k=10 through
                       ``SubprocessActionModel`` and ``syntaxprobe.pcfg_scorer``.

Load is one closed-loop client: each call waits for the previous one, and at
most one child process runs at a time.  A run makes two passes, and more
while another pass fits in ``--seconds``.  Then it checks the outputs and
prints one line per metric, followed by a JSON summary line.  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` wraps the package's public
functions (bench/tracing.py) and reports per-layer metrics instead.

End-to-end times are in reference seconds: each measured time is scaled by
how fast the machine ran while it was measured (see ``UnitClock``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter as clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")

if not os.path.exists(os.path.join(SRC, "syntaxprobe", "cli.py")):
    sys.exit(f"error: no syntaxprobe sources under {SRC}")
sys.path.insert(0, SRC)
# Children (CLI stages, set-up probes, the subprocess scorer) import the same tree.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

from syntaxprobe import beamsearch, cli, corpus, toydata  # noqa: E402
from syntaxprobe.errors import SyntaxProbeError  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)  # output digests for one seed

SETUP_REPEATS = 3
SUITES = ("argstruct_passive_long",)
BEAM_SENTENCES = 60         # 450 words, searched at k=10 and at k=100
SUBPROCESS_SENTENCES = 16   # 115 words, searched at k=10
SURPRISAL_TOLERANCE = 1e-12
PROBE_EVERY_S = 0.2
REFERENCE_PROBE_S = 1e-3    # the probe loop's time at reference speed


class Run:
    """One benchmark run: timed passes, set-up samples and checks.

    A pass is a fixed list of units (stage calls, sentence searches); each
    pass records every unit's time.
    """

    def __init__(self, workload: str, seed: int, seconds: float, tracer):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.passes: list = []      # per pass: unit times in reference seconds
        self.raw_passes: list = []  # the same, as measured
        self.units = 0              # items or words per pass
        self.setup: list = []       # reference seconds
        self.extra: dict = {}       # workload-specific metrics: name -> (value, unit)
        self.digests: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def more_passes(self, elapsed: float) -> bool:
        """At least two passes, so that every unit has a repeat; then more
        while another pass fits in the budget."""
        if len(self.passes) < 2:
            return True
        typical = statistics.median(sum(p) for p in self.raw_passes)
        return elapsed + typical <= self.seconds

    def add_pass(self, timer: UnitClock) -> None:
        timer.flush()
        self.passes.append(timer.scaled)
        self.raw_passes.append(timer.raw)

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    @contextlib.contextmanager
    def traced(self):
        """Enable the tracer (if any) for the enclosed pass only."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = True
        try:
            yield
        finally:
            self.tracer.enabled = False


def _spin() -> int:
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


def probe() -> float:
    """Best of three timings of a fixed pure-Python loop: the box's speed now."""
    best = math.inf
    for _ in range(3):
        t0 = clock()
        _spin()
        best = min(best, clock() - t0)
    return best


class UnitClock:
    """Times units of work and scales each time to reference speed.

    On a 2-core KVM guest that shares its host, the same code ran up to 1.7x
    slower for seconds to tens of seconds at a time.  Every
    ``PROBE_EVERY_S`` of work the clock times a fixed loop; a unit's time is
    scaled by ``REFERENCE_PROBE_S`` over the mean of the probes on either
    side of it.  On identical beam-search passes this cut the run-to-run
    spread of the pass time from 14% to 6%.
    """

    def __init__(self):
        self.raw: list = []
        self.scaled: list = []
        self._pending: list = []
        self._probe = probe()
        self._since = clock()

    def time(self, fn, *args):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            self._pending.append(clock() - t0)
            if clock() - self._since >= PROBE_EVERY_S:
                self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = probe()
        factor = REFERENCE_PROBE_S / ((self._probe + now) / 2)
        self.raw += self._pending
        self.scaled += [t * factor for t in self._pending]
        self._pending = []
        self._probe = now
        self._since = clock()


def best_seconds(passes, units=slice(None)) -> float:
    """Sum over units of each unit's fastest time across passes.

    Scaling removes most of a slow spell; the fastest repeat removes what is
    left, since passes are far enough apart to meet different spells.
    """
    return sum(min(times) for times in zip(*(p[units] for p in passes)))


def run_child(run: Run, argv, cwd) -> None:
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    run.check(proc.returncode == 0,
              f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-500:]}")


def measure_setup(run: Run, argv, cwd) -> None:
    """Time SETUP_REPEATS fresh child processes, from spawn to exit."""
    timer = UnitClock()
    for _ in range(SETUP_REPEATS):
        timer.time(run_child, run, argv, cwd)
    timer.flush()
    run.setup = timer.scaled


def tree_digest(path) -> str:
    """sha256 over the relative paths and bytes of every file under path."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_digests(run: Run) -> None:
    run.check(len(set(run.digests)) == 1,
              f"outputs differ between passes: {run.digests}")
    if run.seed == EXPECTED["seed"]:
        run.check(run.digests[0] == EXPECTED["digests"][run.workload],
                  f"outputs differ from the digest recorded for seed {run.seed}")


def peak_rss_mb(*who) -> float:
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


# ---------------------------------------------------------------------------
# Pipelines


def write_config(cwd, seed: int, **keys) -> None:
    os.makedirs(cwd, exist_ok=True)
    lines = ["[syntaxprobe]", "lowercase = true", f"seed = {seed}",
             "frames_per_word = 20"]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    with open(os.path.join(cwd, "probe.cfg"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def pipeline_argvs(suite_ids) -> list:
    """The README's stage sequence for the given suites, scored by ngram5."""
    steps = [["ingest"], ["stats"]]
    steps += [["gen", "--suite", s] for s in suite_ids]
    steps += [["train-ngram"]]
    for s in suite_ids:
        suite = f"out/suites/{s}.suite"
        steps.append(["score", "--suite-file", suite, "--model-name", "ngram5"])
        steps.append(["eval", "--suite-file", suite, "--surprisal-file",
                      f"out/surprisals/{s}.ngram5.surp", "--model-name", "ngram5"])
    steps.append(["analyze", "--items"]
                 + [f"out/eval/{s}.ngram5.items.csv" for s in suite_ids])
    steps.append(["report", "--eval"]
                 + [f"out/eval/{s}.ngram5.eval.csv" for s in suite_ids]
                 + ["--fits", "out/analysis/fits.csv"])
    return [["--config", "probe.cfg", "--out", "out"] + s for s in steps]


def stage_in_child(run: Run, argv, cwd) -> tuple:
    if not run.tracing:
        proc = subprocess.run([sys.executable, "-m", "syntaxprobe.cli", *argv],
                              cwd=cwd, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr
    trace_file = os.path.join(cwd, "stage.trace.json")
    span = run.tracer.begin("cli." + argv[4])
    proc = subprocess.run([sys.executable, LAUNCH, trace_file, *argv],
                          cwd=cwd, capture_output=True, text=True)
    run.tracer.end(span)
    if os.path.exists(trace_file):
        with open(trace_file, encoding="utf-8") as fh:
            run.tracer.adopt(json.load(fh), span[0])
        os.remove(trace_file)
    return proc.returncode, proc.stdout, proc.stderr


def stage_in_process(run: Run, argv, cwd) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    span = run.tracer.begin("cli." + argv[4]) if run.tracing else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if span is not None:
            run.tracer.end(span)
    return code, out.getvalue(), err.getvalue()


def pipeline_pass(run: Run, argvs, cwd, stage) -> tuple:
    """Every stage once, into a fresh out/: (UnitClock, stdout)."""
    shutil.rmtree(os.path.join(cwd, "out"), ignore_errors=True)
    timer, log = UnitClock(), []
    here = os.getcwd()
    os.chdir(cwd)   # in-process stages resolve the same relative paths
    try:
        for argv in argvs:
            code, out, err = timer.time(stage, run, argv, cwd)
            log.append(out)
            run.check(code == 0, f"{argv[4:]} exited {code}: {err[-500:]}")
    finally:
        os.chdir(here)
    return timer, "".join(log)


_GEN_LINE = re.compile(
    r"^gen: (\S+): (\d+) items, \d+ sentences( \(\d+ shortfalls\))?", re.M)
_EVAL_ITEMS = re.compile(r"^eval: .*\((\d+) items\)", re.M)


def run_pipeline(run: Run, argvs, cwd, stage, items_per_suite=None) -> None:
    t_start = clock()
    while run.more_passes(clock() - t_start):
        with run.traced():
            timer, log = pipeline_pass(run, argvs, cwd, stage)
        run.add_pass(timer)
        run.units = sum(int(n) for n in _EVAL_ITEMS.findall(log))
        run.digests.append(tree_digest(os.path.join(cwd, "out")))
        if items_per_suite is not None:
            for suite_id, n, note in _GEN_LINE.findall(log):
                run.check(int(n) == items_per_suite and not note,
                          f"gen {suite_id}: {n} items{note}, "
                          f"expected {items_per_suite} and no shortfalls")
    run.extra["items_per_s"] = (run.units / best_seconds(run.passes), "1/s")


def cli_toy(run: Run, work) -> None:
    treebank = os.path.join(SRC, "syntaxprobe", "data", "toy_treebank.mrg")
    argvs = pipeline_argvs(SUITES)
    for name in ("cli", "inproc"):
        write_config(os.path.join(work, name), run.seed, corpus=treebank,
                     words_per_category=2)
    measure_setup(run, [sys.executable, "-m", "syntaxprobe.cli", "--help"], work)
    run_pipeline(run, argvs, os.path.join(work, "cli"), stage_in_child)
    run.extra["peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    # The same argvs through cli.main in this process must write the same bytes.
    pipeline_pass(run, argvs, os.path.join(work, "inproc"), stage_in_process)
    run.check(tree_digest(os.path.join(work, "inproc", "out")) == run.digests[0],
              "out/ of the CLI processes differs from the in-process run")


def inproc_paper(run: Run, work) -> None:
    treebank, marks = inputs.paper_treebank()
    with open(os.path.join(work, "paper.mrg"), "w", encoding="utf-8") as fh:
        fh.write(treebank)
    with open(os.path.join(work, "transitivity.tsv"), "w", encoding="utf-8") as fh:
        fh.write(marks)
    write_config(work, run.seed, corpus="paper.mrg",
                 transitivity="transitivity.tsv", words_per_category=20)
    measure_setup(run, [sys.executable, "-c", "import syntaxprobe.cli"], work)
    run_pipeline(run, pipeline_argvs(SUITES), work, stage_in_process,
                 items_per_suite=inputs.ITEMS_PER_SUITE)
    run.extra["peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_SELF), "MB")


# ---------------------------------------------------------------------------
# Beam search


def beam_inputs(run: Run, work, n_sentences: int) -> tuple:
    trees = corpus.read_treebank(toydata.toy_treebank_path())
    grammar = os.path.join(work, "toy.pcfg")
    beamsearch.write_grammar(inputs.induce_pcfg(trees), grammar)
    start = beamsearch.read_grammar(grammar).start
    run.check(start == "ROOT", f"grammar start symbol is {start!r}, not ROOT")
    sentences = inputs.sample_sentences(trees, run.seed, n_sentences)
    return grammar, sentences, sum(map(len, sentences))


def search(run: Run, model, words, k: int):
    """Surprisals of one sentence, or None if the search failed."""
    try:
        result = beamsearch.word_sync_beam(model, words, k).surprisals
    except SyntaxProbeError as exc:
        run.check(False, f"k={k} {' '.join(words)!r}: {exc}")
        return None
    run.check(True, "")
    return result


def search_all(run: Run, timer: UnitClock, model, sentences, k: int) -> list:
    return [timer.time(search, run, model, words, k) for words in sentences]


def surprisal_digest(run: Run, results) -> str:
    finite = all(r is not None and all(math.isfinite(s) for s in r)
                 for r in results)
    run.check(finite, "non-finite beam surprisal")
    return hashlib.sha256(repr(results).encode()).hexdigest()


def beam_pcfg(run: Run, work) -> None:
    grammar, sentences, words = beam_inputs(run, work, BEAM_SENTENCES)
    measure_setup(run, [sys.executable, "-c",
                        "import sys; from syntaxprobe import beamsearch as b; "
                        "b.PCFGActionModel(b.read_grammar(sys.argv[1]))",
                        grammar], work)
    n = len(sentences)
    run.units = 2 * words
    t_start = clock()
    while run.more_passes(clock() - t_start):
        digest = hashlib.sha256()
        with run.traced():
            timer = UnitClock()
            model = timer.time(lambda: beamsearch.PCFGActionModel(
                beamsearch.read_grammar(grammar)))
            for k in (10, 100):
                results = search_all(run, timer, model, sentences, k)
                digest.update(surprisal_digest(run, results).encode())
        run.add_pass(timer)
        run.digests.append(digest.hexdigest())
    for k, units in ((10, slice(1, 1 + n)), (100, slice(1 + n, None))):
        run.extra[f"words_per_s_k{k}"] = (
            words / best_seconds(run.passes, units), "1/s")
    run.extra["peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_SELF), "MB")


def beam_subprocess(run: Run, work) -> None:
    grammar, sentences, words = beam_inputs(run, work, SUBPROCESS_SENTENCES)
    argv = [sys.executable, "-m", "syntaxprobe.pcfg_scorer", grammar]
    local = beamsearch.PCFGActionModel(beamsearch.read_grammar(grammar))
    reference = search_all(run, UnitClock(), local, sentences, 10)
    run.units = words
    model = None
    try:
        timer = UnitClock()
        for _ in range(SETUP_REPEATS):
            if model is not None:
                model.close()
            model = timer.time(beamsearch.SubprocessActionModel, argv)
        timer.flush()
        run.setup = timer.scaled
        t_start = clock()
        while run.more_passes(clock() - t_start):
            with run.traced():
                timer = UnitClock()
                results = search_all(run, timer, model, sentences, 10)
            run.add_pass(timer)
            run.digests.append(surprisal_digest(run, results))
            worst = max((abs(a - b) for r, q in zip(results, reference)
                         if r is not None and q is not None
                         for a, b in zip(r, q)), default=math.inf)
            run.check(worst <= SURPRISAL_TOLERANCE,
                      f"subprocess and in-process surprisals differ by {worst}")
    finally:
        if model is not None:
            model.close()
    run.extra["words_per_s_k10"] = (words / best_seconds(run.passes), "1/s")
    run.extra["peak_rss_mb"] = (
        peak_rss_mb(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN), "MB")


WORKLOADS = {
    "cli_toy": cli_toy,
    "inproc_paper": inproc_paper,
    "beam_pcfg": beam_pcfg,
    "beam_subprocess": beam_subprocess,
}


# ---------------------------------------------------------------------------
# Report

# Per-layer values are per pass: totals are divided by the number of passes.
# These are rates, percentiles or set-up times already, and are not divided.
NOT_PER_PASS = {"trace.pass_s", "ngram.tokens_per_s", "beamsearch.calls_per_word",
                "beamsearch.words_per_s_k10", "beamsearch.words_per_s_k100",
                "subprocess.startup_s", "subprocess.rtt_us_p50",
                "subprocess.rtt_us_p99"}


def end_to_end(run: Run) -> dict:
    pass_s = best_seconds(run.passes)
    return {
        "pass_s": pass_s,
        "setup_s": statistics.median(run.setup),
        "units_per_s": run.units / pass_s,
        "peak_rss_mb": run.extra["peak_rss_mb"][0],
    }


def per_layer(run: Run) -> dict:
    layers = tracing.layer_metrics(run.tracer)
    layers["trace.pass_s"] = best_seconds(run.passes)
    for name in ("words_per_s_k10", "words_per_s_k100"):
        layers["beamsearch." + name] = run.extra.get(name, (0.0,))[0]
    # The scorer starts during set-up, outside the traced passes.
    layers["subprocess.startup_s"] = (statistics.median(run.setup)
                                      if run.workload == "beam_subprocess" else 0.0)
    n = len(run.passes)
    return {name: value if name in NOT_PER_PASS else value / n
            for name, value in layers.items()}


def report(run: Run) -> dict:
    """Print every metric with its unit; return the summary line's metrics."""
    if run.tracer is None:
        declared, values = DECLARED["end_to_end"], end_to_end(run)
    else:
        declared, values = DECLARED["per_layer"], per_layer(run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    if run.tracer is None:
        shown.update(run.extra)
        shown["wall_s"] = (best_seconds(run.raw_passes), "s")
    shown["error_rate"] = (run.failed / run.attempted, "ratio")
    print(f"# workload={run.workload} seed={run.seed} "
          f"trace={int(run.tracer is not None)} passes={len(run.passes)} "
          f"attempted={run.attempted} failed={run.failed}")
    print(f"# digest={run.digests[0] if run.digests else '-'}")
    for what in run.failures[:20]:
        print(f"# FAILED: {what}")
    for name, (value, unit) in shown.items():
        print(f"{name:34s} {value:18.6f} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=EXPECTED["seed"])
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.enabled = False
        tracing.instrument(tracer)
    run = Run(args.workload, args.seed, args.seconds, tracer)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        WORKLOADS[args.workload](run, work)
        check_digests(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    if tracer is not None:
        spans = os.path.join(os.path.dirname(work),
                             f"spans-{args.workload}-{args.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tracer.dump(spans)
        print(f"# spans={os.path.relpath(spans, ROOT)}")
    metrics = report(run)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
