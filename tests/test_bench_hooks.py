"""The benchmark's hooks into the package, checked without running it.

``bench/`` reaches into the package by name: ``tracing.instrument`` wraps
module functions and class methods, ``inputs`` builds its treebank from the
``toydata`` sentence builders, and the beam workloads write, read and
search an induced grammar through ``beamsearch``.  A name that moves or
goes would otherwise show only when the benchmark runs.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Runs with bench/ and src/ first on sys.path; -B keeps it from writing
# bytecode into the checkout.
SCRIPT = """
import json, os, sys, tempfile
sys.path[:0] = sys.argv[1:3]
import inputs, tracing
from syntaxprobe import beamsearch, corpus, toydata

tracer = tracing.Tracer()
tracing.instrument(tracer)
treebank, marks = inputs.paper_treebank()
trees = corpus.read_treebank(toydata.toy_treebank_path())
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "induced.pcfg")
    beamsearch.write_grammar(inputs.induce_pcfg(trees), path)
    model = beamsearch.PCFGActionModel(beamsearch.read_grammar(path))
words = [w for w, _ in trees[0].terminals()]
result = beamsearch.word_sync_beam(model, words, 10)
print(json.dumps({"trees": treebank.count("\\n"), "marks": marks.count("\\n"),
                  "words": len(words), "surprisals": result.surprisals,
                  "traced_words": tracer.counts["beamsearch.words"]}))
"""


def test_bench_hooks_resolve_in_a_fresh_interpreter(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["trees"] > 1000 and got["marks"] > 100
    assert got["words"] == len(got["surprisals"]) > 0
    assert all(s >= 0.0 for s in got["surprisals"])
    # The search ran through the tracer's wrapper.
    assert got["traced_words"] == got["words"]
    assert list(tmp_path.iterdir()) == []
