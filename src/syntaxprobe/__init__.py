"""Exposure-controlled grammaticality suites and surprisal-based evaluation.

The package covers the full assessment pipeline: treebank ingestion and
lexical exposure statistics (:mod:`syntaxprobe.corpus`), targeted test
suite generation (:mod:`syntaxprobe.suites`), a modified Kneser-Ney n-gram
baseline (:mod:`syntaxprobe.ngram`), word-synchronous beam search over
generative parsing models (:mod:`syntaxprobe.beamsearch`), region-surprisal
scoring and aggregation (:mod:`syntaxprobe.scoring`), the statistical
battery (:mod:`syntaxprobe.stats`), and the exposure and supervision
analyses and report grid (:mod:`syntaxprobe.analysis`).  The ``syntaxprobe``
command line wires the stages together; see also the narrative scripts
under ``demos/``.

Each name lives in its module and is imported from there (``from
syntaxprobe.corpus import build_lexicon``).  The package re-exports
nothing, so ``import syntaxprobe`` loads none of its modules, and importing
one loads only the modules that one imports.
"""

__version__ = "0.1.0"
