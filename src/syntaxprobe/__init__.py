"""Exposure-controlled grammaticality suites and surprisal-based evaluation.

The package covers the full assessment pipeline: treebank ingestion and
lexical exposure statistics (:mod:`syntaxprobe.corpus`), targeted test
suite generation (:mod:`syntaxprobe.suites`), a modified Kneser-Ney n-gram
baseline (:mod:`syntaxprobe.ngram`), word-synchronous beam search over
generative parsing models (:mod:`syntaxprobe.beamsearch`), region-surprisal
scoring and aggregation (:mod:`syntaxprobe.scoring`), and the statistical
battery (:mod:`syntaxprobe.stats`).  The ``syntaxprobe`` command line wires
the stages together; see also the narrative scripts under ``demos/``.
"""

from .corpus import (
    DEFAULT_BUCKETS,
    ExposureBucket,
    LexiconStats,
    Tree,
    TransitivityClass,
    active_only_verbs,
    build_lexicon,
    classify_transitivity,
    exposure_bucket,
    filter_polar_overlap,
    parse_treebank,
    read_treebank,
    vbn_fraction,
)
from .ngram import NGramModel, train
from .beamsearch import (
    PCFGActionModel,
    SubprocessActionModel,
    ToyPCFG,
    exact_marginal,
    parse_grammar,
    word_sync_beam,
)
from .scoring import (
    SurprisalRecord,
    align,
    evaluate_suite,
    item_accuracy,
    read_surprisal_file,
    region_surprisal,
    summarize,
    write_surprisal_file,
)
from .stats import (
    BinomialSummary,
    accuracy_curve,
    binom_test_above,
    fit_logistic,
    pearson_test,
    wilson_ci,
)
from .suites import (
    SuiteResources,
    TestItem,
    TestSuite,
    generate_suite,
    instantiate,
    read_suite,
    read_suite_defs,
    sample_targets,
    validate_suite,
    write_suite,
)

__version__ = "0.1.0"
