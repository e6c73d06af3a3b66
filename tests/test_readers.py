"""Every artifact reader turns arbitrary text under its header into a value
or a SyntaxProbeError, never a Python traceback."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from syntaxprobe import analysis, beamsearch, corpus, ngram, scoring, suites
from syntaxprobe.errors import SyntaxProbeError

READERS = {
    "lexicon": (corpus.read_lexicon, corpus.LEXICON_HEADER + " lowercase=1"),
    "suite": (suites.read_suite, suites.SUITE_HEADER),
    "surprisal": (scoring.read_surprisal_file, scoring.SURPRISAL_HEADER + " base=2"),
    "model": (ngram.read_model, ngram.MODEL_HEADER),
    "transitivity": (corpus.read_transitivity_lexicon, None),
    "irregular": (corpus.read_irregular_verbs, None),
    "dependencies": (corpus.read_dependency_sidecar, None),
    "grammar": (beamsearch.read_grammar, None),
    "items": (lambda path: analysis.read_items([path]), ",".join(scoring.ITEMS_COLUMNS)),
    "eval": (lambda path: analysis.read_evals([path]), ",".join(scoring.EVAL_COLUMNS)),
    "fits": (analysis.read_fits, ",".join(analysis.FITS_COLUMNS)),
}

# Pieces of every format's lines, so that some draws get past the field
# count and into the value checks.
_PIECES = ["\t", "\n", " ", "0", "1", "2", "-1", "0.5", "nan", "x", "é", "#", ":",
           ",", '"', "=", "->", "S", "NN", "obj", "gram", "ungram", "#word",
           "#invariance", "#shortfall", "#provenance", "[discounts]", "[ngrams ", "]",
           "order", "unk", "fallback"]


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
@example(text="order\t0\n")
@example(text="x" * 131_073 + "\n")  # past the csv module's field size limit
def test_reader_raises_only_syntaxprobe_errors(tmp_path, name, text):
    reader, header = READERS[name]
    path = tmp_path / name
    path.write_text(text if header is None else f"{header}\n{text}",
                    encoding="utf-8")
    try:
        reader(path)
    except SyntaxProbeError:
        pass
