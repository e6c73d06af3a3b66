"""Acceptance criteria, one test per criterion.

Each test prints a ``[acceptance] <name>: PASS`` line when it succeeds (run
pytest with ``-s`` or read the captured output).  The corpus-constant
checks need a real WSJ treebank and run only when SP_PTB_PATH points at a
directory of ``.mrg`` files; they are skipped otherwise.
"""

import glob
import hashlib
import math
import os
import random
import time

import pytest

from syntaxprobe import (
    beamsearch,
    cli,
    corpus,
    ngram,
    scoring,
    stats,
    suites,
    toydata,
)
from conftest import exact_marginal, random_pcfg, sample_sentence


def _ok(name):
    print(f"[acceptance] {name}: PASS")


def _full_bucket_lexicon():
    """Synthetic lexicon with 20 candidates per category in every bucket."""
    lex = corpus.LexiconStats(lowercase=True)
    marks = {}
    for bucket in corpus.DEFAULT_BUCKETS:
        count = bucket.lo
        for i in range(20):
            noun = lex._entry(f"noun{bucket.id}s{i:02d}")
            noun.total = count
            noun.pos["NN"] = count
            noun = lex._entry(f"noun{bucket.id}p{i:02d}")
            noun.total = count
            noun.pos["NNS"] = count
            for tag, mark, obj in (("VBD", "transitive", True),
                                   ("VBD", "intransitive", False),
                                   ("VB", "transitive", True),
                                   ("VB", "intransitive", False)):
                word = f"{mark[:2]}{tag.lower()}{bucket.id}x{i:02d}"
                entry = lex._entry(word)
                entry.total = count
                entry.pos[tag] = count
                if obj:
                    entry.obj_present = count
                else:
                    entry.obj_absent = count
                marks[word] = mark
    for filler in toydata.TEMPLATE_VOCAB:
        entry = lex._entry(filler)
        entry.total = 1000
        entry.pos["XX"] = 1000
    calls = corpus.classify_transitivity(lex, marks)
    return lex, suites.SuiteResources(calls, frozenset())


def test_suite_cardinality(suite_defs, toy_lex, resources):
    lex, res = _full_bucket_lexicon()
    for suite_id in suite_defs.ids():
        suite = suites.generate_suite(suite_id, suite_defs, lex, seed=42,
                                      resources=res)
        assert len(suite.items) == 6400, suite_id
        assert suite.sentence_count() == 12800, suite_id
        assert not suite.shortfalls, suite_id
    start = time.monotonic()
    for suite_id in suite_defs.ids():
        suites.generate_suite(suite_id, suite_defs, toy_lex, seed=42,
                              resources=resources)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"toy generation took {elapsed:.2f}s"
    _ok("suite cardinality (13 x 12,800 sentences; toy run "
        f"{elapsed:.2f}s < 5s)")


def test_bucket_table():
    expected = {}
    for count in range(0, 201):
        if 2 <= count <= 5:
            expected[count] = count
        elif 6 <= count <= 10:
            expected[count] = 10
        elif 11 <= count <= 20:
            expected[count] = 20
        elif 21 <= count <= 30:
            expected[count] = 30
        elif 50 <= count <= 100:
            expected[count] = 100
        else:
            expected[count] = None
    for count in range(0, 201):
        bucket = corpus.exposure_bucket(count)
        assert (bucket.id if bucket else None) == expected[count], count
    _ok("bucket table matches the eight ranges and their gaps over 0..200")


def test_kneser_ney_correctness(toy_model):
    from test_ngram import (HAND_P_B_GIVEN_A, HAND_P_C_GIVEN_A, TOY,
                            brute_force_kn_bigram)
    model = ngram.train(TOY, order=2)
    assert abs(model.prob(("a",), "b") - float(HAND_P_B_GIVEN_A)) <= 1e-9
    assert abs(model.prob(("a",), "c") - float(HAND_P_C_GIVEN_A)) <= 1e-9
    for ctx in ("a", "d", "b", "zzz"):
        for w in model.support:
            oracle = float(brute_force_kn_bigram(TOY, w, ctx))
            assert abs(model.prob((ctx,), w) - oracle) <= 1e-9

    rng = random.Random(1)
    vocab = list(toy_model.support)
    for _ in range(100):
        ctx = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 4)))
        total = math.fsum(toy_model.prob(ctx, w) for w in toy_model.support)
        assert abs(total - 1.0) <= 1e-9
    _ok("modified-KN probabilities match the hand oracle within 1e-9 and "
        "100 random contexts normalize within 1e-9")


def _score_suite(model, suite):
    records = []
    for item in suite.items:
        for cond in ("gram", "ungram"):
            tokens = item.tokens(cond)
            records.append(scoring.SurprisalRecord(
                scoring.sentence_id(item.item_id, cond), tuple(tokens),
                tuple(model.surprisals(tokens))))
    return scoring.evaluate_suite(suite, records)


def test_ngram_tie_mechanism(toy_trees, toy_suites):
    sentences = [[w for w, _ in t.terminals()] for t in toy_trees]
    model = ngram.train(sentences, order=5)

    # Modified polar questions diverge 6 tokens before the one-token noun
    # region, beyond a 5-gram's reach: every item must tie and fail.
    polar = toy_suites("number_polar_mod")
    for item in polar.items:
        gap = item.gram_region[0]  # divergence is at token 0
        assert gap >= 5
    results, cells = _score_suite(model, polar)
    assert all(abs(r.gram_bits - r.ungram_bits) <= 1e-9 for r in results)
    for cell in cells:
        assert cell.summary.accuracy == 0.0, cell

    base_results, base_cells = _score_suite(model, toy_suites("number_base"))
    pooled = sum(r.correct for r in base_results) / len(base_results)
    assert pooled >= 0.5
    for cell in base_cells:
        if cell.category == "all":
            assert cell.summary.accuracy >= 0.5, cell
    _ok("5-gram ties to 0% on modified polar questions and scores "
        f">= chance on the base agreement suite (pooled {pooled:.3f})")


def test_beam_search_vs_exact_enumeration():
    start = time.monotonic()
    for seed in range(20):
        grammar = random_pcfg(seed)
        model = beamsearch.PCFGActionModel(grammar)
        sentence = sample_sentence(grammar, random.Random(1000 + seed))
        exact = exact_marginal(model, sentence, max_actions=2000)
        full = beamsearch.word_sync_beam(model, sentence, word_beam_k=10000)
        for a, b in zip(exact.marginals, full.marginals):
            assert abs(a - b) <= 1e-9, seed
        try:
            narrow = beamsearch.word_sync_beam(model, sentence, word_beam_k=1)
            narrow_marginals = narrow.marginals
        except beamsearch.DeadBeamError:
            # An empty beam carries zero mass: the bound holds vacuously.
            narrow_marginals = [float("-inf")] * len(sentence)
        for a, b in zip(exact.marginals, narrow_marginals):
            assert b <= a + 1e-12, seed
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    _ok(f"word-synchronous beam equals exact enumeration on 20 grammars "
        f"within 1e-9 bits ({elapsed:.2f}s < 10s)")


def test_statistics_oracles():
    from test_stats import wilson_by_root_finding
    got = stats.wilson_ci(8, 10)
    want = wilson_by_root_finding(8, 10)
    assert abs(got[0] - want[0]) <= 0.002 and abs(got[1] - want[1]) <= 0.002
    assert abs(stats.binom_test_above(5, 10) - 0.623) <= 1e-3
    assert stats.binom_test_above(10, 10) == 2.0 ** -10

    import numpy as np
    from scipy.special import expit
    fit = stats.fit_logistic(np.zeros((100, 0)),
                             np.array([1] * 75 + [0] * 25))
    assert abs(fit.coef[0] - math.log(3)) <= 1e-6
    X = np.array([[0.0]] * 20 + [[1.0]] * 20)
    y = np.array([1] * 10 + [0] * 10 + [1] * 15 + [0] * 5)
    fit2 = stats.fit_logistic(X, y)
    assert abs(fit2.coef[1] - math.log(3)) <= 1e-6

    start = time.monotonic()
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, size=2000)
    outcomes = (rng.random(2000) < expit(-1.0 + 2.0 * x)).astype(int)
    curve = stats.accuracy_curve(
        list(zip(10.0 ** x, outcomes)))  # counts whose log10 is x
    assert not curve.separated
    assert abs(curve.fit.coef[0] - (-1.0)) <= 0.15
    assert abs(curve.fit.coef[1] - 2.0) <= 0.15
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok("Wilson, exact binomial, logistic closed forms, and Monte Carlo "
        f"curve recovery are within their tolerances ({elapsed:.2f}s < 5s)")


def test_scale_invariance(toy_suites, toy_trees):
    sentences = [[w for w, _ in t.terminals()] for t in toy_trees]
    model = ngram.train(sentences, order=5)
    suite = toy_suites("number_polar")  # contains exact ties by construction

    base_records = []
    for item in suite.items:
        for cond in ("gram", "ungram"):
            tokens = item.tokens(cond)
            base_records.append(scoring.SurprisalRecord(
                scoring.sentence_id(item.item_id, cond), tuple(tokens),
                tuple(model.surprisals(tokens))))

    def outcome(scale):
        records = [
            scoring.SurprisalRecord(r.sentence_id, r.tokens,
                                    tuple(s * scale for s in r.surprisals))
            for r in base_records
        ]
        results, cells = scoring.evaluate_suite(suite, records)
        return ([r.correct for r in results],
                [(c.bucket, c.category, c.summary.accuracy,
                  c.summary.p_above_chance < 0.05) for c in cells])

    baseline = outcome(1.0)
    rng = random.Random(99)
    for _ in range(100):
        scale = 2.0 ** rng.uniform(-9, 9)
        assert outcome(scale) == baseline
    _ok("item accuracies, bucket accuracies, and above-chance decisions "
        "are invariant under 100 random positive rescalings")


def _run_pipeline(tmp_path, tag):
    out = tmp_path / tag
    config = tmp_path / f"{tag}.cfg"
    config.write_text(
        "[syntaxprobe]\n"
        f"corpus = {toydata.toy_treebank_path()}\n"
        "lowercase = true\nseed = 13\nwords_per_category = 2\n"
        "frames_per_word = 20\n")
    base = ["--config", str(config), "--out", str(out)]
    assert cli.main(base + ["ingest"]) == 0
    assert cli.main(base + ["stats"]) == 0
    assert cli.main(base + ["gen", "--suite", "all"]) == 0
    assert cli.main(base + ["train-ngram"]) == 0
    suite_ids = sorted(p.name[:-len(".suite")]
                       for p in (out / "suites").iterdir())
    for suite_id in suite_ids:
        suite_file = str(out / "suites" / f"{suite_id}.suite")
        assert cli.main(base + ["score", "--suite-file", suite_file,
                                "--model-name", "ngram5"]) == 0
        surp = str(out / "surprisals" / f"{suite_id}.ngram5.surp")
        assert cli.main(base + ["eval", "--suite-file", suite_file,
                                "--surprisal-file", surp,
                                "--model-name", "ngram5"]) == 0
    items = [str(out / "eval" / f"{s}.ngram5.items.csv") for s in suite_ids]
    assert cli.main(base + ["analyze", "--items"] + items) == 0
    evals = [str(out / "eval" / f"{s}.ngram5.eval.csv") for s in suite_ids]
    assert cli.main(base + ["report", "--eval"] + evals +
                    ["--fits", str(out / "analysis" / "fits.csv")]) == 0
    return out


GOLDEN_DIGESTS = os.path.join(os.path.dirname(__file__), "data", "golden",
                              "toy_pipeline.sha256")


def test_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path, "run1")
    # Every artifact must match the recorded digests byte for byte.
    with open(GOLDEN_DIGESTS, encoding="utf-8") as fh:
        golden = {rel: digest for digest, rel in map(str.split, fh)}
    got = {}
    for root, _dirs, files in os.walk(first):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, str(first)).replace(os.sep, "/")
            with open(path, "rb") as fh:
                got[rel] = hashlib.sha256(fh.read()).hexdigest()
    assert sorted(got) == sorted(golden)
    for rel, digest in sorted(golden.items()):
        assert got[rel] == digest, rel
    second = _run_pipeline(tmp_path, "run2")
    compared = 0
    for root, _dirs, files in os.walk(first):
        for name in files:
            a = os.path.join(root, name)
            b = os.path.join(str(second), os.path.relpath(a, str(first)))
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), a
            compared += 1
    assert compared >= 40  # suites, model, surprisals, evals, report
    _ok(f"two full pipeline runs produced byte-identical artifacts "
        f"({compared} files, {len(golden)} matching recorded digests)")


# ---------------------------------------------------------------------------
# Corpus constants, conditional on a user-supplied WSJ treebank


PTB_PATH = os.environ.get("SP_PTB_PATH", "")


@pytest.fixture(scope="module")
def ptb_lexicon():
    files = sorted(glob.glob(os.path.join(PTB_PATH, "**", "*.mrg"),
                             recursive=True))
    if not files:
        pytest.skip("SP_PTB_PATH has no .mrg files")
    trees = []
    for path in files:
        trees.extend(corpus.read_treebank(path))
    return corpus.build_lexicon(trees, lowercase=True)


@pytest.mark.skipif(not PTB_PATH, reason="SP_PTB_PATH not configured")
def test_ptb_active_only_verb_count(ptb_lexicon):
    irregular = corpus.read_irregular_verbs(toydata.default_irregular_path())
    verbs = corpus.active_only_verbs(ptb_lexicon, irregular)
    assert len(verbs) == 56
    _ok("active-only verb extraction yields 56 verbs on the WSJ treebank")


@pytest.mark.skipif(not PTB_PATH, reason="SP_PTB_PATH not configured")
def test_ptb_polar_overlap_count(ptb_lexicon):
    nouns = [w for w in ptb_lexicon.words()
             if corpus.majority_tag(ptb_lexicon.stats(w)) in ("NN", "NNS")]
    _kept, removed = corpus.filter_polar_overlap(nouns, ptb_lexicon)
    assert len(removed) == 15
    _ok("polar-overlap filtering removes 15 nouns on the WSJ treebank")


@pytest.mark.skipif(not PTB_PATH, reason="SP_PTB_PATH not configured")
def test_ptb_frequency_participle_correlation(ptb_lexicon):
    xs, ys = [], []
    for word in ptb_lexicon.words():
        s = ptb_lexicon.stats(word)
        if s.pos.get("VBD", 0) > 0:
            xs.append(s.total)
            ys.append(s.vbn / s.total)
    r, p = pytest.importorskip("scipy.stats").pearsonr(xs, ys)
    assert abs(r - 0.39) <= 0.05
    assert p < 0.001
    _ok("frequency/participle-share correlation matches on the WSJ treebank")
