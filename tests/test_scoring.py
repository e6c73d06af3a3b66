import math
import random

import pytest

from syntaxprobe import scoring
from syntaxprobe.beamsearch import Rule
from syntaxprobe.corpus import DEFAULT_BUCKETS
from syntaxprobe.errors import AlignmentError, FormatError, InputError
from syntaxprobe.scoring import (
    SurprisalRecord,
    align,
    evaluate_suite,
    read_surprisal_file,
    sentence_id,
    summarize,
    write_surprisal_file,
)
from syntaxprobe.stats import BinomialSummary
from syntaxprobe.suites import TestItem, TestSuite


def _item(item_id="s.b2.w.f00", tokens=("The", "w", "is", "x", "."),
          utokens=("The", "w", "are", "x", "."), region=(2, 3),
          bucket=2, category="singular"):
    return TestItem(item_id, "s", "w", category, bucket,
                    tuple(tokens), region, tuple(utokens), region)


def _suite(items):
    return TestSuite("s", "copula_agreement", "verb-form swap", list(items))


def _records_for(item, gram_surps, ungram_surps):
    return [
        SurprisalRecord(sentence_id(item.item_id, "gram"),
                        item.gram_tokens, tuple(gram_surps)),
        SurprisalRecord(sentence_id(item.item_id, "ungram"),
                        item.ungram_tokens, tuple(ungram_surps)),
    ]


# ---------------------------------------------------------------------------
# Region surprisal and the tie rule


def _one_item(item, gram_surps, ungram_surps, **kwargs):
    """The one ItemResult of a one-item suite."""
    results, _ = evaluate_suite(_suite([item]),
                                _records_for(item, gram_surps, ungram_surps), **kwargs)
    (result,) = results
    return result


def test_region_surprisal_singleton():
    result = _one_item(_item(), (0.1, 0.2, 3.2, 0.4, 0.5), (9.0, 9.0, 4.5, 9.0, 9.0))
    assert (result.gram_bits, result.ungram_bits) == (3.2, 4.5)


def test_region_surprisal_sums_multi_token():
    item = TestItem("s.b2.w.f00", "s", "cured", "transitive", 2,
                    ("The", "dog", "was", "cured", "yesterday", "."), (3, 6),
                    ("The", "dog", "cured", "yesterday", "."), (2, 5))
    result = _one_item(item, (9.0, 9.0, 9.0, 4.0, 2.0, 1.0), (9.0, 9.0, 0.1, 0.2, 0.3))
    assert result.gram_bits == pytest.approx(7.0)
    assert result.ungram_bits == pytest.approx(0.6)


def test_region_surprisal_alignment_error_names_index():
    # The region sum trusts align; evaluate_suite reports the mismatch.
    item = _item()
    good = _records_for(item, [0.0] * 5, [0.0] * 5)
    rec = SurprisalRecord(good[0].sentence_id,
                          ("The", "w", "is", "."), (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(AlignmentError, match="mismatch at index 3"):
        evaluate_suite(_suite([item]), [rec, good[1]])


@pytest.mark.parametrize("ungram, token, value", [
    ((0.0, 0.0, math.nan, 0.0, 0.0), "are", "nan"),
    # inf and -inf in one region would make math.fsum raise ValueError.
    ((0.0, 0.0, math.inf, -math.inf, 0.0), "are", "inf"),
    ((0.0, 0.0, 1.0, -math.inf, 0.0), "x", "-inf"),
])
def test_non_finite_region_surprisal_is_input_error(ungram, token, value):
    # Non-finite values outside the region (here the gram "." at index 4)
    # are legal; the first one inside names the token.
    item = _item(region=(2, 4))
    with pytest.raises(InputError) as err:
        evaluate_suite(_suite([item]),
                       _records_for(item, (0.0, 0.0, 1.0, 1.0, math.inf), ungram),
                       path="s.suite")
    index = item.ungram_tokens.index(token)
    assert str(err.value) == (f"s.suite: item s.b2.w.f00 ungram: critical region "
                              f"token {token!r} at index {index} has surprisal {value}")


def test_item_accuracy_rule():
    def correct(gram_bits, ungram_bits, **kwargs):
        return _one_item(_item(), (0.0, 0.0, gram_bits, 0.0, 0.0),
                         (0.0, 0.0, ungram_bits, 0.0, 0.0), **kwargs).correct
    assert correct(3.0, 5.0) == 1
    assert correct(4.0, 4.0) == 0  # ties count as failures
    assert correct(4.0, 4.0, eps_tie=0.0) == 0  # exact ties too
    assert correct(5.0, 3.0) == 0
    assert correct(1.0, 1.0 + 5e-10) == 0  # within default epsilon
    assert correct(1.0, 1.0 + 5e-10, eps_tie=0.0) == 1
    with pytest.raises(InputError):
        correct(math.inf, 1.0)


# ---------------------------------------------------------------------------
# Aggregation


def _summarized(bucket_specs):
    """bucket_specs: {bucket: {category: (k, n)}} -> {(bucket, category):
    cell} summarizing the outcomes, the first k of each n correct."""
    outcomes = [(bucket, category, 1 if i < k else 0)
                for bucket, cats in bucket_specs.items()
                for category, (k, n) in cats.items() for i in range(n)]
    return {(c.bucket, c.category): c for c in summarize(outcomes)}


def test_aggregate_extreme_and_exact_binomial():
    cell = _summarized({2: {"singular": (20, 20), "plural": (20, 20)}})[2, "all"]
    assert cell.summary.accuracy == 1.0
    assert cell.summary.p_above_chance == pytest.approx(0.5 ** 40)

    p = _summarized({2: {"singular": (10, 20), "plural": (10, 20)}})[
        2, "all"].summary.p_above_chance
    # Brute-force binomial tail for k=20, n=40.
    brute = sum(math.comb(40, i) for i in range(20, 41)) / 2 ** 40
    assert p == pytest.approx(brute, abs=1e-12)
    assert p == pytest.approx(0.5627, abs=1e-3)


def test_aggregate_pools_categories():
    agg = _summarized({2: {"singular": (10, 20), "plural": (18, 20)}})
    assert agg[2, "all"].summary.accuracy == pytest.approx(28 / 40)
    assert agg[2, "singular"].summary.k == 10
    assert agg[2, "plural"].summary.k == 18
    # Conservation: bucket n equals the sum over categories.
    assert agg[2, "all"].summary.n == 40


def test_aggregate_missing_items():
    # A suite item without records fails alignment before any summary.
    items = [_item(item_id=f"s.b2.w{i}.f00") for i in range(2)]
    records = [r for item in items for r in _records_for(item, [0.0] * 5,
                                                          [1.0] * 5)]
    with pytest.raises(AlignmentError, match="missing"):
        evaluate_suite(_suite(items), records[:-2])


def test_aggregate_conserves_item_count():
    agg = _summarized({
        2: {"singular": (3, 5), "plural": (2, 5)},
        10: {"singular": (4, 4), "plural": (1, 6)},
    })
    pooled_n = sum(c.summary.n for c in agg.values() if c.category == "all")
    assert pooled_n == 20
    for bucket in sorted({bucket for bucket, _ in agg}):
        per_cat = sum(c.summary.n for c in agg.values()
                      if c.bucket == bucket and c.category != "all")
        assert per_cat == agg[bucket, "all"].summary.n


# ---------------------------------------------------------------------------
# Adapter file format


def test_surprisal_file_round_trip(tmp_path):
    item = _item()
    records = _records_for(item, [0.1, 0.2, 3.0, 0.4, 0.5],
                           [0.1, 0.2, 5.0, 0.4, 0.5])
    path = tmp_path / "s.surp"
    write_surprisal_file(records, path)
    assert read_surprisal_file(path) == records


def test_surprisal_file_base_e_converted(tmp_path):
    path = tmp_path / "e.surp"
    path.write_text("#syntax-probe-surprisal v1 base=e\n"
                    "id:gram\t0\tw\t1.0\n")
    rec = read_surprisal_file(path)[0]
    assert rec.surprisals[0] == pytest.approx(1.0 / math.log(2.0))


def test_surprisal_file_errors(tmp_path):
    path = tmp_path / "bad.surp"
    path.write_text("no header\n")
    with pytest.raises(FormatError):
        read_surprisal_file(path)
    path.write_text("#syntax-probe-surprisal v1 base=10\n")
    with pytest.raises(FormatError):
        read_surprisal_file(path)
    path.write_text("#syntax-probe-surprisal v1 base=2\n"
                    "id:gram\t0\tw\t1.0\nid:gram\t2\tx\t1.0\n")
    with pytest.raises(FormatError, match="non-sequential"):
        read_surprisal_file(path)


def test_surprisal_record_needs_one_surprisal_per_token():
    with pytest.raises(InputError, match="^s:gram: 2 tokens vs 1 surprisals$"):
        SurprisalRecord("s:gram", ("a", "b"), (1.0,))


def test_replacing_a_surprisal_record_field_keeps_the_length_check():
    record = SurprisalRecord("s:gram", ("a", "b"), (1.0, 2.0))
    assert record._replace(surprisals=(3.0, 4.0)).surprisals == (3.0, 4.0)
    with pytest.raises(InputError, match="^s:gram: 1 tokens vs 2 surprisals$"):
        record._replace(tokens=("a",))


def test_assigning_a_record_field_is_attribute_error():
    item = _item()
    for record, field in [
            (item, "target"),
            (_records_for(item, [1.0] * 5, [1.0] * 5)[0], "surprisals"),
            (scoring.ItemResult(item.item_id, 2, "singular", "w", 1.0, 2.0, 1), "correct"),
            (summarize([(2, "singular", 1)])[0], "summary"),
            (BinomialSummary.from_counts(1, 2), "accuracy"),
            (DEFAULT_BUCKETS[0], "hi"),
            (Rule("S", ("a",), 1.0), "prob")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_empty_file_gives_empty_list(tmp_path):
    path = tmp_path / "empty.surp"
    path.write_text("#syntax-probe-surprisal v1 base=2\n")
    assert read_surprisal_file(path) == []


def test_align_distinct_errors(tmp_path):
    item = _item()
    suite = _suite([item])
    good = _records_for(item, [0.0] * 5, [0.0] * 5)
    assert set(align(suite, good)[item.item_id]) == {"gram", "ungram"}

    unknown = [SurprisalRecord("other:gram", item.gram_tokens, (0.0,) * 5)]
    with pytest.raises(AlignmentError, match="unknown"):
        align(suite, good + unknown)
    with pytest.raises(AlignmentError, match="duplicate"):
        align(suite, good + good[:1])
    with pytest.raises(AlignmentError, match="missing"):
        align(suite, good[:1])
    wrong = [SurprisalRecord(good[0].sentence_id,
                             ("The", "w", "was", "x", "."), (0.0,) * 5),
             good[1]]
    with pytest.raises(AlignmentError, match="mismatch at index 2"):
        align(suite, wrong)


def test_sentence_id_round_trip():
    sid = sentence_id("suite.b2.w.f01", "ungram")
    assert scoring.split_sentence_id(sid) == ("suite.b2.w.f01", "ungram")
    with pytest.raises(InputError):
        sentence_id("x", "bad")


# ---------------------------------------------------------------------------
# Scale invariance


def test_scale_invariance_of_accuracy():
    rng = random.Random(5)
    items, gram, ungram = [], {}, {}
    for i in range(60):
        item = _item(item_id=f"s.b2.w{i}.f00")
        items.append(item)
        g = rng.uniform(0.5, 8.0)
        # A third of the items are exact ties; the rest differ by >= 0.01.
        if i % 3 == 0:
            u = g
        else:
            u = g + rng.choice([-1, 1]) * rng.uniform(0.01, 4.0)
        gram[item.item_id], ungram[item.item_id] = g, u
    suite = _suite(items)

    def outcome(scale):
        records = []
        for item in items:
            per_tok_g = [0.0] * 4 + [gram[item.item_id] * scale]
            per_tok_u = [0.0] * 4 + [ungram[item.item_id] * scale]
            recs = _records_for(item, per_tok_g, per_tok_u)
            # region is (2, 3); put the mass there instead
            records.append(SurprisalRecord(recs[0].sentence_id, item.gram_tokens,
                                           (0.0, 0.0, gram[item.item_id] * scale,
                                            0.0, 0.0)))
            records.append(SurprisalRecord(recs[1].sentence_id, item.ungram_tokens,
                                           (0.0, 0.0, ungram[item.item_id] * scale,
                                            0.0, 0.0)))
        results, cells = scoring.evaluate_suite(suite, records)
        return ([r.correct for r in results],
                [ (c.bucket, c.category, c.summary.accuracy,
                   c.summary.p_above_chance < 0.05) for c in cells])

    baseline = outcome(1.0)
    for _ in range(100):
        scale = 2.0 ** rng.uniform(-10, 10)
        assert outcome(scale) == baseline
