import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest

from syntaxprobe import ngram
from syntaxprobe.errors import InputError, TrainingError

TOY = [["a", "b"], ["a", "c"], ["d", "b"]]


# ---------------------------------------------------------------------------
# Hand oracle for the toy corpus, order 2 (worked out before the model was
# built; kept in exact rationals).
#
# Bigrams (with one <s> pad, no end event):
#   (<s>,a):2 (a,b):1 (a,c):1 (<s>,d):1 (d,b):1
#   count-of-counts n1=4 n2=1 -> Y=2/3, D1 = 1 - 2*(2/3)*(1/4) = 2/3
# Unigram continuation counts (distinct predecessors):
#   a:1 b:2 c:1 d:1, total 5; n1=3 n2=1 -> Y=3/5, D1=3/5, D2 -> clamp 1
#   q(a)=q(c)=q(d) = (1-3/5)/5 + (14/25)/4 = 11/50
#   q(b) = (2-1)/5 + (14/25)/4 = 17/50
# Context "a": both bigrams count 1, total 2, gamma = 2/3:
#   p(b|a) = (1-2/3)/2 + (2/3)(17/50) = 59/150
#   p(c|a) = (1-2/3)/2 + (2/3)(11/50) = 47/150

HAND_UNIGRAM = {"a": Fraction(11, 50), "b": Fraction(17, 50),
                "c": Fraction(11, 50), "d": Fraction(11, 50)}
HAND_P_B_GIVEN_A = Fraction(59, 150)
HAND_P_C_GIVEN_A = Fraction(47, 150)


def brute_force_kn_bigram(corpus, word, context):
    """Independent order-2 modified-KN evaluation by direct arithmetic."""
    bigrams = {}
    for sent in corpus:
        padded = ["<s>"] + list(sent)
        for i in range(1, len(padded)):
            key = (padded[i - 1], padded[i])
            bigrams[key] = bigrams.get(key, 0) + 1

    def discounts(values):
        n = {r: sum(1 for v in values if v == r) for r in (1, 2, 3, 4)}
        y = Fraction(n[1], n[1] + 2 * n[2])
        d1 = 1 - 2 * y * Fraction(n[2], n[1])
        d2 = 2 - 3 * y * (Fraction(n[3], n[2]) if n[2] else 0)
        d3 = 3 - 4 * y * (Fraction(n[4], n[3]) if n[3] else 0)
        fix = lambda d: Fraction(1, 2) if d <= 0 else min(Fraction(1), d)
        return fix(d1), fix(d2), fix(d3)

    # unigram level: continuation counts
    cont = {}
    for (_prev, w), _c in bigrams.items():
        cont[w] = cont.get(w, 0) + 1
    total = sum(cont.values())
    d1, d2, d3 = discounts(list(cont.values()))
    vocab = sorted(cont)

    def disc(c):
        return 0 if c == 0 else (d1 if c == 1 else (d2 if c == 2 else d3))

    gamma_uni = sum(disc(c) for c in cont.values()) / Fraction(total)

    def p_uni(w):
        c = cont.get(w, 0)
        return Fraction(max(c - disc(c), 0)) / total + gamma_uni / len(vocab)

    # bigram level (raw counts; <s> contexts keep raw by definition)
    from_ctx = {w: c for (p, w), c in bigrams.items() if p == context}
    ctx_total = sum(from_ctx.values())
    bd1, bd2, bd3 = discounts(list(bigrams.values()))

    def bdisc(c):
        return 0 if c == 0 else (bd1 if c == 1 else (bd2 if c == 2 else bd3))

    if ctx_total == 0:
        return p_uni(word)
    gamma = sum(bdisc(c) for c in from_ctx.values()) / Fraction(ctx_total)
    c = from_ctx.get(word, 0)
    return Fraction(max(c - bdisc(c), 0)) / ctx_total + gamma * p_uni(word)


def test_hand_oracle_self_consistency():
    assert brute_force_kn_bigram(TOY, "b", "a") == HAND_P_B_GIVEN_A
    assert brute_force_kn_bigram(TOY, "c", "a") == HAND_P_C_GIVEN_A
    for w, expected in HAND_UNIGRAM.items():
        assert brute_force_kn_bigram(TOY, w, "zzz-unseen") == expected


def test_model_matches_hand_oracle():
    model = ngram.train(TOY, order=2)
    assert model.prob(("a",), "b") == pytest.approx(float(HAND_P_B_GIVEN_A), abs=1e-9)
    assert model.prob(("a",), "c") == pytest.approx(float(HAND_P_C_GIVEN_A), abs=1e-9)
    for w in model.support:
        oracle = float(brute_force_kn_bigram(TOY, w, "a"))
        assert model.prob(("a",), w) == pytest.approx(oracle, abs=1e-9)
        oracle_d = float(brute_force_kn_bigram(TOY, w, "d"))
        assert model.prob(("d",), w) == pytest.approx(oracle_d, abs=1e-9)


def test_unseen_context_backs_off_to_unigram_exactly():
    model = ngram.train(TOY, order=2)
    for w in model.support:
        assert model.prob(("b",), w) == model.prob((), w)
        assert model.prob((), w) == pytest.approx(float(HAND_UNIGRAM[w]), abs=1e-12)


def test_single_type_corpus_is_maximum_likelihood():
    with pytest.warns(UserWarning):
        model = ngram.train([["a", "a", "a"]], order=1)
    assert model.prob((), "a") == 1.0
    assert model.surprisals(["a"]) == [0.0]


def test_empty_corpus_raises():
    with pytest.raises(TrainingError):
        ngram.train([])
    with pytest.raises(InputError):
        ngram.train([["a"]], order=0)


def test_normalization_random_contexts(toy_model):
    rng = random.Random(0)
    vocab = list(toy_model.support)
    for _ in range(100):
        ctx = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 4)))
        total = math.fsum(toy_model.prob(ctx, w) for w in toy_model.support)
        assert abs(total - 1.0) <= 1e-9


def test_ngram_locality():
    sent_a = ["x", "y", "p", "q", "r", "s", "t"]
    sent_b = ["z", "y", "p", "q", "r", "s", "t"]
    model = ngram.train([sent_a, sent_a, sent_b], order=3)
    a = model.surprisals(sent_a)
    b = model.surprisals(sent_b)
    # The divergence at token 0 falls inside the context windows of tokens
    # 1 and 2 only; an order-3 model must agree from token 3 on.
    assert a[3:] == b[3:]
    assert a[0] != b[0]


def test_chain_rule_identity(toy_model):
    sent = ["The", "president", "is", "good", "today", "."]
    surps = toy_model.surprisals(sent)
    padded = ["<s>"] * 4 + sent
    logp = 0.0
    for i in range(4, len(padded)):
        logp += toy_model.logprob(padded[i - 4:i], padded[i])
    assert sum(surps) == pytest.approx(-logp, abs=1e-9)


def test_uniform_model_perplexity_is_vocab_size():
    types = [f"t{i}" for i in range(7)]
    with pytest.warns(UserWarning):
        model = ngram.train([[t] for t in types], order=1)
    assert model.perplexity([[t] for t in types]) == pytest.approx(7.0, abs=1e-9)


def test_train_vs_heldout_perplexity_anchor(toy_trees):
    sentences = [[w for w, _ in t.terminals()] for t in toy_trees]
    train, held = sentences[0::2], sentences[1::2]
    model = ngram.train(train, order=3, map_singletons=True)
    ppl_train = model.perplexity(train)
    ppl_held = model.perplexity(held)
    assert ppl_train <= ppl_held
    # Regression anchors, computed once from this fixed split.
    assert ppl_train == pytest.approx(2.6964, abs=0.001)
    assert ppl_held == pytest.approx(5.6968, abs=0.001)


def test_perplexity_empty_heldout(toy_model):
    with pytest.raises(InputError):
        toy_model.perplexity([])


def test_oov_routes_through_unknown_symbol(toy_model):
    # Flag-off: the unknown symbol carries no mass, so the query is -inf
    # rather than a KeyError.
    assert toy_model.logprob((), "zzzz") == float("-inf")


def test_singleton_mapping_gives_unknowns_mass():
    model = ngram.train([["a", "b"], ["a", "c"]], order=2, map_singletons=True)
    assert ngram.UNK in model.support
    assert model.prob(("a",), "zzzz") > 0.0


def test_model_file_round_trip(tmp_path, toy_model):
    path = tmp_path / "m.model"
    ngram.write_model(toy_model, path)
    again = ngram.read_model(path)
    assert again.order == toy_model.order
    assert again.support == toy_model.support
    assert again.discounts == toy_model.discounts
    ctx = ("The", "president")
    for w in ("is", "are", "."):
        assert again.prob(ctx, w) == toy_model.prob(ctx, w)
    path2 = tmp_path / "m2.model"
    ngram.write_model(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_deterministic_across_runs(toy_trees, tmp_path):
    sentences = [[w for w, _ in t.terminals()] for t in toy_trees]
    a = ngram.train(sentences, order=4)
    b = ngram.train(sentences, order=4)
    pa, pb = tmp_path / "a", tmp_path / "b"
    ngram.write_model(a, pa)
    ngram.write_model(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_fallback_discount_warning():
    with pytest.warns(UserWarning, match="absolute discount"):
        ngram.train([["a", "a", "a", "b"]], order=1)


def test_discount_fallbacks_name_each_order_and_cause(toy_trees, tmp_path):
    # Only a degenerate count-of-counts reaches the file's fallback line;
    # a non-positive D_k is named on the trained model alone.
    with pytest.warns(UserWarning):
        single = ngram.train([["a", "a", "a"]], order=1)
    assert single.discount_fallbacks == {1: "degenerate count-of-counts n1=0 n2=0"}
    assert single.fallback_orders == (1,)
    ngram.write_model(single, tmp_path / "single.model")
    back = ngram.read_model(tmp_path / "single.model")
    assert back.discount_fallbacks == {} and back.fallback_orders == (1,)
    assert back == single and repr(back) == repr(single)
    sentences = [[w for w, _ in t.terminals()] for t in toy_trees]
    with pytest.warns(UserWarning, match="D3 formula"):
        toy = ngram.train(sentences, order=5)
    assert toy.discount_fallbacks == {k: "D3 not positive" for k in (1, 2, 3, 4)}
    assert toy.fallback_orders == ()
    path = tmp_path / "toy.model"
    ngram.write_model(toy, path)
    back = ngram.read_model(path)
    assert back.discount_fallbacks == {} and back == toy


def test_adding_a_sentence_never_decreases_counts(tmp_path):
    base = [["a", "b"], ["a", "c"]]
    small = ngram.train(base, order=2)
    big = ngram.train(base + [["c", "b", "a"]], order=2)
    for grams_s, grams_b in zip(small.grams, big.grams):
        for gram, c in grams_s.items():
            assert grams_b[gram] >= c
    # The context map built on first lookup and the window memo are no
    # fields: a model that has scored equals a fresh copy of its file.
    path = tmp_path / "big.model"
    ngram.write_model(big, path)
    big.surprisals(["c", "b", "a", "zzzz"])
    assert big == ngram.read_model(path)


# ---------------------------------------------------------------------------
# Reference oracle: tokenwise counting and per-context n1/n2/n3+ tables.  The
# model must give the same counts, discounts and ``==`` probabilities.


def _reference_grams(sentences, order, map_singletons):
    """Per order, gram -> adjusted count, counted one window at a time; and
    the vocabulary."""
    sents = [list(s) for s in sentences if s]
    if map_singletons:
        unigrams = Counter(w for s in sents for w in s)
        sents = [[w if unigrams[w] > 1 else ngram.UNK for w in s] for s in sents]
    raw = [Counter() for _ in range(order)]
    for sent in sents:
        padded = [ngram.BOS] * (order - 1) + sent
        for i in range(order - 1, len(padded)):
            for k in range(1, order + 1):
                raw[k - 1][tuple(padded[i - k + 1: i + 1])] += 1
    adjusted = [dict(raw[order - 1])]
    for k in range(order - 1, 0, -1):
        adj = {}
        for gram in raw[k]:          # distinct predecessors
            adj[gram[1:]] = adj.get(gram[1:], 0) + 1
        for gram, c in raw[k - 1].items():
            if gram[0] == ngram.BOS:  # start-anchored grams keep raw counts
                adj[gram] = c
        adjusted.insert(0, adj)
    return adjusted, tuple(sorted({w for s in sents for w in s}))


def _reference_tables(grams_by_order):
    """Per order, context -> (counts by word, total, n1, n2, n3+)."""
    tables = []
    for grams in grams_by_order:
        ctxs = {}
        for gram, c in grams.items():
            ctxs.setdefault(gram[:-1], {})[gram[-1]] = c
        tables.append({
            ctx: (counts, sum(counts.values()),
                  sum(1 for c in counts.values() if c == 1),
                  sum(1 for c in counts.values() if c == 2),
                  sum(1 for c in counts.values() if c >= 3))
            for ctx, counts in ctxs.items()})
    return tables


def _reference_prob(tables, discounts, vocab_size, ctx, w):
    p = 1.0 / vocab_size
    for k in range(1, len(ctx) + 2):
        entry = tables[k - 1].get(ctx[len(ctx) - k + 1:])
        if entry is None:
            continue
        counts, total, n1, n2, n3p = entry
        d1, d2, d3 = discounts[k - 1]
        c = counts.get(w, 0)
        discount = 0.0 if c == 0 else d1 if c == 1 else d2 if c == 2 else d3
        p = (max(c - discount, 0.0) / total
             + (d1 * n1 + d2 * n2 + d3 * n3p) / total * p)
    return p


def _oracle_corpus(rng):
    """Sentences over a small vocabulary holding a real ``<s>``, with empty
    and one-token sentences among them."""
    vocab = ["a", "b", "c", "d", ngram.BOS]
    corpus = [[], [rng.choice(vocab)], [ngram.BOS]]
    for _ in range(rng.randint(8, 24)):
        corpus.append([rng.choice(vocab) for _ in range(rng.randint(0, 7))])
    rng.shuffle(corpus)
    return corpus


@pytest.mark.parametrize("map_singletons", [False, True])
@pytest.mark.parametrize("order", range(1, 7))
def test_counts_and_probabilities_match_the_tokenwise_reference(order,
                                                                map_singletons):
    rng = random.Random(order * 2 + map_singletons)
    for _ in range(4):
        corpus = _oracle_corpus(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = ngram.train(corpus, order=order,
                                map_singletons=map_singletons)
            grams, support = _reference_grams(corpus, order, map_singletons)
            discounts = [ngram._estimate_discounts(g.values(), k)[0]
                         for k, g in enumerate(grams, start=1)]
        assert model.grams == grams
        assert model.discounts == discounts
        assert model.support == support
        tables = _reference_tables(grams)
        for table in tables:
            for ctx in table:
                for w in model.support:
                    assert model.prob(ctx, w) == _reference_prob(
                        tables, discounts, len(model.support), ctx, w), (ctx, w)


# ---------------------------------------------------------------------------
# The window memo of ``surprisals`` returns the bits an unmemoised loop would.


def _unmemoised(model, tokens):
    padded = ["<s>"] * (model.order - 1) + list(tokens)
    out = []
    for i in range(model.order - 1, len(padded)):
        lp = model.logprob(padded[i - model.order + 1: i], padded[i])
        out.append(0.0 - lp if lp != float("-inf") else math.inf)
    return out


def _bits(values):
    return [float.hex(v) for v in values]


PROBES = [
    ["The", "president", "is", "good", "."],
    ["The", "president", "is", "very", "good", "."],
    ["The", "senator", "is", "good", "."],
    ["The", "zzzz", "is", "good", "."],     # OOV token in mid-sentence
    ["The", "qqqq", "is", "good", "."],     # another OOV, same mapped context
    ["The", "president", "is", "good", ".", "The", "president", "is"],
    # The second "red" has the same last four window tokens in both, but a
    # 5-gram model gives it different surprisals.
    ["The", "teacher", "is", "very", "red", "and", "red", "."],
    ["The", "unions", "are", "very", "red", "and", "red", "."],
]


@pytest.mark.parametrize("order", [1, 2, 5])
@pytest.mark.parametrize("map_singletons", [False, True])
def test_memoised_surprisals_are_the_unmemoised_bits(toy_trees, order,
                                                     map_singletons):
    sentences = [[w for w, _ in t.terminals()] for t in toy_trees]
    model = ngram.train(sentences, order=order, map_singletons=map_singletons)
    expected = [_unmemoised(model, tokens) for tokens in PROBES]
    assert [model.surprisals(tokens) for tokens in PROBES] == expected
    assert [_bits(model.surprisals(t)) for t in PROBES] == list(map(_bits, expected))
    oov = model.surprisals(PROBES[3])[1]
    assert (oov == math.inf) != map_singletons  # <unk> has mass only if mapped


def test_second_call_scores_from_the_memo(toy_trees):
    sentences = [[w for w, _ in t.terminals()] for t in toy_trees]
    model = ngram.train(sentences, order=3)
    first = [model.surprisals(tokens) for tokens in PROBES]

    def no_more_queries(context, word):
        raise AssertionError(f"window {tuple(context) + (word,)} scored twice")

    model.logprob = no_more_queries
    assert [model.surprisals(tokens) for tokens in PROBES] == first
    with pytest.raises(AssertionError, match="scored twice"):
        model.surprisals(["an", "unseen", "window"])


def test_models_do_not_share_memo_entries():
    tokens = ["a", "b", "a", "c"]
    one = ngram.train([["a", "b"], ["a", "c"], ["d", "b"]], order=2)
    two = ngram.train([["a", "c"], ["a", "c"], ["b", "a"], ["d", "b"]], order=2)
    first, second = one.surprisals(tokens), two.surprisals(tokens)
    assert first != second
    assert _bits(first) == _bits(_unmemoised(one, tokens))
    assert _bits(second) == _bits(_unmemoised(two, tokens))
    assert one.surprisals(tokens) == first and two.surprisals(tokens) == second
    fresh = ngram.train([["a", "b"], ["a", "c"], ["d", "b"]], order=2)
    assert one == fresh and repr(one) == repr(fresh)  # the memo is no field
