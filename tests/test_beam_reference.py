"""The word-synchronous beam search against reference implementations.

``_reference_advance`` is the step loop the search used before it dropped
the frontier states that can no longer reach the word beam: it runs
structural rounds until the frontier is empty or ``MAX_STRUCT_ROUNDS`` is
reached.  It stays here as an oracle: on any grammar and at any widths the
search must give the same marginals, surprisals, top parse, final beam and
dead-beam index, and make no more model calls.

``GenPrunedModel`` is the PCFG adapter before it dropped, given the next
word, each ``NT(X)`` whose ``X`` cannot begin that word.  Such a state can
never reach the word beam, so wherever the ``action_beam_k`` cut binds on
no pool the search with it must give the same outcome, again with no more
model calls.
"""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from syntaxprobe import beamsearch as bs
from syntaxprobe.actions import GEN, expand, serialize_action
from syntaxprobe.beamsearch import MAX_STRUCT_ROUNDS, _keep_best, _rank_sort
from syntaxprobe.errors import DeadBeamError

from conftest import (CountingModel, GenPrunedModel, random_recursive_pcfg,
                      sample_sentence)


def _reference_advance(model, beam, word, word_beam_k, action_beam_k,
                       fast_track_k):
    """The next beam, and whether ``MAX_STRUCT_ROUNDS`` cut the step with a
    live frontier, by running every round."""
    done = []
    frontier = beam
    for _ in range(MAX_STRUCT_ROUNDS):
        if not frontier:
            break
        gen_succs, pool = expand(frontier, model.actions_for(frontier, word),
                                 word)
        overflow = len(gen_succs) > fast_track_k
        if overflow:
            _rank_sort(gen_succs, fast_track_k)
            pool.extend(gen_succs[fast_track_k:])
            del gen_succs[fast_track_k:]
        done.extend(gen_succs)
        _keep_best(pool, action_beam_k)
        if word is not None and not overflow:
            frontier = pool  # all structural: none is done
            continue
        frontier = []
        for st in pool:
            if (st.is_complete if word is None else st.chain[0][0] == GEN):
                done.append(st)
            else:
                frontier.append(st)
    _rank_sort(done, word_beam_k)
    del done[word_beam_k:]
    return done, bool(frontier)


def _search(grammar, sent, wk, ak, ft, advance=None, model_type=CountingModel):
    """``(outcome, capped steps, model calls, states asked about)`` of one
    search: the outcome is the dead-beam word index, or the marginals,
    surprisals, top parse and final beam."""
    model = model_type(grammar)
    with mock.patch.object(bs, "_advance", advance or bs._advance):
        try:
            r = bs.word_sync_beam(model, sent, wk, ak, ft)
        except DeadBeamError as exc:
            outcome, capped = exc.word_index, 0
        else:
            outcome = (r.marginals, r.surprisals, r.top_parse,
                       r.top_parse_logprob, r.complete_logprob,
                       [(s.history, s.logprob) for s in r.beam])
            capped = r.capped_steps
    return outcome, capped, len(model.batches), sum(model.batches)


def _sentence(grammar, seed):
    """A short sentence of ``grammar`` if one is found quickly, else a
    random string of its words (which may kill the beam)."""
    rng = random.Random(seed)
    for _ in range(20):
        sent = sample_sentence(grammar, rng, max_words=4)
        if sent:
            return sent
    return [rng.choice(sorted(grammar.terminals))
            for _ in range(rng.randint(1, 4))]


def _check_against_reference(grammar_seed, sentence_seed, wk, ak, ft):
    grammar = random_recursive_pcfg(grammar_seed)
    sent = _sentence(grammar, sentence_seed)
    want, want_capped, want_calls, want_states = _search(
        grammar, sent, wk, ak, ft, _reference_advance)
    got, capped, calls, states = _search(grammar, sent, wk, ak, ft)
    assert got == want
    assert calls <= want_calls
    assert states <= want_states
    assert capped <= want_capped


# Two grammars where a frontier state left when word_beam_k states are
# done still places: one scored between the best and the k-th best done
# state (k = 2), and one tied with the k-th (k = 1) that wins on history.
_BETWEEN_TEXT = """
0.4 S -> A
0.25 S -> B
0.35 S -> C
1.0 A -> a
1.0 B -> a
1.0 C -> D
1.0 D -> a
"""
_TIED_TEXT = """
0.5 S -> A
0.5 S -> B
1.0 A -> C
1.0 C -> a
1.0 B -> a
"""


@pytest.mark.parametrize("text, k, placed", [
    (_BETWEEN_TEXT, 2, "NT(S) NT(C) NT(D) GEN(a)"),
    (_TIED_TEXT, 1, "NT(S) NT(A) NT(C) GEN(a)"),
], ids=["between", "tied"])
def test_a_state_at_the_kth_score_is_kept(text, k, placed):
    grammar = bs.parse_grammar(text)
    want = _search(grammar, ["a"], k, None, 5, _reference_advance)
    got = _search(grammar, ["a"], k, None, 5)
    assert got[0] == want[0]
    beam = [" ".join(map(serialize_action, history))
            for history, _ in got[0][5]]
    assert beam[-1] == placed


def test_a_settled_step_ends_before_the_cap():
    # Left recursion lets every round open one more S, so the reference
    # runs all MAX_STRUCT_ROUNDS rounds of the word step; with one done
    # state scored above every S still open, the search stops at round 3.
    grammar = bs.parse_grammar("0.5 S -> S S\n0.5 S -> a\n")
    want, want_capped, want_calls, _ = _search(grammar, ["a"], 1, None, 5,
                                               _reference_advance)
    got, capped, calls, _ = _search(grammar, ["a"], 1, None, 5)
    assert got == want
    assert (want_capped, capped) == (1, 0)
    assert want_calls > MAX_STRUCT_ROUNDS and calls <= 4


_NARROW = st.tuples(st.integers(1, 4), st.sampled_from((1, 2, 4, 8, 32)),
                    st.sampled_from((0, 1, 2, 5)))
_DEFAULT = st.tuples(st.sampled_from((10, 100)), st.just(None), st.just(5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grammar_seed=st.integers(0, 10**6), sentence_seed=st.integers(0, 10**6),
       widths=_NARROW)
@example(grammar_seed=0, sentence_seed=0, widths=(1, 1, 0))
def test_narrow_search_matches_reference(grammar_seed, sentence_seed, widths):
    _check_against_reference(grammar_seed, sentence_seed, *widths)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grammar_seed=st.integers(0, 10**6), sentence_seed=st.integers(0, 10**6),
       widths=_DEFAULT)
def test_default_width_search_matches_reference(grammar_seed, sentence_seed,
                                                widths):
    _check_against_reference(grammar_seed, sentence_seed, *widths)


def _check_against_gen_pruned(grammar_seed, sentence_seed, wk, ak, ft):
    grammar = random_recursive_pcfg(grammar_seed)
    sent = _sentence(grammar, sentence_seed)
    cuts = []

    def keep_best(states, k):
        cuts.append(len(states) > k)
        _keep_best(states, k)

    with mock.patch.object(bs, "_keep_best", keep_best):
        want, want_capped, want_calls, want_states = _search(
            grammar, sent, wk, ak, ft, model_type=GenPrunedModel)
    got, capped, calls, states = _search(grammar, sent, wk, ak, ft)
    if any(cuts):
        return  # the beam may keep a live state in a dead one's place
    assert got == want
    assert calls <= want_calls
    assert states <= want_states
    assert capped <= want_capped


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grammar_seed=st.integers(0, 10**6), sentence_seed=st.integers(0, 10**6),
       widths=_NARROW)
@example(grammar_seed=0, sentence_seed=0, widths=(4, 32, 5))
def test_narrow_search_matches_gen_pruned(grammar_seed, sentence_seed, widths):
    _check_against_gen_pruned(grammar_seed, sentence_seed, *widths)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grammar_seed=st.integers(0, 10**6), sentence_seed=st.integers(0, 10**6),
       widths=_DEFAULT)
def test_default_width_search_matches_gen_pruned(grammar_seed, sentence_seed,
                                                 widths):
    _check_against_gen_pruned(grammar_seed, sentence_seed, *widths)
