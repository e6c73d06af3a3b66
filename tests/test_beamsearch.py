import io
import json
import math
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies

from syntaxprobe import beamsearch as bs
from syntaxprobe import corpus
from syntaxprobe import pcfg_scorer
from syntaxprobe.actions import (GEN, INITIAL_STATE, NT, REDUCE, ParserState,
                                 action_is_legal, apply_action, bracket, gen,
                                 nt, parse_action, serialize_action)
from syntaxprobe.errors import (
    DeadBeamError,
    FormatError,
    GrammarError,
    InputError,
)

from conftest import (CountingModel, GenPrunedModel, OracleInfeasible,
                      exact_marginal, random_pcfg, random_recursive_pcfg,
                      sample_sentence)

TWO_PARSE_TEXT = """
0.3 S -> A
0.2 S -> B
0.5 S -> C
1.0 A -> a
1.0 B -> a
1.0 C -> c
"""

DOG_TEXT = """
1.0 S -> NP VP
0.6 NP -> D N
0.4 NP -> NX
1.0 NX -> D N
1.0 VP -> V
1.0 D -> the
1.0 N -> dog
1.0 V -> barks
"""

# Unary chains with p=1.0 and equal-weight alternatives: many partial
# derivations share a log probability, so narrow beams cut through ties.
TIES_TEXT = """
0.25 S -> X X
0.25 S -> Y
0.25 S -> X X X
0.25 S -> Z X
1.0 X -> A
1.0 A -> P
0.5 P -> a
0.5 P -> Q
0.5 Y -> A A
0.5 Y -> Q Q
1.0 Q -> R
0.5 R -> a
0.5 R -> b
1.0 Z -> Q
"""
TIES_SENTENCES = (["a", "b"], ["b", "a", "a"], ["a", "a"])

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture(scope="module")
def two_parse_model():
    return bs.PCFGActionModel(bs.parse_grammar(TWO_PARSE_TEXT))


@pytest.fixture(scope="module")
def dog_model():
    return bs.PCFGActionModel(bs.parse_grammar(DOG_TEXT))


class _LegalityChecked(bs.GenerativeActionModel):
    """Passes ``actions_for`` through to ``model`` and asserts that every
    action it lists is legal in its state."""

    def __init__(self, model):
        self.model = model

    def actions_for(self, states, next_word=None):
        lists = self.model.actions_for(states, next_word)
        for st, actions in zip(states, lists):
            for action, _ in actions:
                assert action_is_legal(st, action), (st, action)
        return lists


def _walk(model, words, max_actions=None):
    """Every state reached depth-first from the initial state, following
    generation actions only for ``words``, and, given ``max_actions``, no
    state past that many actions."""
    stack = [(INITIAL_STATE, 0)]
    while stack:
        st, depth = stack.pop()
        yield st
        if depth == max_actions:
            continue
        for action, lp in model.actions(st):
            if action[0] != GEN or action[1] in words:
                stack.append((apply_action(st, action, lp), depth + 1))


def _can_begin(grammar, label, word):
    """Whether some derivation of ``label`` starts with ``word``: a
    depth-first search over the first symbols of the rules."""
    seen = set()
    stack = [label]
    while stack:
        lhs = stack.pop()
        if lhs in seen:
            continue
        seen.add(lhs)
        for rule in grammar.by_lhs[lhs]:
            first = rule.rhs[0]
            if first in grammar.nonterminals:
                stack.append(first)
            elif first == word:
                return True
    return False


def _can_reach(grammar, action, word):
    """Whether ``word`` can still be generated after ``action``."""
    if action[0] == GEN:
        return action[1] == word
    if action[0] == NT:
        return _can_begin(grammar, action[1], word)
    return True  # REDUCE


# ---------------------------------------------------------------------------
# Grammar plumbing


def test_grammar_round_trip(tmp_path):
    g = bs.parse_grammar(DOG_TEXT)
    path = tmp_path / "g.pcfg"
    bs.write_grammar(g, path)
    again = bs.read_grammar(path)
    assert again.rules == g.rules and again.start == g.start


def test_grammar_validation():
    with pytest.raises(GrammarError):
        bs.parse_grammar("0.5 S -> a\n0.4 S -> b\n")
    with pytest.raises(GrammarError):
        bs.parse_grammar("1.0 S -> a\n-1.0 T -> b\n2.0 T -> c\n")
    with pytest.raises(FormatError):
        bs.parse_grammar("S -> a\n")


def test_action_serialization_round_trip():
    for action in (nt("NP"), gen("dog"), REDUCE):
        assert parse_action(serialize_action(action)) == action
    with pytest.raises(FormatError):
        parse_action("SHIFT")


# ---------------------------------------------------------------------------
# PCFG action model


def test_action_scores_normalize(dog_model):
    # Walk every state reachable while parsing the one sentence.
    state = INITIAL_STATE
    stack = [state]
    seen = 0
    while stack:
        st = stack.pop()
        actions = dog_model.actions(st)
        if actions:
            total = math.fsum(2.0 ** lp for _, lp in actions)
            assert abs(total - 1.0) <= 1e-9
            seen += 1
        for action, lp in actions:
            if action[0] == GEN and action[1] not in ("the", "dog", "barks"):
                continue
            stack.append(apply_action(st, action, lp))
    assert seen > 5


def _check_next_word_drops(grammar, words, max_actions=None):
    """Given a next word, every state of a walk lists its full list less
    exactly the actions after which that word cannot be generated."""
    model = bs.PCFGActionModel(grammar)
    states = list(_walk(model, words, max_actions))
    for st in states:
        full = model.actions(st)
        if full:
            # With no next word nothing is dropped: the list is normalized.
            assert abs(math.fsum(2.0 ** lp for _, lp in full) - 1.0) <= 1e-9
        for w in words:
            assert model.actions(st, w) == [
                p for p in full if _can_reach(grammar, p[0], w)]
    # The frontier-wide answer lists what the one-state path lists.
    for w in (*words, None):
        assert list(map(list, model.actions_for(states, w))) == [
            model.actions(s, w) for s in states]
    return states


@pytest.mark.parametrize("text, words", [
    (DOG_TEXT, ("the", "dog", "barks", "cat")),
    (TIES_TEXT, ("a", "b", "c")),
], ids=["dog", "ties"])
def test_next_word_drops_actions_that_cannot_reach_it(text, words):
    states = _check_next_word_drops(bs.parse_grammar(text), words)
    assert len(states) > 10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=strategies.integers(0, 10**6))
def test_next_word_drops_on_recursive_grammars(seed):
    grammar = random_recursive_pcfg(seed)
    words = (*sorted(grammar.terminals), "unknown")
    assert len(_check_next_word_drops(grammar, words, max_actions=8)) > 1


def test_pcfg_log_probs_are_never_above_zero():
    # The search's early stop relies on it.  Every open constituent of
    # every grammar here, including the induced one, lists only scores <= 0.
    induced = json.loads((GOLDEN / "beam_induced.json").read_text())["grammar"]
    grammars = [bs.parse_grammar(t) for t in (DOG_TEXT, TIES_TEXT, induced)]
    grammars += [random_pcfg(seed) for seed in range(20)]
    grammars += [random_recursive_pcfg(seed) for seed in range(20)]
    checked = 0
    for grammar in grammars:
        model = bs.PCFGActionModel(grammar)
        stack = [(lhs, ()) for lhs in grammar.by_lhs]
        while stack:
            label, children = stack.pop()
            full = model._node_lists((label, children))[0]
            for action, lp in full:
                assert lp <= 0.0, (label, children, action, lp)
                if action != REDUCE:
                    stack.append((label, children + (action[1],)))
            checked += len(full)
    assert checked > 1000


def test_derivation_probability_is_rule_product():
    g = bs.parse_grammar("1.0 S -> A B\n0.7 A -> a\n0.3 A -> a a\n1.0 B -> b\n")
    model = bs.PCFGActionModel(g)
    result = exact_marginal(model, ["a", "b"])
    assert result.parses == [("(S (A a) (B b))", pytest.approx(math.log2(0.7)))]


def test_two_parse_hand_example(two_parse_model):
    # Parses of "a" carry 0.3 and 0.2: 0.6 and 0.4 of the sentence mass.
    result = exact_marginal(two_parse_model, ["a"])
    assert result.marginals == [pytest.approx(math.log2(0.5))]
    assert result.complete_logprob == pytest.approx(math.log2(0.5))
    assert [p for _, p in result.parses] == [
        pytest.approx(math.log2(0.3)), pytest.approx(math.log2(0.2))]

    beam = bs.word_sync_beam(_LegalityChecked(two_parse_model), ["a"],
                              word_beam_k=16)
    assert beam.marginals[0] == pytest.approx(math.log2(0.5))
    assert beam.top_parse == "(S (A a))"
    assert beam.top_parse_logprob == pytest.approx(math.log2(0.3))
    assert beam.surprisals[0] == pytest.approx(1.0)  # log2(0.5) = -1 bit


def test_single_parse_surprisals_are_chain_probabilities(dog_model):
    g = bs.parse_grammar("1.0 S -> X Y\n0.25 X -> a\n0.75 X -> b\n1.0 Y -> c\n")
    model = bs.PCFGActionModel(g)
    result = bs.word_sync_beam(model, ["a", "c"], word_beam_k=8)
    assert result.surprisals[0] == pytest.approx(-math.log2(0.25))
    assert result.surprisals[1] == pytest.approx(0.0)


def test_beam_equals_exact_when_all_states_fit(dog_model):
    sent = ["the", "dog", "barks"]
    exact = exact_marginal(dog_model, sent)
    beam = bs.word_sync_beam(_LegalityChecked(dog_model), sent, word_beam_k=1000)
    for a, b in zip(exact.marginals, beam.marginals):
        assert abs(a - b) <= 1e-9
    assert beam.complete_logprob == pytest.approx(exact.complete_logprob)


def test_narrow_beam_lower_bounds_exact(dog_model):
    sent = ["the", "dog", "barks"]
    exact = exact_marginal(dog_model, sent)
    narrow = bs.word_sync_beam(dog_model, sent, word_beam_k=1, fast_track_k=1)
    for a, b in zip(exact.marginals, narrow.marginals):
        assert b <= a + 1e-12


def test_monotone_convergence(two_parse_model, dog_model):
    for model, sent in ((two_parse_model, ["a"]), (dog_model, ["the", "dog", "barks"])):
        prev = None
        for k in (1, 2, 4, 8, 16):
            got = bs.word_sync_beam(model, sent, word_beam_k=k).marginals
            if prev is not None:
                for a, b in zip(prev, got):
                    assert b >= a - 1e-12
            prev = got
        exact = exact_marginal(model, sent).marginals
        for a, b in zip(exact, prev):
            assert b == pytest.approx(a, abs=1e-9)


def test_surprisal_additivity(dog_model):
    result = bs.word_sync_beam(dog_model, ["the", "dog", "barks"], word_beam_k=64)
    assert math.fsum(result.surprisals) == pytest.approx(-result.marginals[-1])


def test_dead_beam_reports_word_index(two_parse_model):
    with pytest.raises(DeadBeamError) as err:
        bs.word_sync_beam(two_parse_model, ["a", "a"])
    assert err.value.word_index == 1


LEFT_RECURSIVE_TEXT = "0.5 S -> S S\n0.5 S -> a\n"


def test_capped_steps_count_steps_cut_with_a_live_frontier():
    # Every round of every step can open one more S, and every open S can
    # generate the word: with room for all those states in the word beam,
    # each step, the closing one included, ends at the cap.
    model = bs.PCFGActionModel(bs.parse_grammar(LEFT_RECURSIVE_TEXT))
    sent = ["a", "a"]
    result = bs.word_sync_beam(model, sent, word_beam_k=10**4)
    assert result.capped_steps == len(sent) + 1
    assert 3000 < len(result.beam) < 10**4
    assert result.top_parse == "(S (S a) (S a))"
    # A grammar without recursion never reaches the cap.
    dog = bs.PCFGActionModel(bs.parse_grammar(DOG_TEXT))
    assert bs.word_sync_beam(dog, ["the", "dog", "barks"]).capped_steps == 0


def test_exact_marginal_out_of_language(two_parse_model):
    result = exact_marginal(two_parse_model, ["b"])
    assert result.marginals == [float("-inf")]
    assert result.complete_logprob == float("-inf")
    assert result.parses == []


def test_exact_marginal_depth_bound():
    g = bs.parse_grammar("0.5 S -> S S\n0.5 S -> a\n")
    model = bs.PCFGActionModel(g)
    with pytest.raises(OracleInfeasible):
        exact_marginal(model, ["a", "a"], max_actions=12)


def test_empty_sentence_and_bad_parameters(dog_model):
    with pytest.raises(InputError):
        bs.word_sync_beam(dog_model, [])
    with pytest.raises(InputError):
        bs.word_sync_beam(dog_model, ["the"], word_beam_k=0)
    with pytest.raises(InputError):
        exact_marginal(dog_model, [])


def test_validator_rejects_illegal_actions():
    state = INITIAL_STATE
    assert action_is_legal(state, nt("S"))
    assert not action_is_legal(state, gen("a"))
    assert not action_is_legal(state, REDUCE)
    opened = apply_action(state, nt("S"), 0.0)
    assert not action_is_legal(opened, REDUCE)  # no completed child yet
    with pytest.raises(InputError):
        apply_action(opened, REDUCE, 0.0)
    shifted = apply_action(opened, gen("a"), -1.0)
    assert action_is_legal(shifted, REDUCE)
    done = apply_action(shifted, REDUCE, 0.0)
    assert done.is_complete
    assert bracket(done.history) == "(S a)"


def test_is_complete_only_after_the_root_reduce():
    assert not INITIAL_STATE.is_complete
    opened = apply_action(INITIAL_STATE, nt("S"), 0.0)
    assert not opened.is_complete
    inner = apply_action(opened, nt("A"), 0.0)
    inner = apply_action(inner, gen("a"), 0.0)
    inner = apply_action(inner, REDUCE, 0.0)
    assert not inner.is_complete  # S is still open
    done = apply_action(inner, REDUCE, 0.0)
    assert done.is_complete
    assert bracket(done.history) == "(S (A a))"


def _with_preterminals(parse: str) -> str:
    """``parse`` with each bare word ``w`` wrapped as ``(W w)``: treebank
    trees hold words only under preterminals."""
    return re.sub(r"(?<= )([^ ()]+)", r"(W \1)", parse)


def test_bracket_from_history_reads_back_as_a_treebank_tree():
    # Every parse exact_marginal renders from a history must read back as
    # one tree, in canonical spacing, over the sentence's words.
    parses = 0
    for seed in range(6):
        grammar = random_pcfg(seed)
        sent = sample_sentence(grammar, random.Random(1000 + seed))
        result = exact_marginal(bs.PCFGActionModel(grammar), sent,
                                   max_actions=2000)
        strings = [parse for parse, _ in result.parses]
        assert strings and len(set(strings)) == len(strings)
        for parse in strings:
            wrapped = _with_preterminals(parse)
            (tree,) = corpus.parse_treebank(wrapped)
            assert tree.pretty() == wrapped
            assert [w for w, _ in tree.terminals()] == sent
            parses += 1
    assert parses > 6


def test_random_grammars_beam_equals_exact():
    for seed in range(6):
        grammar = random_pcfg(seed)
        model = bs.PCFGActionModel(grammar)
        sent = sample_sentence(grammar, random.Random(1000 + seed))
        exact = exact_marginal(model, sent, max_actions=2000)
        beam = bs.word_sync_beam(_LegalityChecked(model), sent,
                                 word_beam_k=10000)
        for a, b in zip(exact.marginals, beam.marginals):
            assert abs(a - b) <= 1e-9


def _golden_cases() -> list:
    """(name, grammar, sentence) for the ties grammar and ``random_pcfg(0..5)``."""
    cases = [("ties", bs.parse_grammar(TIES_TEXT), s) for s in TIES_SENTENCES]
    for seed in range(6):
        grammar = random_pcfg(seed)
        cases.append((f"random_pcfg({seed})", grammar,
                      sample_sentence(grammar, random.Random(1000 + seed))))
    return cases


def _beam_record(model, name, sent, wk, ak, ft) -> dict:
    """Surprisals, top parse and the ordered final beam of one search, as
    reprs, or the index of the word at which the beam died."""
    rec = {"grammar": name, "sentence": " ".join(sent), "word_beam_k": wk,
           "action_beam_k": ak, "fast_track_k": ft}
    try:
        if ak is None:
            r = bs.word_sync_beam(model, sent, wk)
        else:
            r = bs.word_sync_beam(model, sent, wk, ak, ft)
    except DeadBeamError as exc:
        rec["dead_at"] = exc.word_index
    else:
        rec["surprisals"] = [repr(x) for x in r.surprisals]
        rec["top_parse"] = r.top_parse
        rec["top_parse_logprob"] = repr(r.top_parse_logprob)
        rec["beam"] = [[" ".join(map(serialize_action, st.history)),
                        repr(st.logprob)]
                       for st in r.beam]
    return rec


def _narrow_beam_records() -> list:
    """Narrow searches over :func:`_golden_cases`."""
    records = []
    for name, grammar, sent in _golden_cases():
        model = _LegalityChecked(bs.PCFGActionModel(grammar))
        for wk in (1, 2, 3, 4):
            for ak in (2, 4, 8):
                for ft in (0, 2):
                    records.append(_beam_record(model, name, sent, wk, ak, ft))
    return records


def _wide_beam_records() -> list:
    """Searches over :func:`_golden_cases` at the default widths
    (``word_beam_k`` 10 and 100, default ``action_beam_k`` and
    ``fast_track_k``), straight through the PCFG adapter."""
    return [_beam_record(bs.PCFGActionModel(grammar), name, sent, wk, None, None)
            for name, grammar, sent in _golden_cases() for wk in (10, 100)]


def test_pruned_beam_matches_recorded():
    # Recorded from the search that copied whole states and fully sorted
    # every pool by (-logprob, history): survivors, their order and every
    # float must not move.
    expected = json.loads((GOLDEN / "beam_ties.json").read_text())
    got = _narrow_beam_records()
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e


def test_wide_beam_matches_recorded():
    # Recorded from the search that called the model once per state and
    # applied one action per call: at the default widths, too, survivors,
    # their order and every float must not move.
    expected = json.loads((GOLDEN / "beam_wide.json").read_text())
    got = _wide_beam_records()
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e


def test_induced_beam_matches_recorded():
    # The relative-frequency PCFG read off the toy treebank (as grammar
    # text) and 60 of its sentences, searched at word_beam_k 10 and 100 with
    # the default widths.  Unlike the cases above these prune: every search
    # at 10, and 8 of the 60 at 100, differ from a search at 3000.
    recorded = json.loads((GOLDEN / "beam_induced.json").read_text())
    model = bs.PCFGActionModel(bs.parse_grammar(recorded["grammar"]))
    got = [_beam_record(model, "induced", sent.split(), wk, None, None)
           for wk in (10, 100) for sent in recorded["sentences"]]
    expected = recorded["records"]
    assert len(got) == len(expected) == 120
    for g, e in zip(got, expected):
        assert g == e


def test_induced_search_work_is_pinned():
    # Calls, states answered and capped steps over the 60 induced sentences
    # at word_beam_k 10 and 100.  Given the next word, the adapter drops
    # each NT(X) whose X cannot begin it: with only generation actions
    # dropped these were (5611, 24616, 43) and (9864, 107002, 126).
    grammar, sentences = _induced()
    got = {}
    for k in (10, 100):
        model = CountingModel(grammar)
        capped = sum(bs.word_sync_beam(model, sent, k).capped_steps
                     for sent in sentences)
        got[k] = (len(model.batches), sum(model.batches), capped)
    assert got == {10: (2982, 10639, 0), 100: (7235, 60112, 83)}


# ---------------------------------------------------------------------------
# Subprocess scorer protocol


def _dog_grammar_file(tmp_path):
    path = tmp_path / "g.pcfg"
    bs.write_grammar(bs.parse_grammar(DOG_TEXT), path)
    return path


def test_scorer_responses_match_recorded(tmp_path):
    # The requests were recorded in protocol v1, one history per request;
    # they cover every state of the dog walk, each with no next word, each
    # sentence word and an unknown word.  Each history is sent as a chain of
    # v2 definitions from ``0=``, and the list for every state on the chain
    # must equal the recorded reply for that state and next word, less each
    # NT(X) entry whose X cannot begin the next word: the replies were
    # recorded when only generation actions were pruned.
    requests = [tuple(line.split("\t")[1:]) for line in
                (GOLDEN / "scorer_dog.requests").read_text().splitlines()
                if line != "QUIT"]
    replies = (GOLDEN / "scorer_dog.responses").read_text().splitlines()[1:]
    assert len(requests) == len(replies) == 155
    grammar = bs.parse_grammar(DOG_TEXT)
    recorded = {}
    dropped = 0
    for (history, next_word), reply in zip(requests, replies):
        kept = []
        for entry in reply.split(" ") if reply else ():
            action = parse_action(entry.rpartition("=")[0])
            if (next_word and action[0] == NT
                    and not _can_begin(grammar, action[1], next_word)):
                dropped += 1
            else:
                kept.append(entry)
        recorded[(history, next_word)] = " ".join(kept)
    assert dropped == 33

    lines = []
    for history, next_word in requests:
        tokens = history.split()
        refs = ["0="] + [f"{i + 1}={i}:{tok}" for i, tok in enumerate(tokens)]
        lines.append(f"SCORE\t{next_word}\t{' '.join(refs)}\n")
    out = io.StringIO()
    pcfg_scorer.serve(str(_dog_grammar_file(tmp_path)),
                      stdin=io.StringIO("".join(lines) + "QUIT\n"), stdout=out)
    got = out.getvalue().splitlines()
    assert got[0] == bs.PROTOCOL_HEADER
    assert len(got) == 1 + len(requests)
    checked = 0
    for (history, next_word), line in zip(requests, got[1:]):
        tokens = history.split()
        fields = line.split("\t")
        assert len(fields) == len(tokens) + 1
        for i, field in enumerate(fields):
            assert field == recorded[(" ".join(tokens[:i]), next_word)]
            checked += 1
    assert checked > len(requests)


def test_subprocess_scorer_matches_in_process(tmp_path):
    path = _dog_grammar_file(tmp_path)
    direct = bs.word_sync_beam(
        bs.PCFGActionModel(bs.read_grammar(path)), ["the", "dog", "barks"],
        word_beam_k=32)
    argv = [sys.executable, "-m", "syntaxprobe.pcfg_scorer", str(path)]
    with bs.SubprocessActionModel(argv) as remote:
        via_proc = bs.word_sync_beam(remote, ["the", "dog", "barks"],
                                     word_beam_k=32)
    assert via_proc.marginals == pytest.approx(direct.marginals)
    assert via_proc.top_parse == direct.top_parse


def test_subprocess_scorer_bad_header():
    argv = [sys.executable, "-c", "print('hello')"]
    with pytest.raises(FormatError):
        bs.SubprocessActionModel(argv)


def test_subprocess_scorer_header_not_utf8_reaps_the_child(monkeypatch):
    # The child's header is not UTF-8: the FormatError names the scorer, and
    # comes after the child has read QUIT, exited and had both pipes closed.
    script = ("import sys\n"
              "sys.stdout.buffer.write(b'\\xff\\xfe header\\n')\n"
              "sys.stdout.flush()\n"
              "sys.stdin.readline()\n")
    argv = [sys.executable, "-c", script]
    started = []
    popen = bs.subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(bs.subprocess, "Popen", recording_popen)
    with pytest.raises(FormatError, match="announced a header that is not "
                                          "UTF-8") as err:
        bs.SubprocessActionModel(argv)
    assert shlex.join(argv) in str(err.value)
    (proc,) = started
    assert proc.returncode == 0
    assert proc.stdin.closed and proc.stdout.closed


def test_client_reply_not_utf8_is_a_format_error():
    # Like an ERR line, a reply that is not UTF-8 fails its request and
    # clears the per-sentence tables.
    script = ("import sys\n"
              f"print({bs.PROTOCOL_HEADER!r}, flush=True)\n"
              "for line in sys.stdin:\n"
              "    if line.startswith('QUIT'):\n"
              "        break\n"
              "    sys.stdout.buffer.write(b'NT(S)=-1.0 \\xff\\n')\n"
              "    sys.stdout.flush()\n")
    with bs.SubprocessActionModel([sys.executable, "-c", script]) as remote:
        with pytest.raises(FormatError, match="scorer reply is not UTF-8"):
            remote.actions(apply_action(INITIAL_STATE, nt("S"), 0.0))
        assert remote._ids == remote._tokens == remote._lists == {}
    assert remote._proc.returncode == 0


def test_scorer_reports_a_grammar_that_does_not_load(tmp_path):
    bad = tmp_path / "bad.pcfg"
    bad.write_text("0.5 S -> a\n")
    missing = tmp_path / "missing.pcfg"
    for path, code, line in [
            (bad, 1, f"error:grammar-error: {bad}: probabilities for S sum to 0.5"),
            (missing, 2, f"error:usage-error: {missing}: No such file or directory")]:
        proc = subprocess.run(_scorer_argv(path), input="", capture_output=True,
                              text=True)
        assert proc.returncode == code
        assert proc.stdout == ""  # no header was announced
        assert proc.stderr.splitlines() == [line]
        assert "Traceback" not in proc.stderr


def test_close_kills_a_scorer_that_ignores_quit(monkeypatch):
    monkeypatch.setattr(bs, "CLOSE_TIMEOUT_S", 0.2)
    script = ("import sys\n"
              f"print({bs.PROTOCOL_HEADER!r}, flush=True)\n"
              "for line in sys.stdin:\n"
              "    pass\n")
    model = bs.SubprocessActionModel([sys.executable, "-c", script])
    model.close()
    assert model._proc.returncode is not None
    assert model._proc.returncode != 0
    assert model._proc.stdin.closed and model._proc.stdout.closed


def test_scorer_that_has_exited_is_a_format_error():
    script = f"print({bs.PROTOCOL_HEADER!r}, flush=True)\n"
    with bs.SubprocessActionModel([sys.executable, "-c", script]) as model:
        model._proc.wait()  # the scorer is gone before the first request
        with pytest.raises(FormatError, match="scorer closed the stream mid-session"):
            model.actions(ParserState(0.0))


def _scorer_argv(path):
    return [sys.executable, "-m", "syntaxprobe.pcfg_scorer", str(path)]


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3], ids=[
    "dog", "random_pcfg(0)", "random_pcfg(1)", "random_pcfg(2)",
    "random_pcfg(3)"])
def test_subprocess_surprisals_equal_in_process(tmp_path, seed):
    # log2probs cross the pipe as repr, so the search sees the same floats.
    if seed is None:
        grammar = bs.parse_grammar(DOG_TEXT)
        sentences = [["the", "dog", "barks"]]
    else:
        grammar = random_pcfg(seed)
        rng = random.Random(1000 + seed)
        sentences = [sample_sentence(grammar, rng) for _ in range(3)]
    path = tmp_path / "g.pcfg"
    bs.write_grammar(grammar, path)
    local = bs.PCFGActionModel(bs.read_grammar(path))

    def search(model, sent, k, ft):
        try:
            r = bs.word_sync_beam(model, sent, k, fast_track_k=ft)
        except DeadBeamError as exc:
            return exc.word_index
        return (r.surprisals, r.marginals, r.top_parse, r.top_parse_logprob,
                r.complete_logprob, [s.history for s in r.beam])

    searched = 0
    with bs.SubprocessActionModel(_scorer_argv(path)) as remote:
        for sent in sentences:
            for k, ft in ((100, 5), (2, 1)):
                expected = search(local, sent, k, ft)
                assert search(remote, sent, k, ft) == expected
                searched += not isinstance(expected, int)
    assert searched >= len(sentences)


def test_one_request_per_round(tmp_path):
    # The scorer runs behind a wrapper that logs every request line it reads.
    path = _dog_grammar_file(tmp_path)
    log = tmp_path / "requests.log"
    script = ("import sys\n"
              "from syntaxprobe import pcfg_scorer\n"
              "log = open(sys.argv[2], 'w')\n"
              "def lines():\n"
              "    for line in sys.stdin:\n"
              "        log.write(line)\n"
              "        log.flush()\n"
              "        yield line\n"
              "pcfg_scorer.serve(sys.argv[1], stdin=lines())\n")
    sent = ["the", "dog", "barks"]
    counting = CountingModel(bs.parse_grammar(DOG_TEXT))
    bs.word_sync_beam(counting, sent, word_beam_k=4)
    with bs.SubprocessActionModel(
            [sys.executable, "-c", script, str(path), str(log)]) as remote:
        assert remote.actions_for([], "the") == []  # no request
        bs.word_sync_beam(remote, sent, word_beam_k=4)
    requests = [line for line in log.read_text().splitlines()
                if line.startswith("SCORE\t")]
    assert len(requests) == len(counting.batches)
    assert [len(r.split("\t")[2].split(" ")) for r in requests] == counting.batches
    assert sum(counting.batches) > len(requests)


def test_client_ids_restart_each_sentence(tmp_path):
    path = _dog_grammar_file(tmp_path)
    counting = CountingModel(bs.parse_grammar(DOG_TEXT))
    with bs.SubprocessActionModel(_scorer_argv(path)) as remote:
        bs.word_sync_beam(remote, ["the", "dog", "barks"], word_beam_k=8)
        first = len(remote._ids)
        bs.word_sync_beam(remote, ["the", "dog"], word_beam_k=8)
        bs.word_sync_beam(counting, ["the", "dog"], word_beam_k=8)
        # Only the second sentence's states are held, numbered from 0.
        assert len(remote._ids) == sum(counting.batches) < first
        assert sorted(int(sid) for sid, _ in remote._ids.values()) == list(
            range(len(remote._ids)))


def test_client_defines_unknown_ancestors(tmp_path):
    path = _dog_grammar_file(tmp_path)
    local = bs.PCFGActionModel(bs.parse_grammar(DOG_TEXT))
    state = INITIAL_STATE
    for action in (nt("S"), nt("NP"), nt("D"), gen("the")):
        state = apply_action(state, action, 0.0)
    with bs.SubprocessActionModel(_scorer_argv(path)) as remote:
        assert remote.actions(state, "x") == local.actions(state, "x")
        assert remote.actions(state) == local.actions(state)


@pytest.mark.parametrize("line, reason", [
    ("SCORE\t\t0= 1=0:GEN(the)", "illegal action GEN(the)"),
    ("SCORE\t\t0= 1=0:REDUCE", "illegal action REDUCE"),
    ("SCORE\t\t0= 1=0:SHIFT", "bad action token 'SHIFT'"),
    ("SCORE\t0= 1=0:NT(S)", "expected SCORE<TAB>next word<TAB>refs"),
    ("SCORE\t\t0= 2=1:NT(S)", "unknown parent id '1'"),
    ("SCORE\t\t7", "unknown state id '7'"),
], ids=["gen-first", "reduce-first", "shift", "field-count", "unknown-parent",
        "unknown-id"])
def test_scorer_answers_bad_requests_with_err(tmp_path, line, reason):
    path = _dog_grammar_file(tmp_path)
    out = io.StringIO()
    pcfg_scorer.serve(str(path), stdin=io.StringIO(
        f"{line}\nSCORE\tthe\t0= 1=0:NT(S)\nQUIT\n"), stdout=out)
    header, err, good = out.getvalue().splitlines()
    assert header == bs.PROTOCOL_HEADER
    assert err.startswith("ERR ") and reason in err
    assert good == "NT(S)=0.0\tNT(NP)=0.0"  # still serving


def test_scorer_forgets_ids_at_new_sentence(tmp_path):
    out = io.StringIO()
    pcfg_scorer.serve(str(_dog_grammar_file(tmp_path)), stdin=io.StringIO(
        "SCORE\t\t0= 1=0:NT(S)\nSCORE\t\t1 0=\nSCORE\t\t1\nQUIT\n"),
        stdout=out)
    _, first, again, forgotten = out.getvalue().splitlines()
    assert first.split("\t")[1] == again.split("\t")[0]
    assert forgotten.startswith("ERR unknown state id '1'")


@pytest.mark.parametrize("action", [gen("the"), REDUCE],
                         ids=["gen-first", "reduce-first"])
def test_client_raises_scorer_error(tmp_path, action):
    path = _dog_grammar_file(tmp_path)
    local = bs.PCFGActionModel(bs.parse_grammar(DOG_TEXT))
    illegal = ParserState(0.0, chain=(action, None))
    with bs.SubprocessActionModel(_scorer_argv(path)) as remote:
        with pytest.raises(FormatError) as err:
            remote.actions(illegal)
        assert f"illegal action {serialize_action(action)}" in str(err.value)
        assert remote._ids == remote._tokens == remote._lists == {}
        # The session goes on, and the next search starts afresh.
        sent = ["the", "dog", "barks"]
        assert (bs.word_sync_beam(remote, sent).surprisals
                == bs.word_sync_beam(local, sent).surprisals)


@pytest.mark.parametrize("lp", ["nan", "NaN", "inf", "0.5", "1e-300", "x", ""])
def test_scorer_response_rejects_nan_and_positive_log_probs(lp):
    # A NaN leaves the ranking undefined, and a positive log2prob would let
    # a state outscore its parent, which the search relies on never happening.
    with pytest.raises(FormatError, match="bad scorer response entry"):
        bs.parse_action_list(f"NT(S)=-1.0 REDUCE={lp}")


def test_scorer_response_accepts_log_probs_up_to_zero():
    got = bs.parse_action_list("NT(S)=-inf GEN(a)=-0.0 REDUCE=0.0 NT(B)=-1.5")
    assert got == [(nt("S"), -math.inf), (gen("a"), 0.0),
                   (REDUCE, 0.0), (nt("B"), -1.5)]


def test_client_rejects_a_nan_from_the_scorer():
    script = ("import sys\n"
              f"print({bs.PROTOCOL_HEADER!r}, flush=True)\n"
              "for line in sys.stdin:\n"
              "    if line.startswith('QUIT'):\n"
              "        break\n"
              "    print('NT(S)=nan', flush=True)\n")
    with bs.SubprocessActionModel([sys.executable, "-c", script]) as remote:
        with pytest.raises(FormatError, match="'NT\\(S\\)=nan'"):
            bs.word_sync_beam(remote, ["the"])


def test_scorer_wire_is_utf8_whatever_the_environment(tmp_path, monkeypatch):
    # The scorer child inherits an ASCII stdio encoding; a word outside
    # ASCII must still cross the pipe both ways.
    path = tmp_path / "g.pcfg"
    path.write_text("1.0 S -> D N V\n1.0 D -> the\n0.5 N -> caf\u00e9\n"
                    "0.5 N -> dog\n1.0 V -> opens\n", encoding="utf-8")
    sent = ["the", "caf\u00e9", "opens"]
    local = bs.word_sync_beam(bs.PCFGActionModel(bs.read_grammar(path)), sent)
    monkeypatch.setenv("PYTHONIOENCODING", "ascii")
    with bs.SubprocessActionModel(_scorer_argv(path)) as remote:
        got = bs.word_sync_beam(remote, sent)
    assert got.surprisals == local.surprisals == [0.0, 1.0, 0.0]
    assert got.top_parse == local.top_parse


class _InProcessScorer:
    """Stands in for a scorer child and its pipes: each request line the
    client writes is answered at once by ``answer(line)``, in this process.
    Requests and replies are logged."""

    def __init__(self, answer):
        self._answer = answer
        self._out = [bs.PROTOCOL_HEADER + "\n"]
        self.requests: list = []
        self.replies: list = []
        self.returncode = None
        self.stdin = self.stdout = self

    def write(self, text):
        for line in text.splitlines():
            if line == "QUIT":
                self.returncode = 0
                continue
            reply = self._answer(line)
            self.requests.append(line)
            self.replies.append(reply)
            self._out.append(reply + "\n")

    def readline(self):
        return self._out.pop(0) if self._out else ""

    def flush(self):
        pass

    def close(self):
        pass

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        return self.returncode


def _in_process_client(monkeypatch, answer):
    """A SubprocessActionModel whose scorer is ``answer``, and its stand-in."""
    proc = _InProcessScorer(answer)
    with monkeypatch.context() as m:
        m.setattr(bs.subprocess, "Popen", lambda argv, **kwargs: proc)
        return bs.SubprocessActionModel(["scorer"]), proc


def _induced():
    """The induced PCFG and the 60 sentences of ``beam_induced.json``."""
    recorded = json.loads((GOLDEN / "beam_induced.json").read_text())
    return (bs.parse_grammar(recorded["grammar"]),
            [sent.split() for sent in recorded["sentences"]])


def _pcfg_session(grammar):
    return pcfg_scorer.Session(bs.PCFGActionModel(grammar))


def test_scorer_and_client_work_out_each_field_once(monkeypatch):
    # Each side works out a distinct reply field at most once per sentence:
    # the calls are bounded by the sum over sentences of the distinct
    # fields, where parsing and formatting every field took one call each.
    grammar, sentences = _induced()
    calls = {"parse": 0, "format": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(bs, "parse_action_list",
                        counted("parse", bs.parse_action_list))
    monkeypatch.setattr(pcfg_scorer, "format_action_list",
                        counted("format", pcfg_scorer.format_action_list))
    local = bs.PCFGActionModel(grammar)
    session = _pcfg_session(grammar)
    remote, proc = _in_process_client(monkeypatch, session.reply)
    distinct = fields = 0
    with remote:
        for sent in sentences:
            start = len(proc.replies)
            got = bs.word_sync_beam(remote, sent, 10)
            assert got.surprisals == bs.word_sync_beam(local, sent, 10).surprisals
            seen = [f for reply in proc.replies[start:] for f in reply.split("\t")]
            fields += len(seen)
            distinct += len(set(seen))
    assert (len(proc.requests), fields, distinct) == (2982, 10639, 1364)
    assert calls["parse"] == distinct
    # The adapter shares equal lists, so the scorer formats each distinct
    # list once a session, and no two of its texts are the same.
    texts = [text for _, text in session.texts.values()]
    assert calls["format"] == len(texts) == len(set(texts)) == 100


def test_client_accepts_a_scorer_that_omits_nothing(monkeypatch):
    # A scorer that drops only other words' generation actions still
    # conforms.  At word_beam_k 10 no action_beam_k cut binds on the
    # induced sentences, so the dead states it lists change nothing.
    grammar, sentences = _induced()
    remote, proc = _in_process_client(
        monkeypatch, pcfg_scorer.Session(GenPrunedModel(grammar)).reply)
    local = CountingModel(grammar)
    with remote:
        for sent in sentences[:20]:
            got = bs.word_sync_beam(remote, sent, 10)
            want = bs.word_sync_beam(local, sent, 10)
            assert (got.surprisals, got.top_parse) == (want.surprisals,
                                                       want.top_parse)
    # It answers for more states, in more requests.
    assert len(proc.requests) > len(local.batches)
    assert (sum(len(line.split("\t")) for line in proc.replies)
            > sum(local.batches))


def test_client_tables_hold_only_the_last_sentence(monkeypatch):
    grammar, sentences = _induced()
    remote, _ = _in_process_client(monkeypatch, _pcfg_session(grammar).reply)
    fresh, _ = _in_process_client(monkeypatch, _pcfg_session(grammar).reply)
    with remote, fresh:
        for sent in sentences[:50]:
            bs.word_sync_beam(remote, sent, 10)
        bs.word_sync_beam(fresh, sentences[49], 10)
        assert remote._lists == fresh._lists != {}
        assert remote._tokens == fresh._tokens != {}
        assert (sorted(int(sid) for sid, _ in remote._ids.values())
                == list(range(len(fresh._ids))))


def test_scorer_replay_formats_nothing_new(monkeypatch):
    # The same requests served again are answered with the same lines and
    # without one more formatted list.
    grammar, sentences = _induced()
    remote, proc = _in_process_client(monkeypatch, _pcfg_session(grammar).reply)
    with remote:
        for sent in sentences[:20]:
            bs.word_sync_beam(remote, sent, 10)
    session = _pcfg_session(grammar)
    first = [session.reply(line) for line in proc.requests]
    size = len(session.texts)
    again = [session.reply(line) for line in proc.requests]
    assert first == again == proc.replies
    assert len(session.texts) == size


@pytest.mark.parametrize("bad", ["NT(S)=nan", "REDUCE=0.5"])
def test_client_checks_a_field_first_seen_late(monkeypatch, bad):
    # Valid, distinct lists fill the client's table first; a bad list after
    # them is still rejected.
    answered = []

    def answer(line):
        n = len(line.split("\t")[2].split(" "))
        answered.append(n)
        field = bad if len(answered) > 20 else f"NT(S)=-{len(answered)}.0"
        return "\t".join([field] * n)

    remote, _ = _in_process_client(monkeypatch, answer)
    state = INITIAL_STATE
    with remote:
        for _ in range(20):
            state = apply_action(state, nt("S"), 0.0)
            remote.actions(state)
        assert len(remote._lists) == 20
        with pytest.raises(FormatError, match="bad scorer response entry"):
            remote.actions(apply_action(state, nt("S"), 0.0))


@pytest.mark.parametrize("extra", [-1, 1], ids=["too-few", "too-many"])
def test_client_rejects_a_reply_with_the_wrong_field_count(monkeypatch, extra):
    # A short reply would index past its end and a long one would pass
    # unnoticed: the client raises instead, and the next request defines
    # its states afresh from ``ID=``.
    model = bs.PCFGActionModel(bs.parse_grammar(DOG_TEXT))
    session = pcfg_scorer.Session(model)
    garble = [True]

    def answer(line):
        fields = session.reply(line).split("\t")
        if garble:
            garble.pop()
            fields = fields[:-1] if extra < 0 else fields + fields[-1:]
        return "\t".join(fields)

    remote, proc = _in_process_client(monkeypatch, answer)
    state = apply_action(INITIAL_STATE, nt("S"), 0.0)
    with remote:
        with pytest.raises(FormatError, match=f"scorer answered {2 + extra} of 2 states"):
            remote.actions(state)
        assert remote._ids == remote._tokens == remote._lists == {}
        assert remote.actions(state) == model.actions(state)
    assert [line.split("\t")[2] for line in proc.requests] == ["0= 1=0:NT(S)"] * 2


def test_client_actions_returns_a_fresh_list(monkeypatch):
    model = bs.PCFGActionModel(bs.parse_grammar(DOG_TEXT))
    remote, _ = _in_process_client(
        monkeypatch, pcfg_scorer.Session(model).reply)
    state = apply_action(INITIAL_STATE, nt("S"), 0.0)
    with remote:
        got = remote.actions(state)
        expected = model.actions(state)
        assert got == expected
        got.clear()
        assert remote.actions(state) == expected
