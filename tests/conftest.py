import math
import random
from dataclasses import dataclass

import pytest

from syntaxprobe import beamsearch, corpus, ngram, suites, toydata
from syntaxprobe.actions import GEN, INITIAL_STATE, bracket, expand
from syntaxprobe.errors import InputError


@pytest.fixture(scope="session")
def toy_text():
    return toydata.build_toy_treebank()


@pytest.fixture(scope="session")
def toy_trees(toy_text):
    return corpus.parse_treebank(toy_text)


@pytest.fixture(scope="session")
def toy_lex(toy_trees):
    return corpus.build_lexicon(toy_trees, lowercase=True)


@pytest.fixture(scope="session")
def suite_defs():
    return suites.read_suite_defs(toydata.default_suites_path())


@pytest.fixture(scope="session")
def resources(toy_lex):
    marks = corpus.read_transitivity_lexicon(toydata.default_transitivity_path())
    irregular = corpus.read_irregular_verbs(toydata.default_irregular_path())
    calls = corpus.classify_transitivity(toy_lex, marks)
    return suites.SuiteResources(calls, irregular)


@pytest.fixture(scope="session")
def toy_model(toy_trees):
    sentences = [[w for w, _ in t.terminals()] for t in toy_trees]
    return ngram.train(sentences, order=5)


@pytest.fixture(scope="session")
def toy_suites(toy_lex, suite_defs, resources):
    """Lazily generated suites keyed by id, shared across tests."""
    cache = {}

    def get(suite_id, seed=13):
        key = (suite_id, seed)
        if key not in cache:
            cache[key] = suites.generate_suite(
                suite_id, suite_defs, toy_lex, seed, resources=resources)
        return cache[key]

    return get


class CountingModel(beamsearch.PCFGActionModel):
    """Records the number of states in each ``actions_for`` call."""

    def __init__(self, grammar):
        super().__init__(grammar)
        self.batches = []

    def actions_for(self, states, next_word=None):
        self.batches.append(len(states))
        return super().actions_for(states, next_word)


class GenPrunedModel(CountingModel):
    """The PCFG adapter under the older contract: given a next word, only
    the generation actions of other words are dropped."""

    def actions_for(self, states, next_word=None):
        lists = super().actions_for(states)
        if next_word is None:
            return lists
        return [tuple(p for p in actions
                      if p[0][0] != GEN or p[0][1] == next_word)
                for actions in lists]


# ---------------------------------------------------------------------------
# The exhaustive oracle for the search.


class OracleInfeasible(Exception):
    """A derivation ran past the oracle's action bound."""


@dataclass
class ExactResult:
    marginals: list
    surprisals: list
    complete_logprob: float
    parses: list  # (bracketed string, log2 prob), best first


def exact_marginal(model, sentence, max_actions=500) -> ExactResult:
    """Exhaustive enumeration oracle for the search.

    Enumerates every prefix-compatible action sequence (generation actions
    must emit the observed words in order), accumulating exact prefix
    probabilities; a sentence outside the grammar's language yields a
    marginal of -inf at the failing word.  Any derivation path exceeding
    ``max_actions`` raises, since the action set is then not known to be
    finitely enumerable.  The model is asked one state at a time, with no
    next word, so it omits no action.
    """
    sentence = list(sentence)
    if not sentence:
        raise InputError("empty sentence")
    n = len(sentence)
    prefix_logs: list = [[] for _ in range(n + 1)]
    complete_logs: list = []
    parses: list = []

    stack = [(INITIAL_STATE, 0, 0)]  # (state, actions taken, words generated)
    while stack:
        state, depth, words = stack.pop()
        if depth > max_actions:
            raise OracleInfeasible(
                f"derivation exceeded {max_actions} actions; grammar not "
                "finitely enumerable under this bound")
        (actions,) = model.actions_for((state,))
        if not actions:
            if state.is_complete and words == n:
                complete_logs.append(state.logprob)
                parses.append((bracket(state.history), state.logprob))
            continue
        generating, structural = expand(
            (state,), (actions,), sentence[words] if words < n else None)
        if generating:
            prefix_logs[words + 1].extend(s.logprob for s in generating)
        stack.extend((succ, depth + 1, words + 1) for succ in generating)
        stack.extend((succ, depth + 1, words) for succ in structural)

    marginals = [beamsearch.log2sumexp(prefix_logs[t]) for t in range(1, n + 1)]
    prev = 0.0
    surprisals = []
    for m in marginals:
        surprisals.append(prev - m if m != -math.inf else math.inf)
        prev = m
    parses.sort(key=lambda pair: (-pair[1], pair[0]))
    return ExactResult(marginals, surprisals, beamsearch.log2sumexp(complete_logs),
                       parses)


# ---------------------------------------------------------------------------
# Random small PCFGs for the beam-search properties.  ``random_pcfg``
# stratifies nonterminals by level, so every grammar has a finite language
# and a finite, enumerable parse set; ``random_recursive_pcfg`` does not.


def random_pcfg(seed):
    rng = random.Random(seed)
    terminals = [f"w{i}" for i in range(4)]
    levels = {
        0: ["S"],
        1: [f"A{i}" for i in range(rng.randint(2, 3))],
        2: [f"B{i}" for i in range(rng.randint(2, 3))],
    }
    rules = []
    for level in (0, 1, 2):
        for lhs in levels[level]:
            n = rng.randint(2, 3)
            weights = [rng.uniform(0.2, 1.0) for _ in range(n)]
            total = sum(weights)
            for w in weights:
                pool = (levels[level + 1] + terminals) if level < 2 else terminals
                rhs = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
                rules.append(beamsearch.Rule(lhs, rhs, w / total))
    return beamsearch.ToyPCFG("S", rules)


def sample_sentence(grammar, rng, max_words=None):
    """A sentence drawn from ``grammar`` top-down, left to right.  Given
    ``max_words``, None once the derivation yields more words than that or
    expands 50 times as many symbols: a recursive grammar need not stop."""
    out = []
    pending = [grammar.start]
    budget = math.inf if max_words is None else 50 * max_words
    while pending:
        if budget <= 0:
            return None
        budget -= 1
        symbol = pending.pop()
        if symbol in grammar.terminals:
            out.append(symbol)
            if max_words is not None and len(out) > max_words:
                return None
            continue
        rules = grammar.by_lhs[symbol]
        rule = rng.choices(rules, weights=[r.prob for r in rules])[0]
        pending.extend(reversed(rule.rhs))
    return out


def random_recursive_pcfg(seed):
    """A random PCFG whose rules may reach any nonterminal, the start symbol
    included, so that its language is infinite; about half the rules that
    may recurse put their own left-hand side first (left recursion).

    Some nonterminals have a single rule of probability 1: a unary rule to
    a later nonterminal, or one word.  With the many rules of equal weight
    this gives many partial derivations the same log probability, and
    actions of log probability 0.  Every nonterminal derives a sentence:
    each one that is not unary to a later one has a rule of words alone.
    """
    rng = random.Random(seed)
    terminals = [f"w{i}" for i in range(3)]
    nonterminals = ["S"] + [f"N{i}" for i in range(rng.randint(2, 4))]
    symbols = nonterminals + terminals
    rules = []
    for i, lhs in enumerate(nonterminals):
        shape = rng.random() if i else 1.0
        if shape < 0.3 and i < len(nonterminals) - 1:
            later = rng.choice(nonterminals[i + 1:])
            rules.append(beamsearch.Rule(lhs, (later,), 1.0))
            continue
        if shape < 0.5:
            rules.append(beamsearch.Rule(lhs, (rng.choice(terminals),), 1.0))
            continue
        rhss = [tuple(rng.choice(terminals) for _ in range(rng.randint(1, 2)))]
        for _ in range(rng.randint(1, 2)):
            rhs = [rng.choice(symbols) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                rhs[0] = lhs
            rhss.append(tuple(rhs))
        rng.shuffle(rhss)
        weights = [rng.choice((1.0, 1.0, rng.uniform(0.2, 1.0))) for _ in rhss]
        total = sum(weights)
        rules.extend(beamsearch.Rule(lhs, rhs, w / total)
                     for rhs, w in zip(rhss, weights))
    return beamsearch.ToyPCFG("S", rules)
