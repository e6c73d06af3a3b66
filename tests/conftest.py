import random

import pytest

from syntaxprobe import beamsearch, corpus, ngram, suites, toydata


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


# ---------------------------------------------------------------------------
# Random small PCFGs for the beam-search properties: nonterminals are
# stratified by level, so every grammar has a finite language and a finite,
# enumerable parse set.


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


def sample_sentence(grammar, rng):
    out = []

    def expand(symbol):
        if symbol in grammar.terminals:
            out.append(symbol)
            return
        rules = grammar.by_lhs[symbol]
        rule = rng.choices(rules, weights=[r.prob for r in rules])[0]
        for s in rule.rhs:
            expand(s)

    expand(grammar.start)
    return out
