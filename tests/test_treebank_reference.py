"""The treebank parser and the lexicon fold against reference implementations.

``_reference_parse`` is the one-token-per-bracket-and-atom loop the parser
used before it read whole leaves and labelled brackets as single tokens, and
``_reference_lexicon`` the fold that split each node's label as it walked.
Both stay here as oracles: the parser must give the same trees, or the same
message and offset, on any text, and the fold the same statistics.
"""

import itertools
import pathlib
import random
import re
import tempfile
import tracemalloc
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from syntaxprobe import corpus, toydata
from syntaxprobe.corpus import (DEFAULT_OBJECT_TAGS, LexiconStats, Tree, TreebankParseError,
                                base_label, build_lexicon, parse_treebank)
from syntaxprobe.errors import InputError

DATA = pathlib.Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# Reference parser: one token per bracket, atom or comment line.

_REF_TOKEN = re.compile(r"\n[^\S\n]*#.*|[()]|[^\s()]+")


def _ref_error(text, k, message):
    m = next(islice(_REF_TOKEN.finditer("\n" + text), k, None))
    return TreebankParseError(message, offset=m.start() - 1)


def _reference_parse(text):
    trees = []
    stack = []  # open brackets: [token index, label, children, word]
    for k, tok in enumerate(_REF_TOKEN.findall("\n" + text)):
        if tok == "(":
            if stack:
                top = stack[-1]
                if top[1] is None:
                    top[1] = ""
                elif top[3] is not None:
                    raise _ref_error(text, k, "child after terminal word")
            stack.append([k, None, [], None])
        elif tok[0] == "\n":
            continue
        elif not stack:
            raise _ref_error(text, k, f"expected '(' but found {tok[0]!r}")
        elif tok == ")":
            opened, label, children, word = stack.pop()
            if word is not None:
                node = Tree(label, word=word)
            elif not children:
                raise _ref_error(text, opened, "empty constituent")
            elif label:
                node = Tree(label, children)
            elif len(children) == 1:
                node = children[0]
            else:
                raise _ref_error(text, opened, "empty node label")
            (stack[-1][2] if stack else trees).append(node)
        else:
            top = stack[-1]
            if top[1] is None:
                top[1] = tok
            elif top[2] or top[3] is not None:
                raise _ref_error(text, k, f"unexpected token {tok!r}")
            else:
                top[3] = tok
    if stack:
        raise _ref_error(text, stack[-1][0], "unclosed '('")
    return trees


def _outcome(parse, text):
    """The pretty trees, or the error's message and offset."""
    try:
        return [t.pretty() for t in parse(text)]
    except TreebankParseError as exc:
        return (str(exc), exc.offset)


def _file_outcome(text):
    """What ``read_treebank`` gives for ``text`` written to a file, with the
    path taken out of an error's message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "t.mrg"
        path.write_bytes(text.encode("utf-8"))
        try:
            return [t.pretty() for t in corpus.read_treebank(path)]
        except TreebankParseError as exc:
            prefix, line, message = str(exc).split(":", 2)
            assert prefix == str(path)
            return (message.lstrip(), exc.offset), int(line)


# Fragments of bracket text; most draws are malformed.
_FRAGMENTS = ["(", ")", " ", "\t", "\r", "\n", "#", "-NONE-", "a", "NN", "S", "VP-1",
              "*-1", "(NN a)", "(S ", ") "]
_WHITESPACE = st.sampled_from([" ", "  ", "\t", "\n", " \n ", "\r\n", "\r"])


def _well_formed():
    """Bracketings of random trees with random whitespace and comment lines
    in place of each single space."""
    leaf = st.builds(lambda t, w: Tree(t, word=w),
                     st.sampled_from(["NN", "VBD", "-NONE-", "#"]),
                     st.sampled_from(["a", "dogs", "*-1", "#", "0"]))
    trees = st.recursive(
        leaf, lambda kids: st.builds(Tree, st.sampled_from(["S", "NP-SBJ", "VP"]),
                                     st.lists(kids, min_size=1, max_size=3)),
        max_leaves=8)
    gaps = st.lists(st.one_of(_WHITESPACE, st.just("\n# note\n"), st.just("\n  #x (\n")),
                    min_size=64, max_size=64)

    def render(forest, gaps):
        text = " ".join(t.pretty() for t in forest)
        parts = text.split(" ")
        return "".join(part + gap for part, gap in zip(parts, itertools.cycle(gaps)))

    return st.builds(render, st.lists(trees, min_size=1, max_size=3), gaps)


def _broken():
    """A well-formed text with a fragment put in, or a slice taken out, at
    a random place."""
    def edit(text, at, fragment, cut):
        at %= len(text) + 1
        return text[:at] + fragment + text[at + cut:]

    return st.builds(edit, _well_formed(), st.integers(0, 400),
                     st.sampled_from(_FRAGMENTS + [""]), st.integers(0, 3))


_TEXTS = st.one_of(st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
                   _well_formed(), _broken())


@pytest.mark.parametrize("chunk", [corpus._CHUNK, 1])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_TEXTS)
@example(text="(S (NN a\n) (VB\nb) (NP (DT the)\n(NN dog)) (VP (VBD saw) (NP b c)))")
def test_parse_matches_the_reference_parser(chunk, text):
    expected = _outcome(_reference_parse, text)
    with mock.patch.object(corpus, "_CHUNK", chunk):
        assert _outcome(parse_treebank, text) == expected


@pytest.mark.parametrize("chunk", [corpus._CHUNK, 1])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=_TEXTS)
def test_read_treebank_matches_the_reference_parser(chunk, text):
    """A file is read with universal newlines, so the reference parses the
    text as read back; an error also names its line."""
    as_read = text.replace("\r\n", "\n").replace("\r", "\n")
    expected = _outcome(_reference_parse, as_read)
    if isinstance(expected, tuple):
        expected = expected, as_read.count("\n", 0, expected[1]) + 1
    with mock.patch.object(corpus, "_CHUNK", chunk):
        assert _file_outcome(text) == expected


def test_reading_a_treebank_holds_a_piece_not_the_file(tmp_path):
    """The peak memory of folding a file does not grow with its length once
    it is a few pieces long (the toy treebank is four and a half)."""
    text = toydata.toy_treebank_path().read_text(encoding="utf-8")
    peaks = []
    for copies in (1, 4):
        path = tmp_path / f"{copies}.mrg"
        path.write_text(text * copies, encoding="utf-8")
        tracemalloc.start()
        try:
            build_lexicon(corpus.iter_treebank(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


# ---------------------------------------------------------------------------
# Reference fold: base labels split at every node.


def _reference_object_evidence(tree):
    evidence = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if not node.is_terminal and base_label(node.label) == "VP":
            for i, child in enumerate(node.children):
                if child.is_terminal and child.label in DEFAULT_OBJECT_TAGS:
                    has_np = any(
                        not sib.is_terminal and base_label(sib.label) == "NP"
                        for sib in node.children[i + 1:]
                    )
                    evidence.append((child.word, has_np))
        stack.extend(reversed(node.children))
    return evidence


def _reference_lexicon(trees, *, lowercase=False, dependencies=None):
    lex = LexiconStats(lowercase=lowercase)
    sent_id = 0
    for sent_id, tree in enumerate(trees, start=1):
        terms = list(tree.terminals())
        for word, tag in terms:
            entry = lex._entry(word)
            entry.total += 1
            entry.pos[tag] += 1
            if tag == "VBN":
                entry.vbn += 1
        if dependencies is not None and sent_id in dependencies:
            obj_heads = dependencies[sent_id]
            evidence = [(word, idx in obj_heads)
                        for idx, (word, tag) in enumerate(terms, start=1)
                        if tag in DEFAULT_OBJECT_TAGS]
        else:
            evidence = _reference_object_evidence(tree)
        for word, has_object in evidence:
            entry = lex._entry(word)
            if has_object:
                entry.obj_present += 1
            else:
                entry.obj_absent += 1
        inverted_noun = corpus._detect_inversion(tree)
        if inverted_noun is not None:
            lex._entry(inverted_noun).inverted += 1
    if not sent_id:
        raise InputError("build_lexicon requires at least one tree")
    return lex


@pytest.mark.parametrize("lowercase", [False, True])
@pytest.mark.parametrize("source", ["toy", "traces"])
def test_fold_matches_the_reference_on_the_treebanks(source, lowercase):
    path = toydata.toy_treebank_path() if source == "toy" else DATA / "traces.mrg"
    trees = corpus.read_treebank(path)
    assert build_lexicon(trees, lowercase=lowercase) == \
        _reference_lexicon(trees, lowercase=lowercase)


_LABELS = ["S", "SQ", "VP", "VP-TPC-1", "NP", "NP=2", "NP-SBJ", "NP-SBJ-1", "PP", "-X"]
_LEAVES = [("VB", "give"), ("VBD", "saw"), ("VBP", "see"), ("VBZ", "Is"), ("VBZ", "is"),
           ("VBN", "seen"), ("VBD", "Was"), ("NN", "dog"), ("NNS", "Dogs"),
           ("NNP", "Kim"), ("DT", "the"), ("-NONE-", "*-1"), ("-NONE-", "0"), (".", ".")]


def _random_tree(rng, depth=0):
    if depth >= 4 or rng.random() < 0.3:
        tag, word = rng.choice(_LEAVES)
        return Tree(tag, word=word)
    if rng.random() < 0.15:  # a trace object
        return Tree("NP", [Tree("-NONE-", word="*-1")])
    return Tree(rng.choice(_LABELS),
                [_random_tree(rng, depth + 1) for _ in range(rng.randint(1, 4))])


def _nodes(tree):
    yield tree
    for child in tree.children:
        yield from _nodes(child)


@pytest.mark.parametrize("lowercase", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_fold_matches_the_reference_on_generated_trees(seed, lowercase):
    rng = random.Random(seed)
    trees = [_random_tree(rng) for _ in range(300)]
    labels = {node.label for tree in trees for node in _nodes(tree)}
    assert {"VP-TPC-1", "NP=2", "NP-SBJ"} <= labels
    # Every third sentence is covered by a sidecar naming random object heads.
    deps = {sent_id: frozenset(rng.sample(range(1, 8), rng.randint(0, 3)))
            for sent_id in range(1, len(trees) + 1, 3)}
    for dependencies in (None, deps):
        assert build_lexicon(trees, lowercase=lowercase, dependencies=dependencies) == \
            _reference_lexicon(trees, lowercase=lowercase, dependencies=dependencies)


def test_fold_reads_a_trace_object_and_a_sidecar():
    (tree,) = parse_treebank("(S (NP-SBJ-1 (NN plan))"
                             " (VP-TPC-1 (VBD saw) (NP=2 (-NONE- *-1)))"
                             " (VP (VBZ sees) (PP (IN of))))")
    lex = build_lexicon([tree])
    assert (lex.stats("saw").obj_present, lex.stats("sees").obj_absent) == (1, 1)
    assert lex == _reference_lexicon([tree])
    deps = {1: frozenset({3})}  # plan=1, saw=2, sees=3, of=4
    lex = build_lexicon([tree], dependencies=deps)
    assert (lex.stats("saw").obj_absent, lex.stats("sees").obj_present) == (1, 1)
    assert lex == _reference_lexicon([tree], dependencies=deps)
    # A question whose first leaf is empty: its first surface word opens it.
    (tree,) = parse_treebank("(SQ (-NONE- *T*) (VBZ Is) (NP (DT the) (NN plan))"
                             " (ADJP (JJ good)))")
    lex = build_lexicon([tree])
    assert lex.stats("plan").inverted == 1
    assert lex == _reference_lexicon([tree])
