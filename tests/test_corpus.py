import json
import pathlib
import textwrap

import pytest
from hypothesis import given, strategies as st

from syntaxprobe import corpus
from syntaxprobe.corpus import (
    DEFAULT_BUCKETS,
    LexiconStats,
    Tree,
    TransitivityClass,
    TreebankParseError,
    active_only_verbs,
    build_lexicon,
    classify_transitivity,
    exposure_bucket,
    filter_polar_overlap,
    parse_treebank,
    vbn_fraction,
)
from syntaxprobe.errors import InputError

DATA = pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Tree parsing


def test_parse_simple_tree():
    trees = parse_treebank("(S (NP (DT The) (NN president)) (VP (VBZ is)))")
    assert len(trees) == 1
    assert list(trees[0].terminals()) == [
        ("The", "DT"), ("president", "NN"), ("is", "VBZ")]


def test_parse_unclosed_reports_offset():
    with pytest.raises(TreebankParseError) as err:
        parse_treebank("((S (NN a))")
    assert err.value.offset == 0


def test_parse_concatenated_corpus():
    text = "(S (NP (DT The) (NN president)) (VP (VBZ is)))\n" * 2
    trees = parse_treebank(text)
    assert len(trees) == 2
    assert sum(len(list(t.terminals())) for t in trees) == 6


def test_parse_empty_label_rejected():
    with pytest.raises(TreebankParseError):
        parse_treebank("(S ( x))")
    with pytest.raises(TreebankParseError):
        parse_treebank("( (S (NN a)) (S (NN b)))")


def test_parsed_nodes_equal_constructed_nodes():
    # The parser builds nodes without the constructor; a whole-token leaf,
    # a leaf cut by a newline and an internal node must each equal the one
    # the constructor builds, and every leaf holds the one empty children.
    (parsed,) = parse_treebank("(S (NN dog) (VP (VBZ runs\n)))")
    built = Tree("S", [Tree("NN", word="dog"),
                       Tree("VP", (Tree("VBZ", [], "runs"),))])
    assert parsed == built
    assert hash(parsed) == hash(built)
    leaves = [parsed.children[0], parsed.children[1].children[0],
              built.children[0], built.children[1].children[0]]
    assert all(leaf.children is leaves[0].children == () for leaf in leaves)
    assert type(parsed.children) is list
    with pytest.raises(ValueError):
        Tree("NN", [Tree("NN", word="dog")], "dogs")


def test_a_read_shares_equal_leaves():
    (parsed,) = parse_treebank("(S (NN a) (VP (NN a)))")
    assert parsed.children[0] is parsed.children[1].children[0]
    assert parsed == Tree("S", [Tree("NN", word="a"), Tree("VP", [Tree("NN", word="a")])])


def test_parse_unwraps_ptb_top_bracket():
    trees = parse_treebank("( (S (NN dog)) )")
    assert trees[0].label == "S"


def test_read_treebank_skips_comments(tmp_path):
    path = tmp_path / "c.mrg"
    path.write_text("# header\n(S (NN a))\n")
    assert len(corpus.read_treebank(path)) == 1


_RECORDED = json.loads((DATA / "golden" / "treebank_parse.json").read_text())


@pytest.mark.parametrize("case", _RECORDED, ids=[c["name"] for c in _RECORDED])
def test_parse_matches_recorded(case):
    """Comment-free inputs give the trees, or the message and offset, that
    the recursive parser gave."""
    if "trees" in case:
        assert [t.pretty() for t in parse_treebank(case["text"])] == case["trees"]
    else:
        with pytest.raises(TreebankParseError) as err:
            parse_treebank(case["text"])
        assert (str(err.value), err.value.offset) == (case["error"], case["offset"])


@pytest.mark.parametrize("case", _RECORDED, ids=[c["name"] for c in _RECORDED])
def test_parse_in_small_pieces_matches_recorded(case, monkeypatch):
    """Cutting the text before every newline changes no tree, message or
    offset."""
    monkeypatch.setattr(corpus, "_CHUNK", 1)
    test_parse_matches_recorded(case)


def test_parse_skips_whole_comment_lines():
    text = "# head\n(S (NN a)\n  # inside a tree\n (# #))\n#tail"
    assert [t.pretty() for t in parse_treebank(text)] == ["(S (NN a) (# #))"]


def test_parse_in_small_pieces_skips_whole_comment_lines(monkeypatch):
    monkeypatch.setattr(corpus, "_CHUNK", 1)
    test_parse_skips_whole_comment_lines()


def test_read_treebank_error_names_file_line_and_offset(tmp_path):
    text = ("# header\n(S (NP (NN a))\n   (VP (VB b)))\n# between trees\n"
            "(S (NP (NN c))\n(S (NN d))\n")
    path = tmp_path / "broken.mrg"
    path.write_text(text)
    with pytest.raises(TreebankParseError) as err:
        corpus.read_treebank(path)
    assert err.value.offset == text.index("(S (NP (NN c))")
    assert str(err.value).startswith(f"{path}:5: unclosed '('")


def test_iter_treebank_yields_the_trees_before_a_malformed_one(tmp_path):
    text = ("(S (NN a))\n# between trees\n(S (NN b))\n"
            "(S (NP (NN c))\n(S (NN d))\n")
    path = tmp_path / "broken.mrg"
    path.write_text(text)
    trees = corpus.iter_treebank(path)
    assert [next(trees).pretty() for _ in range(2)] == ["(S (NN a))", "(S (NN b))"]
    with pytest.raises(TreebankParseError) as streamed:
        next(trees)
    with pytest.raises(TreebankParseError) as whole:
        corpus.read_treebank(path)
    assert str(streamed.value).startswith(f"{path}:4: unclosed '('")
    assert (str(streamed.value), streamed.value.offset) == \
        (str(whole.value), whole.value.offset)


_labels = st.sampled_from(["S", "NP", "VP", "PP", "ADJP"])
_tags = st.sampled_from(["DT", "NN", "NNS", "VBZ", "JJ"])
_words = st.sampled_from(["the", "dog", "dogs", "runs", "big"])


def _tree_strategy():
    leaf = st.builds(lambda t, w: Tree(t, word=w), _tags, _words)
    return st.recursive(
        leaf,
        lambda children: st.builds(
            lambda lb, cs: Tree(lb, cs), _labels,
            st.lists(children, min_size=1, max_size=3)),
        max_leaves=12,
    )


@given(_tree_strategy())
def test_print_parse_round_trip(tree):
    text = tree.pretty()
    parsed = parse_treebank(text)
    assert parsed == [tree]
    assert parsed[0].pretty() == text


# ---------------------------------------------------------------------------
# Lexicon statistics


def test_counts_accumulate():
    trees = parse_treebank("(S (NN president))" * 3)
    lex = build_lexicon(trees)
    assert lex.count("president") == 3
    assert dict(lex.stats("president").pos) == {"NN": 3}


def test_object_absent_for_bare_vp():
    lex = build_lexicon(parse_treebank("(S (NP (NNS dogs)) (VP (VBD slept)))"))
    assert lex.stats("slept").obj_absent == 1
    assert lex.stats("slept").obj_present == 0


def test_object_present_needs_following_np():
    lex = build_lexicon(parse_treebank(
        "(S (NP (NN man)) (VP (VBD saw) (NP (DT the) (NN dog))))"))
    assert lex.stats("saw").obj_present == 1


def test_terminals_skip_empty_elements():
    trees = parse_treebank(
        "(S (NP-SBJ (-NONE- *)) (VP (VB Say) (SBAR (-NONE- 0) (S (NP (PRP he)) "
        "(VP (VBD bought) (NP (-NONE- *T*-1)))))) (. .))")
    assert list(trees[0].terminals()) == [("Say", "VB"), ("he", "PRP"),
                                          ("bought", "VBD"), (".", ".")]
    lex = build_lexicon(trees)
    assert lex.words() == [".", "Say", "bought", "he"]
    # Object evidence reads the bracketing: the trace NP is bought's object.
    assert lex.stats("bought").obj_present == 1


def test_inversion_detector_starts_at_the_first_word():
    # The subject NP is searched right of the auxiliary, not of the trace.
    lex = build_lexicon(parse_treebank(
        "(S (NP-SBJ (-NONE- *)) (VP (VBZ Is) (NP (DT the) (NN dog)) (ADJP (JJ ok))))"))
    assert lex.stats("dog").inverted == 1


def test_inversion_detector_on_hand_annotated_trees():
    # Five-tree toy treebank, inverted subjects marked by hand:
    # president (yes), issues (yes), dog (no: declarative), panel (yes),
    # man (no: aux not sentence-initial).
    text = textwrap.dedent("""\
        (SQ (VBZ Is) (NP (DT the) (NN president)) (ADJP (JJ good)) (. ?))
        (SQ (VBP Are) (NP (DT the) (NNS issues)) (ADJP (JJ big)) (. ?))
        (S (NP (DT The) (NN dog)) (VP (VBZ is) (ADJP (JJ good))) (. .))
        (SINV (VBD Was) (NP (DT the) (JJ old) (NN panel)) (ADJP (JJ red)) (. ?))
        (S (NP (DT The) (NN man)) (VP (VBZ is) (NP (DT a) (NN judge))) (. .))
        """)
    lex = build_lexicon(parse_treebank(text))
    assert lex.stats("president").inverted == 1
    assert lex.stats("issues").inverted == 1
    assert lex.stats("panel").inverted == 1
    assert lex.stats("dog").inverted == 0
    assert lex.stats("man").inverted == 0
    assert lex.stats("judge").inverted == 0


def test_build_lexicon_requires_trees():
    with pytest.raises(InputError):
        build_lexicon([])


def test_lowercase_merge_flag():
    trees = parse_treebank("(S (DT The) (NN dog)) (S (DT the) (NN dog))")
    assert build_lexicon(trees).count("The") == 1
    folded = build_lexicon(trees, lowercase=True)
    assert folded.count("The") == folded.count("the") == 2


def test_dependency_sidecar_overrides_heuristic(tmp_path):
    # Heuristic would say "slept" has no object; the sidecar says it heads one.
    trees = parse_treebank("(S (NP (NNS dogs)) (VP (VBD slept) (NP (NN here))))"
                           "(S (NP (NNS cats)) (VP (VBD ran)))")
    sidecar = tmp_path / "deps.tsv"
    sidecar.write_text("1\t1\t2\tnsubj\n2\t1\t2\tnsubj\n")
    deps = corpus.read_dependency_sidecar(sidecar)
    lex = build_lexicon(trees, dependencies=deps)
    # Covered sentences use only the sidecar: no obj rows, so obj_absent.
    assert lex.stats("slept").obj_present == 0
    assert lex.stats("slept").obj_absent == 1

    sidecar.write_text("1\t3\t2\tobj\n")
    deps = corpus.read_dependency_sidecar(sidecar)
    lex = build_lexicon(trees, dependencies=deps)
    assert lex.stats("slept").obj_present == 1
    assert lex.stats("ran").obj_absent == 1  # uncovered sentence: heuristic


def test_lexicon_tsv_round_trip(tmp_path, toy_lex):
    path = tmp_path / "lex.tsv"
    corpus.write_lexicon(toy_lex, path)
    again = corpus.read_lexicon(path)
    assert again == toy_lex
    assert corpus.lexicon_digest(again) == corpus.lexicon_digest(toy_lex)


def test_lexicons_one_count_apart_differ(toy_trees):
    one = build_lexicon(toy_trees, lowercase=True)
    other = build_lexicon(toy_trees, lowercase=True)
    assert one == other
    other._entry(one.words()[0]).vbn += 1
    assert one != other and other != one


def test_lexicon_keeps_words_that_start_with_pound(tmp_path):
    # PTB writes the pound sign as (# #); only the column line is skipped.
    lex = build_lexicon(parse_treebank("(S (NP (# #) (CD 200)) (NN million))\n"
                                       "(S (NN #1) (VBD went))"))
    path = tmp_path / "lex.tsv"
    corpus.write_lexicon(lex, path)
    again = corpus.read_lexicon(path)
    assert again.words() == lex.words() and len(again.words()) == 5
    assert again == lex
    assert corpus.lexicon_digest(again) == corpus.lexicon_digest(lex)


# ---------------------------------------------------------------------------
# Exposure buckets


def test_bucket_examples():
    assert exposure_bucket(4).id == 4
    assert exposure_bucket(15).id == 20
    assert exposure_bucket(40) is None


def test_bucket_partition_0_to_200():
    in_exactly_one = set(range(2, 31)) | set(range(50, 101))
    for count in range(0, 201):
        matches = [b for b in DEFAULT_BUCKETS if b.lo <= count <= b.hi]
        assert len(matches) <= 1
        if count in in_exactly_one:
            assert len(matches) == 1
            assert exposure_bucket(count) == matches[0]
        else:
            assert exposure_bucket(count) is None


def test_bucket_table_parse():
    table = corpus.parse_bucket_table("2:2-2,10:3-10")
    assert exposure_bucket(7, table).id == 10
    # overlapping, label 0, lo > hi, no buckets
    for spec in ("2:2-5,4:4-6", "0:0-4", "5:9-3", "", " , "):
        with pytest.raises(corpus.FormatError):
            corpus.parse_bucket_table(spec)
    with pytest.raises(corpus.FormatError, match="label 4 given twice: 3-4 and 5-6"):
        corpus.parse_bucket_table("4:3-4,4:5-6")


# ---------------------------------------------------------------------------
# Classification


def _verb_lex(present, absent, total=None, vbd=None):
    lex = LexiconStats()
    entry = lex._entry("verb")
    entry.obj_present = present
    entry.obj_absent = absent
    entry.total = total if total is not None else present + absent
    entry.pos["VBD"] = vbd if vbd is not None else entry.total
    return lex


def test_transitive_kept_at_threshold():
    calls = classify_transitivity(_verb_lex(9, 1), {"verb": "transitive"})
    assert calls["verb"].klass is TransitivityClass.TRANSITIVE
    assert calls["verb"].obj_fraction == pytest.approx(0.9)


def test_intransitive_excluded_above_lo():
    calls = classify_transitivity(_verb_lex(2, 8), {"verb": "intransitive"})
    assert calls["verb"].klass is TransitivityClass.EXCLUDED
    assert calls["verb"].reason == "object-fraction-above-lo"


def test_absent_verb_excluded_with_reason():
    calls = classify_transitivity(LexiconStats(), {"verb": "transitive"})
    assert calls["verb"].klass is TransitivityClass.EXCLUDED
    assert calls["verb"].reason == "not-in-corpus"


def test_verb_without_object_evidence_excluded_with_reason():
    # In the corpus, but never seen with or without an object.
    calls = classify_transitivity(_verb_lex(0, 0, total=3), {"verb": "transitive"})
    assert calls["verb"].klass is TransitivityClass.EXCLUDED
    assert calls["verb"].reason == "no-object-evidence"
    assert calls["verb"].obj_fraction is None


@given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 20))
def test_transitive_monotone_in_object_evidence(present, absent, extra):
    base = classify_transitivity(_verb_lex(present, absent),
                                 {"verb": "transitive"})["verb"]
    more = classify_transitivity(_verb_lex(present + extra, absent),
                                 {"verb": "transitive"})["verb"]
    if base.klass is TransitivityClass.TRANSITIVE:
        assert more.klass is TransitivityClass.TRANSITIVE


def test_vbn_fraction():
    lex = LexiconStats()
    entry = lex._entry("cured")
    entry.total, entry.vbn = 12, 3
    assert vbn_fraction(lex, "cured") == 0.25
    entry2 = lex._entry("tested")
    entry2.total, entry2.vbn = 7, 0
    assert vbn_fraction(lex, "tested") == 0.0
    with pytest.raises(InputError):
        vbn_fraction(lex, "unseen")


def test_filter_polar_overlap():
    lex = LexiconStats()
    lex._entry("president").inverted = 1
    lex._entry("client").inverted = 0
    kept, removed = filter_polar_overlap(["president", "client"], lex)
    assert kept == ["client"] and removed == ["president"]
    kept2, removed2 = filter_polar_overlap(["client"], lex)
    assert kept2 == ["client"] and removed2 == []


def test_active_only_verbs():
    lex = LexiconStats()
    slept = lex._entry("slept")
    slept.pos["VBD"] = 4
    cured = lex._entry("cured")
    cured.pos["VBD"], cured.vbn = 3, 2
    gave = lex._entry("gave")
    gave.pos["VBD"] = 5
    assert active_only_verbs(lex) == ["gave", "slept"]
    assert active_only_verbs(lex, frozenset({"gave"})) == ["slept"]


def test_toy_treebank_matches_generator(toy_text):
    from syntaxprobe import toydata
    shipped = toydata.toy_treebank_path().read_text(encoding="utf-8")
    assert shipped == toy_text
