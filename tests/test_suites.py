import pytest

from syntaxprobe import corpus, suites
from syntaxprobe.corpus import ExposureBucket, LexiconStats
from syntaxprobe.errors import EmptyPoolError, FormatError, GenerationError
from syntaxprobe.suites import (
    SuiteResources,
    generate_suite,
    instantiate,
    parse_suite_defs,
    read_suite,
    validate_suite,
    write_suite,
)

ONE_BUCKET = (ExposureBucket(4, 4, 4),)


# ---------------------------------------------------------------------------
# Definitions file


def test_defs_unknown_kind_rejected():
    with pytest.raises(FormatError, match="kind"):
        parse_suite_defs("[x]\nkind = mystery\ncategories = singular, plural\n")


def test_defs_missing_keys_rejected():
    with pytest.raises(FormatError, match="verb_singular"):
        parse_suite_defs(
            "[x]\nkind = copula_agreement\ncategories = singular, plural\n"
            "frame = The {target} .\nregion = slot:target\n")


def test_defs_missing_pool_rejected():
    with pytest.raises(FormatError, match="pool_cont"):
        parse_suite_defs(
            "[x]\nkind = copula_agreement\ncategories = singular, plural\n"
            "frame = The {target} {verb} {cont} .\nverb_singular = is\n"
            "verb_plural = are\nregion = slot:verb\n")


@pytest.mark.parametrize("region", ["last:x", "last:0", "last:"])
def test_defs_bad_region_rejected(region):
    with pytest.raises(FormatError, match="region must be"):
        parse_suite_defs(
            "[x]\nkind = copula_agreement\ncategories = singular, plural\n"
            "frame = The {target} {verb} .\nverb_singular = is\n"
            f"verb_plural = are\nregion = {region}\n")


_COPULA = ("[x]\nkind = copula_agreement\ncategories = singular, plural\n"
           "frame = The {target} {verb} .\nverb_singular = is\n"
           "verb_plural = are\nregion = slot:verb\n")


@pytest.mark.parametrize("value", ["yes", "1", "on"])
def test_defs_invariance_takes_config_booleans(value):
    assert parse_suite_defs(_COPULA + f"invariance = {value}\n")["x"].invariance


@pytest.mark.parametrize("value", ["", "  "], ids=["empty", "spaces"])
def test_defs_blank_invariance_is_false_as_in_the_config(value):
    # One rule for both files: a blank boolean reads False.
    assert not parse_suite_defs(_COPULA + f"invariance ={value}\n")["x"].invariance


def test_defs_invariance_typo_rejected():
    with pytest.raises(FormatError, match=r"\[x\]: invariance must be a boolean"):
        parse_suite_defs(_COPULA + "invariance = ture\n")


@pytest.mark.parametrize("line, key", [
    ("target_tagg = VB", "target_tagg"),
    ("frame_with_aux = The {target} was .", "frame_with_aux"),
    ("verb_dual = are", "verb_dual"),
], ids=["misspelt", "other-kinds-frame", "other-value"])
def test_defs_unknown_key_rejected(line, key):
    with pytest.raises(FormatError) as err:
        parse_suite_defs(_COPULA + line + "\n")
    assert str(err.value) == f"[x]: unknown key {key!r}"


def test_defs_unknown_shared_key_names_its_section():
    with pytest.raises(FormatError) as err:
        parse_suite_defs("[shared]\npool_x = a\ntarget_tagg = VB\n" + _COPULA)
    assert str(err.value) == "[x]: unknown key 'target_tagg' (from [shared])"


def test_defs_kind_sets_the_categories():
    assert parse_suite_defs(_COPULA.replace("singular, plural", "plural,singular"))[
        "x"].categories == ("plural", "singular")
    with pytest.raises(FormatError, match=r"\[x\]: categories must be"):
        parse_suite_defs(_COPULA.replace("singular, plural", "transitive, intransitive"))


def test_default_defs_load(suite_defs):
    assert len(suite_defs.ids()) == 13
    assert "number_base" in suite_defs.ids()
    assert suite_defs["argstruct_invariance"].invariance


# ---------------------------------------------------------------------------
# Target pools


def _targets(suite, bucket_id, category):
    return {item.target for item in suite.items
            if item.bucket == bucket_id and item.category == category}


def test_generate_exhausts_small_pool(toy_lex, suite_defs, resources):
    # The polar suite filters the inverted-frame noun "panel" out of bucket 2,
    # leaving exactly the two dedicated singular targets.
    kwargs = dict(resources=resources, frames_per_word=1,
                  bucket_table=(ExposureBucket(2, 2, 2),))
    polar = generate_suite("number_polar", suite_defs, toy_lex, 1, **kwargs)
    assert _targets(polar, 2, "singular") == {"president", "senator"}
    assert (2, "singular", 20, 2) in polar.shortfalls
    base = generate_suite("number_base", suite_defs, toy_lex, 1, **kwargs)
    assert _targets(base, 2, "singular") == {"panel", "president", "senator"}


def test_generate_targets_are_deterministic_per_seed(toy_lex, suite_defs, resources):
    kwargs = dict(resources=resources, words_per_category=1, frames_per_word=1,
                  bucket_table=(ExposureBucket(100, 50, 100),))
    a, b, c = (generate_suite("number_base", suite_defs, toy_lex, seed, **kwargs)
               for seed in (9, 9, 10))
    assert _targets(a, 100, "plural") == _targets(b, 100, "plural")
    assert len(_targets(c, 100, "plural")) == 1  # may or may not equal a's


def test_generate_records_an_empty_bucket_as_a_shortfall(toy_lex, suite_defs,
                                                         resources):
    # No toy word occurs exactly 7 times; bucket 2 keeps the suite non-empty.
    suite = generate_suite("number_base", suite_defs, toy_lex, 1, resources=resources,
                           words_per_category=2, frames_per_word=1,
                           bucket_table=(ExposureBucket(2, 2, 2),
                                         ExposureBucket(7, 7, 7)))
    assert (7, "singular", 2, 0) in suite.shortfalls
    assert (7, "plural", 2, 0) in suite.shortfalls
    assert not _targets(suite, 7, "singular")


def test_polar_pool_excludes_inverted_nouns(toy_lex, suite_defs, resources):
    pool = suites.candidate_pool(toy_lex, suite_defs["number_polar"],
                                 "singular", resources)
    assert "chairman" not in pool and "panel" not in pool
    base_pool = suites.candidate_pool(toy_lex, suite_defs["number_base"],
                                      "singular", resources)
    assert "chairman" in base_pool


def test_invariance_pool_is_active_only(toy_lex, suite_defs, resources):
    pool = suites.candidate_pool(toy_lex, suite_defs["argstruct_invariance"],
                                 "transitive", resources)
    assert "grabbed" in pool
    assert "cured" not in pool  # has a participle occurrence


def test_passive_pool_drops_irregular_verbs(toy_lex, suite_defs, resources):
    # An irregular verb's past form is not its participle, so "was {target}"
    # would not be a passive; the active suites keep it.
    verb = suites.candidate_pool(toy_lex, suite_defs["argstruct_passive"],
                                 "transitive", resources)[0]
    marked = resources._replace(irregular=resources.irregular | {verb})
    assert verb not in suites.candidate_pool(
        toy_lex, suite_defs["argstruct_passive"], "transitive", marked)
    assert verb in suites.candidate_pool(
        toy_lex, suite_defs["argstruct_active_past"], "transitive", marked)


def test_invariance_pool_folds_the_case_of_marks(toy_lex, suite_defs, resources):
    # classify_transitivity reads "Transitive" as "transitive"; the pools too.
    marks = {w: call.marked.capitalize()
             for w, call in resources.transitivity_calls.items()}
    capitalized = SuiteResources(corpus.classify_transitivity(toy_lex, marks),
                                 resources.irregular)
    pools = [[suites.candidate_pool(toy_lex, suite_defs["argstruct_invariance"],
                                    category, res)
              for category in ("transitive", "intransitive")]
             for res in (resources, capitalized)]
    assert pools[1] == pools[0]
    assert len(pools[0][0]) == 8 and pools[0][1]


# ---------------------------------------------------------------------------
# Instantiation (the paper-shaped examples)


def test_instantiate_number_base_grammatical(suite_defs):
    (tokens, region), (tokens_u, region_u) = instantiate(
        suite_defs["number_base"], "president", "singular",
        {"cont": "good today"})
    assert tokens[:3] == ("The", "president", "is")
    assert tokens[region[0]:region[1]] == ("is",)
    assert tokens_u[:3] == ("The", "president", "are")
    assert tokens_u[region_u[0]:region_u[1]] == ("are",)


def test_instantiate_polar_modifier_ungrammatical(suite_defs):
    _, (tokens, region) = instantiate(
        suite_defs["number_polar_mod"], "hearings", "plural",
        {"adjpair": "very big and important", "pred": "good"},
        tense="present")
    assert tokens[:7] == ("Is", "the", "very", "big", "and", "important",
                          "hearings")
    assert tokens[region[0]:region[1]] == ("hearings",)


def test_instantiate_passive_intransitive_ungrammatical(suite_defs):
    (gram, gram_region), (tokens, region) = instantiate(
        suite_defs["argstruct_passive"], "arrived", "intransitive",
        {"subject": "doctor", "adverb": "yesterday"})
    assert tokens == ("The", "doctor", "was", "arrived", "yesterday", ".")
    assert tokens[region[0]:region[1]] == ("arrived", "yesterday", ".")
    assert gram == ("The", "doctor", "arrived", "yesterday", ".")
    assert gram[gram_region[0]:gram_region[1]] == ("arrived", "yesterday", ".")


def test_instantiate_rejects_low_frequency_filler(suite_defs):
    # Fillers are checked by validate_suite, which generate_suite runs.
    defs = parse_suite_defs(
        "[number_base]\nkind = copula_agreement\ncategories = singular, plural\n"
        "frame = The {target} {verb} {cont}\nverb_singular = is\n"
        "verb_plural = are\nregion = slot:verb\npool_cont = petitions today\n")
    lex = LexiconStats(lowercase=True)
    for word in ("the", "is", "are", "today"):
        lex._entry(word).total = 500
    lex._entry("petitions").total = 12
    for word, tag in (("w", "NN"), ("ws", "NNS")):
        entry = lex._entry(word)
        entry.total = 4
        entry.pos[tag] = 4
    with pytest.raises(GenerationError, match="petitions"):
        generate_suite("number_base", defs, lex, seed=1, words_per_category=1,
                       frames_per_word=1, filler_min_count=50,
                       bucket_table=ONE_BUCKET)


_POLAR = ("[x]\nkind = polar_inversion\ncategories = singular, plural\n"
          "frame_present = {aux} the {target} {pred} ?\n"
          "frame_past = {aux} the {target} {adv} ?\n"
          "aux_singular_present = Is\naux_plural_present = Are\n"
          "aux_singular_past = Was\naux_plural_past = Were\nregion = slot:aux\n"
          "pool_pred = good, bad\npool_adv = now\n")


@pytest.mark.parametrize("text, frames, message", [
    (_COPULA.replace("{verb} .", "{verb} {cont} .") + "pool_cont = good, bad\n", 3,
     "x: only 2 frame variants, need 3"),
    # The target "w" is left out of its own fillers, though "ws" keeps both.
    (_COPULA.replace("{verb} .", "{verb} {cont} .") + "pool_cont = good, w\n", 2,
     "x: only 1 frame variants, need 2"),
    (_POLAR, 5, "x: only 2 frame variants for present tense, need 3"),
    (_POLAR, 4, "x: only 1 frame variants for past tense, need 2"),
], ids=["plain", "target-excluded", "present", "past"])
def test_generate_frame_variant_shortage(text, frames, message):
    lex = LexiconStats(lowercase=True)
    for word, tag in (("w", "NN"), ("ws", "NNS")):
        entry = lex._entry(word)
        entry.total = 4
        entry.pos[tag] = 4
    with pytest.raises(GenerationError) as err:
        generate_suite("x", parse_suite_defs(text), lex, seed=1, words_per_category=1,
                       frames_per_word=frames, bucket_table=ONE_BUCKET)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Suite generation


def test_generate_product_arithmetic(toy_lex, suite_defs, resources):
    suite = generate_suite(
        "number_base", suite_defs, toy_lex, seed=3, resources=resources,
        words_per_category=1, frames_per_word=3, bucket_table=ONE_BUCKET)
    assert len(suite.items) == 6           # 1 bucket x 2 categories x 1 x 3
    assert suite.sentence_count() == 12


def test_generate_all_excluded_verbs_is_empty_pool(suite_defs):
    lex = LexiconStats(lowercase=True)
    for w in ("mystery", "enigma"):
        entry = lex._entry(w)
        entry.total = 4
        entry.pos["VBD"] = 4
        entry.obj_present = 2
        entry.obj_absent = 2  # 0.5: excluded under both thresholds
    marks = {"mystery": "transitive", "enigma": "intransitive"}
    calls = corpus.classify_transitivity(lex, marks)
    res = SuiteResources(calls, frozenset())
    with pytest.raises(EmptyPoolError):
        generate_suite("argstruct_active_past", suite_defs, lex, seed=1,
                       resources=res, bucket_table=ONE_BUCKET)


def test_generate_deterministic_bytes(toy_lex, suite_defs, resources, tmp_path):
    kwargs = dict(resources=resources, words_per_category=2, frames_per_word=5)
    a = generate_suite("number_polar", suite_defs, toy_lex, 7, **kwargs)
    b = generate_suite("number_polar", suite_defs, toy_lex, 7, **kwargs)
    pa, pb = tmp_path / "a.suite", tmp_path / "b.suite"
    write_suite(a, pa)
    write_suite(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = generate_suite("number_polar", suite_defs, toy_lex, 8, **kwargs)
    pc = tmp_path / "c.suite"
    write_suite(c, pc)
    assert pa.read_bytes() != pc.read_bytes()


def test_polar_tense_split_is_half_and_half(toy_suites):
    suite = toy_suites("number_polar")
    by_target: dict = {}
    for item in suite.items:
        aux = item.gram_tokens[0].lower()
        tense = "present" if aux in ("is", "are") else "past"
        by_target.setdefault((item.bucket, item.target), []).append(tense)
    for tenses in by_target.values():
        assert tenses.count("present") == tenses.count("past") == 10


def test_minimal_pair_and_validation_clean(toy_suites, toy_lex):
    for suite_id in ("number_base", "number_polar_mod", "argstruct_active_inf",
                     "argstruct_passive_long", "argstruct_invariance"):
        suite = toy_suites(suite_id)
        violations = validate_suite(suite, toy_lex)
        assert not violations, violations[:3]


def test_validation_flags_corrupted_region(toy_suites, toy_lex):
    suite = toy_suites("number_base")
    item = suite.items[0]
    broken = item._replace(gram_region=(0, 99))
    corrupted = suites.TestSuite(
        suite.suite_id, suite.kind, suite.condition_rule,
        [broken] + suite.items[1:], suite.provenance, suite.shortfalls)
    violations = validate_suite(corrupted, toy_lex)
    assert any(v[0] == item.item_id and v[1] == "bad-region"
               for v in violations)
    assert len([v for v in violations if v[1] == "bad-region"]) == 1


def test_validation_flags_low_frequency_filler(toy_suites):
    suite = toy_suites("number_base")
    lex = LexiconStats(lowercase=True)  # knows nothing: every filler fails
    violations = validate_suite(suite, lex)
    assert any(v[1] == "filler-frequency" for v in violations)


def test_validation_flags_minimal_pair_break(toy_suites, toy_lex):
    suite = toy_suites("number_base")
    item = suite.items[0]
    tampered = item._replace(ungram_tokens=item.ungram_tokens[:-1] + ("mangled",))
    corrupted = suites.TestSuite(
        suite.suite_id, suite.kind, suite.condition_rule,
        [tampered] + suite.items[1:], suite.provenance, suite.shortfalls)
    violations = validate_suite(corrupted, toy_lex)
    assert any(v[1] == "minimal-pair" for v in violations)


@pytest.mark.parametrize("kind, gram, ungram, ok", [
    ("copula_agreement", "the w is .", "the w are .", True),
    ("copula_agreement", "the w is .", "the w .", False),
    ("polar_inversion", "is the w ?", "are the w ?", True),
    ("passive_aux", "the d was w .", "the d w .", True),
    ("passive_aux", "the d w .", "the d was w .", True),
    ("passive_aux", "the d was so w .", "the d w .", False),
    ("passive_aux", "the d was w .", "the d is w .", False),
    ("object_manipulation", "the d w the big p .", "the d w .", True),
    ("object_manipulation", "the d w .", "the d w p .", True),
    ("object_manipulation", "the d w the very big p .", "the d w .", False),
    ("object_manipulation", "the d w p .", "the d w q .", False),
    ("mystery", "the w is .", "the w are .", False),
])
def test_validation_pair_shape_follows_kind(kind, gram, ungram, ok):
    gram, ungram = tuple(gram.split()), tuple(ungram.split())
    item = suites.TestItem("s.b1.w.f00", "s", "w", "singular", 1,
                           gram, (0, len(gram)), ungram, (0, len(ungram)))
    violations = validate_suite(suites.TestSuite("s", kind, "r", [item]),
                                LexiconStats(lowercase=True), filler_min_count=0)
    assert [v[1] for v in violations] == ([] if ok else ["minimal-pair"])


def _codes(violations, code):
    """The (item id, message) of each violation with ``code``."""
    return [(item_id, message) for item_id, c, message in violations if c == code]


def test_validation_flags_duplicate_item_id(toy_suites, toy_lex):
    suite = toy_suites("number_base")
    item = suite.items[0]
    doubled = suite._replace(items=[item] + suite.items)
    violations = validate_suite(doubled, toy_lex)
    assert _codes(violations, "duplicate-id") == [(item.item_id, "item id occurs twice")]


def test_validation_flags_target_count(toy_suites, toy_lex):
    suite = toy_suites("number_base")
    item = suite.items[0]._replace(target="absent-word")
    violations = validate_suite(suite._replace(items=[item]), toy_lex)
    assert _codes(violations, "target-count") == [
        (item.item_id, "target occurs 0 times in gram sentence"),
        (item.item_id, "target occurs 0 times in ungram sentence")]


def test_validation_reports_a_rare_filler_that_another_item_targets():
    items = [suites.TestItem(f"s.b1.{target}.f00", "s", target, "singular", 1,
                             gram, (0, len(gram)), ungram, (0, len(ungram)))
             for target, gram, ungram in [
                 ("zorp", ("the", "zorp", "is", "."), ("the", "zorp", "are", ".")),
                 ("blick", ("the", "blick", "is", "glorp", "zorp", "."),
                  ("the", "blick", "are", "glorp", "zorp", "."))]]
    lex = corpus.build_lexicon(corpus.parse_treebank("(S (DT the) (VBZ is) (VBP are))"))
    violations = validate_suite(suites.TestSuite("s", "copula_agreement", "r", items),
                                lex, filler_min_count=1)
    assert _codes(violations, "filler-frequency") == [
        ("s.b1.blick.f00", f"filler {tok!r} occurs 0 times (< 1)")
        for tok in ("glorp", "zorp", "glorp", "zorp")]


def test_validation_flags_polar_overlap(toy_suites, toy_trees):
    suite = toy_suites("number_polar")
    target = suite.items[0].target
    inverted = corpus.parse_treebank(
        f"(SQ (VBZ Is) (NP (DT the) (NN {target})) (ADJP (JJ good)) (. ?))")
    lex = corpus.build_lexicon(toy_trees + inverted, lowercase=True)
    violations = validate_suite(suite, lex)
    flagged = _codes(violations, "polar-overlap")
    assert flagged == [(i.item_id, f"target {target!r} occurs in inverted frames")
                       for i in suite.items if i.target == target]


def test_validation_flags_participle_evidence(toy_suites, toy_trees):
    suite = toy_suites("argstruct_invariance")
    assert suite.invariance
    target = suite.items[0].target
    participle = corpus.parse_treebank(
        f"(S (NP (NN man)) (VP (VBD was) (VP (VBN {target}))) (. .))")
    lex = corpus.build_lexicon(toy_trees + participle, lowercase=True)
    violations = validate_suite(suite, lex)
    flagged = _codes(violations, "participle-evidence")
    assert flagged == [(i.item_id, f"target {target!r} has participle occurrences")
                       for i in suite.items if i.target == target]


def test_validation_flags_unbalanced_bucket(toy_suites, toy_lex):
    suite = toy_suites("number_base")
    first = suite.items[0]
    kept = [i for i in suite.items
            if not (i.bucket == first.bucket and i.category == first.category)]
    # Without a recorded shortfall, the missing category is a violation.
    violations = validate_suite(suite._replace(items=kept, shortfalls=[]),
                                toy_lex)
    flagged = _codes(violations, "balance")
    assert [item_id for item_id, _ in flagged] == [None]
    assert flagged[0][1].startswith(f"bucket {first.bucket}: category sizes ")
    assert f"'{first.category}': 0" in flagged[0][1]
    # With the shortfall recorded, the bucket is balanced.
    shortfall = (first.bucket, first.category, 20, 0)
    violations = validate_suite(suite._replace(items=kept, shortfalls=[shortfall]),
                                toy_lex)
    assert _codes(violations, "balance") == []


def test_filter_soundness_on_generated_suites(toy_suites, toy_lex):
    polar = toy_suites("number_polar_mod")
    assert all(toy_lex.stats(i.target).inverted == 0 for i in polar.items)
    invariance = toy_suites("argstruct_invariance_short")
    assert all(toy_lex.stats(i.target).vbn == 0 for i in invariance.items)


def test_shortfalls_recorded_not_fatal(toy_suites):
    suite = toy_suites("argstruct_active_inf")
    # One base-form verb per category per bucket in the toy corpus.
    assert suite.shortfalls
    assert all(got < wanted for (_, _, wanted, got) in suite.shortfalls)


def test_suite_file_round_trip(toy_suites, tmp_path):
    suite = toy_suites("argstruct_passive_short")
    path = tmp_path / "s.suite"
    write_suite(suite, path)
    again = read_suite(path)
    assert again.suite_id == suite.suite_id
    assert again.kind == suite.kind
    assert again.condition_rule == suite.condition_rule
    assert again.invariance == suite.invariance
    assert again.provenance == suite.provenance
    assert again.shortfalls == suite.shortfalls
    assert again.items == suite.items


def test_target_appears_once_per_sentence(toy_suites):
    for item in toy_suites("number_base_pp").items:
        for cond in ("gram", "ungram"):
            assert item.tokens(cond).count(item.target) == 1
