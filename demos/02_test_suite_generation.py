"""Generating targeted grammaticality suites.

Thirteen suites pair a grammatical and an ungrammatical sentence per item
and mark the critical region whose surprisal decides the comparison.
Generation samples target words per exposure bucket, fills templates from
the editable definitions file, and validates every invariant before
returning.
"""

from syntaxprobe import corpus, suites, toydata

trees = corpus.read_treebank(toydata.toy_treebank_path())
lex = corpus.build_lexicon(trees, lowercase=True)
defs = suites.read_suite_defs(toydata.default_suites_path())
marks = corpus.read_transitivity_lexicon(toydata.default_transitivity_path())
irregular = corpus.read_irregular_verbs(toydata.default_irregular_path())
resources = suites.SuiteResources(corpus.classify_transitivity(lex, marks), irregular)

print("suites:", ", ".join(defs.ids()), "\n")


def show(item):
    def mark(tokens, region):
        toks = list(tokens)
        toks[region[0]] = "[" + toks[region[0]]
        toks[region[1] - 1] = toks[region[1] - 1] + "]"
        return " ".join(toks)

    print(f"  {item.item_id} ({item.category}, bucket {item.bucket})")
    print("    ok :", mark(item.gram_tokens, item.gram_region))
    print("    bad:", mark(item.ungram_tokens, item.ungram_region))


for suite_id in ("number_base", "number_polar_mod", "argstruct_active_inf",
                 "argstruct_passive", "argstruct_invariance"):
    suite = suites.generate_suite(suite_id, defs, lex, seed=13,
                                  resources=resources)
    print(f"{suite_id}: {len(suite.items)} items "
          f"({suite.sentence_count()} sentences), rule: {suite.condition_rule}")
    show(suite.items[0])
    if suite.shortfalls:
        bucket, category, wanted, got = suite.shortfalls[0]
        print(f"    shortfall example: bucket {bucket} {category}: "
              f"{got}/{wanted} candidates")
    print()

# Generation is a pure function of (lexicon, definitions, seed): rerunning
# reproduces the suite byte for byte, and a validation report is clean.
suite = suites.generate_suite("number_base", defs, lex, seed=13,
                              resources=resources)
violations = suites.validate_suite(suite, lex)
print("validation violations:", len(violations))
