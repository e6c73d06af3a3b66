"""Lexical exposure statistics from a bracketed treebank.

Reads the bundled synthetic treebank, then walks through everything the
corpus layer derives from it: per-form counts, exposure buckets, object
evidence, transitivity classification, participle fractions, polar-frame
occurrences, and the two word filters built on top of them.
"""

from syntaxprobe import corpus, toydata

trees = corpus.read_treebank(toydata.toy_treebank_path())
print(f"treebank: {len(trees)} trees")
print("first tree:", trees[0].pretty())

lex = corpus.build_lexicon(trees, lowercase=True)
print(f"\nlexicon: {len(lex)} word forms")

# Exposure buckets label words by how often training saw them.
for word in ("president", "shares", "analyst", "gadget", "the"):
    bucket = corpus.exposure_bucket(lex.count(word))
    label = bucket.label if bucket else "none"
    print(f"  {word:10s} count={lex.count(word):4d} bucket={label}")

# Object evidence drives the transitive/intransitive split.  A verb marked
# transitive in the external lexicon survives only if it takes an object
# in at least 90% of its active uses (10% ceiling for intransitives).
marks = corpus.read_transitivity_lexicon(toydata.default_transitivity_path())
calls = corpus.classify_transitivity(lex, marks)
print("\ntransitivity calls (sample):")
for word in ("cured", "slept", "cure", "devoured"):
    call = calls[word]
    frac = "-" if call.obj_fraction is None else f"{call.obj_fraction:.2f}"
    print(f"  {word:10s} marked={call.marked:12s} -> {call.klass.value:12s}"
          f" ({call.reason}, object fraction {frac})")

# Participle usage matters twice: passive suites want verbs attested as
# participles, invariance suites want verbs never seen that way.
print("\nparticiple fractions:")
for word in ("cured", "grabbed", "arrived"):
    print(f"  {word:10s} {corpus.vbn_fraction(lex, word):.2f}")

irregular = corpus.read_irregular_verbs(toydata.default_irregular_path())
active_only = corpus.active_only_verbs(lex, irregular)
print(f"\nactive-only verbs (past tense, never participle): {len(active_only)}")
print(" ", ", ".join(active_only[:8]), "...")

# Nouns seen in inverted polar questions are banned from polar suites.
nouns = [w for w in lex.words()
         if lex.stats(w).pos.get("NN", 0) + lex.stats(w).pos.get("NNS", 0) > 0]
kept, removed = corpus.filter_polar_overlap(nouns, lex)
print(f"\npolar-overlap filter: kept {len(kept)} nouns, removed {removed}")
