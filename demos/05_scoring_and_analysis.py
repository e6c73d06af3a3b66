"""From surprisals to accuracies, intervals, tests, and exposure curves.

Scores two suites with the 5-gram baseline, aggregates per bucket with
Wilson intervals and exact binomial tests against chance, and fits the
accuracy-vs-log-exposure logistic curves that the figures plot.
"""

import warnings

from syntaxprobe import corpus, ngram, scoring, stats, suites, toydata

warnings.filterwarnings("ignore")

trees = corpus.read_treebank(toydata.toy_treebank_path())
lex = corpus.build_lexicon(trees, lowercase=True)
defs = suites.read_suite_defs(toydata.default_suites_path())
marks = corpus.read_transitivity_lexicon(toydata.default_transitivity_path())
irregular = corpus.read_irregular_verbs(toydata.default_irregular_path())
resources = suites.SuiteResources(corpus.classify_transitivity(lex, marks), irregular)
model = ngram.train([[w for w, _ in t.terminals()] for t in trees], order=5)

for suite_id in ("number_base", "argstruct_passive"):
    suite = suites.generate_suite(suite_id, defs, lex, seed=13,
                                  resources=resources)
    records = []
    for item in suite.items:
        for cond in ("gram", "ungram"):
            tokens = item.tokens(cond)
            records.append(scoring.SurprisalRecord(
                scoring.sentence_id(item.item_id, cond), tuple(tokens),
                tuple(model.surprisals(tokens))))
    results, cells = scoring.evaluate_suite(suite, records)

    print(f"{suite_id}: accuracy by exposure bucket "
          "(Wilson 95% CI, one-sided p vs. chance)")
    for cell in cells:
        if cell.category != "all":
            continue
        s = cell.summary
        star = " *" if s.p_above_chance < 0.05 else ""
        print(f"  bucket {cell.bucket:3d}: {s.k:3d}/{s.n:3d} = {s.accuracy:.2f}"
              f"  [{s.ci_lo:.2f}, {s.ci_hi:.2f}]  p={s.p_above_chance:.3g}{star}")

    # Logistic fit over log10 exposure, the smooth line in the figures.
    points = [(lex.count(r.target), r.correct) for r in results]
    curve = stats.accuracy_curve(points)
    if curve.separated:
        print(f"  curve: flat fallback at {curve.mean_accuracy:.2f} "
              "(outcomes separated)")
    else:
        b0, b1 = curve.fit.coef
        print(f"  curve: logit(acc) = {b0:.2f} + {b1:.2f} * log10(exposure)")
    print()

# The building blocks are available directly as well.
print("wilson_ci(8, 10)      =", tuple(round(v, 3) for v in stats.wilson_ci(8, 10)))
print("binom_test_above(5,10) =", stats.binom_test_above(5, 10))
