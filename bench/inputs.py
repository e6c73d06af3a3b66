"""Deterministic inputs for the benchmark workloads.

* ``paper_treebank()``: a paper-scale treebank built with the sentence
  helpers of :mod:`syntaxprobe.toydata`, with 20 synthetic target words per
  category and exposure bucket instead of the toy treebank's one or two, and
  the transitivity file that marks its verbs.
* ``induce_pcfg()``: a relative-frequency PCFG read off a treebank, with
  preterminals renamed apart from words and a ``ROOT`` start symbol.
* ``sample_sentences()``: a seeded, shape-stratified sample of treebank
  sentences.

None of these depends on the benchmark seed except the sentence sample.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from syntaxprobe import beamsearch, toydata

WORDS_PER_BUCKET = 20
ITEMS_PER_SUITE = 6400  # 8 buckets x 2 categories x 20 words x 20 frames

_NOUN_KINDS = ("singular", "plural")
_VERB_KINDS = ("trans_passive", "trans_pure", "intrans_passive",
               "intrans_pure", "trans_base", "intrans_base")


def _stems():
    """Distinct CVCVC pseudo-word stems, in a fixed order."""
    cons, vows = "bdfgklmnprstvz", "aeiou"
    for c1, v1, c2, v2, c3 in itertools.product(cons, vows, cons, vows, cons):
        yield c1 + v1 + c2 + v2 + c3


def synthetic_words() -> dict:
    """kind -> bucket id -> tuple of WORDS_PER_BUCKET word forms."""
    taken = {w.lower() for _tag, w in toydata._PRETERMINAL.findall(
        toydata.build_toy_treebank())}
    suffix = {"singular": "", "plural": "s", "trans_base": "",
              "intrans_base": ""}
    stems = itertools.islice(_stems(), 0, None, 7)  # stride: less alike forms
    table: dict = {}
    for kind in _NOUN_KINDS + _VERB_KINDS:
        table[kind] = {}
        for bucket, _count in toydata.BUCKET_FILL:
            words = []
            while len(words) < WORDS_PER_BUCKET:
                word = next(stems) + suffix.get(kind, "ed")
                if word not in taken:
                    taken.add(word)
                    words.append(word)
            table[kind][bucket] = tuple(words)
    return table


def paper_treebank() -> tuple[str, str]:
    """(treebank text, transitivity file text), both deterministic."""
    words = synthetic_words()
    rot = toydata._Rot()
    sentences: list = []
    for bucket, count in toydata.BUCKET_FILL:
        for kind, tag in (("singular", "NN"), ("plural", "NNS")):
            for word in words[kind][bucket]:
                sentences.extend(toydata._noun_sentence(word, tag, j, rot)
                                 for j in range(count))
    for kind in _VERB_KINDS:
        for bucket, count in toydata.BUCKET_FILL:
            for verb in words[kind][bucket]:
                sentences.extend(toydata._verb_sentences(kind, verb, count, rot))
    sentences.extend(toydata._polar_block())

    counts: Counter = Counter()
    for s in sentences:
        toydata._update_counts(counts, s)
    i = 0
    while any(counts[w] < toydata.TARGET_FILL for w in toydata.TEMPLATE_VOCAB):
        s = toydata._booster(i, counts)
        sentences.append(s)
        toydata._update_counts(counts, s)
        i += 1

    marks = ["# verb<TAB>transitive|intransitive for the paper-scale treebank"]
    for kind in _VERB_KINDS:
        mark = "transitive" if kind.startswith("trans_") else "intransitive"
        for bucket, _count in toydata.BUCKET_FILL:
            marks.extend(f"{verb}\t{mark}" for verb in words[kind][bucket])
    return "\n".join(sentences) + "\n", "\n".join(marks) + "\n"


# ---------------------------------------------------------------------------
# PCFG induction


def _symbol(node) -> str:
    # Preterminals get a prefix so that a tag never equals a word ('.' is both).
    return "@" + node.label if node.is_terminal else node.label


def induce_pcfg(trees) -> beamsearch.ToyPCFG:
    """Relative-frequency PCFG with start symbol ``ROOT``.

    The ``ROOT`` rules come first: a grammar file names its start symbol by
    its first rule, so this order survives ``write_grammar``/``read_grammar``.
    """
    counts: Counter = Counter()
    for tree in trees:
        counts[("ROOT", (_symbol(tree),))] += 1
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.is_terminal:
                counts[(_symbol(node), (node.word,))] += 1
                continue
            counts[(node.label, tuple(_symbol(c) for c in node.children))] += 1
            stack.extend(node.children)
    totals: Counter = Counter()
    for (lhs, _rhs), n in counts.items():
        totals[lhs] += n
    rules = [beamsearch.Rule(lhs, rhs, n / totals[lhs])
             for (lhs, rhs), n in sorted(counts.items(),
                                         key=lambda kv: (kv[0][0] != "ROOT", kv[0]))]
    return beamsearch.ToyPCFG("ROOT", rules)


def _shape(node) -> str:
    if node.is_terminal:
        return node.label
    return f"({node.label} {' '.join(_shape(c) for c in node.children)})"


def sample_sentences(trees, seed: int, n: int) -> list:
    """``n`` treebank sentences drawn by ``seed``.

    The sample is stratified by tree shape (the bracketing without words):
    each shape gets its share of ``n`` by largest remainder, the same for
    every seed, and the seed picks which trees of each shape.  So search
    cost varies with the seed only through the words.
    """
    groups: dict = {}
    for i, tree in enumerate(trees):
        groups.setdefault(_shape(tree), []).append(i)
    shapes = sorted(groups)
    quota = {s: n * len(groups[s]) / len(trees) for s in shapes}
    share = {s: int(quota[s]) for s in shapes}
    by_remainder = sorted(shapes, key=lambda s: (share[s] - quota[s], s))
    for s in by_remainder[:n - sum(share.values())]:
        share[s] += 1
    rng = random.Random(seed)
    picked = [i for s in shapes for i in rng.sample(groups[s], share[s])]
    return [[w for w, _tag in trees[i].terminals()] for i in picked]
