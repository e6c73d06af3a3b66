"""Bundled synthetic treebank with controlled exposure statistics.

The corpus is built, not sampled: target nouns and verbs appear exactly as
often as their exposure bucket prescribes, subject nouns always directly
precede an agreeing copula, transitive verbs always take an object in
active voice, and every template filler word is boosted past 100
occurrences so it clears the filler-frequency threshold while staying out
of every exposure bucket.  A small block of inverted polar questions
exercises the inversion detector, including two nouns that also occur in
declaratives (and are therefore filtered from polar suites).

``build_toy_treebank()`` is deterministic; the shipped ``data/toy_treebank.mrg``
is exactly its output.
"""

from __future__ import annotations

import pathlib
import re
from collections import Counter

TARGET_FILL = 105  # filler floor: clears the >=50 threshold, above all buckets

BUCKET_FILL = ((2, 2), (3, 3), (4, 4), (5, 5), (10, 6), (20, 11), (30, 21), (100, 50))

SINGULAR_NOUNS = {
    2: ("president", "senator"),
    3: ("client", "editor"),
    4: ("student", "farmer"),
    5: ("teacher", "banker"),
    10: ("worker", "artist"),
    20: ("driver", "leader"),
    30: ("writer", "broker"),
    100: ("analyst", "agent"),
}
PLURAL_NOUNS = {
    2: ("hearings", "petitions"),
    3: ("contracts", "proposals"),
    4: ("budgets", "agencies"),
    5: ("unions", "exports"),
    10: ("imports", "profits"),
    20: ("shares", "bonds"),
    30: ("plants", "mines"),
    100: ("trucks", "farms"),
}

# One verb per bucket per kind.  "passive" kinds spend one occurrence as a
# VBN participle; "pure" kinds are past-tense only (the invariance pool).
TRANS_PASSIVE = dict(zip((2, 3, 4, 5, 10, 20, 30, 100),
                         ("cured", "praised", "hired", "audited",
                          "backed", "funded", "rated", "tested")))
TRANS_PURE = dict(zip((2, 3, 4, 5, 10, 20, 30, 100),
                      ("grabbed", "chased", "trimmed", "scanned",
                       "weighed", "towed", "raked", "mopped")))
INTRANS_PASSIVE = dict(zip((2, 3, 4, 5, 10, 20, 30, 100),
                           ("arrived", "appeared", "emerged", "lapsed",
                            "surged", "slumped", "rallied", "faded")))
INTRANS_PURE = dict(zip((2, 3, 4, 5, 10, 20, 30, 100),
                        ("slept", "knelt", "wept", "yawned",
                         "jogged", "limped", "paused", "winked")))
TRANS_BASE = dict(zip((2, 3, 4, 5, 10, 20, 30, 100),
                      ("cure", "praise", "hire", "audit",
                       "fund", "rate", "test", "scan")))
INTRANS_BASE = dict(zip((2, 3, 4, 5, 10, 20, 30, 100),
                        ("sleep", "jog", "pause", "yawn",
                         "kneel", "weep", "limp", "wink")))

TEMPORAL = ("today", "yesterday", "now", "again", "soon")
MANNER = ("quickly", "fully", "suddenly", "entirely")
ADJS = ("good", "old", "big", "important", "red")
SUBJECTS = ("doctor", "man", "woman", "dog")
OBJECTS = ("patient", "table")
PP_NOUNS = ("investment", "table")
FILLER_NOUNS = ("doctor", "man", "woman", "dog", "patient", "table", "investment")

#: Every non-target word the default templates can emit (lowercased).
TEMPLATE_VOCAB = tuple(sorted(
    set(FILLER_NOUNS) | set(ADJS) | set(TEMPORAL) | set(MANNER)
    | {"the", "is", "are", "was", "were", "can", "near", "that",
       "lawyers", "like", "very", "and"}
))

_PRETERMINAL = re.compile(r"\(([^\s()]+) ([^\s()]+)\)")


class _Rot:
    """Per-pool round-robin with named cursors."""

    def __init__(self):
        self._i: dict = {}

    def take(self, name, pool):
        i = self._i.get(name, 0)
        self._i[name] = i + 1
        return pool[i % len(pool)]


def _noun_sentence(word: str, tag: str, j: int, rot: _Rot) -> str:
    cop_pres = ("VBZ is" if tag == "NN" else "VBP are")
    cop_past = "VBD was" if tag == "NN" else "VBD were"
    adj = rot.take("noun_adj", ADJS)
    adj2 = rot.take("noun_adj2", ADJS)
    subject = f"(NP (DT The) ({tag} {word}))"
    pattern = j % 4
    if pattern == 0:
        vp = f"(VP ({cop_pres}) (ADJP (JJ {adj})))"
    elif pattern == 1:
        vp = f"(VP ({cop_pres}) (ADJP (RB very) (JJ {adj})))"
    elif pattern == 2:
        vp = f"(VP ({cop_past}) (ADJP (JJ {adj})))"
    else:
        vp = f"(VP ({cop_pres}) (ADJP (RB very) (JJ {adj}) (CC and) (JJ {adj2})))"
    return f"(S {subject} {vp} (. .))"


def _verb_sentences(kind: str, verb: str, count: int, rot: _Rot) -> list:
    out = []
    for j in range(count):
        subj = rot.take("subj", SUBJECTS)
        obj = rot.take("obj", OBJECTS)
        tadv = rot.take("tadv", TEMPORAL)
        madv = rot.take("madv", MANNER)
        np_subj = f"(NP (DT The) (NN {subj}))"
        last = j == count - 1
        if kind == "trans_passive":
            if last:
                s = (f"(S {np_subj} (VP (VBD was) (VP (VBN {verb}) "
                     f"(ADVP (RB {madv})))) (. .))")
            else:
                s = f"(S {np_subj} (VP (VBD {verb}) (NP (DT the) (NN {obj}))) (. .))"
        elif kind == "trans_pure":
            if j % 2 == 1:
                s = (f"(S {np_subj} (ADVP (RB {madv})) "
                     f"(VP (VBD {verb}) (NP (DT the) (NN {obj}))) (. .))")
            else:
                s = f"(S {np_subj} (VP (VBD {verb}) (NP (DT the) (NN {obj}))) (. .))"
        elif kind == "intrans_passive":
            if last:
                s = (f"(S {np_subj} (VP (VBZ has) (VP (VBN {verb}) "
                     f"(ADVP (RB {tadv})))) (. .))")
            else:
                s = f"(S {np_subj} (VP (VBD {verb}) (ADVP (RB {tadv}))) (. .))"
        elif kind == "intrans_pure":
            if j % 2 == 1:
                ppn = rot.take("ppn", PP_NOUNS)
                s = (f"(S {np_subj} (VP (VBD {verb}) (PP (IN near) "
                     f"(NP (DT the) (JJ old) (NN {ppn})))) (. .))")
            else:
                s = f"(S {np_subj} (VP (VBD {verb}) (ADVP (RB {tadv}))) (. .))"
        elif kind == "trans_base":
            s = (f"(S {np_subj} (VP (MD can) (VP (VB {verb}) "
                 f"(NP (DT the) (NN {obj})) (ADVP (RB {tadv})))) (. .))")
        elif kind == "intrans_base":
            s = (f"(S {np_subj} (VP (MD can) (VP (VB {verb}) "
                 f"(ADVP (RB {tadv})))) (. .))")
        else:
            raise ValueError(kind)
        out.append(s)
    return out


def _polar_block() -> list:
    qs = []
    for adj in ("good", "old"):
        qs.append(f"(SQ (VBZ Is) (NP (DT the) (NN chairman)) (ADJP (JJ {adj})) (. ?))")
    for adj in ("important", "big"):
        qs.append(f"(SQ (VBP Are) (NP (DT the) (NNS issues)) (ADJP (JJ {adj})) (. ?))")
    for adj in ("old", "red"):
        qs.append(f"(SQ (VBD Was) (NP (DT the) (NN panel)) (ADJP (JJ {adj})) (. ?))")
    for adj in ("big", "good"):
        qs.append(f"(SQ (VBD Were) (NP (DT the) (NNS rules)) (ADJP (JJ {adj})) (. ?))")
    # Two nouns occur in both frames, so the polar-overlap filter has work.
    qs.append("(S (NP (DT The) (NN chairman)) (VP (VBZ is) (ADJP (JJ red))) (. .))")
    qs.append("(S (NP (DT The) (NN chairman)) (VP (VBD was) (ADJP (JJ good))) (. .))")
    qs.append("(S (NP (DT The) (NNS issues)) (VP (VBP are) (ADJP (JJ old))) (. .))")
    qs.append("(S (NP (DT The) (NNS issues)) (VP (VBD were) (ADJP (JJ red))) (. .))")
    return qs


def _booster(i: int, counts: Counter) -> str:
    def pick(pool, nth: int = 0):
        ranked = sorted(pool, key=lambda w: (counts[w], w))
        return ranked[min(nth, len(ranked) - 1)]

    shape = i % 5
    if shape == 0:
        a1, a2 = pick(ADJS), pick(ADJS, 1)
        n1, n2 = pick(FILLER_NOUNS), pick(FILLER_NOUNS, 1)
        r1 = pick(TEMPORAL)
        return (f"(S (NP (DT The) (JJ {a1}) (NN {n1})) (VP (VBD was) "
                f"(PP (IN near) (NP (DT the) (JJ {a2}) (NN {n2}))) "
                f"(ADVP (RB {r1}))) (. .))")
    if shape == 1:
        a1, n1, r1 = pick(ADJS), pick(FILLER_NOUNS), pick(TEMPORAL)
        return (f"(S (NP (DT The) (NNS lawyers)) (VP (VBP like) "
                f"(NP (DT the) (JJ {a1}) (NN {n1})) (ADVP (RB {r1}))) (. .))")
    if shape == 2:
        a1, a2 = pick(ADJS), pick(ADJS, 1)
        n1, m1 = pick(FILLER_NOUNS), pick(MANNER)
        return (f"(S (NP (DT The) (NN {n1})) (ADVP (RB {m1})) (VP (VBD was) "
                f"(ADJP (RB very) (JJ {a1}) (CC and) (JJ {a2}))) (. .))")
    if shape == 3:
        a1 = pick(ADJS)
        cop = min(("is", "are", "was", "were"), key=lambda w: (counts[w], w))
        if cop == "is":
            return f"(S (NP (DT The) (NN {pick(FILLER_NOUNS)})) (VP (VBZ is) (ADJP (JJ {a1}))) (. .))"
        if cop == "are":
            return f"(S (NP (DT The) (NNS lawyers)) (VP (VBP are) (ADJP (JJ {a1}))) (. .))"
        if cop == "was":
            return f"(S (NP (DT The) (NN {pick(FILLER_NOUNS)})) (VP (VBD was) (ADJP (JJ {a1}))) (. .))"
        return f"(S (NP (DT The) (NNS lawyers)) (VP (VBD were) (ADJP (JJ {a1}))) (. .))"
    a1, n1 = pick(ADJS), pick(FILLER_NOUNS)
    return (f"(S (NP (NP (DT The) (NN {n1})) (SBAR (WHNP (WDT that)) "
            f"(S (NP (DT the) (NNS lawyers)) (VP (VBP like))))) "
            f"(VP (VBZ is) (ADJP (JJ {a1}))) (. .))")


def _update_counts(counts: Counter, sentence: str) -> None:
    for _tag, word in _PRETERMINAL.findall(sentence):
        counts[word.lower()] += 1


def build_toy_treebank() -> str:
    rot = _Rot()
    sentences: list = []
    for bucket, count in BUCKET_FILL:
        for word in SINGULAR_NOUNS[bucket]:
            sentences.extend(_noun_sentence(word, "NN", j, rot) for j in range(count))
        for word in PLURAL_NOUNS[bucket]:
            sentences.extend(_noun_sentence(word, "NNS", j, rot) for j in range(count))
    for kind, table in (
        ("trans_passive", TRANS_PASSIVE),
        ("trans_pure", TRANS_PURE),
        ("intrans_passive", INTRANS_PASSIVE),
        ("intrans_pure", INTRANS_PURE),
        ("trans_base", TRANS_BASE),
        ("intrans_base", INTRANS_BASE),
    ):
        for bucket, count in BUCKET_FILL:
            sentences.extend(_verb_sentences(kind, table[bucket], count, rot))
    sentences.extend(_polar_block())
    sentences.append("(S (NP (DT The) (NN gadget)) (VP (VBZ is) (ADJP (JJ red))) (. .))")

    counts: Counter = Counter()
    for s in sentences:
        _update_counts(counts, s)
    i = 0
    while True:
        needy = [w for w in TEMPLATE_VOCAB if counts[w] < TARGET_FILL]
        if not needy:
            break
        if i > 20000:
            raise RuntimeError(f"booster loop stuck; still needy: {needy}")
        s = _booster(i, counts)
        sentences.append(s)
        _update_counts(counts, s)
        i += 1
    return "\n".join(sentences) + "\n"


# ---------------------------------------------------------------------------
# Shipped data files


def _data_path(name: str) -> pathlib.Path:
    # Beside this module, as the package ships them; importlib.resources
    # would find the same file at more start-up cost (on 3.12 it loads inspect).
    return pathlib.Path(__file__).with_name("data") / name


def toy_treebank_path():
    return _data_path("toy_treebank.mrg")


def default_suites_path():
    return _data_path("suites.cfg")


def default_transitivity_path():
    return _data_path("transitivity.tsv")


def default_irregular_path():
    return _data_path("irregular_verbs.txt")
