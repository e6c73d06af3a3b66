"""Interpolated modified Kneser-Ney n-gram language model.

The model is trained on the treebank's terminal strings and emits per-token
surprisals in bits.  Highest-order counts are raw; lower orders use
continuation (distinct-predecessor) counts, except for grams that begin
with the start symbol, which cannot be preceded and keep raw counts.  Three
discounts per order are derived from the order's count-of-counts:

    Y   = n1 / (n1 + 2*n2)
    D_k = k - (k+1) * Y * n_{k+1} / n_k      (k = 1, 2, 3+)

clamped to [0, 1]; if n1 or n2 is zero at some order the model falls back
to a single absolute discount of 0.5 there, and so does a D_k whose value
is not positive.  Each fallback warns, and the trained model names them in
``discount_fallbacks``, which ``train-ngram`` prints.

Sentences are padded with order-1 start symbols for well-defined initial
contexts.  The model predicts real tokens only: there is no end-of-sentence
event, so a one-type corpus really does give that type probability 1.  Out
of vocabulary queries route through the reserved unknown symbol, which has
mass only when training mapped singletons onto it.

The model's state is the rows of its file: per order, each gram's adjusted
count.  ``train`` counts each order's windows over one padded token stream.
A context's total and its n1/n2/n3+ type counts are derived from those rows
per order, the first time ``prob`` looks that order up.

``NGramModel.surprisals`` memoises by window: a model scores each distinct
BOS-padded, order-sized window of raw tokens once, and every later
occurrence reuses that float.  Minimal pairs and shared suite frames repeat
most windows.  The memo is exact, since an entry holds the result of the
very ``logprob`` call an unmemoised loop would make, and it lives as long
as the model.  ``prob`` and ``logprob`` are not memoised.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from itertools import compress, islice
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import FormatError, InputError, TrainingError, read_rows, write_text

BOS = "<s>"
UNK = "<unk>"

NEG_INF = float("-inf")


class NGramModel:
    def __init__(self, order: int, support: tuple[str, ...],
                 discounts: list[tuple[float, float, float]], grams: list[dict],
                 map_singletons: bool = False, fallback_orders: tuple[int, ...] = (),
                 discount_fallbacks: dict | None = None):
        self.order = order
        self.support = support              # prediction vocabulary, sorted
        self.discounts = discounts          # per order, 1-based at [k-1]
        self.grams = grams                  # per order: gram -> adjusted count
        self.map_singletons = map_singletons
        self.fallback_orders = fallback_orders
        # Order -> why its discounts fell back to 0.5 (_estimate_discounts).
        # Filled by train only; the model file keeps just fallback_orders.
        self.discount_fallbacks = discount_fallbacks or {}
        self._support_set = set(support)
        # BOS-padded, order-sized window of raw tokens -> surprisal in bits.
        self._memo: dict[tuple[str, ...], float] = {}
        # Per order, context -> [total, n1, n2, n3+]; see _context_stats.
        self._contexts: list[dict | None] = [None] * len(grams)

    # What == and repr compare: the model file's rows.  The memo, the
    # context tables and discount_fallbacks, which no file keeps, are left out.
    _ROWS = ("order", "support", "discounts", "grams", "map_singletons",
             "fallback_orders")

    def __eq__(self, other):
        return isinstance(other, NGramModel) and all(
            getattr(self, k) == getattr(other, k) for k in self._ROWS)

    def __repr__(self):
        return f"NGramModel({', '.join(f'{k}={getattr(self, k)!r}' for k in self._ROWS)})"

    # -- lookups ----------------------------------------------------------

    def _lookup_form(self, word: str) -> str | None:
        if word in self._support_set:
            return word
        if UNK in self._support_set:
            return UNK
        return None

    def _map_context(self, context: Sequence[str]) -> tuple[str, ...]:
        if UNK not in self._support_set:
            return tuple(context)
        return tuple(
            w if (w in self._support_set or w == BOS) else UNK for w in context
        )

    def _context_stats(self, k: int) -> dict:
        """Context -> [total, n1, n2, n3+] for order k, in one pass over its
        grams; counts are at least 1, so ``min(c, 3)`` is the type slot."""
        stats: dict = {}
        for gram, c in self.grams[k - 1].items():
            ctx = gram[:-1]
            row = stats.get(ctx)
            if row is None:
                row = stats[ctx] = [0, 0, 0, 0]
            row[0] += c
            row[c if c < 3 else 3] += 1
        self._contexts[k - 1] = stats
        return stats

    def prob(self, context: Sequence[str], word: str) -> float:
        """P(word | context) under the modified-KN interpolation."""
        w = self._lookup_form(word)
        if w is None:
            return 0.0
        ctx = self._map_context(context)
        if len(ctx) > self.order - 1:
            ctx = ctx[len(ctx) - (self.order - 1):]
        p = 1.0 / len(self.support)
        top = min(self.order, len(ctx) + 1)
        for k in range(1, top + 1):
            sub = ctx[len(ctx) - (k - 1):] if k > 1 else ()
            stats = self._contexts[k - 1]
            if stats is None:
                stats = self._context_stats(k)
            row = stats.get(sub)
            if row is None:
                continue  # unseen context: distribution equals lower order
            total, n1, n2, n3p = row
            d1, d2, d3 = self.discounts[k - 1]
            c = self.grams[k - 1].get(sub + (w,), 0)
            if c == 0:
                discount = 0.0
            elif c == 1:
                discount = d1
            elif c == 2:
                discount = d2
            else:
                discount = d3
            direct = max(c - discount, 0.0) / total
            gamma = (d1 * n1 + d2 * n2 + d3 * n3p) / total
            p = direct + gamma * p
        return p

    def logprob(self, context: Sequence[str], word: str) -> float:
        """log2 P(word | context); contexts longer than order-1 are
        truncated from the left; OOV words yield -inf under the default
        no-singleton-mapping configuration."""
        p = self.prob(context, word)
        return math.log2(p) if p > 0.0 else NEG_INF

    # -- scoring ----------------------------------------------------------

    def surprisals(self, tokens: Sequence[str]) -> list[float]:
        """Per-token surprisals in bits (``inf`` for a zero-probability
        token).  Each distinct window is scored once per model by the same
        ``logprob`` call, so a memo hit returns the very same float."""
        n = self.order
        padded = (BOS,) * (n - 1) + tuple(tokens)
        memo = self._memo
        out = []
        for i in range(n, len(padded) + 1):
            window = padded[i - n: i]
            s = memo.get(window)
            if s is None:
                lp = self.logprob(window[:-1], window[-1])
                s = memo[window] = 0.0 - lp if lp != NEG_INF else math.inf
            out.append(s)
        return out

    def perplexity(self, sentences: Iterable[Sequence[str]]) -> float:
        surps = [s for sent in sentences for s in self.surprisals(sent)]
        if not surps:
            raise InputError("perplexity requires a nonempty held-out set")
        return 2.0 ** (math.fsum(surps) / len(surps))


def _estimate_discounts(counts: Iterable[int], order_k: int):
    """(D1, D2, D3) for one order; whether the count-of-counts was
    degenerate, so that all three fell back to 0.5; and why any fell back,
    for reports: ``""`` for none, else the count-of-counts or the names of
    the discounts whose formula value was not positive."""
    coc = Counter(counts)
    n1, n2, n3, n4 = coc[1], coc[2], coc[3], coc[4]
    if n1 == 0 or n2 == 0:
        warnings.warn(
            f"order {order_k}: degenerate count-of-counts (n1={n1}, n2={n2}); "
            "falling back to absolute discount 0.5"
        )
        return (0.5, 0.5, 0.5), True, f"degenerate count-of-counts n1={n1} n2={n2}"
    y = n1 / (n1 + 2.0 * n2)
    raw = (
        1.0 - 2.0 * y * (n2 / n1),
        2.0 - 3.0 * y * (n3 / n2 if n2 else 0.0),
        3.0 - 4.0 * y * (n4 / n3 if n3 else 0.0),
    )
    # A non-positive formula value would zero out smoothing mass and break
    # strict positivity; treat it like the degenerate case above.
    out, fell = [], []
    for k, d in enumerate(raw, start=1):
        if d <= 0.0:
            warnings.warn(
                f"order {order_k}: discount D{k} formula gave {d:.3f}; "
                "using absolute discount 0.5"
            )
            out.append(0.5)
            fell.append(f"D{k}")
        else:
            out.append(min(1.0, d))
    return tuple(out), False, f"{','.join(fell)} not positive" if fell else ""


def train(sentences: Iterable[Sequence[str]], order: int = 5,
          map_singletons: bool = False) -> NGramModel:
    """Count, adjust, and discount; returns an immutable scoring model."""
    if order < 1:
        raise InputError(f"order must be >= 1, got {order}")

    # One stream of BOS-padded sentences, read from ``sentences`` in one
    # pass; a window is counted when it ends on a real token, which the
    # mask marks by position (a real token may be spelled like the start
    # symbol).
    stream: list[str] = []
    real: list[bool] = []
    pad, pad_mask = [BOS] * (order - 1), [False] * (order - 1)
    for s in sentences:
        if len(s) > 0:
            stream += pad
            stream += s
            real += pad_mask
            real += [True] * len(s)
    if not real:
        raise TrainingError("empty training corpus")

    if map_singletons:
        unigrams = Counter(compress(stream, real))
        stream = [w if not r or unigrams[w] > 1 else UNK
                  for w, r in zip(stream, real)]

    # islice reads each shift of the stream without copying it; a slice per
    # shift would hold up to order - 1 more copies while counting.
    raw = [Counter(compress(zip(*[islice(stream, j, None) for j in range(k)]),
                            islice(real, k - 1, None)))
           for k in range(1, order + 1)]
    adjusted: list[dict] = [{} for _ in range(order)]
    adjusted[order - 1] = dict(raw[order - 1])
    for k in range(order - 1, 0, -1):
        # continuation counts: distinct predecessors in the (k+1)-grams;
        # start-anchored grams cannot be preceded and keep raw counts
        adj = dict(Counter(map(itemgetter(slice(1, None)), raw[k])))
        adj.update((gram, c) for gram, c in raw[k - 1].items() if gram[0] == BOS)
        adjusted[k - 1] = adj
    support = tuple(sorted(w for (w,) in adjusted[0]))

    discounts = []
    fallback = []
    notes = {}
    for k in range(1, order + 1):
        d, degenerate, why = _estimate_discounts(adjusted[k - 1].values(), k)
        discounts.append(d)
        if degenerate:
            fallback.append(k)
        if why:
            notes[k] = why

    return NGramModel(order, support, discounts, adjusted,
                      map_singletons=map_singletons,
                      fallback_orders=tuple(fallback), discount_fallbacks=notes)


# ---------------------------------------------------------------------------
# Persistence: sorted textual n-gram table with counts and discounts.


MODEL_HEADER = "#syntax-probe-ngram v1"


def write_model(model: NGramModel, path) -> None:
    with write_text(path) as fh:
        fh.write(MODEL_HEADER + "\n")
        fh.write(f"order\t{model.order}\n")
        fh.write(f"unk\t{int(model.map_singletons)}\n")
        fh.write(f"fallback\t{','.join(map(str, model.fallback_orders))}\n")
        fh.write("[discounts]\n")
        for k, (d1, d2, d3) in enumerate(model.discounts, start=1):
            fh.write(f"{k}\t{d1!r}\t{d2!r}\t{d3!r}\n")
        for k, grams in enumerate(model.grams, start=1):
            fh.write(f"[ngrams {k}]\n")
            fh.writelines(f"{' '.join(gram)}\t{grams[gram]}\n"
                          for gram in sorted(grams))


def read_model(path) -> NGramModel:
    """Load a ``write_model`` file.  A row that could not score correctly is
    a FormatError at its line: an ``unk`` flag other than 0 or 1, a
    ``fallback`` order outside 1..order, a count below 1, a discount outside
    [0, 1] or not a number, a ``[discounts]`` row out of order, a gram
    twice, an ``[ngrams k]`` section with no rows."""
    order = None
    unk = False
    fallback: tuple[int, ...] = ()
    fallback_line = 0
    discounts: list[tuple[float, float, float]] = []
    grams: list[dict] = []
    section = None  # None (the keys), "discounts", or the k of "[ngrams k]"
    memo = {}.setdefault  # one string per word, shared by all its grams
    with read_rows(path, MODEL_HEADER) as (_, rows):
        for lineno, fields in rows:
            if fields[0] == "[discounts]":
                section = "discounts"
            elif fields[0].startswith("[ngrams "):
                (head,) = fields
                if grams and not grams[-1]:
                    raise ValueError(f"[ngrams {len(grams)}] has no rows")
                section = int(head[len("[ngrams "):-1])
                if section != len(grams) + 1:
                    raise ValueError(f"[ngrams {section}] after {len(grams)} orders")
                grams.append({})
            elif section is None:
                key, value = fields
                if key == "order":
                    order = int(value)
                    if order < 1:
                        raise ValueError(f"order {order} < 1")
                elif key == "unk":
                    if value not in ("0", "1"):
                        raise ValueError(f"unk {value!r} is not 0 or 1")
                    unk = value == "1"
                elif key == "fallback":
                    fallback = tuple(int(x) for x in value.split(",") if x)
                    fallback_line = lineno
            elif section == "discounts":
                k, *ds = fields
                if int(k) != len(discounts) + 1:
                    raise ValueError(f"discounts for order {k} in row "
                                     f"{len(discounts) + 1}")
                d1, d2, d3 = map(float, ds)
                if not all(0.0 <= d <= 1.0 for d in (d1, d2, d3)):
                    raise ValueError(f"discounts {d1!r} {d2!r} {d3!r} "
                                     "outside [0, 1]")
                discounts.append((d1, d2, d3))
            else:
                words, count = fields
                count = int(count)
                parts = words.split(" ")
                gram = tuple(map(memo, parts, parts))
                if len(gram) != section:
                    raise FormatError(f"{path}:{lineno}: expected a {section}-gram")
                if gram in grams[-1]:
                    raise ValueError(f"{words!r} listed twice")
                if count < 1:
                    raise ValueError(f"count {count} < 1")
                grams[-1][gram] = count
    if order is None or len(discounts) != order or len(grams) != order:
        raise FormatError(f"{path}: incomplete model file")
    if not grams[-1]:
        raise FormatError(f"{path}: [ngrams {order}] has no rows")
    for k in fallback:
        if not 1 <= k <= order:
            raise FormatError(f"{path}:{fallback_line}: fallback order {k} "
                              f"outside 1..{order}")

    support = tuple(sorted(w for (w,) in grams[0]))
    return NGramModel(order, support, discounts, grams,
                      map_singletons=unk, fallback_orders=fallback)
