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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import FormatError, InputError, TrainingError, read_rows, write_text

BOS = "<s>"
UNK = "<unk>"

NEG_INF = float("-inf")


@dataclass
class _ContextEntry:
    counts: dict
    total: int
    n1: int
    n2: int
    n3p: int


@dataclass
class NGramModel:
    order: int
    support: tuple[str, ...]           # prediction vocabulary, sorted
    discounts: list[tuple[float, float, float]]   # per order, 1-based at [k-1]
    tables: list[dict]                 # per order: context -> _ContextEntry
    map_singletons: bool = False
    fallback_orders: tuple[int, ...] = ()
    # Order -> why its discounts fell back to 0.5 (_estimate_discounts).
    # Filled by train only; the model file keeps just fallback_orders.
    discount_fallbacks: dict = field(default_factory=dict, compare=False,
                                     repr=False)

    def __post_init__(self):
        self._support_set = set(self.support)
        # BOS-padded, order-sized window of raw tokens -> surprisal in bits.
        # A plain attribute, not a field, so == and repr ignore it.
        self._memo: dict[tuple[str, ...], float] = {}

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
            entry = self.tables[k - 1].get(sub)
            if entry is None or entry.total == 0:
                continue  # unseen context: distribution equals lower order
            d1, d2, d3 = self.discounts[k - 1]
            c = entry.counts.get(w, 0)
            if c == 0:
                discount = 0.0
            elif c == 1:
                discount = d1
            elif c == 2:
                discount = d2
            else:
                discount = d3
            direct = max(c - discount, 0.0) / entry.total
            gamma = (d1 * entry.n1 + d2 * entry.n2 + d3 * entry.n3p) / entry.total
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

    def score_sentences(self, sentences: Iterable[Sequence[str]]):
        """Per-token (token, surprisal-in-bits) lists, boundaries excluded."""
        return [list(zip(sent, self.surprisals(sent))) for sent in sentences]

    def perplexity(self, sentences: Iterable[Sequence[str]]) -> float:
        surps = [s for sent in sentences for s in self.surprisals(sent)]
        if not surps:
            raise InputError("perplexity requires a nonempty held-out set")
        return 2.0 ** (math.fsum(surps) / len(surps))


def _count_of_counts(counts: Iterable[int]) -> Counter:
    coc = Counter()
    for c in counts:
        if 1 <= c <= 4:
            coc[c] += 1
    return coc


def _estimate_discounts(counts: Iterable[int], order_k: int):
    """(D1, D2, D3) for one order; whether the count-of-counts was
    degenerate, so that all three fell back to 0.5; and why any fell back,
    for reports: ``""`` for none, else the count-of-counts or the names of
    the discounts whose formula value was not positive."""
    coc = _count_of_counts(counts)
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


def _context_tables(grams_by_order: list[dict]) -> list[dict]:
    """Per order, context -> _ContextEntry from {gram: adjusted count}."""
    tables: list[dict] = []
    for grams in grams_by_order:
        ctxs: dict = {}
        for gram, c in grams.items():
            ctxs.setdefault(gram[:-1], {})[gram[-1]] = c
        table = {}
        for ctx, counts in ctxs.items():
            n1 = sum(1 for c in counts.values() if c == 1)
            n2 = sum(1 for c in counts.values() if c == 2)
            n3p = sum(1 for c in counts.values() if c >= 3)
            table[ctx] = _ContextEntry(counts, sum(counts.values()), n1, n2, n3p)
        tables.append(table)
    return tables


def train(sentences: Iterable[Sequence[str]], order: int = 5,
          map_singletons: bool = False) -> NGramModel:
    """Count, adjust, and discount; returns an immutable scoring model."""
    if order < 1:
        raise InputError(f"order must be >= 1, got {order}")
    sents = [list(s) for s in sentences if len(s) > 0]
    if not sents:
        raise TrainingError("empty training corpus")

    if map_singletons:
        unigrams = Counter(w for s in sents for w in s)
        sents = [[w if unigrams[w] > 1 else UNK for w in s] for s in sents]

    support = tuple(sorted({w for s in sents for w in s}))

    raw: list[Counter] = [Counter() for _ in range(order)]
    for sent in sents:
        padded = [BOS] * (order - 1) + sent
        for i in range(order - 1, len(padded)):
            for k in range(1, order + 1):
                raw[k - 1][tuple(padded[i - k + 1: i + 1])] += 1

    adjusted: list[dict] = [dict() for _ in range(order)]
    adjusted[order - 1] = dict(raw[order - 1])
    for k in range(order - 1, 0, -1):
        adj: dict = {}
        for gram in raw[k]:          # (k+1)-grams: distinct-predecessor types
            suffix = gram[1:]
            adj[suffix] = adj.get(suffix, 0) + 1
        for gram, c in raw[k - 1].items():
            if gram[0] == BOS:       # start-anchored grams keep raw counts
                adj[gram] = c
        adjusted[k - 1] = adj

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

    return NGramModel(order, support, discounts, _context_tables(adjusted),
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
        for k, table in enumerate(model.tables, start=1):
            fh.write(f"[ngrams {k}]\n")
            rows = []
            for ctx, entry in table.items():
                for w, c in entry.counts.items():
                    rows.append((ctx + (w,), c))
            for gram, c in sorted(rows):
                fh.write(f"{' '.join(gram)}\t{c}\n")


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
                gram = tuple(words.split(" "))
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
    return NGramModel(order, support, discounts, _context_tables(grams),
                      map_singletons=unk, fallback_orders=fallback)
