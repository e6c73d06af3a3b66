"""Join surprisal tables to test suites and score items.

An item is correct when the grammatical condition's critical region carries
strictly less summed surprisal than the ungrammatical one; equal-region
pairs (within a tiny tolerance) count as failures.  Accuracies aggregate
per exposure bucket and per grammatical category with Wilson intervals and
exact one-sided binomial tests against chance.

The surprisal interchange format is how external models' surprisals reach
``eval``: a header line ``#syntax-probe-surprisal v1 base=2`` followed by
``sentence_id<TAB>token_index<TAB>token<TAB>surprisal`` records.  Natural-log
files (``base=e``) are converted to bits on read.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, NamedTuple

from .errors import (AlignmentError, FormatError, InputError, open_text, read_rows,
                     write_text)
from .stats import BinomialSummary
from .suites import CONDITIONS, diff_spans

SURPRISAL_HEADER = "#syntax-probe-surprisal v1"
_BASE_SCALES = {"base=2": 1.0, "base=e": 1.0 / math.log(2.0)}
DEFAULT_TIE_EPS = 1e-9


class _SurprisalFields(NamedTuple):
    sentence_id: str
    tokens: tuple
    surprisals: tuple


class SurprisalRecord(_SurprisalFields):
    """One sentence's tokens and their surprisals, as many of each."""

    __slots__ = ()

    def __new__(cls, sentence_id: str, tokens: tuple, surprisals: tuple):
        if len(tokens) != len(surprisals):
            raise InputError(
                f"{sentence_id}: {len(tokens)} tokens vs {len(surprisals)} surprisals"
            )
        return super().__new__(cls, sentence_id, tokens, surprisals)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*iterable)


def sentence_id(item_id: str, condition: str) -> str:
    if condition not in CONDITIONS:
        raise InputError(f"unknown condition {condition!r}")
    return f"{item_id}:{condition}"


def split_sentence_id(sid: str) -> tuple[str, str]:
    item_id, _, condition = sid.rpartition(":")
    if condition not in CONDITIONS or not item_id:
        raise FormatError(f"bad sentence id {sid!r}")
    return item_id, condition


def write_surprisal_file(records: Iterable[SurprisalRecord], path) -> None:
    with write_text(path) as fh:
        fh.write(SURPRISAL_HEADER + " base=2\n")
        for rec in records:
            for i, (tok, s) in enumerate(zip(rec.tokens, rec.surprisals)):
                fh.write(f"{rec.sentence_id}\t{i}\t{tok}\t{s!r}\n")


def read_surprisal_file(path) -> list[SurprisalRecord]:
    """Read interchange records; base=e values are converted to bits."""
    records: dict[str, tuple] = {}  # in file order; one block of lines per id
    last = None
    memo = {}.setdefault  # one string per token spelling
    with read_rows(path, SURPRISAL_HEADER) as (base, rows):
        scale = _BASE_SCALES.get(base)
        if scale is None:
            raise FormatError(f"{path}: unsupported base declaration {base!r}")
        for lineno, fields in rows:
            if fields[0].startswith("#"):
                continue
            sid, idx, tok, surp = fields
            if sid != last:
                if sid in records:
                    raise FormatError(f"{path}:{lineno}: duplicate sentence id "
                                      f"{sid!r}")
                tokens, surprisals = records[sid] = ([], [])
                last = sid
            if int(idx) != len(tokens):
                raise FormatError(f"{path}:{lineno}: non-sequential token indices "
                                  f"for {sid!r}")
            tokens.append(memo(tok, tok))
            surprisals.append(float(surp) * scale)
    return [SurprisalRecord(sid, tuple(tokens), tuple(surprisals))
            for sid, (tokens, surprisals) in records.items()]


# ---------------------------------------------------------------------------
# Alignment and region scoring


def align(suite, records: Iterable[SurprisalRecord]) -> dict:
    """Map item_id -> {condition: record}, verifying token identity: the one
    check of surprisal records against a suite.

    Distinct failures get distinct categories: duplicate ids (caught at
    read), unknown ids, missing conditions, and token mismatches (reported
    with the first divergent index).
    """
    by_item: dict = {item.item_id: {} for item in suite.items}
    items = {item.item_id: item for item in suite.items}
    for rec in records:
        item_id, condition = split_sentence_id(rec.sentence_id)
        if item_id not in by_item:
            raise AlignmentError(f"unknown sentence id {rec.sentence_id!r}")
        if condition in by_item[item_id]:
            raise AlignmentError(f"duplicate sentence id {rec.sentence_id!r}")
        expected = items[item_id].tokens(condition)
        if rec.tokens != tuple(expected):
            raise AlignmentError(
                f"{rec.sentence_id}: token mismatch at index "
                f"{diff_spans(rec.tokens, expected)[0]} "
                f"(got {list(rec.tokens)!r}, suite has {list(expected)!r})"
            )
        by_item[item_id][condition] = rec
    missing = sorted(
        sentence_id(i, c) for i, conds in by_item.items()
        for c in CONDITIONS if c not in conds
    )
    if missing:
        raise AlignmentError(
            f"missing records for {len(missing)} sentences "
            f"(first: {missing[0]!r})"
        )
    return by_item


class ItemResult(NamedTuple):
    item_id: str
    bucket: int
    category: str
    target: str
    gram_bits: float
    ungram_bits: float
    correct: int


# ---------------------------------------------------------------------------
# Aggregation


class EvalCell(NamedTuple):
    bucket: int
    category: str  # "all" pools categories within the bucket
    summary: BinomialSummary


def summarize(outcomes: Iterable[tuple]) -> list[EvalCell]:
    """Accuracy summaries of ``(bucket, category, correct)`` triples, one
    per (bucket, category) and one per bucket pooled as ``"all"``, sorted by
    bucket, then category.

    The pooled row is the mean over items, i.e. categories contribute in
    proportion to their item counts.
    """
    groups: dict = {}
    for bucket, category, correct in outcomes:
        for key in ((bucket, category), (bucket, "all")):
            groups.setdefault(key, []).append(correct)
    return [EvalCell(bucket, category,
                     BinomialSummary.from_counts(sum(got), len(got)))
            for (bucket, category), got in sorted(groups.items())]


def _region_bits(item, record: SurprisalRecord, condition: str, where) -> float:
    """Summed surprisal over the item's critical region (its joint log
    prob) in a record that :func:`align` has matched to the item.  A region
    token that is not finite, or a sum too large for a float, is an
    InputError naming ``where``."""
    start, end = item.region(condition)
    for i in range(start, end):
        if not math.isfinite(record.surprisals[i]):
            raise InputError(f"{where}: item {item.item_id} {condition}: "
                             f"critical region token {record.tokens[i]!r} at "
                             f"index {i} has surprisal {record.surprisals[i]!r}")
    try:
        return math.fsum(record.surprisals[start:end])
    except OverflowError:
        raise InputError(f"{where}: item {item.item_id} {condition}: critical "
                         "region surprisal overflows a float") from None


def evaluate_suite(suite, records: Iterable[SurprisalRecord],
                   eps_tie: float = DEFAULT_TIE_EPS, path=None):
    """Per-item results, in suite order, and their :func:`summarize` cells.

    An item is correct iff its grammatical region is less surprising than
    its ungrammatical one by more than ``eps_tie`` bits: ties count as
    failures, which is what makes an n-gram score exactly 0 on suites whose
    conditions diverge outside its context window.

    A critical region token whose surprisal is not finite (``inf`` for a
    token the model never saw), or a region whose sum overflows a float, is
    an InputError naming ``path``, the suite file (the suite id without
    one), the item, the condition and any such token.  Tokens outside the
    regions may be non-finite."""
    aligned = align(suite, records)
    where = suite.suite_id if path is None else path
    results = []
    for item in suite.items:
        pair = aligned[item.item_id]
        g = _region_bits(item, pair["gram"], "gram", where)
        u = _region_bits(item, pair["ungram"], "ungram", where)
        results.append(ItemResult(item.item_id, item.bucket, item.category,
                                  item.target, g, u, int(g < u - eps_tie)))
    return results, summarize((r.bucket, r.category, r.correct) for r in results)


# ---------------------------------------------------------------------------
# CSV emission (tidy, deterministic)


def write_csv(path, header, rows) -> None:
    """RFC 4180 table with ``\n`` line ends; fields are quoted only when
    they contain a comma, a quote or a line break."""
    with write_text(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


EVAL_COLUMNS = ("suite", "model", "bucket", "category", "n", "k", "accuracy",
                "ci_lo", "ci_hi", "p_above_chance")
ITEMS_COLUMNS = ("suite", "model", "item_id", "bucket", "category", "target",
                 "gram_bits", "ungram_bits", "correct")


def write_eval_csv(cells: Iterable[EvalCell], path, suite_id: str,
                   model: str = "-") -> None:
    rows = []
    for cell in cells:
        s = cell.summary
        rows.append([suite_id, model, cell.bucket, cell.category, s.n, s.k,
                     f"{s.accuracy:.6f}", f"{s.ci_lo:.6f}", f"{s.ci_hi:.6f}",
                     f"{s.p_above_chance:.6g}"])
    write_csv(path, EVAL_COLUMNS, rows)


def write_items_csv(results: Iterable[ItemResult], path, suite_id: str,
                    model: str = "-") -> None:
    write_csv(path, ITEMS_COLUMNS,
              ([suite_id, model, r.item_id, r.bucket, r.category, r.target,
                f"{r.gram_bits:.10f}", f"{r.ungram_bits:.10f}", r.correct]
               for r in results))


def read_items_csv(path, required=(), types=None, key=(), seen=None) -> list[dict]:
    """Rows of a table written by :func:`write_csv`, as dicts keyed by its
    header, with each column named in ``types`` converted by its type.  A
    header without every ``required`` column, a row with more or fewer
    fields than the header, a value its type rejects, or a line the csv
    module cannot read (a field past its size limit) is a FormatError at
    its line.  A row that repeats the ``key`` columns of a row in ``seen``
    (key -> line, shared across calls) is an AlignmentError naming both."""
    types = types or {}
    seen = {} if seen is None else seen
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            missing = [c for c in required if c not in header]
            if missing:
                raise FormatError(f"{path}:1: missing column(s) {', '.join(missing)}")
            rows = []
            for row in reader:
                if None in row or None in row.values():
                    raise FormatError(f"{path}:{reader.line_num}: expected "
                                      f"{len(header)} fields")
                for column, convert in types.items():
                    try:
                        row[column] = convert(row[column])
                    except ValueError:
                        raise FormatError(
                            f"{path}:{reader.line_num}: bad {column} "
                            f"{row[column]!r}") from None
                if key:
                    values = tuple(row[column] for column in key)
                    if values in seen:
                        raise AlignmentError(
                            f"{path}:{reader.line_num}: a second row for "
                            f"{', '.join(key)} {values}, first read at {seen[values]}")
                    seen[values] = f"{path}:{reader.line_num}"
                rows.append(row)
        except csv.Error as exc:  # DictReader.line_num moves once a row is whole
            raise FormatError(f"{path}:{reader.reader.line_num}: {exc}") from None
        return rows


def read_eval_csv(path, seen=None) -> list[dict]:
    return read_items_csv(path, EVAL_COLUMNS, {"p_above_chance": float},
                          key=("suite", "model", "bucket", "category"), seen=seen)
