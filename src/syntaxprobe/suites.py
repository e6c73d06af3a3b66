"""Targeted grammaticality test suites with marked critical regions.

Thirteen suites probe two lexical features in base and transformed frames:
nominal number (simple declaratives, PP- and object-RC-modified subjects,
polar questions with and without a four-word modifier) and verbal argument
structure (infinitival and past-tense actives, passives with no/short/long
modifiers, and the same passives restricted to verbs never seen as
participles).  Every item pairs a grammatical and an ungrammatical sentence
that differ as the suite's kind prescribes.  One table, ``_KINDS``, says
what a kind fixes: the condition rule its suite files record, its two
categories, the frame and condition-value keys its definitions give, and
the pair shape.  ``copula_agreement`` and ``polar_inversion`` swap one
token (the copula, the fronted auxiliary); ``passive_aux`` and
``object_manipulation`` drop the auxiliary or the object (up to three
tokens) from one side.

Templates and filler inventories live in an editable definitions file (see
``data/suites.cfg``).  A definition gives ``kind``, ``categories``,
``region``, ``target_tag``, ``invariance``, ``pool_*`` and its kind's keys,
and nothing else.  Generation is a pure function of (lexicon, definitions,
seed) and suite files are byte-identical across runs.  A suite's word pools
and filler combinations are built once; every target draws from them.
"""

from __future__ import annotations

import configparser
import itertools
import random
import re
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .corpus import (
    DEFAULT_BUCKETS,
    LexiconStats,
    TransitivityClass,
    active_only_verbs,
    exposure_bucket,
    filter_polar_overlap,
    is_punct,
    lexicon_digest,
    majority_tag,
    parse_boolean,
    parse_bucket_label,
)
from .errors import (EmptyPoolError, FormatError, GenerationError, InputError, open_text,
                     read_rows, write_text)

NOUN_CATEGORIES = ("singular", "plural")
VERB_CATEGORIES = ("transitive", "intransitive")


class _Kind(NamedTuple):
    rule: str           # the condition rule suite files record
    categories: tuple   # sorted, the order generation walks them
    frames: tuple       # frame keys a definition gives
    values: tuple       # condition-value keys (verb_*/aux_*) a definition gives
    drop: int           # tokens one side of a pair may lack; 0: a one-token swap


_KINDS = {
    "copula_agreement": _Kind("verb-form swap", ("plural", "singular"), ("frame",),
                              ("verb_singular", "verb_plural"), 0),
    "polar_inversion": _Kind("auxiliary swap", ("plural", "singular"),
                             ("frame_present", "frame_past"),
                             ("aux_singular_present", "aux_plural_present",
                              "aux_singular_past", "aux_plural_past"), 0),
    "object_manipulation": _Kind("object deletion", ("intransitive", "transitive"),
                                 ("frame_with_object", "frame_without_object"), (), 3),
    "passive_aux": _Kind("auxiliary deletion", ("intransitive", "transitive"),
                         ("frame_with_aux", "frame_without_aux"), (), 1),
}

#: Keys a definition of any kind may give, besides ``pool_*`` and its kind's.
_COMMON_KEYS = ("kind", "categories", "region", "target_tag", "invariance")


# ---------------------------------------------------------------------------
# Definitions file


class SuiteDef(NamedTuple):
    suite_id: str
    kind: str
    categories: tuple
    region: str
    frames: dict          # frame name -> tuple of frame tokens
    values: dict          # condition slot values (verb_*/aux_*)
    pools: dict           # slot name -> list of (possibly multi-token) strings
    target_tag: str | None = None
    invariance: bool = False


class SuiteDefs(NamedTuple):
    defs: dict
    digest: str

    def __getitem__(self, suite_id: str) -> SuiteDef:
        try:
            return self.defs[suite_id]
        except KeyError:
            raise FormatError(f"no suite {suite_id!r} in definitions") from None

    def ids(self) -> list[str]:
        return list(self.defs)


def _frame_slot_names(frame_tokens) -> list[str]:
    """The ``{name}`` slots that the definition's pools fill, in first-use
    order; ``{target}``, ``{verb}`` and ``{aux}`` are set per item."""
    return [name for name in dict.fromkeys(t[1:-1] for t in frame_tokens
                                           if t.startswith("{") and t.endswith("}"))
            if name not in ("target", "verb", "aux")]


def parse_suite_defs(text: str, source: str = "<string>") -> SuiteDefs:
    parser = configparser.ConfigParser(default_section="shared", interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise FormatError(f"bad suite definitions: {' '.join(str(exc).split())}") \
            from exc
    defs = {}
    for section in parser.sections():
        raw = dict(parser[section])
        kind = _KINDS.get(raw.get("kind"))
        if kind is None:
            raise FormatError(f"[{section}]: unknown kind {raw.get('kind')!r}")
        for key in raw:
            if not (key in _COMMON_KEYS or key in kind.frames or key in kind.values
                    or key.startswith("pool_")):
                raise FormatError(f"[{section}]: unknown key {key!r}" + (
                    " (from [shared])" if key in parser.defaults() else ""))
        for key in kind.frames + kind.values:
            if key not in raw:
                raise FormatError(f"[{section}]: missing key {key!r}")
        categories = sorted(c.strip() for c in raw.get("categories", "").split(",")
                            if c.strip())
        if tuple(categories) != kind.categories:
            raise FormatError(f"[{section}]: categories must be {kind.categories}")
        frames = {key: tuple(raw[key].split()) for key in kind.frames}
        values = {key: raw[key].strip() for key in kind.values}
        pools = {
            key[len("pool_"):]: [e.strip() for e in value.split(",") if e.strip()]
            for key, value in raw.items() if key.startswith("pool_")
        }
        try:
            invariance = parse_boolean(raw.get("invariance", ""))
        except KeyError:
            raise FormatError(f"[{section}]: invariance must be a boolean, got "
                              f"{raw['invariance']!r}") from None
        region = raw.get("region", "")
        if not (region.startswith("slot:") or re.fullmatch("last:[1-9][0-9]*", region)):
            raise FormatError(f"[{section}]: region must be 'slot:NAME' or 'last:K' "
                              "with K >= 1")
        for name in _frame_slot_names(t for frame in frames.values() for t in frame):
            if name not in pools:
                raise FormatError(f"[{section}]: slot {{{name}}} has no pool_{name}")
        defs[section] = SuiteDef(
            suite_id=section,
            kind=raw["kind"],
            categories=kind.categories,
            region=region,
            frames=frames,
            values=values,
            pools=pools,
            target_tag=raw.get("target_tag"),
            invariance=invariance,
        )
    if not defs:
        raise FormatError("suite definitions file has no sections")
    import hashlib  # here, not at the top: only gen hashes
    return SuiteDefs(defs, hashlib.sha256(text.encode()).hexdigest())


def read_suite_defs(path) -> SuiteDefs:
    """Parse a definitions file; every error names ``path`` on one line."""
    with open_text(path) as fh:
        text = fh.read()
    try:
        return parse_suite_defs(text, str(path))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Items and suites


#: An item's two sentences, in the order suite files list them.
CONDITIONS = ("gram", "ungram")


class TestItem(NamedTuple):
    __test__ = False  # not a pytest class, despite the name

    item_id: str
    suite_id: str
    target: str
    category: str
    bucket: int
    gram_tokens: tuple
    gram_region: tuple
    ungram_tokens: tuple
    ungram_region: tuple

    def tokens(self, condition: str) -> tuple:
        return self.gram_tokens if condition == "gram" else self.ungram_tokens

    def region(self, condition: str) -> tuple:
        return self.gram_region if condition == "gram" else self.ungram_region


class TestSuite(NamedTuple):
    __test__ = False  # not a pytest class, despite the name

    suite_id: str
    kind: str
    condition_rule: str
    items: list
    provenance: Mapping = MappingProxyType({})
    shortfalls: Sequence = ()  # (bucket, category, wanted, got) rows
    invariance: bool = False

    def sentence_count(self) -> int:
        return 2 * len(self.items)


# ---------------------------------------------------------------------------
# Target pools


class SuiteResources(NamedTuple):
    """What generation needs beyond the lexicon: transitivity calls, irregular verbs."""

    transitivity_calls: Mapping = MappingProxyType({})
    irregular: frozenset = frozenset()


def candidate_pool(lex: LexiconStats, suite_def: SuiteDef, category: str,
                   resources: SuiteResources) -> list[str]:
    """All word forms eligible for a suite/category, any exposure.  Verbs come
    from the transitivity calls: by mark in invariance suites, else by class."""
    if category in NOUN_CATEGORIES:
        tag = "NN" if category == "singular" else "NNS"
        pool = [w for w in lex.words() if majority_tag(lex.stats(w)) == tag]
        if suite_def.kind == "polar_inversion":
            pool, _ = filter_polar_overlap(pool, lex)
        return pool
    if category not in VERB_CATEGORIES:
        raise InputError(f"unknown category {category!r}")
    tag = suite_def.target_tag or "VBD"
    if suite_def.invariance:
        active = set(active_only_verbs(lex, resources.irregular))
        return sorted(w for w, call in resources.transitivity_calls.items()
                      if call.marked == category and w in active)
    pool = []
    for w, call in resources.transitivity_calls.items():
        if call.klass != TransitivityClass(category):
            continue
        if lex.stats(w).pos.get(tag, 0) == 0:
            continue
        if suite_def.kind == "passive_aux" and w in resources.irregular:
            continue
        pool.append(w)
    return sorted(pool)


def _derived_rng(*parts) -> random.Random:
    import hashlib
    key = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# Instantiation


def _render(frame_tokens, assignment) -> tuple[list, dict]:
    tokens: list = []
    spans: dict = {}
    for ft in frame_tokens:
        if ft.startswith("{") and ft.endswith("}"):
            name = ft[1:-1]
            try:
                value = assignment[name]
            except KeyError:
                raise GenerationError(f"no value for slot {{{name}}}") from None
            parts = value.split()
            spans[name] = (len(tokens), len(tokens) + len(parts))
            tokens.extend(parts)
        else:
            tokens.append(ft)
    return tokens, spans


def _region(defn: SuiteDef, tokens, spans) -> tuple:
    if defn.region.startswith("slot:"):
        name = defn.region[len("slot:"):]
        if name not in spans:
            raise GenerationError(f"region slot {{{name}}} absent from frame")
        return spans[name]
    k = int(defn.region[len("last:"):])
    return (len(tokens) - k, len(tokens))


def _condition_frames(defn: SuiteDef, category: str, tense: str | None):
    """(gram frame+values, ungram frame+values) for one item."""
    (other,) = set(defn.categories) - {category}
    if defn.kind == "copula_agreement":
        frame = defn.frames["frame"]
        return (frame, {"verb": defn.values[f"verb_{category}"]}), \
               (frame, {"verb": defn.values[f"verb_{other}"]})
    if defn.kind == "polar_inversion":
        frame = defn.frames[f"frame_{tense}"]
        return (frame, {"aux": defn.values[f"aux_{category}_{tense}"]}), \
               (frame, {"aux": defn.values[f"aux_{other}_{tense}"]})
    with_f, without_f = (defn.frames[k] for k in _KINDS[defn.kind].frames)
    pair = (with_f, without_f) if category == "transitive" else (without_f, with_f)
    return (pair[0], {}), (pair[1], {})


def instantiate(
    defn: SuiteDef,
    target: str,
    category: str,
    fillers: Mapping[str, str],
    tense: str | None = None,
) -> tuple[tuple, tuple]:
    """Realize one item: ((gram tokens, region span), (ungram tokens, region
    span)); ``tense`` picks a polar inversion frame.  ``validate_suite``
    checks the regions and filler frequencies."""
    assignment = dict(fillers, target=target)
    realized = []
    for frame, cond_values in _condition_frames(defn, category, tense):
        tokens, spans = _render(frame, {**assignment, **cond_values})
        realized.append((tuple(tokens), _region(defn, tokens, spans)))
    return tuple(realized)


def _rare_fillers(tokens, target: str, rare: dict, lex: LexiconStats, min_count: int):
    """Non-target, non-punctuation tokens below the frequency threshold, in
    sentence order; ``rare`` keeps each token's verdict for one suite, and
    the target test stays outside it, since each item has its own target."""
    for tok in tokens:
        if tok != target:
            if tok not in rare:
                rare[tok] = not is_punct(tok) and lex.count(tok) < min_count
            if rare[tok]:
                yield tok


def _frame_variants(defn: SuiteDef) -> list:
    """(tense, slot names, every filler combination) per frame set: one set
    per tense for polar inversion, else the kind's frames with tense None."""
    if defn.kind == "polar_inversion":
        frame_sets = [(tense, (f"frame_{tense}",)) for tense in ("present", "past")]
    else:
        frame_sets = [(None, _KINDS[defn.kind].frames)]
    variants = []
    for tense, frame_names in frame_sets:
        slot_names = _frame_slot_names(t for f in frame_names for t in defn.frames[f])
        variants.append((tense, slot_names,
                         list(itertools.product(*(defn.pools[n] for n in slot_names)))))
    return variants


def _instances(defn: SuiteDef, variants: list, target: str, k: int,
               rng: random.Random):
    """k deterministic (fillers, tense) frame instances for one target word:
    half of them, rounded down, past tense for polar inversion."""
    picked = []
    for tense, slot_names, combos in variants:
        need = k if tense is None else k // 2 if tense == "past" else k - k // 2
        # a filler equal to the target would break uniqueness
        options = [values for values in combos
                   if not any(target in v.split() for v in values)]
        if len(options) < need:
            for_tense = f" for {tense} tense" if tense else ""
            raise GenerationError(f"{defn.suite_id}: only {len(options)} frame "
                                  f"variants{for_tense}, need {need}")
        picked.extend((dict(zip(slot_names, options[i])), tense)
                      for i in rng.sample(range(len(options)), need))
    return picked


# ---------------------------------------------------------------------------
# Generation


def generate_suite(
    suite_id: str,
    defs: SuiteDefs,
    lex: LexiconStats,
    seed,
    *,
    resources: SuiteResources | None = None,
    words_per_category: int = 20,
    frames_per_word: int = 20,
    filler_min_count: int = 50,
    bucket_table=DEFAULT_BUCKETS,
) -> TestSuite:
    """Deterministically instantiate one suite from a lexicon.

    Each (bucket, category) draws up to ``words_per_category`` distinct
    words, uniformly without replacement, from the eligible words of its
    exposure bucket.  Buckets that lack candidates produce fewer words
    (recorded as shortfalls), never resampling from other buckets; a suite
    whose every bucket is empty raises.  The returned suite has already
    passed validation.
    """
    defn = defs[suite_id]
    pools: dict = {}  # (bucket or None, category) -> eligible words
    for category in defn.categories:
        for w in candidate_pool(lex, defn, category, resources or SuiteResources()):
            bucket = exposure_bucket(lex.count(w), bucket_table)
            pools.setdefault((bucket, category), []).append(w)
    variants = _frame_variants(defn)
    items = []
    shortfalls = []
    for bucket in bucket_table:
        for category in defn.categories:
            pool = sorted(pools.get((bucket, category), ()))
            rng = _derived_rng(seed, suite_id, bucket.id, category)
            targets = rng.sample(pool, min(words_per_category, len(pool)))
            if len(targets) < words_per_category:
                shortfalls.append(
                    (bucket.id, category, words_per_category, len(targets))
                )
            for target in targets:
                rng = _derived_rng(seed, suite_id, bucket.id, category, target)
                for f_idx, (fillers, tense) in enumerate(
                    _instances(defn, variants, target, frames_per_word, rng)
                ):
                    gram, ungram = instantiate(defn, target, category, fillers, tense)
                    items.append(TestItem(
                        f"{suite_id}.b{bucket.id}.{target}.f{f_idx:02d}", suite_id,
                        target, category, bucket.id, *gram, *ungram))
    if not items:
        raise EmptyPoolError(f"{suite_id}: every bucket/category pool is empty")
    suite = TestSuite(
        suite_id=suite_id,
        kind=defn.kind,
        condition_rule=_KINDS[defn.kind].rule,
        items=items,
        invariance=defn.invariance,
        provenance={
            "corpus": lexicon_digest(lex),
            "defs": defs.digest,
            "seed": str(seed),
            "words_per_category": str(words_per_category),
            "frames_per_word": str(frames_per_word),
            "filler_min_count": str(filler_min_count),
        },
        shortfalls=shortfalls,
    )
    violations = validate_suite(suite, lex, filler_min_count=filler_min_count)
    if violations:
        raise GenerationError(
            f"{suite_id}: generated suite failed validation "
            f"({len(violations)} violations; first: {violations[0]})"
        )
    return suite


# ---------------------------------------------------------------------------
# Validation


def diff_spans(a: tuple, b: tuple):
    """(prefix length, a middle, b middle) with maximal common affixes."""
    p = 0
    while p < len(a) and p < len(b) and a[p] == b[p]:
        p += 1
    s = 0
    while (s < len(a) - p and s < len(b) - p
           and a[len(a) - 1 - s] == b[len(b) - 1 - s]):
        s += 1
    return p, a[p:len(a) - s], b[p:len(b) - s]


def validate_suite(
    suite: TestSuite,
    lex: LexiconStats,
    *,
    filler_min_count: int = 50,
) -> list:
    """Report-only check of item invariants, pair minimality, frequency
    constraints, balance, and filter soundness: the ``(item_id or None,
    code, message)`` violations.  A bucket whose lagging categories all
    have a recorded shortfall is balanced."""
    violations = []

    def bad(item_id, code, message):
        violations.append((item_id, code, message))

    kind = _KINDS.get(suite.kind)
    seen_ids = set()
    per_bucket: dict = {}
    rare: dict[str, bool] = {}
    for item in suite.items:
        if item.item_id in seen_ids:
            bad(item.item_id, "duplicate-id", "item id occurs twice")
        seen_ids.add(item.item_id)
        per_bucket.setdefault(item.bucket, {}).setdefault(item.category, set()).add(item.target)

        for condition in CONDITIONS:
            tokens = item.tokens(condition)
            start, end = item.region(condition)
            if not (0 <= start < end <= len(tokens)):
                bad(item.item_id, "bad-region",
                    f"{condition} region ({start}, {end}) invalid for "
                    f"{len(tokens)} tokens")
            n_target = sum(1 for t in tokens if t == item.target)
            if n_target != 1:
                bad(item.item_id, "target-count",
                    f"target occurs {n_target} times in {condition} sentence")
            for tok in _rare_fillers(tokens, item.target, rare, lex, filler_min_count):
                bad(item.item_id, "filler-frequency",
                    f"filler {tok!r} occurs {lex.count(tok)} times "
                    f"(< {filler_min_count})")

        _, gmid, umid = diff_spans(item.gram_tokens, item.ungram_tokens)
        if kind is None:
            pair_ok = False
        elif kind.drop:  # one side lacks 1..drop tokens the other has
            pair_ok = not (gmid and umid) and 1 <= len(gmid) + len(umid) <= kind.drop
        else:
            pair_ok = len(gmid) == len(umid) == 1
        if not pair_ok:
            bad(item.item_id, "minimal-pair",
                f"conditions differ as {list(gmid)!r} vs {list(umid)!r}, "
                f"not per rule {suite.condition_rule!r}")

        if suite.kind == "polar_inversion" and lex.stats(item.target).inverted > 0:
            bad(item.item_id, "polar-overlap",
                f"target {item.target!r} occurs in inverted frames")
        if suite.invariance and lex.stats(item.target).vbn > 0:
            bad(item.item_id, "participle-evidence",
                f"target {item.target!r} has participle occurrences")

    shortfall_keys = {(b, c) for (b, c, _, _) in suite.shortfalls}
    all_cats = sorted({i.category for i in suite.items}
                      | {c for (_, c, _, _) in suite.shortfalls})
    for bucket in sorted(per_bucket):
        sizes = {cat: len(per_bucket[bucket].get(cat, set())) for cat in all_cats}
        biggest = max(sizes.values())
        if any(sizes[c] < biggest and (bucket, c) not in shortfall_keys
               for c in all_cats):
            bad(None, "balance", f"bucket {bucket}: category sizes {sizes}")
    return violations


# ---------------------------------------------------------------------------
# Suite files: line-delimited, one record per (item, condition)


SUITE_HEADER = "#syntax-probe-suite v1"


def write_suite(suite: TestSuite, path) -> None:
    with write_text(path) as fh:
        fh.write(SUITE_HEADER + "\n")
        fh.write(f"#suite_id\t{suite.suite_id}\n")
        fh.write(f"#kind\t{suite.kind}\n")
        fh.write(f"#condition_rule\t{suite.condition_rule}\n")
        fh.write(f"#invariance\t{int(suite.invariance)}\n")
        prov = "\t".join(f"{k}={v}" for k, v in sorted(suite.provenance.items()))
        fh.write(f"#provenance\t{prov}\n")
        for bucket, category, wanted, got in suite.shortfalls:
            fh.write(f"#shortfall\t{bucket}\t{category}\t{wanted}\t{got}\n")
        fh.write("#item_id\tsuite_id\ttarget\tcategory\tbucket\tcondition"
                 "\ttokens\tregion_start\tregion_end\n")
        for item in suite.items:
            for condition in CONDITIONS:
                tokens = item.tokens(condition)
                start, end = item.region(condition)
                fh.write(
                    f"{item.item_id}\t{item.suite_id}\t{item.target}"
                    f"\t{item.category}\t{item.bucket}\t{condition}"
                    f"\t{' '.join(tokens)}\t{start}\t{end}\n"
                )


def read_suite(path) -> TestSuite:
    meta: dict = {}
    provenance: dict = {}
    shortfalls: list = []
    rows: dict = {}  # item id -> its columns and conditions, in file order
    invariance = False
    memo = {}.setdefault  # one string per token spelling
    with read_rows(path, SUITE_HEADER) as (_, lines):
        for lineno, fields in lines:
            key = fields[0]
            if key in ("#suite_id", "#kind", "#condition_rule"):
                meta[key[1:]] = fields[1]
            elif key == "#invariance":
                invariance = bool(int(fields[1]))
            elif key == "#provenance":
                for kv in fields[1:]:
                    if kv:
                        k, _, v = kv.partition("=")
                        provenance[k] = v
            elif key == "#shortfall":
                shortfalls.append((int(fields[1]), fields[2],
                                   int(fields[3]), int(fields[4])))
            elif not key.startswith("#"):
                item_id, suite_id, target, category, bucket, condition, toks, rs, re_ = \
                    fields
                columns = {"suite_id": suite_id, "target": target,
                           "category": category, "bucket": parse_bucket_label(bucket)}
                row = rows.setdefault(item_id, columns)
                for column, value in columns.items():
                    if row[column] != value:
                        raise FormatError(f"{path}:{lineno}: item {item_id!r} has "
                                          f"{column} {value!r} here but "
                                          f"{row[column]!r} in its other row")
                if condition not in CONDITIONS:
                    raise FormatError(f"{path}:{lineno}: item {item_id!r} has "
                                      f"condition {condition!r}, not one of "
                                      f"{', '.join(CONDITIONS)}")
                if condition in row:
                    raise FormatError(f"{path}:{lineno}: item {item_id!r} has a "
                                      f"second {condition} row")
                parts = toks.split(" ")
                tokens, start, end = tuple(map(memo, parts, parts)), int(rs), int(re_)
                if not 0 <= start < end <= len(tokens):
                    raise FormatError(f"{path}:{lineno}: region ({start}, {end}) is "
                                      f"empty or outside {len(tokens)} tokens")
                row[condition] = (tokens, (start, end))
    items = []
    for item_id, row in rows.items():
        if "gram" not in row or "ungram" not in row:
            raise FormatError(f"{path}: item {item_id!r} missing a condition")
        items.append(TestItem(item_id, row["suite_id"], row["target"],
                              row["category"], row["bucket"],
                              *row["gram"], *row["ungram"]))
    if not items:
        raise FormatError(f"{path}: suite has no items")
    return TestSuite(
        suite_id=meta.get("suite_id", ""),
        kind=meta.get("kind", ""),
        condition_rule=meta.get("condition_rule", ""),
        items=items,
        provenance=provenance,
        shortfalls=shortfalls,
        invariance=invariance,
    )
