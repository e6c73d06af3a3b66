"""Treebank reading and lexical exposure statistics.

This module reads POS-tagged bracketed parses (one tree per S-expression,
PTB ``.mrg`` style) and folds them into per-word-form statistics: raw and
per-tag counts, object-presence evidence for verbs, passive-participle
usage, and occurrence as the subject noun of an inverted polar frame.
Those statistics drive exposure bucketing, transitivity classification and
the word filters used by suite generation.

The lexicon is one fold over the whole corpus: :func:`build_lexicon`
numbers its trees from 1 in file order, the way a dependency sidecar
numbers its sentences, and walks each tree once.  :func:`iter_treebank`
reads a file a piece at a time and yields each tree as its bracket closes,
so a stage that folds the corpus holds one tree and one piece of text at a
time.  A read shares one node among the equal leaves it parses.
"""

from __future__ import annotations

import configparser
import io
import re
from collections import Counter
from enum import Enum
from itertools import islice
from typing import Iterable, Mapping, NamedTuple

from .errors import (FormatError, InputError, TreebankParseError, open_text, read_rows,
                     write_text)

NOUN_TAGS = ("NN", "NNS", "NNP", "NNPS")

#: Sentence-initial forms that open an inverted polar frame.
DEFAULT_AUX_FORMS = frozenset(
    "is are was were am do does did has have had".split()
)

#: Tags whose occurrences contribute object-presence evidence.
DEFAULT_OBJECT_TAGS = frozenset(("VB", "VBD", "VBP", "VBZ"))

#: Tokens exempt from the filler-frequency threshold (every non-alphanumeric
#: single-character token is exempt too).
PUNCT_TOKENS = frozenset(". , ? ! ; : -- ... `` '' ` '".split())


# ---------------------------------------------------------------------------
# Trees


class Tree:
    """A bracketed constituency parse node.

    Terminals carry ``word`` and use ``label`` for the POS tag; their
    ``children`` is the one shared empty tuple.  Internal nodes have a
    ``children`` list and a ``word`` of None.  Trees are values: a read
    shares one node among equal leaves, so no node may be mutated.
    """

    __slots__ = ("label", "children", "word")

    def __init__(self, label: str, children: Iterable["Tree"] | None = None,
                 word: str | None = None):
        children = list(children) if children is not None else []
        if word is not None:
            if children:
                raise ValueError("a node cannot have both a word and children")
            children = _NO_CHILDREN
        self.label = label
        self.children = children
        self.word = word

    @property
    def is_terminal(self) -> bool:
        return self.word is not None

    def terminals(self):
        """Yield the surface tokens as ``(word, tag)`` pairs, in order: the
        one definition of a sentence's words.  Leaves tagged ``-NONE-`` (PTB
        empty elements such as ``*-1`` or a null ``0``) are skipped."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.word is None:
                stack.extend(reversed(node.children))
            elif node.label != "-NONE-":
                yield (node.word, node.label)

    def pretty(self) -> str:
        """Canonical single-space bracketing; inverse of :func:`parse_treebank`."""
        if self.is_terminal:
            return f"({self.label} {self.word})"
        inner = " ".join(child.pretty() for child in self.children)
        return f"({self.label} {inner})"

    def __eq__(self, other):
        return (
            isinstance(other, Tree)
            and self.label == other.label
            and self.word == other.word
            and self.children == other.children
        )

    def __hash__(self):
        return hash((self.label, self.word, tuple(self.children)))

    def __repr__(self):
        return f"Tree({self.pretty()!r})"


#: The children of every terminal.
_NO_CHILDREN: tuple = ()

_new = object.__new__


def _node(label: str, children, word: str | None) -> Tree:
    """A node from parts that the parser owns: ``children`` is kept, not
    copied, and not checked."""
    node = _new(Tree)
    node.label = label
    node.children = children
    node.word = word
    return node


def base_label(label: str) -> str:
    """Strip PTB function tags and indices: ``NP-SBJ-1`` -> ``NP``."""
    return label.split("-")[0].split("=")[0]


#: The tokens of ``"\n" + text``, none of them longer than a line: a comment
#: line (matched with the newline before it, so that only comments start
#: with one), a whole leaf ``(TAG word)``, a labelled open bracket
#: ``(LABEL``, a bracket, or an atom.  A treebank is mostly leaves and
#: labelled brackets, so the parser's loop takes about 2.5 times fewer tokens
#: than one per bracket and atom; any other text, such as a leaf cut by a
#: newline or the unlabelled ``( (S`` of a PTB file, falls back to the
#: bracket and atom tokens.  ``\s`` is exactly ``str.isspace``.
_TOKEN = re.compile(r"\n[^\S\n]*#.*"
                    r"|\([^\s()]+[^\S\n]+[^\s()]+[^\S\n]*\)"
                    r"|\([^\s()]+"
                    r"|[()]|[^\s()]+")


class _Malformed(Exception):
    """A parse error at the ``k``-th token, before its offset is known."""

    def at(self, text: str) -> TreebankParseError:
        """The error at that token's offset in ``text``, found only on error
        so that the parser loops over plain strings."""
        k, message = self.args
        m = next(islice(_TOKEN.finditer("\n" + text), k, None))
        return TreebankParseError(message, offset=m.start() - 1)


#: About how many characters of text the parser tokenizes at a time.
_CHUNK = 1 << 16


def _pieces(fh):
    """An open text file read in pieces of at least ``_CHUNK`` characters,
    each ending just after a newline (or at the end of the file)."""
    while piece := fh.read(_CHUNK):
        yield piece if piece[-1] == "\n" else piece + fh.readline()


def _iter_trees(pieces):
    """Yield the trees of the text that ``pieces`` make up, each as its
    top-level bracket closes; the one parser of :func:`parse_treebank` and
    :func:`iter_treebank`.

    Each piece starts a line, and is tokenized with a newline before it, as
    the whole text is; no token crosses a line.  ``k`` counts tokens over
    the whole text, and a parse error raises :class:`_Malformed` with the
    index of its token, so its offset does not depend on the cuts.  Labels
    and words go through one dict per call, so each spelling is held as one
    string; so do whole leaves, so each distinct leaf is one node.
    """
    memo = {}.setdefault
    leaves: dict[str, Tree] = {}
    stack: list[list] = []  # open brackets: [token index, label, children, word]
    k0 = 0
    for piece in pieces:
        tokens = _TOKEN.findall("\n" + piece)
        for k, tok in enumerate(tokens, k0):
            if tok[0] == "(":
                if stack:
                    top = stack[-1]
                    if top[1] is None:
                        top[1] = ""
                    elif top[3] is not None:
                        raise _Malformed(k, "child after terminal word")
                if tok[-1] != ")":
                    label = tok[1:]
                    stack.append([k, memo(label, label) if label else None, [], None])
                    continue
                node = leaves.get(tok)
                if node is None:
                    tag, word = tok[1:-1].split()
                    node = leaves[tok] = _node(memo(tag, tag), _NO_CHILDREN,
                                               memo(word, word))
            elif tok[0] == "\n":
                continue
            elif not stack:
                raise _Malformed(k, f"expected '(' but found {tok[0]!r}")
            elif tok == ")":
                opened, label, children, word = stack.pop()
                if word is not None:
                    node = _node(label, _NO_CHILDREN, word)
                elif not children:
                    raise _Malformed(opened, "empty constituent")
                elif label:
                    node = _node(label, children, None)
                elif len(children) == 1:
                    # PTB files wrap each tree in an unlabeled top bracket; unwrap it.
                    node = children[0]
                else:
                    raise _Malformed(opened, "empty node label")
            else:
                top = stack[-1]
                if top[1] is None:
                    top[1] = memo(tok, tok)
                elif top[2] or top[3] is not None:
                    raise _Malformed(k, f"unexpected token {tok!r}")
                else:
                    top[3] = memo(tok, tok)
                continue
            if stack:
                stack[-1][2].append(node)
            else:
                yield node
        k0 += len(tokens)
        del tokens  # so that the next piece's tokens replace these
    if stack:
        raise _Malformed(stack[-1][0], "unclosed '('")


def parse_treebank(text: str) -> list[Tree]:
    """Parse a sequence of bracketed trees.

    Lines whose first non-blank character is ``#`` are comments.  Equal
    leaves are one shared node, so the trees must not be mutated.  Raises
    :class:`TreebankParseError` with the offset in ``text`` of the offending
    bracket or token on unbalanced input or empty labels.
    """
    try:
        return list(_iter_trees(_pieces(io.StringIO(text))))
    except _Malformed as exc:
        raise exc.at(text) from None


def iter_treebank(path):
    """Yield the trees of a file one at a time, reading it a piece at a
    time; a parse error, raised when the parse reaches it, reads
    ``<path>:<line>: ...``.  Only then is the whole file read, to find the
    error's offset and line.  Equal leaves of the file are one shared node,
    so the trees must not be mutated."""
    try:
        with open_text(path) as fh:
            yield from _iter_trees(_pieces(fh))
    except _Malformed as exc:
        with open_text(path) as fh:
            text = fh.read()
        error = exc.at(text)
        line = text.count("\n", 0, error.offset) + 1
        error.args = (f"{path}:{line}: {error}",)
        raise error from None


def read_treebank(path) -> list[Tree]:
    """Read trees from a file; a parse error reads ``<path>:<line>: ...``."""
    return list(iter_treebank(path))


# ---------------------------------------------------------------------------
# Lexicon statistics


class WordStats:
    """Evidence accumulated for one word form; its counts are incremented in
    place, so it is a slotted class, not a tuple."""

    __slots__ = ("total", "pos", "obj_present", "obj_absent", "inverted", "vbn")

    def __init__(self):
        self.total = self.obj_present = self.obj_absent = self.inverted = self.vbn = 0
        self.pos = Counter()

    def __eq__(self, other):
        return (isinstance(other, WordStats)
                and all(getattr(self, k) == getattr(other, k) for k in self.__slots__))


_EMPTY = WordStats()


class LexiconStats:
    """Per word-form occurrence statistics for a treebank.

    Lookup keys are folded the same way counts were (see ``lowercase``), so
    callers can query with surface forms.
    """

    def __init__(self, lowercase: bool = False):
        self.lowercase = lowercase
        self._words: dict[str, WordStats] = {}

    def _fold(self, word: str) -> str:
        return word.lower() if self.lowercase else word

    def _entry(self, word: str) -> WordStats:
        key = self._fold(word)
        entry = self._words.get(key)
        if entry is None:
            entry = self._words[key] = WordStats()
        return entry

    def stats(self, word: str) -> WordStats:
        return self._words.get(self._fold(word), _EMPTY)

    def count(self, word: str) -> int:
        return self.stats(word).total

    def words(self) -> list[str]:
        return sorted(self._words)

    def __len__(self):
        return len(self._words)

    def __eq__(self, other):
        return (
            isinstance(other, LexiconStats)
            and self.lowercase == other.lowercase
            and self._words == other._words
        )


def _np_head_noun(node: Tree) -> str | None:
    """Rightmost noun-tagged terminal of an NP, or None."""
    nouns = [w for (w, t) in node.terminals() if t in NOUN_TAGS]
    return nouns[-1] if nouns else None


def _detect_inversion(tree: Tree) -> str | None:
    """Return the subject noun of an inverted polar frame, if this tree is one.

    The frame detector: the sentence's first word is one of
    ``DEFAULT_AUX_FORMS``; the subject is the rightmost noun-tagged terminal
    of the first NP among that auxiliary's right siblings (searched
    innermost-out).
    """
    first = next(tree.terminals(), None)
    if first is None or first[0].lower() not in DEFAULT_AUX_FORMS:
        return None

    # (node, index of the child followed) from the root down to the first
    # word; the innermost ancestor whose right siblings hold an NP wins.
    node, path = tree, []
    while not node.is_terminal:
        i = next(i for i, c in enumerate(node.children) if next(c.terminals(), None))
        path.append((node, i))
        node = node.children[i]
    for parent, i in reversed(path):
        for sib in parent.children[i + 1:]:
            if not sib.is_terminal and base_label(sib.label) == "NP":
                return _np_head_noun(sib)
    return None


class _BaseLabels(dict):
    """``label -> base_label(label)``, each label split on its first lookup."""

    def __missing__(self, label: str) -> str:
        base = self[label] = base_label(label)
        return base


def build_lexicon(
    trees: Iterable[Tree],
    *,
    lowercase: bool = False,
    dependencies: Mapping[int, frozenset] | None = None,
) -> LexiconStats:
    """Fold trees into a :class:`LexiconStats`, reading ``trees`` once, so a
    generator such as :func:`iter_treebank` folds without a tree list.

    One preorder walk per tree collects its ``(word, tag)`` pairs and each
    VP-internal verb's ``(verb, has_object)`` pair; a trace NP after the verb
    is its object.  ``dependencies`` optionally maps 1-based sentence ids to
    the 1-based surface-token indices (as :meth:`Tree.terminals` counts them)
    that head an ``obj`` relation; a sentence it covers takes its pairs from
    it.  Only a tree whose first surface word is an auxiliary is searched for
    an inverted subject.  Each distinct pair and inverted noun is counted, and
    each count is added to its word's entry once, at the end.
    """
    tagged: Counter = Counter()
    objects: Counter = Counter()
    inverted: Counter = Counter()
    base = _BaseLabels()
    sent_id = 0
    for sent_id, tree in enumerate(trees, start=1):
        obj_heads = dependencies.get(sent_id) if dependencies is not None else None
        terms, evidence, stack = [], [], [tree]
        while stack:
            node = stack.pop()
            if node.word is None:
                children = node.children
                if obj_heads is None and base[node.label] == "VP":
                    for i, child in enumerate(children):
                        if child.word is not None and child.label in DEFAULT_OBJECT_TAGS:
                            has_np = any(sib.word is None and base[sib.label] == "NP"
                                         for sib in children[i + 1:])
                            evidence.append((child.word, has_np))
                stack.extend(reversed(children))
            elif node.label != "-NONE-":
                terms.append((node.word, node.label))
        if obj_heads is not None:
            evidence = [(word, idx in obj_heads)
                        for idx, (word, tag) in enumerate(terms, start=1)
                        if tag in DEFAULT_OBJECT_TAGS]
        tagged.update(terms)
        objects.update(evidence)
        if terms and terms[0][0].lower() in DEFAULT_AUX_FORMS:
            inverted_noun = _detect_inversion(tree)
            if inverted_noun is not None:
                inverted[inverted_noun] += 1
    if not sent_id:
        raise InputError("build_lexicon requires at least one tree")

    lex = LexiconStats(lowercase=lowercase)
    for (word, tag), n in tagged.items():
        entry = lex._entry(word)
        entry.total += n
        entry.pos[tag] += n
        if tag == "VBN":
            entry.vbn += n
    for (word, has_object), n in objects.items():
        entry = lex._entry(word)
        if has_object:
            entry.obj_present += n
        else:
            entry.obj_absent += n
    for noun, n in inverted.items():
        lex._entry(noun).inverted += n
    return lex


def read_dependency_sidecar(path) -> dict[int, frozenset]:
    """Read a ``sent_id<TAB>token_index<TAB>head_index<TAB>relation`` sidecar.

    Returns {sent_id: head token indices of obj/dobj relations}; sentences
    listed with any relation are considered covered by the sidecar.
    """
    covered: dict[int, set] = {}
    with read_rows(path) as (_, rows):
        for _, fields in rows:
            if fields[0].lstrip().startswith("#"):
                continue
            sent_id, token, head, relation = fields
            sent_id, _, head = int(sent_id), int(token), int(head)
            heads = covered.setdefault(sent_id, set())
            if relation.strip() in ("obj", "dobj"):
                heads.add(head)
    return {sid: frozenset(heads) for sid, heads in covered.items()}


# ---------------------------------------------------------------------------
# Exposure buckets


class ExposureBucket(NamedTuple):
    """Inclusive count range labeled by the end of the range."""

    id: int
    lo: int
    hi: int

    @property
    def label(self) -> str:
        return str(self.id)


DEFAULT_BUCKETS: tuple[ExposureBucket, ...] = (
    ExposureBucket(2, 2, 2),
    ExposureBucket(3, 3, 3),
    ExposureBucket(4, 4, 4),
    ExposureBucket(5, 5, 5),
    ExposureBucket(10, 6, 10),
    ExposureBucket(20, 11, 20),
    ExposureBucket(30, 21, 30),
    ExposureBucket(100, 50, 100),
)


def exposure_bucket(count: int, table: tuple[ExposureBucket, ...] = DEFAULT_BUCKETS):
    """Bucket containing ``count``, or None (counts of 1, 31-49, >100 have none)."""
    if count < 0:
        raise InputError(f"negative count {count}")
    for bucket in table:
        if bucket.lo <= count <= bucket.hi:
            return bucket
    return None


def parse_bucket_label(text: str) -> int:
    """A bucket label in a suite or items file: an int >= 1, since analysis
    takes its log.  Anything else is a ValueError."""
    label = int(text)
    if label < 1:
        raise ValueError(f"bucket label {text!r} < 1")
    return label


def parse_bucket_table(spec: str) -> tuple[ExposureBucket, ...]:
    """Parse ``"2:2-2,10:6-10,..."``: one or more buckets, each label >= 1
    (analysis takes its log) and lo <= hi, labels distinct, ranges disjoint."""
    buckets = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            label, rng = part.split(":")
            lo, hi = rng.split("-")
            bucket = ExposureBucket(parse_bucket_label(label), int(lo), int(hi))
        except ValueError as exc:
            raise FormatError(f"bad bucket spec {part!r}") from exc
        if bucket.lo > bucket.hi:
            raise FormatError(f"bad bucket spec {part!r}: lo > hi")
        for b in buckets:
            if b.id == bucket.id:
                raise FormatError(f"bucket label {b.id} given twice: "
                                  f"{b.lo}-{b.hi} and {bucket.lo}-{bucket.hi}")
        buckets.append(bucket)
    if not buckets:
        raise FormatError("bucket table has no buckets")
    buckets.sort(key=lambda b: b.lo)
    for a, b in zip(buckets, buckets[1:]):
        if b.lo <= a.hi:
            raise FormatError(f"overlapping buckets {a.id} and {b.id}")
    return tuple(buckets)


def parse_boolean(text: str) -> bool:
    """A boolean of the config or of a suite definition: configparser's
    words in any case, or blank for False; anything else is a KeyError."""
    word = text.strip().lower()
    return configparser.ConfigParser.BOOLEAN_STATES[word] if word else False


# ---------------------------------------------------------------------------
# Word classification


class TransitivityClass(Enum):
    TRANSITIVE = "transitive"
    INTRANSITIVE = "intransitive"
    EXCLUDED = "excluded"


class TransitivityCall(NamedTuple):
    marked: str
    klass: TransitivityClass
    reason: str
    obj_fraction: float | None = None


def classify_transitivity(
    lex: LexiconStats,
    external: Mapping[str, str],
    hi: float = 0.9,
    lo: float = 0.1,
) -> dict[str, TransitivityCall]:
    """Keep externally-marked verbs whose corpus object evidence agrees.

    A verb marked transitive is kept iff its with-object fraction of active
    uses is >= ``hi``; one marked intransitive iff the fraction is <= ``lo``;
    anything else (including verbs with no evidence) is excluded with a
    reason code.  Every marked verb gets a call, its mark lowercased.
    """
    if not hi > lo:
        raise InputError(f"hi ({hi}) must exceed lo ({lo})")
    calls: dict[str, TransitivityCall] = {}
    for word in sorted(external):
        marked = external[word].strip().lower()
        if marked not in ("transitive", "intransitive"):
            raise FormatError(f"bad transitivity mark {external[word]!r} for {word!r}")
        stats = lex.stats(word)
        evidence = stats.obj_present + stats.obj_absent
        frac = stats.obj_present / evidence if stats.total and evidence else None
        if stats.total == 0:
            reason = "not-in-corpus"
        elif frac is None:
            reason = "no-object-evidence"
        elif marked == "transitive":
            reason = "kept" if frac >= hi else "object-fraction-below-hi"
        else:
            reason = "kept" if frac <= lo else "object-fraction-above-lo"
        klass = TransitivityClass(marked if reason == "kept" else "excluded")
        calls[word] = TransitivityCall(marked, klass, reason, frac)
    return calls


def majority_tag(stats: WordStats) -> str | None:
    """A word's most frequent POS tag (the first in code-point order on a
    tie), or None for a word never tagged."""
    if not stats.pos:
        return None
    return sorted(stats.pos.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def vbn_fraction(lex: LexiconStats, verb: str) -> float:
    """Fraction of a verb's occurrences tagged as passive participle."""
    stats = lex.stats(verb)
    if stats.total == 0:
        raise InputError(f"{verb!r} has no occurrences")
    return stats.vbn / stats.total


def filter_polar_overlap(nouns: Iterable[str], lex: LexiconStats):
    """Split nouns into (kept, removed-for-inverted-occurrence)."""
    kept, removed = [], []
    for noun in nouns:
        (removed if lex.stats(noun).inverted > 0 else kept).append(noun)
    return kept, removed


def active_only_verbs(lex: LexiconStats, irregular: frozenset = frozenset()) -> list[str]:
    """Word forms with past-tense but no participle usage.

    ``irregular`` lists forms whose past tense and participle differ on the
    surface; those are dropped because the passive frames reuse the form.
    """
    out = []
    for word in lex.words():
        stats = lex.stats(word)
        if stats.pos.get("VBD", 0) > 0 and stats.vbn == 0 and word not in irregular:
            out.append(word)
    return out


# ---------------------------------------------------------------------------
# External files


def read_transitivity_lexicon(path) -> dict[str, str]:
    """Two-column ``verb<TAB>transitive|intransitive`` file."""
    marks: dict[str, str] = {}
    with read_rows(path) as (_, rows):
        for lineno, fields in rows:
            fields = [f.strip() for f in fields]
            if not fields[0].startswith("#"):
                verb, mark = fields
                if mark.lower() not in ("transitive", "intransitive"):
                    raise FormatError(f"{path}:{lineno}: bad transitivity mark "
                                      f"{mark!r} for {verb!r}")
                if verb in marks:
                    raise FormatError(f"{path}:{lineno}: {verb!r} listed twice")
                marks[verb] = mark
    return marks


def read_irregular_verbs(path) -> frozenset:
    """One verb form a line; ``#`` lines are comments."""
    verbs = set()
    with read_rows(path) as (_, rows):
        for _, fields in rows:
            if not fields[0].lstrip().startswith("#"):
                (verb,) = fields
                verbs.add(verb.strip())
    return frozenset(verbs)


def _lexicon_row(word: str, s: WordStats) -> str:
    """One lexicon.tsv line; also the unit that lexicon_digest hashes."""
    pos = ",".join(f"{tag}:{n}" for tag, n in sorted(s.pos.items()))
    return (f"{word}\t{s.total}\t{pos}\t{s.obj_present}\t{s.obj_absent}"
            f"\t{s.inverted}\t{s.vbn}\n")


LEXICON_HEADER = "#syntax-probe-lexicon v1"
_LEXICON_COLUMNS = ["#word", "total", "pos", "obj_present", "obj_absent", "inverted",
                    "vbn"]


def write_lexicon(lex: LexiconStats, path) -> None:
    """Deterministic sorted TSV: word, total, tag:count pairs, evidence columns."""
    with write_text(path) as fh:
        fh.write(f"{LEXICON_HEADER} lowercase={int(lex.lowercase)}\n")
        fh.write("\t".join(_LEXICON_COLUMNS) + "\n")
        for word in lex.words():
            fh.write(_lexicon_row(word, lex.stats(word)))


def _count(text: str) -> int:
    """A lexicon count: an int >= 0.  Anything else is a ValueError."""
    n = int(text)
    if n < 0:
        raise ValueError(f"negative count {text!r}")
    return n


def read_lexicon(path) -> LexiconStats:
    """Every line but the column line is a row, so words such as PTB's
    ``#`` come back."""
    with read_rows(path, LEXICON_HEADER) as (head, rows):
        lex = LexiconStats(lowercase="lowercase=1" in head)
        for _, fields in rows:
            if fields == _LEXICON_COLUMNS:
                continue
            word, total, pos, present, absent, inverted, vbn = fields
            if lex._fold(word) in lex._words:
                raise ValueError(f"{word!r} listed twice")
            entry = lex._entry(word)
            entry.total = _count(total)
            if pos:
                for pair in pos.split(","):
                    tag, n = pair.rsplit(":", 1)
                    entry.pos[tag] = _count(n)
            entry.obj_present = _count(present)
            entry.obj_absent = _count(absent)
            entry.inverted = _count(inverted)
            entry.vbn = _count(vbn)
    return lex


def lexicon_digest(lex: LexiconStats) -> str:
    """Stable content hash used in suite provenance."""
    import hashlib  # here, not at the top: only gen hashes
    h = hashlib.sha256()
    h.update(b"lowercase=%d\n" % int(lex.lowercase))
    for word in lex.words():
        h.update(_lexicon_row(word, lex.stats(word)).encode())
    return h.hexdigest()


def is_punct(token: str) -> bool:
    return token in PUNCT_TOKENS or (len(token) == 1 and not token.isalnum())
