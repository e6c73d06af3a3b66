"""Word-synchronous beam search over generative parsing models.

A generative action model scores the actions of :mod:`syntaxprobe.actions`
so that complete action sequences jointly score a sentence and its parse.
The search keeps hypotheses synchronized at word boundaries: one step
expands states by structural actions under an action-level beam, and
successors that generate the next word collect into the next word beam,
with the top ``fast_track_k`` generating successors bypassing the
structural cutoff each round; given no word, the same step closes the
parses after the last word.  The log sum over the surviving word beam
approximates the prefix marginal, whose per-word differences are
surprisals in bits.

A model implements one method, :meth:`GenerativeActionModel.actions_for`,
which the search calls once per structural round for the whole frontier.
The models here are an adapter over a small explicit PCFG
(:class:`PCFGActionModel`) and the client of a line-oriented subprocess
protocol (:class:`SubprocessActionModel`), through which an external
scorer answers each such call in one pipe round trip.
"""

from __future__ import annotations

import math
import shlex
import subprocess
from itertools import compress, islice
from operator import attrgetter, eq
from typing import NamedTuple, Sequence

from .actions import (GEN, INITIAL_STATE, NT, REDUCE, ParserState, bracket, expand, gen,
                      nt, parse_action, serialize_action)
from .errors import (DeadBeamError, FormatError, GrammarError, InputError, gc_paused,
                     open_text, write_text)

NEG_INF = float("-inf")


def log2sumexp(values) -> float:
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    m = max(vals)
    return m + math.log2(math.fsum(2.0 ** (v - m) for v in vals))


# ---------------------------------------------------------------------------
# Generative action models


class GenerativeActionModel:
    """Scoring contract used by the search: one method, :meth:`actions_for`.

    ``actions_for(states, next_word=None)`` returns, for each state in
    order, a sequence ``[(action, log2prob), ...]`` of its legal actions,
    normalized within 1e-9 over the full legal set.  Given ``next_word``,
    an implementation may omit any action after which ``next_word`` cannot
    be generated, such as another word's generation or a constituent that
    cannot begin with it (the sum then being <= 1); such a state never
    reaches the word beam.  With no next word nothing may be omitted.
    Every log2prob is <= 0 as well, however close to 1 the list sums: the
    search relies on no action raising a state's score, so that a state's
    descendants never outscore it and a step can stop expanding states that
    already rank below its word beam (see :func:`_advance`).  Scores must
    depend only on the state.  The search calls it once per round.  Its
    sequences may be shared and immutable (the PCFG adapter returns its
    cached tuples), so callers must not mutate them.
    """

    def actions_for(self, states: Sequence[ParserState],
                    next_word: str | None = None) -> list:
        raise NotImplementedError


class Rule(NamedTuple):
    lhs: str
    rhs: tuple
    prob: float


class ToyPCFG:
    """Explicit PCFG used as the in-repo verification model."""

    def __init__(self, start: str, rules: Sequence[Rule]):
        if not rules:
            raise GrammarError("grammar has no rules")
        self.start = start
        self.rules = tuple(rules)
        self.nonterminals = {r.lhs for r in rules}
        if start not in self.nonterminals:
            raise GrammarError(f"start symbol {start!r} has no rules")
        self.terminals = {
            sym for r in rules for sym in r.rhs if sym not in self.nonterminals
        }
        by_lhs: dict = {}
        # Both probability checks are written so that NaN fails them.
        for r in rules:
            if not r.prob > 0:
                raise GrammarError(f"rule {r} needs a positive probability")
            if not r.rhs:
                raise GrammarError(f"rule {r} has an empty right-hand side")
            by_lhs.setdefault(r.lhs, []).append(r)
        for lhs, group in by_lhs.items():
            total = math.fsum(r.prob for r in group)
            if not abs(total - 1.0) <= 1e-9:
                raise GrammarError(f"probabilities for {lhs} sum to {total}")
        self.by_lhs = by_lhs


class _TrieNode:
    __slots__ = ("mass", "stop", "next")

    def __init__(self):
        self.mass = 0.0
        self.stop = 0.0
        self.next: dict = {}


def _first_words(grammar: ToyPCFG) -> dict:
    """Each nonterminal's first words: those that start one of its rules,
    and those of each nonterminal that does, to a fixed point."""
    nonterminals = grammar.nonterminals
    first: dict = {a: set() for a in nonterminals}
    corners: dict = {a: set() for a in nonterminals}
    for r in grammar.rules:
        sym = r.rhs[0]
        (corners if sym in nonterminals else first)[r.lhs].add(sym)
    grew = True
    while grew:
        grew = False
        for a, starts in corners.items():
            for b in starts:
                if not first[b] <= first[a]:
                    first[a] |= first[b]
                    grew = True
    return first


class PCFGActionModel(GenerativeActionModel):
    """Top-down action model whose complete-sequence probabilities equal
    PCFG derivation probabilities.

    Rule choice is deferred: the conditional probability of each next action
    is the grammar mass of rules consistent with the children built so far.
    The per-constituent conditionals telescope to the rule probability, so
    normalization over legal actions is exact by construction.  No
    log2prob is above 0, in floats too: a child's mass is summed over a
    subset of its parent's rules, in the same order, so it never exceeds
    the parent's.

    Action lists are cached per open constituent.  Given ``next_word``, a
    list keeps, in the order of the full list, only the actions after which
    that word can still be generated: ``REDUCE``, the word's own ``GEN``,
    and each ``NT(X)`` whose ``X`` can begin with the word.  A fresh ``X``
    has no child, so it cannot be reduced before the word, and the word
    would be its first (Stolcke 1995; Roark 2001).  No rule has an empty
    right-hand side, so ``X`` can begin with a word exactly when the word
    is in the left-corner closure of ``X``'s rules' first symbols, worked
    out once from the grammar.  Equal lists are one shared tuple.
    """

    def __init__(self, grammar: ToyPCFG):
        self.grammar = grammar
        self._tries: dict = {}
        for lhs, rules in grammar.by_lhs.items():
            root = _TrieNode()
            for r in rules:
                node = root
                node.mass += r.prob
                for sym in r.rhs:
                    node = node.next.setdefault(sym, _TrieNode())
                    node.mass += r.prob
                node.stop += r.prob
            self._tries[lhs] = root
        # (label, child symbols), or None before the first action ->
        # (actions, {next word: actions given it, built on first use})
        self._lists: dict = {}
        self._shared: dict = {}  # action tuple -> its one shared copy
        self._first = _first_words(grammar)

    def _share(self, actions: tuple) -> tuple:
        return self._shared.setdefault(actions, actions)

    def _node_lists(self, top) -> tuple:
        """The cache entry of ``top``: before the first action only the
        start symbol can open."""
        if top is None:
            return self._share(((nt(self.grammar.start), 0.0),)), {}
        label, children = top
        node = self._tries.get(label)
        for sym in children:
            if node is None:
                break
            node = node.next.get(sym)
        if node is None:
            return (), {}
        out = []
        for sym, child in sorted(node.next.items()):
            lp = math.log2(child.mass / node.mass)
            if sym in self.grammar.nonterminals:
                out.append((nt(sym), lp))
            else:
                out.append((gen(sym), lp))
        if node.stop > 0.0:
            out.append((REDUCE, math.log2(node.stop / node.mass)))
        return self._share(tuple(out)), {}

    def _lookahead(self, full: tuple, word: str) -> tuple:
        """``full`` without the actions after which ``word`` cannot be
        generated."""
        first = self._first
        return self._share(tuple(
            p for p in full
            if not (p[0][0] == GEN and p[0][1] != word
                    or p[0][0] == NT and word not in first[p[0][1]])))

    def actions_for(self, states: Sequence[ParserState],
                    next_word: str | None = None) -> list:
        """The cached action tuples of ``states``, shared, not copied."""
        cache = self._lists
        out = []
        append = out.append
        for state in states:
            frame = state.frame
            if frame is not None:
                top = frame[0]
            elif state.chain is None:
                top = None
            else:
                append(())  # the root has closed
                continue
            lists = cache.get(top)
            if lists is None:
                lists = cache[top] = self._node_lists(top)
            if next_word is None:
                append(lists[0])
                continue
            full, by_word = lists
            pruned = by_word.get(next_word)
            if pruned is None:
                pruned = by_word[next_word] = self._lookahead(full, next_word)
            append(pruned)
        return out

    def actions(self, state: ParserState, next_word: str | None = None):
        return list(self.actions_for((state,), next_word)[0])


# ---------------------------------------------------------------------------
# Grammar files: one rule per line, ``P LHS -> RHS...``


def parse_grammar(text: str) -> ToyPCFG:
    rules = []
    start = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 4 or parts[2] != "->":
            raise FormatError(f"line {lineno}: expected 'P LHS -> RHS...'")
        try:
            prob = float(parts[0])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad probability {parts[0]!r}") from exc
        lhs = parts[1]
        rules.append(Rule(lhs, tuple(parts[3:]), prob))
        if start is None:
            start = lhs
    if start is None:
        raise FormatError("no rules in grammar text")
    return ToyPCFG(start, rules)


def read_grammar(path) -> ToyPCFG:
    with open_text(path) as fh:
        text = fh.read()
    try:
        return parse_grammar(text)
    except (FormatError, GrammarError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def write_grammar(grammar: ToyPCFG, path) -> None:
    with write_text(path) as fh:
        for r in grammar.rules:
            fh.write(f"{r.prob!r} {r.lhs} -> {' '.join(r.rhs)}\n")


# ---------------------------------------------------------------------------
# Search


class BeamResult(NamedTuple):
    """Per-word prefix marginals (log2), surprisals (bits), and the best
    complete parse found after the final word.  ``capped_steps`` counts the
    steps, the closing one included, that ``MAX_STRUCT_ROUNDS`` ended while
    states that could still reach the beam were left unexpanded."""

    marginals: list
    surprisals: list
    top_parse: str | None
    top_parse_logprob: float
    complete_logprob: float
    beam: list
    capped_steps: int


_LOGPROB = attrgetter("logprob")
_HISTORY = attrgetter("history")


def _rank_sort(states: list, k: int) -> None:
    """Reorder ``states`` so that its first ``k`` are the ``k`` best by
    ``(-logprob, history)``, in that order.

    Sorting on that key directly would rebuild every history.  Instead the
    floats are sorted, and only runs of equal logprob that reach into the
    first ``k`` are re-sorted by history, which gives the same order.
    """
    states.sort(key=_LOGPROB, reverse=True)
    n = len(states)
    end = min(k, n)
    if end == 0:
        return
    while end < n and states[end].logprob == states[end - 1].logprob:
        end += 1  # the run cut by the k-th place is decided by history
    lps = list(map(_LOGPROB, islice(states, end)))
    stop = 0
    for i in compress(range(end - 1), map(eq, lps, islice(lps, 1, None))):
        if i < stop:
            continue  # inside a run already sorted
        stop = i + 2
        while stop < end and lps[stop] == lps[i]:
            stop += 1
        states[i:stop] = sorted(states[i:stop], key=_HISTORY)


def _keep_best(states: list, k: int) -> None:
    """Cut ``states`` to its ``k`` best, in no particular order."""
    if len(states) > k:
        _rank_sort(states, k)
        del states[k:]


#: Structural rounds (non-GEN expansions) allowed per word and for closing.
MAX_STRUCT_ROUNDS = 64


def _advance(model: GenerativeActionModel, beam: list, word: str | None,
             word_beam_k: int, action_beam_k: int, fast_track_k: int
             ) -> tuple[list, bool]:
    """The next beam from ``beam``, best first: the ``word_beam_k`` best
    states whose last action generates ``word`` or, with ``word`` None,
    the ``word_beam_k`` best complete parses; and whether
    ``MAX_STRUCT_ROUNDS`` ended the step with a live frontier.

    Each structural round is one :meth:`~GenerativeActionModel.actions_for`
    call for the whole frontier and one :func:`expand` of it.  The top
    ``fast_track_k`` generating successors go straight through; the rest
    join the structural successors under the ``action_beam_k`` cutoff, and
    of the survivors those that are done leave the frontier.

    Once ``word_beam_k`` states are done, a round drops every frontier
    state scored strictly below the ``word_beam_k``-th best done one, so
    the step ends as soon as no live state can still place.  The drop is
    exact because no action raises a score (see
    :class:`GenerativeActionModel`): a dropped state and all it leads to
    rank below the final ``word_beam_k``, and a state at or above that
    score keeps its rank under both cutoffs, since only states below it
    are gone.  The beam, its order and its floats are those of running
    every round.
    """
    done: list[ParserState] = []
    frontier = beam
    for _ in range(MAX_STRUCT_ROUNDS):
        if not frontier:
            break
        gen_succs, pool = expand(frontier, model.actions_for(frontier, word),
                                 word)
        overflow = len(gen_succs) > fast_track_k
        if overflow:
            _rank_sort(gen_succs, fast_track_k)
            pool.extend(gen_succs[fast_track_k:])
            del gen_succs[fast_track_k:]
        done.extend(gen_succs)
        _keep_best(pool, action_beam_k)
        if word is not None and not overflow:
            frontier = pool  # all structural: none is done
        else:
            frontier = []
            for st in pool:
                if (st.is_complete if word is None else st.chain[0][0] == GEN):
                    done.append(st)
                else:
                    frontier.append(st)
        if len(done) >= word_beam_k:
            done.sort(key=_LOGPROB, reverse=True)
            floor = done[word_beam_k - 1].logprob
            frontier = [st for st in frontier if st.logprob >= floor]
    _rank_sort(done, word_beam_k)
    del done[word_beam_k:]
    return done, bool(frontier)


def word_sync_beam(
    model: GenerativeActionModel,
    sentence: Sequence[str],
    word_beam_k: int = 100,
    action_beam_k: int | None = None,
    fast_track_k: int = 5,
) -> BeamResult:
    """Approximate prefix marginals for ``sentence`` under ``model``.

    With beams large enough to hold every live state the marginals are
    exact; under pruning they are lower bounds (mass over a subset) and are
    reported as-is, not renormalized.  Survivors are ranked by log
    probability, ties broken by action history, so the result does not
    depend on the order in which the model lists its actions.  After the
    last word the same step, given no word, closes the open constituents.
    """
    sentence = list(sentence)
    if not sentence:
        raise InputError("empty sentence")
    if word_beam_k < 1 or fast_track_k < 0:
        raise InputError("beam parameters must be positive")
    if action_beam_k is None:
        action_beam_k = 10 * word_beam_k
    if action_beam_k < 1:
        raise InputError("beam parameters must be positive")

    beam = [INITIAL_STATE]
    marginals = []
    capped = 0
    with gc_paused():  # the states form no cycles; refcounting frees them
        for t, word in enumerate(sentence):
            beam, cut = _advance(model, beam, word, word_beam_k,
                                 action_beam_k, fast_track_k)
            if not beam:
                raise DeadBeamError(t, word)
            capped += cut
            marginals.append(log2sumexp(s.logprob for s in beam))
        finals, cut = _advance(model, beam, None, word_beam_k, action_beam_k,
                               fast_track_k)
        capped += cut

    prev = 0.0
    surprisals = []
    for m in marginals:
        surprisals.append(prev - m)
        prev = m
    if finals:
        top = finals[0]
        result_parse = bracket(top.history)
        top_lp = top.logprob
    else:
        result_parse, top_lp = None, NEG_INF
    return BeamResult(marginals, surprisals, result_parse, top_lp,
                      log2sumexp(s.logprob for s in finals), beam, capped)


# ---------------------------------------------------------------------------
# Subprocess scorer protocol (line-oriented, versioned header)


PROTOCOL_HEADER = "#syntax-probe-scorer v2"

# Seconds a scorer child has to exit after QUIT before it is killed.
CLOSE_TIMEOUT_S = 10.0


def parse_action_list(field: str) -> list:
    """``[(action, log2prob), ...]`` from space-joined ``action=log2prob``.

    A log2prob must be a number <= 0 (``-inf`` included): NaN would leave
    the ranking undefined, and the search relies on no action raising a
    state's score (see :class:`GenerativeActionModel`).
    """
    out = []
    for entry in field.split(" ") if field else ():
        token, _, lp = entry.rpartition("=")
        if not token:
            raise FormatError(f"bad scorer response entry {entry!r}")
        action = parse_action(token)
        try:
            value = float(lp)
        except ValueError:
            value = math.nan
        if not value <= 0.0:  # NaN fails the comparison too
            raise FormatError(f"bad scorer response entry {entry!r}")
        out.append((action, value))
    return out


def format_action_list(actions) -> str:
    return " ".join(f"{serialize_action(a)}={lp!r}" for a, lp in actions)


class SubprocessActionModel(GenerativeActionModel):
    """Adapter speaking the external scorer protocol, version 2.

    The child is started with UTF-8 pipes, and must read and write UTF-8
    (:mod:`syntaxprobe.pcfg_scorer` does, whatever its locale).  On startup
    it prints the versioned header line.  A request is
    ``SCORE<TAB>next word (may be empty)<TAB>refs``; the space-joined refs
    name the states to score, each one of

    - ``ID``: a state the scorer already knows;
    - ``ID=PARENT:ACTION``: a new state, one action past a known state;
    - ``ID=``: the initial state, which starts a sentence and clears both
      id tables, so neither side holds more than one sentence's states.

    The response is one line: the tab-joined action lists of the refs, in
    order, each a space-joined list of ``action=log2prob`` entries (empty:
    no legal actions).  A request the scorer cannot answer gets one
    ``ERR <reason>`` line instead, raised here as a FormatError, and the
    session goes on; so is a reply that is not UTF-8.  ``QUIT`` ends it.
    A header that is wrong or not UTF-8 is a FormatError too, naming the
    command and its exit status, raised after the child is reaped.

    The client keys its ids by the identity of a state's action chain, and
    holds the chain, so an id is never reused while it is known.  The search
    scores every state's parent before the state, so each new state costs
    one definition; unknown ancestors are defined first otherwise.

    Two more tables last one sentence, like the id table, and are cleared
    with it at ``ID=`` and after a failed request: the token of each action
    sent, and the parsed, validated tuple of each reply field received.  So
    a field is parsed once per sentence however often it comes back, and
    :meth:`actions_for` returns those shared tuples; :meth:`actions`
    returns a fresh list.
    """

    def __init__(self, argv: Sequence[str]):
        argv = list(argv)
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            encoding="utf-8", bufsize=1,
        )
        self._ids: dict = {}  # id(chain) -> (state id, chain)
        self._tokens: dict = {}  # action -> its token
        self._lists: dict = {}  # reply field -> its parsed action tuple
        try:
            header = self._proc.stdout.readline().strip()
        except UnicodeDecodeError as exc:
            problem = f"announced a header that is not UTF-8 ({exc}"
        else:
            problem = (None if header == PROTOCOL_HEADER else
                       f"did not announce {PROTOCOL_HEADER!r} (got {header!r}")
        if problem is not None:
            self.close()
            raise FormatError(f"scorer {shlex.join(argv)} {problem}; "
                              f"exit status {self._proc.returncode})")

    def _forget(self) -> None:
        """Clear the per-sentence tables."""
        self._ids.clear()
        self._tokens.clear()
        self._lists.clear()

    def _define(self, node, refs: list) -> None:
        """Append the ref that defines the state with chain ``node``, whose
        parent is known; ``node`` None, the initial state, starts a sentence
        and so clears the tables first."""
        ids = self._ids
        if node is None:
            self._forget()
            definition = ""
        else:
            action = node[0]
            token = self._tokens.get(action)
            if token is None:
                token = self._tokens[action] = serialize_action(action)
            definition = f"{ids[id(node[1])][0]}:{token}"
        sid = str(len(ids))
        ids[id(node)] = (sid, node)
        refs.append(f"{sid}={definition}")

    def _add_refs(self, chain, refs: list) -> None:
        """Append the refs that define the state with ``chain`` and its
        unknown ancestors, oldest first."""
        missing = []
        while id(chain) not in self._ids:
            missing.append(chain)
            if chain is None:
                break
            chain = chain[1]
        for node in reversed(missing):
            self._define(node, refs)

    def actions_for(self, states: Sequence[ParserState],
                    next_word: str | None = None) -> list:
        if not states:
            return []
        ids = self._ids
        refs: list = []
        replies = []  # index of each state's list in the response
        for st in states:
            chain = st.chain
            if chain is not None and id(chain) in ids:
                refs.append(ids[id(chain)][0])
            elif chain is None or id(chain[1]) in ids:
                self._define(chain, refs)
            else:
                self._add_refs(chain, refs)
            replies.append(len(refs) - 1)
        try:
            self._proc.stdin.write(f"SCORE\t{next_word or ''}\t{' '.join(refs)}\n")
            self._proc.stdin.flush()
        except BrokenPipeError:
            line = ""  # the scorer has exited
        else:
            try:
                line = self._proc.stdout.readline()
            except UnicodeDecodeError as exc:
                self._forget()
                raise FormatError(f"scorer reply is not UTF-8: {exc}") from None
        if line == "":
            raise FormatError("scorer closed the stream mid-session")
        line = line.rstrip("\n")
        if line.startswith("ERR "):
            self._forget()  # the next request redefines from ``ID=``
            raise FormatError(f"scorer error: {line[4:]}")
        fields = line.split("\t")
        if len(fields) != len(refs):
            self._forget()
            raise FormatError(f"scorer answered {len(fields)} of {len(refs)} "
                              "states")
        lists = self._lists
        out = []
        for i in replies:
            field = fields[i]
            parsed = lists.get(field)
            if parsed is None:
                parsed = lists[field] = tuple(parse_action_list(field))
            out.append(parsed)
        return out

    def actions(self, state: ParserState, next_word: str | None = None):
        return list(self.actions_for([state], next_word)[0])

    def close(self):
        """Send QUIT and reap the child, killing it if it does not exit
        within ``CLOSE_TIMEOUT_S``, then close the pipes."""
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write("QUIT\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, ValueError):
                pass
            try:
                self._proc.wait(timeout=CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass  # unflushed bytes for a child that is gone

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
