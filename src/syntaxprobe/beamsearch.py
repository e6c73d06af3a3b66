"""Word-synchronous beam search over generative parsing models.

A generative action model scores parser actions (open a nonterminal,
generate the next word, reduce) so that complete action sequences jointly
score a sentence and its parse.  A parser state holds only its action
chain, from which the top parse is rendered, and its open frames.  The
search keeps hypotheses synchronized at word boundaries: one step expands
states by structural actions under an action-level beam, and successors
that generate the next word collect into the next word beam, with the top
``fast_track_k`` generating successors bypassing the structural cutoff
each round; given no word, the same step closes the parses after the last
word.  The log sum over the surviving word beam approximates the prefix
marginal, whose per-word differences are surprisals in bits.

The search asks the model for the action lists of a whole frontier at
once (:meth:`GenerativeActionModel.actions_for`): one call per structural
round.  The in-repo model is an adapter over a small explicit PCFG, for
which :func:`exact_marginal` enumerates the full action space; external
scorers attach through a line-oriented subprocess protocol
(:class:`SubprocessActionModel`) that answers each such call in one pipe
round trip.
"""

from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass
from itertools import compress, islice
from operator import attrgetter, eq
from typing import Sequence

from .errors import (
    DeadBeamError,
    FormatError,
    GrammarError,
    InputError,
    OracleInfeasibleError,
    gc_paused,
    open_text,
    write_text,
)

NEG_INF = float("-inf")


def log2sumexp(values) -> float:
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    m = max(vals)
    return m + math.log2(math.fsum(2.0 ** (v - m) for v in vals))


# ---------------------------------------------------------------------------
# Transition system


NT = "NT"
GEN = "GEN"
REDUCE = ("REDUCE",)


def nt(label: str) -> tuple:
    return (NT, label)


def gen(word: str) -> tuple:
    return (GEN, word)


class ParserState:
    """Immutable search hypothesis: words generated, log2 prob, and the
    derivation so far.

    A successor shares all but O(1) of its parent, so an action costs the
    same at any point in the sentence:

    - ``frame`` is ``((label, child symbols), outer frame)`` for the
      innermost open constituent, or None when nothing is open;
    - ``chain`` is ``(last action, earlier chain)``, or None before the
      first action.

    ``history`` lists the chain, and :func:`bracket` renders it.
    """

    __slots__ = ("words", "logprob", "frame", "chain")

    def __init__(self, words: int, logprob: float, frame=None, chain=None):
        self.words = words
        self.logprob = logprob
        self.frame = frame
        self.chain = chain

    @property
    def history(self) -> tuple:
        """The actions taken so far, first to last."""
        out = []
        node = self.chain
        while node is not None:
            action, node = node
            out.append(action)
        out.reverse()
        return tuple(out)

    def innermost_open(self):
        """(label, symbols of completed children) of the last open NT, or None."""
        return None if self.frame is None else self.frame[0]

    @property
    def is_complete(self) -> bool:
        """The root constituent has been reduced."""
        return self.frame is None and self.chain is not None

    def __repr__(self) -> str:
        return (f"ParserState(words={self.words!r}, "
                f"history={self.history!r}, logprob={self.logprob!r})")


INITIAL_STATE = ParserState(0, 0.0)


def action_is_legal(state: ParserState, action: tuple) -> bool:
    """O(1) on the frame chain: NT needs an open constituent or no action
    yet, GEN an open constituent, REDUCE one with a completed child."""
    kind = action[0]
    frame = state.frame
    if kind == NT:
        return frame is not None or state.chain is None
    if kind == GEN:
        return frame is not None
    if kind == "REDUCE":
        return frame is not None and bool(frame[0][1])
    return False


def apply_action(state: ParserState, action: tuple, logprob: float,
                 validate: bool = False) -> ParserState:
    """The successor of ``state`` under ``action``, which must be legal
    (checked when ``validate`` is set)."""
    if validate and not action_is_legal(state, action):
        raise InputError(f"illegal action {serialize_action(action)} in state {state}")
    kind = action[0]
    words = state.words
    if kind == NT:
        frame = ((action[1], ()), state.frame)
    else:
        (label, symbols), outer = state.frame
        if kind == GEN:
            frame = ((label, symbols + (action[1],)), outer)
            words += 1
        elif outer is None:  # REDUCE of the root
            frame = None
        else:  # REDUCE
            (olabel, osymbols), oouter = outer
            frame = ((olabel, osymbols + (label,)), oouter)
    return ParserState(words, state.logprob + logprob, frame,
                       (action, state.chain))


def serialize_action(action: tuple) -> str:
    if action[0] == NT:
        return f"NT({action[1]})"
    if action[0] == GEN:
        return f"GEN({action[1]})"
    return "REDUCE"


def parse_action(token: str) -> tuple:
    if token == "REDUCE":
        return REDUCE
    for kind in (NT, GEN):
        if token.startswith(kind + "(") and token.endswith(")"):
            return (kind, token[len(kind) + 1:-1])
    raise FormatError(f"bad action token {token!r}")


def bracket(history) -> str:
    """Render a complete parse from its actions: ``NT(X)`` opens ``(X``,
    ``GEN(w)`` adds ``w`` and ``REDUCE`` closes the innermost bracket."""
    parts = []
    for action in history:
        if action[0] == NT:
            parts.append(" (" + action[1])
        elif action[0] == GEN:
            parts.append(" " + action[1])
        else:
            parts.append(")")
    return "".join(parts)[1:]


# ---------------------------------------------------------------------------
# Generative action models


class GenerativeActionModel:
    """Scoring contract used by the search.

    ``actions(state, next_word=None)`` returns ``[(action, log2prob), ...]``
    for legal actions, normalized within 1e-9 over the full legal set; an
    implementation may prune generation actions to ``next_word`` (the sum
    then being <= 1).  Scores must depend only on the state.
    ``actions_for(states, next_word)`` returns one such list per state, in
    order; the search calls it once per round.
    """

    def actions(self, state: ParserState, next_word: str | None = None):
        raise NotImplementedError

    def actions_for(self, states: Sequence[ParserState],
                    next_word: str | None = None) -> list:
        return [self.actions(s, next_word) for s in states]


@dataclass(frozen=True)
class Rule:
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


class PCFGActionModel(GenerativeActionModel):
    """Top-down action model whose complete-sequence probabilities equal
    PCFG derivation probabilities.

    Rule choice is deferred: the conditional probability of each next action
    is the grammar mass of rules consistent with the children built so far.
    The per-constituent conditionals telescope to the rule probability, so
    normalization over legal actions is exact by construction.  Action
    lists are cached per open constituent; given ``next_word``, generation
    actions are pruned to that word's, in the same order as the full list.
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
        # (label, child symbols) -> (actions, structural actions,
        # {word: actions pruned to that word's GEN, built on first use})
        self._lists: dict = {}

    def _node_lists(self, label: str, children: tuple) -> tuple:
        node = self._tries.get(label)
        for sym in children:
            if node is None:
                break
            node = node.next.get(sym)
        if node is None:
            return (), (), {}
        out = []
        for sym, child in sorted(node.next.items()):
            lp = math.log2(child.mass / node.mass)
            if sym in self.grammar.nonterminals:
                out.append((nt(sym), lp))
            else:
                out.append((gen(sym), lp))
        if node.stop > 0.0:
            out.append((REDUCE, math.log2(node.stop / node.mass)))
        structural = tuple(p for p in out if p[0][0] != GEN)
        return tuple(out), structural, dict.fromkeys(
            p[0][1] for p in out if p[0][0] == GEN)

    def actions(self, state: ParserState, next_word: str | None = None):
        top = state.innermost_open()
        if top is None:
            # Before the first action only the start symbol can open.
            if state.chain is None:
                return [(nt(self.grammar.start), 0.0)]
            return []
        lists = self._lists.get(top)
        if lists is None:
            lists = self._lists[top] = self._node_lists(*top)
        full, structural, by_word = lists
        if next_word is None:
            return list(full)
        pruned = by_word.get(next_word, structural)
        if pruned is None:
            pruned = by_word[next_word] = tuple(
                p for p in full if p[0][0] != GEN or p[0][1] == next_word)
        return list(pruned)


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


@dataclass
class BeamResult:
    """Per-word prefix marginals (log2), surprisals (bits), and the best
    complete parse found after the final word."""

    marginals: list
    surprisals: list
    top_parse: str | None
    top_parse_logprob: float
    complete_logprob: float
    beam: list


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
             word_beam_k: int, action_beam_k: int, fast_track_k: int) -> list:
    """The next beam from ``beam``, best first: the ``word_beam_k`` best
    states whose last action generates ``word`` or, with ``word`` None,
    the ``word_beam_k`` best complete parses.

    Each structural round asks the model for the whole frontier's actions.
    The top ``fast_track_k`` generating successors go straight through;
    the rest join the structural successors under the ``action_beam_k``
    cutoff, and of the survivors those that are done leave the frontier.
    """
    done: list[ParserState] = []
    frontier = beam
    for _ in range(MAX_STRUCT_ROUNDS):
        if not frontier:
            break
        gen_succs: list[ParserState] = []
        pool: list[ParserState] = []
        for st, actions in zip(frontier, model.actions_for(frontier, word)):
            for action, lp in actions:
                if action[0] == GEN:
                    if action[1] == word:
                        gen_succs.append(apply_action(st, action, lp))
                else:
                    pool.append(apply_action(st, action, lp))
        if len(gen_succs) > fast_track_k:
            _rank_sort(gen_succs, fast_track_k)
            pool.extend(gen_succs[fast_track_k:])
            del gen_succs[fast_track_k:]
        done.extend(gen_succs)
        _keep_best(pool, action_beam_k)
        frontier = []
        for st in pool:
            if (st.is_complete if word is None else st.chain[0][0] == GEN):
                done.append(st)
            else:
                frontier.append(st)
    _rank_sort(done, word_beam_k)
    del done[word_beam_k:]
    return done


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
    with gc_paused():  # the states form no cycles; refcounting frees them
        for t, word in enumerate(sentence):
            beam = _advance(model, beam, word, word_beam_k, action_beam_k,
                            fast_track_k)
            if not beam:
                raise DeadBeamError(t, word)
            marginals.append(log2sumexp(s.logprob for s in beam))
        finals = _advance(model, beam, None, word_beam_k, action_beam_k,
                          fast_track_k)

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
                      log2sumexp(s.logprob for s in finals), beam)


@dataclass
class ExactResult:
    marginals: list
    surprisals: list
    complete_logprob: float
    parses: list  # (bracketed string, log2 prob), best first


def exact_marginal(model: GenerativeActionModel, sentence: Sequence[str],
                   max_actions: int = 500) -> ExactResult:
    """Exhaustive enumeration oracle for the search.

    Enumerates every prefix-compatible action sequence (generation actions
    must emit the observed words in order), accumulating exact prefix
    probabilities; a sentence outside the grammar's language yields a
    marginal of -inf at the failing word.  Any derivation path exceeding
    ``max_actions`` raises, since the action set is then not known to be
    finitely enumerable.
    """
    sentence = list(sentence)
    if not sentence:
        raise InputError("empty sentence")
    n = len(sentence)
    prefix_logs: list[list] = [[] for _ in range(n + 1)]
    complete_logs: list = []
    parses: list = []

    stack = [(INITIAL_STATE, 0)]
    while stack:
        state, depth = stack.pop()
        if depth > max_actions:
            raise OracleInfeasibleError(
                f"derivation exceeded {max_actions} actions; grammar not "
                "finitely enumerable under this bound"
            )
        actions = model.actions(state)
        if not actions:
            if state.is_complete and state.words == n:
                complete_logs.append(state.logprob)
                parses.append((bracket(state.history), state.logprob))
            continue
        for action, lp in actions:
            if action[0] == GEN:
                if state.words >= n or action[1] != sentence[state.words]:
                    continue
                succ = apply_action(state, action, lp)
                prefix_logs[succ.words].append(succ.logprob)
                stack.append((succ, depth + 1))
            else:
                stack.append((apply_action(state, action, lp), depth + 1))

    marginals = [log2sumexp(prefix_logs[t]) for t in range(1, n + 1)]
    prev = 0.0
    surprisals = []
    for m in marginals:
        surprisals.append(prev - m if m != NEG_INF else math.inf)
        prev = m
    parses.sort(key=lambda pair: (-pair[1], pair[0]))
    return ExactResult(marginals, surprisals, log2sumexp(complete_logs), parses)


# ---------------------------------------------------------------------------
# Subprocess scorer protocol (line-oriented, versioned header)


PROTOCOL_HEADER = "#syntax-probe-scorer v2"

# Seconds a scorer child has to exit after QUIT before it is killed.
CLOSE_TIMEOUT_S = 10.0


def parse_action_list(field: str) -> list:
    """``[(action, log2prob), ...]`` from space-joined ``action=log2prob``."""
    out = []
    for entry in field.split(" ") if field else ():
        token, _, lp = entry.rpartition("=")
        if not token:
            raise FormatError(f"bad scorer response entry {entry!r}")
        try:
            out.append((parse_action(token), float(lp)))
        except ValueError as exc:
            raise FormatError(f"bad scorer response entry {entry!r}") from exc
    return out


def format_action_list(actions) -> str:
    return " ".join(f"{serialize_action(a)}={lp!r}" for a, lp in actions)


class SubprocessActionModel(GenerativeActionModel):
    """Adapter speaking the external scorer protocol, version 2.

    On startup the child prints the versioned header line.  A request is
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
    session goes on.  ``QUIT`` ends it.

    The client keys its ids by the identity of a state's action chain, and
    holds the chain, so an id is never reused while it is known.  The search
    scores every state's parent before the state, so each new state costs
    one definition; unknown ancestors are defined first otherwise.
    """

    def __init__(self, argv: Sequence[str]):
        self._proc = subprocess.Popen(
            list(argv), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        self._ids: dict = {}  # id(chain) -> (state id, chain)
        header = self._proc.stdout.readline().strip()
        if header != PROTOCOL_HEADER:
            self.close()
            raise FormatError(
                f"scorer did not announce {PROTOCOL_HEADER!r} (got {header!r})"
            )

    def _add_refs(self, chain, refs: list) -> None:
        """Append the refs that name the state with ``chain``, defining it
        and its unknown ancestors, oldest first."""
        if chain is None:
            self._ids.clear()  # a new sentence
        missing = []
        while id(chain) not in self._ids:
            missing.append(chain)
            if chain is None:
                break
            chain = chain[1]
        if not missing:
            refs.append(self._ids[id(chain)][0])
        for node in reversed(missing):
            if node is None:
                definition = ""
            else:
                definition = (f"{self._ids[id(node[1])][0]}:"
                              f"{serialize_action(node[0])}")
            sid = str(len(self._ids))
            self._ids[id(node)] = (sid, node)
            refs.append(f"{sid}={definition}")

    def actions_for(self, states: Sequence[ParserState],
                    next_word: str | None = None) -> list:
        if not states:
            return []
        refs: list = []
        replies = []  # index of each state's list in the response
        for st in states:
            self._add_refs(st.chain, refs)
            replies.append(len(refs) - 1)
        try:
            self._proc.stdin.write(f"SCORE\t{next_word or ''}\t{' '.join(refs)}\n")
            self._proc.stdin.flush()
        except BrokenPipeError:
            line = ""  # the scorer has exited
        else:
            line = self._proc.stdout.readline()
        if line == "":
            raise FormatError("scorer closed the stream mid-session")
        line = line.rstrip("\n")
        if line.startswith("ERR "):
            self._ids.clear()  # the next request redefines from ``ID=``
            raise FormatError(f"scorer error: {line[4:]}")
        fields = line.split("\t")
        if len(fields) != len(refs):
            self._ids.clear()
            raise FormatError(f"scorer answered {len(fields)} of {len(refs)} "
                              "states")
        return [parse_action_list(fields[i]) for i in replies]

    def actions(self, state: ParserState, next_word: str | None = None):
        return self.actions_for([state], next_word)[0]

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
