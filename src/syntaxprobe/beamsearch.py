"""Word-synchronous beam search over generative parsing models.

A generative action model scores parser actions (open a nonterminal,
generate the next word, reduce) so that complete action sequences jointly
score a sentence and its parse.  The search keeps hypotheses synchronized
at word boundaries: within a word step, states are expanded by structural
actions under an action-level beam; successors that generate the observed
next word collect into the next word beam, with the top ``fast_track_k``
generating successors bypassing the structural cutoff each round.  The log
sum over the surviving word beam approximates the prefix marginal, whose
per-word differences are surprisals in bits.

The in-repo model is an adapter over a small explicit PCFG, for which
:func:`exact_marginal` enumerates the full action space; external scorers
attach through a line-oriented subprocess protocol.
"""

from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import (
    DeadBeamError,
    FormatError,
    GrammarError,
    InputError,
    OracleInfeasibleError,
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


class OpenNT(NamedTuple):
    label: str


# Completed stack items are either a terminal word (str) or a pair
# (label, children) with children a tuple of completed items.


def _symbol(item) -> str:
    return item if isinstance(item, str) else item[0]


NT = "NT"
GEN = "GEN"
REDUCE = ("REDUCE",)


def nt(label: str) -> tuple:
    return (NT, label)


def gen(word: str) -> tuple:
    return (GEN, word)


@dataclass(frozen=True)
class ParserState:
    """Immutable search hypothesis: stack, words generated, history, log2 prob."""

    stack: tuple
    words: int
    history: tuple
    logprob: float

    def innermost_open(self):
        """(label, symbols of completed children) of the last open NT, or None."""
        for i in range(len(self.stack) - 1, -1, -1):
            if isinstance(self.stack[i], OpenNT):
                children = tuple(_symbol(x) for x in self.stack[i + 1:])
                return self.stack[i].label, children
        return None

    @property
    def is_complete(self) -> bool:
        return (
            len(self.stack) == 1
            and not isinstance(self.stack[0], OpenNT)
            and not isinstance(self.stack[0], str)
            and len(self.history) > 0
        )


INITIAL_STATE = ParserState((), 0, (), 0.0)


def action_is_legal(state: ParserState, action: tuple) -> bool:
    kind = action[0]
    has_open = any(isinstance(x, OpenNT) for x in state.stack)
    if kind == NT:
        return not state.stack or has_open
    if kind == GEN:
        return has_open
    if kind == "REDUCE":
        for i in range(len(state.stack) - 1, -1, -1):
            if isinstance(state.stack[i], OpenNT):
                return i < len(state.stack) - 1  # at least one completed child
        return False
    return False


def apply_action(state: ParserState, action: tuple, logprob: float,
                 validate: bool = False) -> ParserState:
    if validate and not action_is_legal(state, action):
        raise InputError(f"illegal action {serialize_action(action)} in state {state}")
    kind = action[0]
    if kind == NT:
        stack = state.stack + (OpenNT(action[1]),)
        words = state.words
    elif kind == GEN:
        stack = state.stack + (action[1],)
        words = state.words + 1
    else:  # REDUCE
        i = len(state.stack) - 1
        while i >= 0 and not isinstance(state.stack[i], OpenNT):
            i -= 1
        children = tuple(state.stack[i + 1:])
        stack = state.stack[:i] + ((state.stack[i].label, children),)
        words = state.words
    return ParserState(stack, words, state.history + (action,),
                       state.logprob + logprob)


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


def bracket(item) -> str:
    """Render a completed stack item as a bracketed tree string."""
    if isinstance(item, str):
        return item
    label, children = item
    return f"({label} " + " ".join(bracket(c) for c in children) + ")"


# ---------------------------------------------------------------------------
# Generative action models


class GenerativeActionModel:
    """Scoring contract used by the search.

    ``actions(state, next_word=None)`` returns ``[(action, log2prob), ...]``
    for legal actions, normalized within 1e-9 over the full legal set; an
    implementation may prune generation actions to ``next_word`` (the sum
    then being <= 1).  Scores must depend only on the state.
    """

    def initial_state(self) -> ParserState:
        return INITIAL_STATE

    def actions(self, state: ParserState, next_word: str | None = None):
        raise NotImplementedError


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
        for r in rules:
            if r.prob <= 0:
                raise GrammarError(f"rule {r} has non-positive probability")
            if not r.rhs:
                raise GrammarError(f"rule {r} has an empty right-hand side")
            by_lhs.setdefault(r.lhs, []).append(r)
        for lhs, group in by_lhs.items():
            total = math.fsum(r.prob for r in group)
            if abs(total - 1.0) > 1e-9:
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
    normalization over legal actions is exact by construction.
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

    def actions(self, state: ParserState, next_word: str | None = None):
        if not state.stack:
            return [] if state.history else [(nt(self.grammar.start), 0.0)]
        top = state.innermost_open()
        if top is None:
            return []  # complete
        label, children = top
        node = self._tries.get(label)
        for sym in children:
            if node is None:
                return []
            node = node.next.get(sym)
        if node is None:
            return []
        out = []
        for sym, child in sorted(node.next.items()):
            lp = math.log2(child.mass / node.mass)
            if sym in self.grammar.nonterminals:
                out.append((nt(sym), lp))
            else:
                out.append((gen(sym), lp))
        if node.stop > 0.0:
            out.append((REDUCE, math.log2(node.stop / node.mass)))
        return out


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
    with open(path, encoding="utf-8") as fh:
        return parse_grammar(fh.read())


def write_grammar(grammar: ToyPCFG, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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


def _rank(state: ParserState):
    return (-state.logprob, state.history)


def word_sync_beam(
    model: GenerativeActionModel,
    sentence: Sequence[str],
    word_beam_k: int = 100,
    action_beam_k: int | None = None,
    fast_track_k: int = 5,
    max_struct_rounds: int = 64,
    validate: bool = False,
) -> BeamResult:
    """Approximate prefix marginals for ``sentence`` under ``model``.

    With beams large enough to hold every live state the marginals are
    exact; under pruning they are lower bounds (mass over a subset) and are
    reported as-is, not renormalized.
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

    beam = [model.initial_state()]
    marginals = []
    for t, word in enumerate(sentence):
        completed: list[ParserState] = []
        frontier = beam
        rounds = 0
        while frontier and rounds < max_struct_rounds:
            rounds += 1
            gen_succs: list[ParserState] = []
            struct_succs: list[ParserState] = []
            for st in frontier:
                for action, lp in model.actions(st, next_word=word):
                    if action[0] == GEN:
                        if action[1] == word:
                            gen_succs.append(apply_action(st, action, lp, validate))
                    else:
                        struct_succs.append(apply_action(st, action, lp, validate))
            gen_succs.sort(key=_rank)
            completed.extend(gen_succs[:fast_track_k])
            pool = struct_succs + gen_succs[fast_track_k:]
            pool.sort(key=_rank)
            frontier = []
            for st in pool[:action_beam_k]:
                if st.history[-1][0] == GEN:
                    completed.append(st)
                else:
                    frontier.append(st)
        if not completed:
            raise DeadBeamError(t, word)
        completed.sort(key=_rank)
        beam = completed[:word_beam_k]
        marginals.append(log2sumexp(s.logprob for s in beam))

    # Close remaining constituents to recover complete parses.
    finals: list[ParserState] = []
    frontier = beam
    rounds = 0
    while frontier and rounds < max_struct_rounds:
        rounds += 1
        nxt: list[ParserState] = []
        for st in frontier:
            actions = model.actions(st)
            if not actions:
                if st.is_complete:
                    finals.append(st)
                continue
            for action, lp in actions:
                if action[0] == GEN:
                    continue
                nxt.append(apply_action(st, action, lp, validate))
        nxt.sort(key=_rank)
        frontier = nxt[:action_beam_k]
    finals.sort(key=_rank)
    finals = finals[:word_beam_k]

    prev = 0.0
    surprisals = []
    for m in marginals:
        surprisals.append(prev - m)
        prev = m
    if finals:
        top = finals[0]
        result_parse = bracket(top.stack[0])
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

    stack = [model.initial_state()]
    while stack:
        state = stack.pop()
        if len(state.history) > max_actions:
            raise OracleInfeasibleError(
                f"derivation exceeded {max_actions} actions; grammar not "
                "finitely enumerable under this bound"
            )
        actions = model.actions(state)
        if not actions:
            if state.is_complete and state.words == n:
                complete_logs.append(state.logprob)
                parses.append((bracket(state.stack[0]), state.logprob))
            continue
        for action, lp in actions:
            if action[0] == GEN:
                if state.words >= n or action[1] != sentence[state.words]:
                    continue
                succ = apply_action(state, action, lp)
                prefix_logs[succ.words].append(succ.logprob)
                stack.append(succ)
            else:
                stack.append(apply_action(state, action, lp))

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


PROTOCOL_HEADER = "#syntax-probe-scorer v1"


class SubprocessActionModel(GenerativeActionModel):
    """Adapter speaking the external scorer protocol.

    On startup the child prints the versioned header line.  Each request is
    ``SCORE<TAB>action history (space-joined)<TAB>next word (may be empty)``
    and each response one line of space-joined ``action=log2prob`` entries
    (empty line: no legal actions).  ``QUIT`` ends the session.
    """

    def __init__(self, argv: Sequence[str]):
        self._proc = subprocess.Popen(
            list(argv), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        header = self._proc.stdout.readline().strip()
        if header != PROTOCOL_HEADER:
            self.close()
            raise FormatError(
                f"scorer did not announce {PROTOCOL_HEADER!r} (got {header!r})"
            )

    def actions(self, state: ParserState, next_word: str | None = None):
        history = " ".join(serialize_action(a) for a in state.history)
        self._proc.stdin.write(f"SCORE\t{history}\t{next_word or ''}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if line == "":
            raise FormatError("scorer closed the stream mid-session")
        line = line.rstrip("\n")
        if not line:
            return []
        out = []
        for entry in line.split(" "):
            token, _, lp = entry.rpartition("=")
            if not token:
                raise FormatError(f"bad scorer response entry {entry!r}")
            out.append((parse_action(token), float(lp)))
        return out

    def close(self):
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write("QUIT\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, ValueError):
                pass
            self._proc.wait(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
