"""The transition system of generative parsing.

An action is a tuple: ``NT(X)`` opens a constituent labelled ``X``,
``GEN(w)`` generates the word ``w`` in the open constituent, and ``REDUCE``
closes it, so a complete action sequence derives a sentence and its parse
at once.  :func:`expand` is the one place where actions change a
:class:`ParserState`; :func:`serialize_action` and :func:`parse_action`
give the tokens of the scorer protocol, and :func:`bracket` renders a parse.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FormatError, InputError

NT = "NT"
GEN = "GEN"
REDUCE = ("REDUCE",)


def nt(label: str) -> tuple:
    return (NT, label)


def gen(word: str) -> tuple:
    return (GEN, word)


class ParserState:
    """Immutable search hypothesis: log2 prob and the derivation so far.

    A successor shares all but O(1) of its parent, so an action costs the
    same at any point in the sentence:

    - ``frame`` is ``((label, child symbols), outer frame)`` for the
      innermost open constituent, or None when nothing is open;
    - ``chain`` is ``(last action, earlier chain)``, or None before the
      first action.

    ``history`` lists the chain, and :func:`bracket` renders it.
    """

    __slots__ = ("logprob", "frame", "chain")

    def __init__(self, logprob: float, frame=None, chain=None):
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

    @property
    def is_complete(self) -> bool:
        """The root constituent has been reduced."""
        return self.frame is None and self.chain is not None

    def __repr__(self) -> str:
        return f"ParserState(history={self.history!r}, logprob={self.logprob!r})"


INITIAL_STATE = ParserState(0.0)


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


def expand(states: Sequence[ParserState], action_lists, word: str | None
           ) -> tuple[list, list]:
    """The successors of ``states`` under their ``(action, log2prob)``
    lists, which must be legal, as ``(generating, structural)``: each in
    order of state, then of action.  A GEN successor is kept only when it
    generates ``word`` (with ``word`` None, none is).

    The one place where an action changes a state's frames and chain.
    Successors are filled in slot by slot, without the ``__init__`` call:
    this is the search's hottest allocation.
    """
    generating: list[ParserState] = []
    structural: list[ParserState] = []
    keep_gen = generating.append
    keep = structural.append
    new = object.__new__
    for state, actions in zip(states, action_lists):
        logprob = state.logprob
        frame = state.frame
        chain = state.chain
        for action, lp in actions:
            kind = action[0]
            if kind == NT:
                succ = new(ParserState)
                succ.frame = ((action[1], ()), frame)
                keep(succ)
            elif kind == GEN:
                if action[1] != word:
                    continue
                (label, symbols), outer = frame
                succ = new(ParserState)
                succ.frame = ((label, symbols + (word,)), outer)
                keep_gen(succ)
            else:  # REDUCE
                (label, _), outer = frame
                if outer is not None:  # else the root closes
                    (olabel, osymbols), outer = outer
                    outer = ((olabel, osymbols + (label,)), outer)
                succ = new(ParserState)
                succ.frame = outer
                keep(succ)
            succ.logprob = logprob + lp
            succ.chain = (action, chain)
    return generating, structural


def apply_action(state: ParserState, action: tuple, logprob: float) -> ParserState:
    """:func:`expand` of one action; an illegal ``action`` is an InputError."""
    if not action_is_legal(state, action):
        raise InputError(f"illegal action {serialize_action(action)} in state {state}")
    # The word is the action's last field: a GEN keeps its own word, and the
    # other kinds do not read it.
    generating, structural = expand((state,), (((action, logprob),),),
                                    action[-1])
    return (generating or structural)[0]


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
