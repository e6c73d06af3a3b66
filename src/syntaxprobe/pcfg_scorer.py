"""Reference external scorer for the subprocess protocol (version 2).

Run as ``python -m syntaxprobe.pcfg_scorer GRAMMAR_FILE``: announces the
protocol header, then answers each ``SCORE<TAB>next word<TAB>refs`` request
with one line holding the tab-joined action lists of its refs (see
:class:`~syntaxprobe.beamsearch.SubprocessActionModel` for the wire format).
Its standard streams are read and written as UTF-8, whatever the locale or
``PYTHONIOENCODING`` says.  It keeps a table from state id to parser state,
so a new state ``ID=PARENT:ACTION`` costs one legality-checked transition
from its parent (:func:`~syntaxprobe.actions.apply_action`); ``ID=`` (the
initial state) clears the table.  A request's
states are built first, in order, and then scored together by one
:meth:`~syntaxprobe.beamsearch.PCFGActionModel.actions_for` call of the
PCFG adapter, which, given the requested next word, omits the actions
after which that word cannot be generated: other words' generation, and
each constituent that cannot begin with it (the other scores are unchanged,
so a list sums to at most 1).  A malformed or illegal request is answered with one
``ERR <reason>`` line, and the scorer goes on serving.  A grammar that does
not load ends the scorer before its header with one ``error:<category>:``
line on stderr, with the CLI's tokens and exit codes: 1, or 2 for a file
that cannot be read.

Two more tables last the whole session, so that each distinct piece of
protocol text is worked out once: the parsed action of each action token,
and the formatted text of each action list the adapter returns.  The
adapter returns one shared tuple per distinct list, so the second is keyed
by identity and formats each distinct list once.
"""

from __future__ import annotations

import sys

from .actions import INITIAL_STATE, apply_action, parse_action
from .beamsearch import PROTOCOL_HEADER, PCFGActionModel, format_action_list, read_grammar
from .errors import FormatError, SyntaxProbeError, report


class Session:
    """One scorer session over ``model``: :meth:`reply` answers one request
    line, and :func:`serve` runs one session over a pair of streams."""

    def __init__(self, model: PCFGActionModel):
        self.model = model
        self.states: dict = {}  # state id -> parser state, for one sentence
        self.actions: dict = {}  # action token -> parsed action
        self.texts: dict = {}  # id(action list) -> (the list, its text)

    def reply(self, line: str) -> str:
        """The response line to one request (``ERR <reason>`` if it
        cannot be answered), updating the states in order."""
        try:
            return self._score(line)
        except SyntaxProbeError as exc:
            return "ERR " + " ".join(str(exc).split())

    def _score(self, line: str) -> str:
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] != "SCORE":
            raise FormatError(
                f"expected SCORE<TAB>next word<TAB>refs, got {line[:80]!r}")
        _, next_word, refs = fields
        states = self.states
        actions = self.actions
        batch = []
        for ref in refs.split(" "):
            sid, is_new, definition = ref.partition("=")
            if not is_new:
                state = states.get(sid)
                if state is None:
                    raise FormatError(f"unknown state id {sid!r}")
            elif not sid:
                raise FormatError(f"ref {ref!r} has no state id")
            elif not definition:
                states.clear()  # a new sentence
                state = INITIAL_STATE
            else:
                parent, _, token = definition.partition(":")
                if parent not in states:
                    raise FormatError(f"unknown parent id {parent!r} in {ref!r}")
                action = actions.get(token)
                if action is None:
                    action = actions[token] = parse_action(token)
                state = apply_action(states[parent], action, 0.0)
            states[sid] = state
            batch.append(state)
        texts = self.texts
        out = []
        for action_list in self.model.actions_for(batch, next_word or None):
            known = texts.get(id(action_list))
            if known is None:
                # Holding the list keeps its id from being reused.
                known = texts[id(action_list)] = (
                    action_list, format_action_list(action_list))
            out.append(known[1])
        return "\t".join(out)


def serve(grammar_path: str, stdin=None, stdout=None) -> None:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    session = Session(PCFGActionModel(read_grammar(grammar_path)))
    stdout.write(PROTOCOL_HEADER + "\n")
    stdout.flush()
    for line in stdin:
        line = line.rstrip("\n")
        if line == "QUIT":
            break
        stdout.write(session.reply(line) + "\n")
        stdout.flush()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m syntaxprobe.pcfg_scorer GRAMMAR_FILE",
              file=sys.stderr)
        return 2
    # The wire is UTF-8 on both sides: the client opens its pipes so too.
    sys.stdin.reconfigure(encoding="utf-8")
    sys.stdout.reconfigure(encoding="utf-8")
    try:
        serve(argv[0])  # answers a bad request with ERR and goes on
    except (SyntaxProbeError, OSError) as exc:
        return report(exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
