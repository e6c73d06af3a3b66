"""Reference external scorer for the subprocess protocol (version 2).

Run as ``python -m syntaxprobe.pcfg_scorer GRAMMAR_FILE``: announces the
protocol header, then answers each ``SCORE<TAB>next word<TAB>refs`` request
with one line holding the tab-joined action lists of its refs (see
:class:`~syntaxprobe.beamsearch.SubprocessActionModel` for the wire format).
It keeps a table from state id to parser state, so a new state
``ID=PARENT:ACTION`` costs one legality-checked transition from its parent;
``ID=`` (the initial state) clears the table.  A request's states are
built first, in order, and then scored together by one
:meth:`~syntaxprobe.beamsearch.PCFGActionModel.actions_for` call of the
PCFG adapter, which prunes generation actions to the requested next word
when one is given (structural scores are unchanged, so a list sums to at
most 1).  A malformed or illegal request is answered with one
``ERR <reason>`` line, and the scorer goes on serving.  A grammar that does
not load ends the scorer before its header with one ``error:<category>:``
line on stderr, with the CLI's tokens and exit codes: 1, or 2 for a file
that cannot be read.
"""

from __future__ import annotations

import sys

from .beamsearch import (
    INITIAL_STATE,
    PROTOCOL_HEADER,
    PCFGActionModel,
    apply_action,
    format_action_list,
    parse_action,
    read_grammar,
)
from .errors import FormatError, SyntaxProbeError, report


def _score(model: PCFGActionModel, states: dict, line: str) -> str:
    """The response line to one request, updating ``states`` in order."""
    fields = line.split("\t")
    if len(fields) != 3 or fields[0] != "SCORE":
        raise FormatError(
            f"expected SCORE<TAB>next word<TAB>refs, got {line[:80]!r}")
    _, next_word, refs = fields
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
            state = apply_action(states[parent], parse_action(token), 0.0)
        states[sid] = state
        batch.append(state)
    return "\t".join(map(format_action_list,
                         model.actions_for(batch, next_word or None)))


def serve(grammar_path: str, stdin=None, stdout=None) -> None:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    model = PCFGActionModel(read_grammar(grammar_path))
    stdout.write(PROTOCOL_HEADER + "\n")
    stdout.flush()
    states: dict = {}
    for line in stdin:
        line = line.rstrip("\n")
        if line == "QUIT":
            break
        try:
            reply = _score(model, states, line)
        except SyntaxProbeError as exc:
            reply = "ERR " + " ".join(str(exc).split())
        stdout.write(reply + "\n")
        stdout.flush()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m syntaxprobe.pcfg_scorer GRAMMAR_FILE",
              file=sys.stderr)
        return 2
    try:
        serve(argv[0])  # answers a bad request with ERR and goes on
    except (SyntaxProbeError, OSError) as exc:
        return report(exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
