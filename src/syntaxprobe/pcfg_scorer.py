"""Reference external scorer for the subprocess protocol.

Run as ``python -m syntaxprobe.pcfg_scorer GRAMMAR_FILE``: announces the
protocol header, then answers SCORE requests by replaying the action
history through the transition system and scoring with the PCFG adapter,
which prunes generation actions to the requested next word when one is
given (structural scores are unchanged, so the response sums to at most 1).
"""

from __future__ import annotations

import sys

from .beamsearch import (
    PROTOCOL_HEADER,
    PCFGActionModel,
    apply_action,
    parse_action,
    read_grammar,
    serialize_action,
)


def serve(grammar_path: str, stdin=None, stdout=None) -> None:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    model = PCFGActionModel(read_grammar(grammar_path))
    stdout.write(PROTOCOL_HEADER + "\n")
    stdout.flush()
    for line in stdin:
        line = line.rstrip("\n")
        if line == "QUIT":
            break
        verb, history, next_word = line.split("\t")
        if verb != "SCORE":
            raise SystemExit(f"unknown request {verb!r}")
        state = model.initial_state()
        for token in history.split(" "):
            if token:
                state = apply_action(state, parse_action(token), 0.0)
        actions = model.actions(state, next_word or None)
        stdout.write(
            " ".join(f"{serialize_action(a)}={lp!r}" for a, lp in actions) + "\n"
        )
        stdout.flush()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m syntaxprobe.pcfg_scorer GRAMMAR_FILE",
              file=sys.stderr)
        return 2
    serve(argv[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
