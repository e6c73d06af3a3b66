"""Exception hierarchy with stable machine-readable categories, the text
file openers every reader and writer goes through, and the collector pause
the stages and the beam search run under.

Every error raised by this package carries a ``category`` token that the CLI
prints on stderr, so scripted callers can switch on it without parsing prose.
"""

from __future__ import annotations

import contextlib
import gc
import os


class SyntaxProbeError(Exception):
    """Base class; ``category`` is a stable token, never localized."""

    category = "error"


class TreebankParseError(SyntaxProbeError):
    category = "parse-error"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class InputError(SyntaxProbeError):
    """Precondition violation on user-supplied values."""

    category = "undefined-input"


class FormatError(SyntaxProbeError):
    """Malformed artifact file (suite, surprisal, model, config)."""

    category = "format-error"


class GenerationError(SyntaxProbeError):
    category = "generation-error"


class EmptyPoolError(GenerationError):
    category = "empty-pool"


class TrainingError(SyntaxProbeError):
    category = "training-error"


class AlignmentError(SyntaxProbeError):
    category = "alignment-error"


class DeadBeamError(SyntaxProbeError):
    category = "dead-beam"

    def __init__(self, word_index: int, word: str):
        super().__init__(
            f"no live parser states before word {word_index} ({word!r})")
        self.word_index = word_index
        self.word = word


class OracleInfeasibleError(SyntaxProbeError):
    category = "oracle-infeasible"


class GrammarError(SyntaxProbeError):
    category = "grammar-error"


class SeparationError(SyntaxProbeError):
    category = "separation-error"


class RankError(SyntaxProbeError):
    category = "rank-error"


class UsageError(SyntaxProbeError):
    category = "usage-error"


@contextlib.contextmanager
def open_text(path, newline=None):
    """``open(path, encoding="utf-8")`` for the readers: a byte that is not
    UTF-8 raises FormatError naming the file and the line it is on."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's current chunk, so decode the
        # whole file again to find the byte's absolute offset.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            line = data.count(b"\n", 0, whole.start) + 1
            raise FormatError(f"input is not UTF-8: {path}:{line}: "
                              f"byte 0x{data[whole.start]:02x}") from exc
        raise


@contextlib.contextmanager
def gc_paused():
    """Run the body with Python's cyclic garbage collector disabled.

    A stage or a search builds large acyclic graphs (trees, count tables,
    beam states) that reference counting frees; the collector would only
    rescan them as they grow.  On exit the collector is enabled again only
    if it was enabled on entry, so blocks nest and a caller's own setting
    is left as it was."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextlib.contextmanager
def read_rows(path, header=None):
    """The one reader of the tab-separated artifacts: yields ``(head, rows)``.

    With a ``header``, the first line must start with it as a whole word,
    and ``head`` is the rest of that line, stripped.  ``rows`` streams
    ``(lineno, fields)`` for every later line that is not blank, split on
    tabs; ``#`` lines are rows too, since each format has its own comment
    rule.  A ValueError or IndexError raised in the body (a wrong field
    count, ``int()``, ``float()``) is a FormatError at the current line."""
    with open_text(path) as fh:
        head, lineno = None, 0
        if header is not None:
            first, lineno = fh.readline(), 1
            rest = first[len(header):]
            if not first.startswith(header) or rest[:1].strip():
                raise FormatError(f"{path}: missing {header!r} header")
            head = rest.strip()

        def rows():
            nonlocal lineno
            for lineno, line in enumerate(fh, lineno + 1):
                if not line.isspace():
                    yield lineno, line.rstrip("\n").split("\t")

        try:
            yield head, rows()
        except UnicodeDecodeError:
            raise  # open_text reports the file, line and byte
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed line: {exc}") from exc


@contextlib.contextmanager
def write_text(path):
    """The one way an artifact lands on disk: the body writes ``<path>.tmp``
    (UTF-8, ``\\n`` written as is) and a clean exit renames it onto ``path``,
    so a reader finds the whole file or none of it.  The parent directory is
    created; on any exception the temporary file is removed."""
    tmp = os.fspath(path) + ".tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
