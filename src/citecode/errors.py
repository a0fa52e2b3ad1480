"""Exception types shared across the package.

One rule: a CitecodeError is always a fault in the user's input, and
the command line exits 2 on it. A fault of the program, or a bad
argument from a caller, raises a built-in exception such as ValueError,
and the command line exits 1. An input error carries an optional 1-based
line number, so callers can report or skip a bad document without
losing the rest of a corpus run. Every input text file is read through
_read_utf8, which reports bad files the same way.
"""

from __future__ import annotations

from pathlib import Path


class CitecodeError(Exception):
    """A fault in the user's input, with an optional 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedInput(CitecodeError):
    """Input violates the document grammar."""


class MalformedLexicon(CitecodeError):
    """Cue lexicon file violates its format or repeats a phrase."""


class MalformedConfig(CitecodeError):
    """Pipeline configuration file is invalid."""


class UnparseableName(CitecodeError):
    """Author name contains no usable alphabetic content."""


class NoOverlap(CitecodeError):
    """Coded and gold records share no (doc_id, citation_id) pairs."""


class UnknownCategory(CitecodeError):
    """A category letter outside A..L was requested."""


def _decode_utf8(
    data: bytes, what: str, error: type[CitecodeError], lf_only: bool = False
) -> str:
    r"""The text of a UTF-8 input; bad bytes raise ``error`` at their line.

    One leading byte-order mark is dropped. Lines end where _split_lines
    ends them ("\n", "\r\n" or a lone "\r"), or at "\n" alone when
    ``lf_only``, as in JSON Lines files.
    """
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = before.count(b"\n") + 1
        if not lf_only:
            line += before.count(b"\r") - before.count(b"\r\n")
        raise error(f"{what} file is not UTF-8 ({exc.reason})", line=line) from None


def _read_utf8(
    path: str | Path, what: str, error: type[CitecodeError], lf_only: bool = False
) -> str:
    """The text of a UTF-8 file; one that cannot be read or decoded raises ``error``."""
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise error(f"cannot read {what} file {path}: {exc}") from None
    return _decode_utf8(data, what, error, lf_only)


def _split_lines(text: str) -> list[str]:
    r"""Lines ended by "\n", "\r\n" or "\r" only, not at a form feed or U+2028."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_lines(path: str | Path, what: str, error: type[CitecodeError]) -> list[tuple[int, str]]:
    """The stripped lines of a UTF-8 file with their 1-based numbers.

    Blank lines and # comment lines are skipped.
    """
    return [
        (line_no, stripped)
        for line_no, line in enumerate(_split_lines(_read_utf8(path, what, error)), start=1)
        if (stripped := line.strip()) and not stripped.startswith("#")
    ]
