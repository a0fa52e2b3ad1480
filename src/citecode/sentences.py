"""Sentence segmentation with abbreviation and parenthesis protection.

A boundary is placed only at a run of sentence-final punctuation that
is outside any open parenthesis or bracket, is not the period of a
protected abbreviation, and is followed by whitespace and an
upper-case, digit, or opening character. Concatenating the returned
sentences (with whitespace collapsed) reproduces the input text.
"""

from __future__ import annotations

from pathlib import Path

_TERMINATORS = ".!?"
_OPENERS = "(["
_CLOSERS = ")]"
_TRAILING_QUOTES = "\"'’”"
_STARTERS = "\"'(“["

DEFAULT_ABBREVIATIONS: tuple[str, ...] = (
    "e.g.", "i.e.", "et al.", "cf.", "vs.", "Fig.", "Eq.", "p.", "pp.",
    "etc.", "ca.", "Dr.", "Prof.", "No.", "Vol.", "ed.", "eds.",
)


def load_abbreviations(path: str | Path) -> tuple[str, ...]:
    """Read one abbreviation per line; blank lines and # comments skipped."""
    entries = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        token = line.strip()
        if token and not token.startswith("#"):
            entries.append(token)
    return tuple(entries)


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _protected(
    text: str, dot_index: int, abbreviations: tuple[str, ...], window: int
) -> bool:
    """True when the period at dot_index ends a protected abbreviation.

    Only the last `window` characters (the longest abbreviation) are
    lowercased, which keeps segmentation linear in the text length.
    str.lower maps each character on its own except a capital sigma,
    whose form depends on the letters before it; a window holding one
    is compared against the whole prefix, as if no window were taken.
    """
    tail = text[max(0, dot_index + 1 - window) : dot_index + 1]
    if "\u03a3" in tail:
        tail = text[: dot_index + 1]
    tail_low = tail.lower()
    for abbr in abbreviations:
        if not tail_low.endswith(abbr):
            continue
        before = dot_index - len(abbr)
        if before < 0 or not text[before].isalnum():
            return True
    return False


def segment_sentences(
    text: str,
    abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS,
) -> list[str]:
    """Split text into sentences; whitespace inside each is collapsed."""
    abbrevs = tuple(a.lower() for a in abbreviations)
    window = max(map(len, abbrevs), default=0)
    sentences: list[str] = []
    start = 0
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _OPENERS:
            depth += 1
        elif ch in _CLOSERS:
            depth = max(0, depth - 1)
        elif ch in _TERMINATORS and depth == 0:
            if ch == "." and _protected(text, i, abbrevs, window):
                i += 1
                continue
            # Swallow the full run ("?!", "...") plus any closing quotes.
            j = i
            while j + 1 < n and text[j + 1] in _TERMINATORS:
                j += 1
            k = j + 1
            while k < n and text[k] in _TRAILING_QUOTES:
                k += 1
            m = k
            while m < n and text[m].isspace():
                m += 1
            next_starts_sentence = m < n and (
                text[m].isupper() or text[m].isdigit() or text[m] in _STARTERS
            )
            if m > k and next_starts_sentence:
                piece = _collapse(text[start:k])
                if piece:
                    sentences.append(piece)
                start = m
                i = m
                continue
            i = k
            continue
        i += 1
    tail = _collapse(text[start:])
    if tail:
        sentences.append(tail)
    return sentences
