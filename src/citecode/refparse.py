"""Reference-entry parsing: authors, year, and venue signals.

The field grammar is deliberately loose. An optional leading "[n]"
label is stripped into ref_id, the author block is whatever precedes
the first parenthesized year, and the rest of the string is scanned
for venue signals. A missing year or an unparseable author is
tolerated; the raw string is always retained.
"""

from __future__ import annotations

import re
from itertools import combinations

from .errors import UnparseableName
from .models import YEAR_PATTERN, AuthorName, ReferenceEntry
from .names import _INITIALS_RE, normalize_author_key, surname_of

SIG_PROCEEDINGS = "proceedings"
SIG_VOLUME_ISSUE = "volume_issue"
SIG_PUBLISHER = "publisher"
SIG_REPORT = "report"
SIG_URL = "url"

_LABEL_RE = re.compile(r"^\[(\d{1,4})\]\s*")
_YEAR_RE = re.compile(rf"\((?P<year>{YEAR_PATTERN})(?P<suffix>[a-z])?[^)]*\)")

# Venue signal patterns. volume(issue) requires digits on both sides so
# a plain "(1965)" year never counts; the issue side may be a range.
_PROCEEDINGS_RE = re.compile(r"\bproceedings\b", re.IGNORECASE)
_VOLUME_ISSUE_RE = re.compile(r"\b\d{1,4}\s*\(\s*\d{1,4}(?:\s*[-–/]\s*\d{1,4})?\s*\)")
_EDITION_RE = re.compile(r"\(\s*\d+(?:st|nd|rd|th)\s+ed\.?\s*\)|\bedition\b", re.IGNORECASE)
_EDITOR_RE = re.compile(r"\(\s*eds?\.?\s*\)", re.IGNORECASE)
_PUBLISHER_NAME_RE = re.compile(
    r"\b(?:Press|Publish(?:ing|ers?)|Books|Sage|Springer|Wiley|Elsevier|Routledge"
    r"|Erlbaum|Ablex|Aldine|Mouton|Dekker|Hafner|Blackwell|Palgrave|McGraw)\b"
)
# "City: Publisher." at the very end of the entry ("CA: Sage.").
_TERMINAL_IMPRINT_RE = re.compile(
    r"[.;]\s+[A-Z][A-Za-z ,.]{0,40}:\s+[A-Z][A-Za-z ,&.'-]{1,60}\.?\s*$"
)
_REPORT_RE = re.compile(
    r"\b(?:report|news(?:paper|letter)?|working paper|white paper|press release)\b",
    re.IGNORECASE,
)
_URL_RE = re.compile(r"https?://|\bwww\.|\bretrieved\b|\baccessed\b", re.IGNORECASE)

_LEAD_SEP_RE = re.compile(r"^(?:&|and)\s+", re.IGNORECASE)

# Every set of signals, each as the one frozenset that all entries with
# those signals share: 32 sets, where a corpus would hold one per entry.
_SIGNALS = (SIG_PROCEEDINGS, SIG_VOLUME_ISSUE, SIG_PUBLISHER, SIG_REPORT, SIG_URL)
_SIGNAL_SETS = {
    signals: signals
    for size in range(len(_SIGNALS) + 1)
    for signals in map(frozenset, combinations(_SIGNALS, size))
}


def detect_venue_signals(text: str) -> frozenset[str]:
    """Scan a reference string for venue-class signals.

    A pattern runs only when the entry holds a literal that every match
    of it contains. Case-insensitive patterns are gated on text.lower(),
    with literals free of "i" and "s": re.IGNORECASE also matches "ı"
    and "İ" to "i" and "ſ" to "s", and str.lower() maps none of them
    to those letters.
    """
    low = text.lower()
    signals = set()
    if "proceed" in low and _PROCEEDINGS_RE.search(text):
        signals.add(SIG_PROCEEDINGS)
    if "(" in text and _VOLUME_ISSUE_RE.search(text):
        signals.add(SIG_VOLUME_ISSUE)
    if (
        ("ed" in low and _EDITION_RE.search(text))
        or ("(" in text and _EDITOR_RE.search(text))
        or _PUBLISHER_NAME_RE.search(text)
        or (":" in text and _TERMINAL_IMPRINT_RE.search(text))
    ):
        signals.add(SIG_PUBLISHER)
    if (
        "report" in low or "new" in low or "paper" in low or "rele" in low
    ) and _REPORT_RE.search(text):
        signals.add(SIG_REPORT)
    if (
        "://" in text or "www." in low or "retr" in low or "acce" in low
    ) and _URL_RE.search(text):
        signals.add(SIG_URL)
    return _SIGNAL_SETS[frozenset(signals)]


def _author(raw: str) -> AuthorName | None:
    try:
        return AuthorName(raw=raw, key=normalize_author_key(raw))
    except UnparseableName:
        return None


def parse_author_block(block: str) -> list[AuthorName]:
    """Parse an author list written in surname-initials style.

    Handles "; "-separated lists, "&"/"and" conjunctions, and the
    comma-separated APA form where commas separate both surnames from
    initials and authors from each other.
    """
    block = block.strip().rstrip(".,;")
    if not block:
        return []
    if ";" in block:
        authors = [_author(part) for part in block.split(";") if part.strip()]
        return [a for a in authors if a is not None]
    parts = [p.strip() for p in block.split(",") if p.strip()]
    authors: list[AuthorName] = []
    i = 0
    while i < len(parts):
        part = _LEAD_SEP_RE.sub("", parts[i]).strip()
        if not part:
            i += 1
            continue
        nxt = _LEAD_SEP_RE.sub("", parts[i + 1]).strip() if i + 1 < len(parts) else ""
        if nxt and _INITIALS_RE.match(nxt):
            found = _author(f"{part}, {nxt}")
            i += 2
        else:
            found = _author(part)
            i += 1
        if found is not None:
            authors.append(found)
    return authors


def parse_reference_entry(text: str) -> ReferenceEntry:
    """Parse one bibliography entry.

    Its id is the "[n]" label it starts with, or "" when it has none;
    the caller then supplies or derives one.
    """
    raw = " ".join(text.split())
    ref_id = ""
    body = raw
    label_match = _LABEL_RE.match(body)
    if label_match:
        ref_id = label_match.group(1)
        body = body[label_match.end():]
    year = None
    suffix = None
    year_match = _YEAR_RE.search(body)
    if year_match:
        year = int(year_match.group("year"))
        suffix = year_match.group("suffix")
        author_block = body[: year_match.start()]
    else:
        # Best effort without a year: authors end at the first period
        # that closes an initials run or a plain word.
        author_block = body.split(". ", 1)[0] if ". " in body else ""
    authors = parse_author_block(author_block)
    return ReferenceEntry(
        ref_id=ref_id,
        raw=body,
        authors=authors,
        year=year,
        year_suffix=suffix,
        venue_signals=detect_venue_signals(body),
    )


def derive_ref_id(entry: ReferenceEntry, ordinal: int) -> str:
    """Fallback id for entries without an explicit label."""
    if entry.authors and entry.year is not None:
        surname = surname_of(entry.authors[0].key).replace(" ", "-")
        return f"{surname}-{entry.year}{entry.year_suffix or ''}"
    return f"ref-{ordinal}"
