"""Rule-based coders for the form-level categories A, B, D, E, F, G, H.

Every coder returns the category value (or an Uncodable marker) plus a
short rule identifier recorded in the audit trail of the final record.
The coders read the parsed text as written: A scans the reference
entry's text and D maps the section header, each when a citation is
coded.
"""

from __future__ import annotations

import re

from .codebook import VALUES, Uncodable
from .models import (
    STYLE_NARRATIVE,
    VENUE_TYPES,
    AuthorName,
    DocumentMetadata,
    InTextCitation,
    ReferenceEntry,
    Section,
)

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

# Section header -> location value. Lookup is case-insensitive on the
# header with its whitespace collapsed; "method"/"conclusion" match as
# prefixes.
_LOCATION_EXACT = {
    "abstract": "D1",
    "introduction": "D2",
    "background": "D2",
    "literature review": "D3",
    "related work": "D3",
    "prior work": "D3",
    "materials and methods": "D4",
    "experimental setup": "D4",
    "results": "D5",
    "discussion": "D5",
    "findings": "D5",
    "evaluation": "D5",
    "experiments": "D5",
    "summary": "D6",
    "future work": "D6",
}
_LOCATION_PREFIXES = (("method", "D4"), ("conclusion", "D6"))

# The codebook lists G1..G6 in the order of the venue types.
_VENUE_TYPE_TO_G = dict(zip(VENUE_TYPES, VALUES["G"]))

_QUOTE_RE = re.compile(r"\"([^\"]{1,400})\"|“([^”]{1,400})”")
_MIN_QUOTE_TOKENS = 3


def code_document_type(
    source: ReferenceEntry | DocumentMetadata,
) -> tuple[str, str]:
    """Type of a cited work (A) or of the citing document (G).

    A is the first venue signal in the entry text, in codebook order.
    A pattern runs only when the entry holds a literal that every match
    of it contains. Case-insensitive patterns are gated on text.lower(),
    with literals free of "i" and "s": re.IGNORECASE also matches "ı"
    and "İ" to "i" and "ſ" to "s", and str.lower() maps none of them
    to those letters.
    """
    if isinstance(source, DocumentMetadata):
        value = _VENUE_TYPE_TO_G[source.venue_type]
        return value, f"G:venue-type:{source.venue_type}"
    text = source.raw
    low = text.lower()
    if "proceed" in low and _PROCEEDINGS_RE.search(text):
        return "A2", "A:signal:proceedings"
    if "(" in text and _VOLUME_ISSUE_RE.search(text):
        return "A1", "A:signal:volume_issue"
    if (
        ("ed" in low and _EDITION_RE.search(text))
        or ("(" in text and _EDITOR_RE.search(text))
        or _PUBLISHER_NAME_RE.search(text)
        or (":" in text and _TERMINAL_IMPRINT_RE.search(text))
    ):
        return "A3", "A:signal:publisher"
    if (
        "report" in low or "new" in low or "paper" in low or "rele" in low
    ) and _REPORT_RE.search(text):
        return "A4", "A:signal:report"
    if (
        "://" in text or "www." in low or "retr" in low or "acce" in low
    ) and _URL_RE.search(text):
        return "A5", "A:signal:url"
    return "A6", "A:signal:none"


def code_authorship(
    authors: list[AuthorName], category: str = "B", et_al: bool = False
) -> tuple[str | Uncodable, str]:
    """Single vs multiple authorship for either side (B or H).

    ``et_al`` marks a list with more authors than it names, as a cited
    entry's ``et al.`` does: always multiple, even with none named.
    """
    if et_al:
        return f"{category}2", f"{category}:count={len(authors)}+et-al"
    if not authors:
        return Uncodable("missing-authors"), f"{category}:missing"
    value = f"{category}1" if len(authors) == 1 else f"{category}2"
    return value, f"{category}:count={len(authors)}"


def normalize_section_header(header: str) -> str:
    """Map a raw section header to its location value D1..D7."""
    key = " ".join(header.lower().split())
    value = _LOCATION_EXACT.get(key)
    if value:
        return value
    for prefix, prefixed_value in _LOCATION_PREFIXES:
        if key.startswith(prefix):
            return prefixed_value
    return "D7"


def code_location(section: Section) -> tuple[str, str]:
    """Location of the citing sentence, from its section's header."""
    value = normalize_section_header(section.raw_header)
    if value == "D7":
        return value, f"D:other:{section.raw_header}"
    return value, f"D:header:{section.raw_header.lower()}"


def code_frequency(count: int) -> tuple[str, str]:
    """Mention-count bands: 1, 2..4, 5 and up."""
    if count <= 0:
        raise ValueError(f"mention count must be positive, got {count}")
    if count == 1:
        value = "E1"
    elif count <= 4:
        value = "E2"
    else:
        value = "E3"
    return value, f"E:count={count}"


def has_attributed_quote(sentence: str) -> bool:
    """Whether the sentence quotes a span of three or more words."""
    for match in _QUOTE_RE.finditer(sentence):
        span = match.group(1) or match.group(2) or ""
        if len(span.split()) >= _MIN_QUOTE_TOKENS:
            return True
    return False


def code_style(citation: InTextCitation, quoted: bool) -> tuple[str, str]:
    """Citation style: quotation beats narrative beats parenthetical."""
    if citation.has_page_locator:
        return "F3", "F:page-locator"
    if quoted:
        return "F3", "F:quote-span"
    if citation.marker_style == STYLE_NARRATIVE:
        return "F2", "F:narrative"
    return "F1", "F:parenthetical"
