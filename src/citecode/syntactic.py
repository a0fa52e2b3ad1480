"""Rule-based coders for the form-level categories A, B, D, E, F, G, H.

Every coder returns the category value (or an Uncodable marker) plus a
short rule identifier recorded in the audit trail of the final record.
"""

from __future__ import annotations

import re

from .codebook import VALUES, Uncodable
from .errors import InvalidCount
from .models import (
    STYLE_NARRATIVE,
    VENUE_TYPES,
    AuthorName,
    DocumentMetadata,
    InTextCitation,
    ReferenceEntry,
    Section,
)
from .refparse import SIG_PROCEEDINGS, SIG_PUBLISHER, SIG_REPORT, SIG_URL, SIG_VOLUME_ISSUE

# Signal precedence for cited works. Scanning a fixed order makes the
# result independent of how the signal set was built.
_SIGNAL_ORDER = (
    (SIG_PROCEEDINGS, "A2"),
    (SIG_VOLUME_ISSUE, "A1"),
    (SIG_PUBLISHER, "A3"),
    (SIG_REPORT, "A4"),
    (SIG_URL, "A5"),
)

# The codebook lists G1..G6 in the order of the venue types.
_VENUE_TYPE_TO_G = dict(zip(VENUE_TYPES, VALUES["G"]))

_QUOTE_RE = re.compile(r"\"([^\"]{1,400})\"|“([^”]{1,400})”")
_MIN_QUOTE_TOKENS = 3


def code_document_type(
    source: ReferenceEntry | DocumentMetadata,
) -> tuple[str, str]:
    """Type of a cited work (A) or of the citing document (G)."""
    if isinstance(source, DocumentMetadata):
        value = _VENUE_TYPE_TO_G[source.venue_type]
        return value, f"G:venue-type:{source.venue_type}"
    for signal, value in _SIGNAL_ORDER:
        if signal in source.venue_signals:
            return value, f"A:signal:{signal}"
    return "A6", "A:signal:none"


def code_authorship(
    authors: list[AuthorName], category: str = "B"
) -> tuple[str | Uncodable, str]:
    """Single vs multiple authorship for either side (B or H)."""
    if not authors:
        return Uncodable("missing-authors"), f"{category}:missing"
    value = f"{category}1" if len(authors) == 1 else f"{category}2"
    return value, f"{category}:count={len(authors)}"


def code_location(section: Section) -> tuple[str, str]:
    """Location of the citing sentence, straight from the section."""
    value = section.normalized_location
    if value == "D7":
        return value, f"D:other:{section.raw_header}"
    return value, f"D:header:{section.raw_header.lower()}"


def code_frequency(count: int) -> tuple[str, str]:
    """Mention-count bands: 1, 2..4, 5 and up."""
    if count <= 0:
        raise InvalidCount(f"mention count must be positive, got {count}")
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
