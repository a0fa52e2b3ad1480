"""Core document model produced by ingestion.

A Document is a flat, ordered list of sentences plus sections that map
onto contiguous sentence ranges, document metadata, and the parsed
reference list. The model holds what the text says: a section keeps
its header as written and an entry its text, and the coders derive
the location (D) and the cited-work type (A) from them. Warnings
collect tolerated irregularities (missing reference block, unparseable
lines) and are excluded from equality so round-trip comparisons look
only at content. Every class is slotted: a corpus holds thousands of
each, and a slotted instance has no per-instance attribute dict.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

VENUE_TYPES = ("journal", "conference", "book", "report", "web", "other")

LINK_RESOLVED = "resolved"
LINK_UNRESOLVED = "unresolved"
LINK_AMBIGUOUS = "ambiguous"

STYLE_PARENTHETICAL = "parenthetical"
STYLE_NARRATIVE = "narrative"
STYLE_NUMERIC = "numeric"

LEVEL_SINGLE = "single_sentence"
LEVEL_CLUSTER = "sentence_cluster"

# A publication year (1400..2099) as the marker and reference-entry
# grammars read it; a regular expression with no capturing group. The
# digits are ASCII: \d would also take "19٩٩", which int() reads as 1999.
YEAR_PATTERN = r"(?:1[4-9][0-9]{2}|20[0-9]{2})"


@dataclass(frozen=True, slots=True)
class AuthorName:
    """One author: the string as written plus the normalized key."""

    raw: str
    key: str


@dataclass(slots=True)
class DocumentMetadata:
    doc_id: str
    title: str = ""
    authors: list[AuthorName] = field(default_factory=list)
    venue_name: str = ""
    venue_type: str = "other"
    year: int | None = None
    domain_override: str | None = None  # K1..K4 when present


@dataclass(slots=True)
class Section:
    """A section header and the half-open sentence range it covers."""

    raw_header: str
    start: int
    end: int

    @property
    def sentence_indices(self) -> range:
        return range(self.start, self.end)


@dataclass(slots=True)
class ReferenceEntry:
    """One bibliography entry: its text after the label, and the parsed fields.

    ``et_al`` marks an author block that ends in "et al.": ``authors``
    then holds only the authors it names.
    """

    ref_id: str
    raw: str
    authors: list[AuthorName] = field(default_factory=list)
    year: int | None = None
    year_suffix: str | None = None
    et_al: bool = False


@dataclass(slots=True)
class Document:
    metadata: DocumentMetadata
    sections: list[Section]
    sentences: list[str]
    references: list[ReferenceEntry]
    warnings: list[str] = field(default_factory=list, compare=False)

    def section_of(self, sentence_index: int) -> Section:
        """The section holding the sentence, by bisection on the section starts.

        Sections are contiguous and in order, so only the last one that
        starts at or before the index can hold it; an empty section
        holds nothing.
        """
        position = bisect_right(self.sections, sentence_index, key=attrgetter("start"))
        if position:
            section = self.sections[position - 1]
            if sentence_index < section.end:
                return section
        raise IndexError(f"sentence index {sentence_index} outside all sections")


@dataclass(frozen=True, slots=True)
class InTextCitation:
    """One in-text mention of a referenced work.

    char_span is relative to the sentence text; slicing it back out of
    the sentence re-parses to the same marker. Multi-work parentheses
    expand to several citations sharing one span.
    """

    citation_id: str
    ref_id: str | None
    link_status: str
    sentence_index: int
    char_span: tuple[int, int]
    marker_style: str
    surnames: tuple[str, ...] = ()
    year: int | None = None
    year_suffix: str | None = None
    has_page_locator: bool = False
    numeric_label: str | None = None


@dataclass(frozen=True, slots=True)
class CitationContext:
    """The sentence window around a citation.

    The content coders get the tokens of the sentences at
    sentence_indices.
    """

    level: str
    sentence_indices: tuple[int, ...]
