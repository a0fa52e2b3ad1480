"""In-text citation detection, linking, context windows, mention counts.

Three marker families are recognized inside a sentence; one pass over
its parenthesis groups finds both author-year forms:

* parenthetical author-year groups, including multi-work groups split
  on semicolons: "(Smith, 2011)", "(Berg et al. 2001; Wolfers and
  Zitzewitz 2004)", "(see, e.g., Mayr, 1997, pp. 98-99)"
* narrative author + year-only parenthesis: "Smith (2011)",
  "Jones et al. (2010)", possessives like "Smith's (2011)"; the names
  lie after the previous group, right before the year-only one
* numeric brackets: "[3]", "[3, 7]"

Every referenced work mentioned yields its own citation. Linking is a
separate, tolerant step: a citation that cannot be matched to exactly
one reference entry is marked unresolved or ambiguous, never fatal.
"""

from __future__ import annotations

import re

from .errors import CitecodeError, InvalidCount, UnparseableName
from .models import (
    LEVEL_CLUSTER,
    LEVEL_SINGLE,
    LINK_AMBIGUOUS,
    LINK_RESOLVED,
    LINK_UNRESOLVED,
    STYLE_NARRATIVE,
    STYLE_NUMERIC,
    STYLE_PARENTHETICAL,
    YEAR_PATTERN,
    CitationContext,
    Document,
    InTextCitation,
    ReferenceEntry,
)
from .names import _PARTICLES, normalize_author_key, surname_of

MAX_WINDOW = 5

_PARTICLE = rf"(?:{'|'.join(sorted(_PARTICLES))})"
_SURNAME = rf"(?:{_PARTICLE}\s+)*[A-Z][\w'’.-]*"
_NAME_SEQ = rf"{_SURNAME}(?:\s+[A-Z][\w'’.-]*)*"

_PAREN_GROUP_RE = re.compile(r"\(([^()]*)\)")

# One author-year work at the end of a parenthetical segment. The year
# needs no preceding comma; a page locator may trail it.
_SEGMENT_WORK_RE = re.compile(
    rf"(?P<names>{_NAME_SEQ}"
    rf"(?:\s*,?\s*et\s+al\.?|\s*(?:&|and)\s+{_SURNAME}(?:\s+[A-Z][\w'’.-]*)*)?)"
    rf"[\s,]+(?P<year>{YEAR_PATTERN})(?P<suffix>[a-z])?"
    rf"(?P<locator>\s*,\s*[Pp]{{1,2}}\.\s*[\w–—-]+)?"
    rf"\s*\.?\s*$"
)

_YEAR_ONLY_RE = re.compile(rf"^\s*(?P<year>{YEAR_PATTERN})(?P<suffix>[a-z])?\s*$")

# Narrative names. A match starts at a particle that starts a word, or at
# the first capital of a run of name characters: a later capital matches
# only if that one does.
_NARRATIVE_NAMES_RE = re.compile(
    rf"(?<![\w'’.-])(?:(?:(?![A-Z])[\w'’.-])*(?=[A-Z])|(?={_PARTICLE}\s))"
    rf"(?P<names>{_SURNAME}(?:\s+(?:&|and)\s+{_SURNAME})?(?:\s+et\s+al\.?)?)"
    rf"(?:['’]s)?\s*\Z"
)

# Labels are ASCII digits, as years are: "[١]" is not a marker.
_NUMERIC_RE = re.compile(r"\[([0-9]{1,4}(?:\s*,\s*[0-9]{1,4})*)\]")

_ET_AL_RE = re.compile(r"\s*,?\s*\bet\s+al\.?", re.IGNORECASE)
_CONJ_SPLIT_RE = re.compile(r"\s*(?:&|\band\b)\s+")


def _strip_possessive(part: str) -> str:
    # "Hjørland’s (1991)" keeps the possessive inside the name token
    # (apostrophes are legal mid-name, so the regex cannot drop it).
    if part.endswith(("'s", "’s")):
        return part[:-2]
    return part


def _split_names(names: str) -> tuple[str, ...]:
    parts = _CONJ_SPLIT_RE.split(_ET_AL_RE.sub("", names))
    return tuple(_strip_possessive(p.strip(" ,.")) for p in parts if p.strip(" ,."))


def detect_citations(
    sentence: str,
    references: list[ReferenceEntry] | None = None,
    sentence_index: int = 0,
) -> list[InTextCitation]:
    """Find all citation markers in one sentence and link them.

    Citations are returned in reading order with sentence-local ids
    c0001, c0002, ...; extract_citations numbers them per document.
    """
    index = None if references is None else _reference_index(references)
    return _detect(sentence, index, sentence_index, 1)


def _detect(
    sentence: str,
    index: dict[object, list[ReferenceEntry]] | None,
    sentence_index: int,
    first_number: int,
) -> list[InTextCitation]:
    # Every marker holds a "(" or a "[", so a sentence without either
    # is not scanned at all.
    has_paren = "(" in sentence
    has_bracket = "[" in sentence
    if not (has_paren or has_bracket):
        return []
    # (span start, InTextCitation fields) per citation. Markers never share
    # a start, so a stable sort on it gives reading order.
    found: list[tuple[int, dict]] = []
    # One pass over the groups finds both author-year forms; narrative
    # names lie after the previous group, right before a year-only one.
    group_end = 0
    for group in _PAREN_GROUP_RE.finditer(sentence) if has_paren else ():
        names_from, group_end = group_end, group.end()
        content = group.group(1)
        if year_only := _YEAR_ONLY_RE.match(content):
            match = _NARRATIVE_NAMES_RE.search(sentence, names_from, group.start())
            if match and (surnames := _split_names(match.group("names"))):
                fields = dict(
                    char_span=(match.start("names"), group_end),
                    marker_style=STYLE_NARRATIVE,
                    surnames=surnames,
                    year=int(year_only.group("year")),
                    year_suffix=year_only.group("suffix"),
                )
                found.append((match.start("names"), fields))
            continue
        span = (group.start(), group.end())
        for segment in content.split(";"):
            work = _SEGMENT_WORK_RE.search(segment)
            if not work:
                continue
            surnames = _split_names(work.group("names"))
            if not surnames:
                continue
            fields = dict(
                char_span=span,
                marker_style=STYLE_PARENTHETICAL,
                surnames=surnames,
                year=int(work.group("year")),
                year_suffix=work.group("suffix"),
                has_page_locator=bool(work.group("locator")),
            )
            found.append((span[0], fields))

    for match in _NUMERIC_RE.finditer(sentence) if has_bracket else ():
        for label in re.findall(r"[0-9]+", match.group(1)):
            fields = dict(
                char_span=match.span(),
                marker_style=STYLE_NUMERIC,
                numeric_label=label,
            )
            found.append((match.start(), fields))

    found.sort(key=lambda item: item[0])
    citations = []
    for number, (_, fields) in enumerate(found, start=first_number):
        fields.update(citation_id=f"c{number:04d}", sentence_index=sentence_index)
        citation = InTextCitation(ref_id=None, link_status=LINK_UNRESOLVED, **fields)
        if index is not None:
            # A second construction costs half of dataclasses.replace.
            ref_id, status = link_citation(citation, _candidates(index, citation))
            citation = InTextCitation(ref_id=ref_id, link_status=status, **fields)
        citations.append(citation)
    return citations


def _marker_surname(name: str) -> str | None:
    try:
        return surname_of(normalize_author_key(name))
    except UnparseableName:
        return None


def _reference_index(references: list[ReferenceEntry]) -> dict[object, list[ReferenceEntry]]:
    """Each entry under the keys of the markers that can match it.

    A numeric marker's key is its label: the entries of that id. An
    author-year marker's key is its year and first parseable surname:
    the entries of that year whose first author has that surname, which
    every entry it matches has. Buckets keep list order, so the linker
    sees the candidates, and so the ambiguity, of a scan of the list.
    """
    index: dict[object, list[ReferenceEntry]] = {}
    for ref in references:
        index.setdefault(ref.ref_id, []).append(ref)
        if ref.authors and ref.year is not None:
            index.setdefault((ref.year, surname_of(ref.authors[0].key)), []).append(ref)
    return index


def _candidates(
    index: dict[object, list[ReferenceEntry]], citation: InTextCitation
) -> list[ReferenceEntry]:
    """The entries of the citation's key, in reference-list order."""
    if citation.marker_style == STYLE_NUMERIC:
        return index.get(citation.numeric_label, [])
    for name in citation.surnames:
        surname = _marker_surname(name)
        if surname:
            return index.get((citation.year, surname), [])
    return []


def link_citation(
    citation: InTextCitation, references: list[ReferenceEntry]
) -> tuple[str | None, str]:
    """Match one citation against the reference list.

    An author-year marker matches an entry of its year (and suffix,
    when the marker carries one) whose first authors' surnames are the
    marker's parseable surnames, in order; "et al." adds no condition.
    A numeric marker matches the explicit label. Exactly one candidate
    is required to resolve.
    """
    if citation.marker_style == STYLE_NUMERIC:
        candidates = [r for r in references if r.ref_id == citation.numeric_label]
    else:
        wanted = [s for s in (_marker_surname(n) for n in citation.surnames) if s]
        if not wanted or citation.year is None:
            return None, LINK_UNRESOLVED
        candidates = [
            ref
            for ref in references
            if ref.year == citation.year
            and (not citation.year_suffix or ref.year_suffix == citation.year_suffix)
            and [surname_of(a.key) for a in ref.authors[: len(wanted)]] == wanted
        ]
    if len(candidates) == 1:
        return candidates[0].ref_id, LINK_RESOLVED
    if not candidates:
        return None, LINK_UNRESOLVED
    return None, LINK_AMBIGUOUS


def extract_citations(doc: Document) -> list[InTextCitation]:
    """Detect and link citations across a whole document.

    Ids are assigned in reading order (sentence, then offset) and are
    unique within the document. The reference list is indexed once, so
    each marker is linked against only the entries it can match.
    """
    index = _reference_index(doc.references)
    citations: list[InTextCitation] = []
    for sentence_index, sentence in enumerate(doc.sentences):
        citations += _detect(sentence, index, sentence_index, len(citations) + 1)
    return citations


def mention_counts(doc: Document, citations: list[InTextCitation]) -> dict[str, int]:
    """Mention count for every reference entry, including zeros."""
    counts = {ref.ref_id: 0 for ref in doc.references}
    for citation in citations:
        if citation.link_status == LINK_RESOLVED and citation.ref_id in counts:
            counts[citation.ref_id] += 1
    return counts


def _check_windows(before: int, after: int, error: type[CitecodeError]) -> None:
    """Raise ``error`` unless both window sizes are in 0..MAX_WINDOW."""
    if not (0 <= before <= MAX_WINDOW and 0 <= after <= MAX_WINDOW):
        raise error(f"window sizes must be in 0..{MAX_WINDOW}: ({before}, {after})")


def extract_context(
    doc: Document,
    citation: InTextCitation,
    before: int = 1,
    after: int = 1,
) -> CitationContext:
    """Build the sentence window around the citing sentence.

    Windows are clamped to the citing sentence's section; (0, 0) yields
    the single-sentence level.
    """
    _check_windows(before, after, InvalidCount)
    section = doc.section_of(citation.sentence_index)
    low = max(section.start, citation.sentence_index - before)
    high = min(section.end - 1, citation.sentence_index + after)
    indices = tuple(range(low, high + 1))
    level = LEVEL_SINGLE if before == 0 and after == 0 else LEVEL_CLUSTER
    return CitationContext(level=level, sentence_indices=indices)
