"""In-text citation detection, linking, context windows, mention counts.

Three marker families are recognized inside a sentence:

* parenthetical author-year groups, including multi-work groups split
  on semicolons: "(Smith, 2011)", "(Berg et al. 2001; Wolfers and
  Zitzewitz 2004)", "(see, e.g., Mayr, 1997, pp. 98-99)"
* narrative author + year-only parenthesis: "Smith (2011)",
  "Jones et al. (2010)", possessives like "Smith's (2011)"
* numeric brackets: "[3]", "[3, 7]"

Every referenced work mentioned yields its own citation. Linking is a
separate, tolerant step: a citation that cannot be matched to exactly
one reference entry is marked unresolved or ambiguous, never fatal.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import itemgetter

from .errors import InvalidCount, UnknownRef, UnparseableName
from .models import (
    LEVEL_CLUSTER,
    LEVEL_SINGLE,
    LINK_AMBIGUOUS,
    LINK_RESOLVED,
    LINK_UNRESOLVED,
    STYLE_NARRATIVE,
    STYLE_NUMERIC,
    STYLE_PARENTHETICAL,
    CitationContext,
    Document,
    InTextCitation,
    ReferenceEntry,
)
from .names import normalize_author_key, surname_of

MAX_WINDOW = 5

_YEAR = r"(?:1[4-9]\d{2}|20\d{2})"
_PARTICLE = r"(?:van|von|de|del|della|der|den|du|le|la|ter|da|dos)"
_SURNAME = rf"(?:{_PARTICLE}\s+)*[A-Z][\w'’.-]*"
_NAME_SEQ = rf"{_SURNAME}(?:\s+[A-Z][\w'’.-]*)*"

_PAREN_GROUP_RE = re.compile(r"\(([^()]*)\)")

# One author-year work at the end of a parenthetical segment. The year
# needs no preceding comma; a page locator may trail it.
_SEGMENT_WORK_RE = re.compile(
    rf"(?P<names>{_NAME_SEQ}"
    rf"(?:\s*,?\s*et\s+al\.?|\s*(?:&|and)\s+{_SURNAME}(?:\s+[A-Z][\w'’.-]*)*)?)"
    rf"[\s,]+(?P<year>{_YEAR})(?P<suffix>[a-z])?"
    rf"(?P<locator>\s*,\s*[Pp]{{1,2}}\.\s*[\w–—-]+)?"
    rf"\s*\.?\s*$"
)

_YEAR_ONLY_RE = re.compile(rf"^\s*(?P<year>{_YEAR})(?P<suffix>[a-z])?\s*$")

# Narrative form: name tokens directly before a year-only parenthesis.
_NARRATIVE_RE = re.compile(
    rf"(?P<names>{_SURNAME}(?:\s+(?:&|and)\s+{_SURNAME})?(?:\s+et\s+al\.?)?)"
    rf"(?:['’]s)?\s*"
    rf"\(\s*(?P<year>{_YEAR})(?P<suffix>[a-z])?\s*\)"
)

_NUMERIC_RE = re.compile(r"\[(\d{1,4}(?:\s*,\s*\d{1,4})*)\]")

_ET_AL_RE = re.compile(r"\s*,?\s*\bet\s+al\.?", re.IGNORECASE)
_CONJ_SPLIT_RE = re.compile(r"\s*(?:&|\band\b)\s+")
_TOKEN_RE = re.compile(r"\S+")
# A token that is an example cue ("e.g.", "e.g", "eg", "see", "cf.",
# "cf") once lowercased and stripped of ",;:()". No character but the
# ASCII capitals lowercases to these letters, so the classes are exact.
_CUE_TOKEN_RE = re.compile(
    r"[,;:()]*(?:[Ee]\.[Gg]\.?|[Ee][Gg]|[Ss][Ee][Ee]|[Cc][Ff]\.?)[,;:()]*"
)


def _strip_possessive(part: str) -> str:
    # "Hjørland’s (1991)" keeps the possessive inside the name token
    # (apostrophes are legal mid-name, so the regex cannot drop it).
    if part.endswith(("'s", "’s")):
        return part[:-2]
    return part


def _split_names(names: str) -> tuple[tuple[str, ...], bool]:
    et_al = bool(_ET_AL_RE.search(names))
    cleaned = _ET_AL_RE.sub("", names)
    parts = _CONJ_SPLIT_RE.split(cleaned)
    surnames = tuple(
        _strip_possessive(p.strip(" ,.")) for p in parts if p.strip(" ,.")
    )
    return surnames, et_al


def _token_spans(sentence: str) -> list[tuple[int, int]]:
    return [token.span() for token in _TOKEN_RE.finditer(sentence)]


def _has_example_cue(sentence: str, end: int, tokens: list[tuple[int, int]]) -> bool:
    """True when one of the last three tokens before `end` is an example cue.

    tokens are the whitespace-separated token spans of the sentence, in
    order; a token that runs past `end` is cut there. Only those three
    tokens are read, so each marker costs the same however long the
    sentence before it is.
    """
    last = bisect_left(tokens, end, key=itemgetter(0))
    for start, stop in tokens[max(0, last - 3) : last]:
        if _CUE_TOKEN_RE.fullmatch(sentence, start, min(stop, end)):
            return True
    return False


def detect_citations(
    sentence: str,
    references: list[ReferenceEntry] | None = None,
    sentence_index: int = 0,
) -> list[InTextCitation]:
    """Find all citation markers in one sentence and link them.

    Citations are returned in reading order with sentence-local ids
    c0001, c0002, ...; extract_citations numbers them per document.
    """
    return _detect(sentence, references, sentence_index, 1)


def _detect(
    sentence: str,
    references: list[ReferenceEntry] | None,
    sentence_index: int,
    first_number: int,
) -> list[InTextCitation]:
    # Every marker holds a "(" or a "[", so a sentence without either
    # is not scanned at all.
    has_paren = "(" in sentence
    has_bracket = "[" in sentence
    if not (has_paren or has_bracket):
        return []
    tokens = _token_spans(sentence)
    # (span start, reading order, InTextCitation fields) per citation.
    found: list[tuple[int, int, dict]] = []

    for group in _PAREN_GROUP_RE.finditer(sentence) if has_paren else ():
        content = group.group(1)
        if _YEAR_ONLY_RE.match(content):
            continue  # handled by the narrative pass
        span = (group.start(), group.end())
        offset = group.start(1)
        cursor = 0
        for segment in content.split(";"):
            seg_start = cursor
            cursor += len(segment) + 1
            work = _SEGMENT_WORK_RE.search(segment)
            if not work:
                continue
            surnames, et_al = _split_names(work.group("names"))
            if not surnames:
                continue
            order = offset + seg_start + work.start()
            fields = dict(
                char_span=span,
                marker_style=STYLE_PARENTHETICAL,
                inside_example_cue=_has_example_cue(sentence, order, tokens),
                surnames=surnames,
                year=int(work.group("year")),
                year_suffix=work.group("suffix"),
                et_al=et_al,
                has_page_locator=bool(work.group("locator")),
            )
            found.append((span[0], order, fields))

    for match in _NARRATIVE_RE.finditer(sentence) if has_paren else ():
        surnames, et_al = _split_names(match.group("names"))
        if not surnames:
            continue
        fields = dict(
            char_span=match.span(),
            marker_style=STYLE_NARRATIVE,
            inside_example_cue=_has_example_cue(sentence, match.start(), tokens),
            surnames=surnames,
            year=int(match.group("year")),
            year_suffix=match.group("suffix"),
            et_al=et_al,
        )
        found.append((match.start(), match.start(), fields))

    for match in _NUMERIC_RE.finditer(sentence) if has_bracket else ():
        cue = _has_example_cue(sentence, match.start(), tokens)
        for position, label in enumerate(re.findall(r"\d+", match.group(1))):
            fields = dict(
                char_span=match.span(),
                marker_style=STYLE_NUMERIC,
                inside_example_cue=cue,
                numeric_label=label,
            )
            found.append((match.start(), match.start() + position, fields))

    found.sort(key=lambda item: item[:2])
    citations = []
    for number, (_, _, fields) in enumerate(found, start=first_number):
        citation_id = f"c{number:04d}"
        citation = InTextCitation(
            citation_id=citation_id,
            ref_id=None,
            link_status=LINK_UNRESOLVED,
            sentence_index=sentence_index,
            **fields,
        )
        if references is not None:
            ref_id, status = link_citation(citation, references)
            citation = InTextCitation(
                citation_id=citation_id,
                ref_id=ref_id,
                link_status=status,
                sentence_index=sentence_index,
                **fields,
            )
        citations.append(citation)
    return citations


def _marker_surname(name: str) -> str | None:
    try:
        return surname_of(normalize_author_key(name))
    except UnparseableName:
        return None


def link_citation(
    citation: InTextCitation, references: list[ReferenceEntry]
) -> tuple[str | None, str]:
    """Match one citation against the reference list.

    Author-year markers match on normalized surnames plus year (plus
    suffix when the marker carries one); numeric markers match the
    explicit label. Exactly one candidate is required to resolve.
    """
    if citation.marker_style == STYLE_NUMERIC:
        candidates = [r for r in references if r.ref_id == citation.numeric_label]
    else:
        wanted = [s for s in (_marker_surname(n) for n in citation.surnames) if s]
        if not wanted or citation.year is None:
            return None, LINK_UNRESOLVED
        candidates = []
        for ref in references:
            if ref.year != citation.year:
                continue
            if citation.year_suffix and ref.year_suffix != citation.year_suffix:
                continue
            ref_surnames = [surname_of(a.key) for a in ref.authors]
            if len(ref_surnames) < len(wanted):
                continue
            if citation.et_al and len(wanted) == 1:
                if ref_surnames[0] != wanted[0]:
                    continue
            elif ref_surnames[: len(wanted)] != wanted:
                continue
            candidates.append(ref)
    if len(candidates) == 1:
        return candidates[0].ref_id, LINK_RESOLVED
    if not candidates:
        return None, LINK_UNRESOLVED
    return None, LINK_AMBIGUOUS


def extract_citations(doc: Document) -> list[InTextCitation]:
    """Detect and link citations across a whole document.

    Ids are assigned in reading order (sentence, then offset) and are
    unique within the document.
    """
    citations: list[InTextCitation] = []
    for index, sentence in enumerate(doc.sentences):
        citations += _detect(sentence, doc.references, index, len(citations) + 1)
    return citations


def count_mentions(
    doc: Document,
    ref_id: str,
    citations: list[InTextCitation] | None = None,
) -> int:
    """Count resolved in-text citations linking to ref_id."""
    if doc.reference_by_id(ref_id) is None:
        raise UnknownRef(f"document {doc.metadata.doc_id!r} has no reference {ref_id!r}")
    if citations is None:
        citations = extract_citations(doc)
    return sum(1 for c in citations if c.link_status == LINK_RESOLVED and c.ref_id == ref_id)


def mention_counts(doc: Document, citations: list[InTextCitation]) -> dict[str, int]:
    """Mention count for every reference entry, including zeros."""
    counts = {ref.ref_id: 0 for ref in doc.references}
    for citation in citations:
        if citation.link_status == LINK_RESOLVED and citation.ref_id in counts:
            counts[citation.ref_id] += 1
    return counts


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
    if not (0 <= before <= MAX_WINDOW and 0 <= after <= MAX_WINDOW):
        raise InvalidCount(f"window sizes must be in 0..{MAX_WINDOW}: ({before}, {after})")
    section = doc.section_of(citation.sentence_index)
    low = max(section.start, citation.sentence_index - before)
    high = min(section.end - 1, citation.sentence_index + after)
    indices = tuple(range(low, high + 1))
    level = LEVEL_SINGLE if before == 0 and after == 0 else LEVEL_CLUSTER
    return CitationContext(
        citation_id=citation.citation_id,
        level=level,
        sentence_indices=indices,
        text=" ".join(doc.sentences[i] for i in indices),
    )
