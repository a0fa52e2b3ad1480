"""Citation marker detection, linking, contexts, and mention counts."""

from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citecode.citations import (
    _NUMERIC_RE,
    _PAREN_GROUP_RE,
    _SEGMENT_WORK_RE,
    _SURNAME,
    _YEAR_ONLY_RE,
    _marker_surname,
    _split_names,
    detect_citations,
    extract_citations,
    extract_context,
    link_citation,
    mention_counts,
)
from citecode.errors import InvalidCount
from citecode.ingest import FORMAT_PLAIN, parse_document
from citecode.models import (
    LINK_AMBIGUOUS,
    LINK_RESOLVED,
    LINK_UNRESOLVED,
    STYLE_NARRATIVE,
    STYLE_NUMERIC,
    STYLE_PARENTHETICAL,
    YEAR_PATTERN,
    AuthorName,
    CitationContext,
    Document,
    DocumentMetadata,
    InTextCitation,
    ReferenceEntry,
    Section,
)
from citecode.names import _PARTICLES, normalize_author_key, surname_of
from citecode.refparse import derive_ref_id, parse_reference_entry

from timing import best_times

HJ_SENTENCE = (
    "Hjørland’s (1991) criticized this approach in information science and "
    "began developing an alternative ‘domain analysis’ "
    "(Hjørland & Albrechtsen, 1995)."
)


def refs(*texts):
    entries = []
    for ordinal, text in enumerate(texts, start=1):
        entry = parse_reference_entry(text)
        if not entry.ref_id:
            entry.ref_id = derive_ref_id(entry, ordinal)
        entries.append(entry)
    return entries


HJ_REFS = refs(
    "Hjørland, B. (1991). Det kognitive paradigme. Biblioteksarbejde, 12(33), 5-37.",
    "Hjørland, B., & Albrechtsen, H. (1995). Toward a new horizon. JASIS, 46(6), 400-425.",
)


def test_narrative_plus_parenthetical_pair():
    found = detect_citations(HJ_SENTENCE, HJ_REFS)
    assert len(found) == 2
    assert found[0].marker_style == STYLE_NARRATIVE
    assert found[0].surnames == ("Hjørland",)
    assert found[0].year == 1991
    assert found[1].marker_style == STYLE_PARENTHETICAL
    assert found[1].surnames == ("Hjørland", "Albrechtsen")
    assert found[1].year == 1995
    assert [c.link_status for c in found] == [LINK_RESOLVED, LINK_RESOLVED]
    assert [c.ref_id for c in found] == ["hjorland-1991", "hjorland-1995"]


def test_single_parenthetical():
    found = detect_citations("The method was proposed earlier (Smith, 2011).")
    assert len(found) == 1
    assert found[0].marker_style == STYLE_PARENTHETICAL
    assert found[0].surnames == ("Smith",)


def test_numeric_list_expands():
    found = detect_citations("Earlier systems exist [3, 7].")
    assert [c.numeric_label for c in found] == ["3", "7"]
    assert all(c.marker_style == STYLE_NUMERIC for c in found)
    # Both expansions share the bracket's span.
    assert found[0].char_span == found[1].char_span


def test_numeric_markers_take_ascii_digits_only():
    # U+0661, ARABIC-INDIC DIGIT ONE, is a digit to \d but no label.
    entries = refs("[1] Doe, A. (2001). One. Acta, 1(1), 1-2.")
    found = detect_citations("Shown before [\u0661] and [1].", entries)
    assert [(c.numeric_label, c.link_status) for c in found] == [("1", LINK_RESOLVED)]


def test_multi_work_group_splits_on_semicolons():
    sentence = "(Berg et al. 2001; Wolfers and Zitzewitz 2004; Goel et al. 2010)"
    found = detect_citations(sentence)
    assert [c.year for c in found] == [2001, 2004, 2010]
    assert [c.surnames for c in found] == [("Berg",), ("Wolfers", "Zitzewitz"), ("Goel",)]


def test_year_without_comma():
    found = detect_citations("The model follows earlier work (Fudenberg and Tirole 1991).")
    assert len(found) == 1
    assert found[0].surnames == ("Fudenberg", "Tirole")
    assert found[0].year == 1991


def test_page_locator_detected():
    found = detect_citations("They coexist in all domains (see, e.g., Mayr, 1997, pp. 98–99).")
    assert len(found) == 1
    assert found[0].has_page_locator


def test_suffix_selects_between_same_year_entries():
    entries = refs(
        "Smith, A. (2011a). First of two. Minerva, 4(4), 1-8.",
        "Smith, A. (2011b). Second of two. Minerva, 4(5), 9-16.",
    )
    found = detect_citations("As argued before (Smith, 2011a).", entries)
    assert found[0].link_status == LINK_RESOLVED
    assert found[0].ref_id == "smith-2011a"


def test_bare_marker_with_two_same_year_entries_is_ambiguous():
    entries = refs(
        "Smith, A. (2011a). First of two. Minerva, 4(4), 1-8.",
        "Smith, A. (2011b). Second of two. Minerva, 4(5), 9-16.",
    )
    found = detect_citations("As argued before (Smith, 2011).", entries)
    assert found[0].link_status == LINK_AMBIGUOUS
    assert found[0].ref_id is None


def test_numeric_label_links_to_matching_entry():
    entries = refs(
        "[1] Doe, A. (2001). One. Acta, 1(1), 1-2.",
        "[2] Roe, B. (2002). Two. Acta, 2(1), 3-4.",
        "[3] Poe, C. (2003). Three. Acta, 3(1), 5-6.",
    )
    found = detect_citations("The claim appears in [2].", entries)
    assert found[0].ref_id == "2"
    assert found[0].link_status == LINK_RESOLVED


def test_zero_match_is_unresolved():
    found = detect_citations("No such entry (Jones, 1999).", HJ_REFS)
    assert found[0].link_status == LINK_UNRESOLVED
    assert found[0].ref_id is None


def test_et_al_matches_on_first_author():
    entries = refs("Berg, J., Forsythe, R., Nelson, F., & Rietz, T. (2001). Acta, 1(1), 1-2.")
    found = detect_citations("Markets forecast well (Berg et al. 2001).", entries)
    assert found[0].link_status == LINK_RESOLVED


# -- the original linker, kept as the reference for the one-test linker --


def reference_link_citation(citation, references, et_al):
    """The original link_citation; et_al is whether the marker read "et al."."""
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
            if et_al and len(wanted) == 1:
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


# Entry authors as written, particles included; marker names as written,
# "0x" being one with no letter, which the linker skips.
_ENTRY_AUTHORS = ["Smith, J.", "Smyth, A.", "Berg, K.", "van Berg, L.", "di Stefano, M."]
_MARKER_NAMES = ["Smith", "Smyth", "Berg", "van Berg", "di Stefano", "Stefano", "0x"]
_YEARS = [2001, 2002]
_SUFFIXES = [None, "a", "b"]
_LABELS = ["1", "2", "3"]

_ENTRIES = st.lists(
    st.builds(
        lambda ref_id, authors, year, suffix: ReferenceEntry(
            ref_id=ref_id,
            raw="",
            authors=[AuthorName(raw, normalize_author_key(raw)) for raw in authors],
            year=year,
            year_suffix=suffix,
        ),
        st.sampled_from(_LABELS + ["smith-2001"]),
        st.lists(st.sampled_from(_ENTRY_AUTHORS), max_size=4),
        st.sampled_from(_YEARS + [None]),
        st.sampled_from(_SUFFIXES),
    ),
    max_size=6,
)


@st.composite
def _markers(draw):
    """An in-text citation and whether its marker read "et al."."""
    if draw(st.booleans()):
        citation = InTextCitation(
            citation_id="c0001", ref_id=None, link_status=LINK_UNRESOLVED,
            sentence_index=0, char_span=(0, 3), marker_style=STYLE_NUMERIC,
            numeric_label=draw(st.sampled_from(_LABELS + ["4"])),
        )
        return citation, False
    surnames = draw(st.lists(st.sampled_from(_MARKER_NAMES), min_size=1, max_size=3))
    citation = InTextCitation(
        citation_id="c0001", ref_id=None, link_status=LINK_UNRESOLVED,
        sentence_index=0, char_span=(0, 3), marker_style=STYLE_PARENTHETICAL,
        surnames=tuple(surnames), year=draw(st.sampled_from(_YEARS)),
        year_suffix=draw(st.sampled_from(_SUFFIXES)),
    )
    return citation, draw(st.booleans())


@given(entries=_ENTRIES, marker=_markers())
@settings(max_examples=400)
def test_linker_matches_the_original(entries, marker):
    citation, et_al = marker
    assert link_citation(citation, entries) == reference_link_citation(citation, entries, et_al)


def test_two_name_marker_needs_matching_author_prefix():
    entries = refs("Berg, J., Forsythe, R. (2001). A title. Acta, 1(1), 1-2.")
    found = detect_citations("(Berg and Nelson, 2001)", entries)
    assert found[0].link_status == LINK_UNRESOLVED


@pytest.mark.parametrize(
    "sentence, entry",
    [
        ("It was measured (di Stefano, 2001).", "di Stefano, A. (2001). A title. Acta, 1(1), 1-2."),
        ("As al Amin (2003) argued.", "al Amin, B. (2003). A title. Acta, 1(1), 1-2."),
        ("It was measured (el Said, 1995).", "el Said, C. (1995). A title. Acta, 1(1), 1-2."),
        ("van Dijk (2011) argued it.", "van Dijk, D. (2011). A title. Acta, 1(1), 1-2."),
    ],
)
def test_markers_keep_every_name_particle(sentence, entry):
    entries = refs(entry, "Smith, J. (2001). Other. Acta, 1(1), 1-2.")
    found = detect_citations(sentence, entries)
    assert [(c.link_status, c.ref_id) for c in found] == [(LINK_RESOLVED, entries[0].ref_id)]


@pytest.mark.parametrize(
    "sentence, surname",
    [
        ("As Daniel Smith (2011) argued.", "Smith"),
        ("As Mathilde Smith (2011) argued.", "Smith"),
        ("As Paula Smith (2011) argued.", "Smith"),
        ("As Sullivan Dijk (2011) argued.", "Dijk"),
    ],
)
def test_a_particle_inside_a_word_starts_no_narrative_name(sentence, surname):
    # "el", "de", "la" and "van" end the first names; only a particle
    # that starts a word belongs to the surname.
    entries = refs(
        "Smith, J. (2011). A title. Acta, 1(1), 1-2.",
        "Dijk, A. (2011). Another title. Acta, 1(1), 1-2.",
    )
    found = detect_citations(sentence, entries)
    assert [(c.surnames, c.link_status, c.ref_id) for c in found] == [
        ((surname,), LINK_RESOLVED, f"{surname.lower()}-2011")
    ]


@given(particle=st.sampled_from(sorted(_PARTICLES)), narrative=st.booleans())
def test_markers_and_entries_share_the_particle_list(particle, narrative):
    entries = refs(f"{particle} Xyz, A. (2001). A title. Acta, 1(1), 1-2.")
    marker = f"{particle} Xyz (2001)" if narrative else f"({particle} Xyz, 2001)"
    found = detect_citations(f"This was shown by {marker}.", entries)
    assert [(c.link_status, c.ref_id) for c in found] == [(LINK_RESOLVED, entries[0].ref_id)]


def test_span_slices_back_to_the_same_marker():
    for sentence in (
        HJ_SENTENCE,
        "Earlier systems exist [3, 7].",
        "They coexist (see, e.g., Mayr, 1997, pp. 98–99).",
        "Smith (2011) states that citation is a social act.",
    ):
        for citation in detect_citations(sentence):
            start, end = citation.char_span
            piece = sentence[start:end]
            matches = [
                c
                for c in detect_citations(piece)
                if c.marker_style == citation.marker_style
                and c.surnames == citation.surnames
                and c.year == citation.year
                and c.numeric_label == citation.numeric_label
            ]
            assert matches, piece


def make_doc(section_bounds, n_sentences):
    sections = [
        Section(raw_header=f"S{i}", start=a, end=b)
        for i, (a, b) in enumerate(section_bounds)
    ]
    return Document(
        metadata=DocumentMetadata(doc_id="ctx"),
        sections=sections,
        sentences=[f"Sentence number {i}." for i in range(n_sentences)],
        references=[],
    )


def make_citation(index):
    return InTextCitation(
        citation_id="c0001",
        ref_id=None,
        link_status=LINK_UNRESOLVED,
        sentence_index=index,
        char_span=(0, 4),
        marker_style=STYLE_PARENTHETICAL,
    )


def test_window_arithmetic():
    doc = make_doc([(0, 10)], 10)
    ctx = extract_context(doc, make_citation(5), 1, 1)
    assert ctx.sentence_indices == (4, 5, 6)
    assert ctx.level == "sentence_cluster"


def test_window_clamped_at_document_start():
    doc = make_doc([(0, 10)], 10)
    ctx = extract_context(doc, make_citation(0), 2, 1)
    assert ctx.sentence_indices == (0, 1)


def test_window_clamped_at_section_end():
    doc = make_doc([(0, 4), (4, 10)], 10)
    ctx = extract_context(doc, make_citation(3), 1, 2)
    assert ctx.sentence_indices == (2, 3)


def test_zero_window_is_single_sentence_level():
    doc = make_doc([(0, 10)], 10)
    ctx = extract_context(doc, make_citation(5), 0, 0)
    assert ctx == CitationContext(level="single_sentence", sentence_indices=(5,))


def test_window_bounds_validated():
    doc = make_doc([(0, 10)], 10)
    with pytest.raises(InvalidCount):
        extract_context(doc, make_citation(5), 6, 1)
    with pytest.raises(InvalidCount):
        extract_context(doc, make_citation(5), 1, -1)


@given(
    index=st.integers(min_value=0, max_value=9),
    before=st.integers(min_value=0, max_value=5),
    after=st.integers(min_value=0, max_value=5),
    growth=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=200)
def test_windows_grow_monotonically(index, before, after, growth):
    doc = make_doc([(0, 4), (4, 10)], 10)
    citation = make_citation(index)
    small = set(extract_context(doc, citation, before, after).sentence_indices)
    bigger = extract_context(
        doc, citation, min(before + growth, 5), min(after + growth, 5)
    )
    assert small <= set(bigger.sentence_indices)
    assert index in small
    section = doc.section_of(index)
    assert all(i in section.sentence_indices for i in bigger.sentence_indices)


COUNT_DOC = """\
#META id: counts
#SECTION Introduction
The method appears early (Smith, 2011).
#SECTION Discussion
Smith (2011) returned to the theme. The theme concluded with it (Smith, 2011).
#REFERENCES
Smith, A. (2011). A title. Minerva, 2(1), 1-2.
Unused, B. (2009). Never cited. Minerva, 1(1), 3-4.
"""


def test_mentions_counted_across_sections():
    from citecode.ingest import parse_document

    doc = parse_document(COUNT_DOC)
    assert mention_counts(doc, extract_citations(doc))["smith-2011"] == 3


def test_uncited_reference_counts_zero():
    from citecode.ingest import parse_document

    doc = parse_document(COUNT_DOC)
    assert mention_counts(doc, extract_citations(doc))["unused-2009"] == 0


def test_unknown_ref_id_has_no_count():
    from citecode.ingest import parse_document

    doc = parse_document(COUNT_DOC)
    assert "nobody-1900" not in mention_counts(doc, extract_citations(doc))


def test_mention_counts_sum_to_resolved_total(corpus_documents):
    for doc in corpus_documents:
        citations = extract_citations(doc)
        counts = mention_counts(doc, citations)
        resolved = [c for c in citations if c.link_status == LINK_RESOLVED]
        assert sum(counts.values()) == len(resolved)
        assert set(counts) == {r.ref_id for r in doc.references}


def test_document_citation_ids_are_sequential(corpus_documents):
    for doc in corpus_documents:
        citations = extract_citations(doc)
        assert [c.citation_id for c in citations] == [
            f"c{i:04d}" for i in range(1, len(citations) + 1)
        ]
        assert citations == extract_citations(doc)


# -- the original scan, kept as the reference for the gated one ---------

# The original narrative pattern: a whole-sentence scan for name tokens
# directly before a year-only parenthesis. Names start at a capital, or
# at a particle only where a word starts.
_NARRATIVE_RE = re.compile(
    rf"(?P<names>(?:(?<![\w'’.-])|(?=[A-Z]))"
    rf"{_SURNAME}(?:\s+(?:&|and)\s+{_SURNAME})?(?:\s+et\s+al\.?)?)"
    rf"(?:['’]s)?\s*"
    rf"\(\s*(?P<year>{YEAR_PATTERN})(?P<suffix>[a-z])?\s*\)"
)


def reference_detect_citations(sentence, references=None, sentence_index=0):
    """The original detect_citations: all three scans on every sentence."""
    found = []
    for group in _PAREN_GROUP_RE.finditer(sentence):
        content = group.group(1)
        if _YEAR_ONLY_RE.match(content):
            continue
        span = (group.start(), group.end())
        offset = group.start(1)
        cursor = 0
        for segment in content.split(";"):
            seg_start = cursor
            cursor += len(segment) + 1
            work = _SEGMENT_WORK_RE.search(segment)
            if not work:
                continue
            surnames = _split_names(work.group("names"))
            if not surnames:
                continue
            found.append(dict(
                span=span, order=offset + seg_start + work.start(),
                style=STYLE_PARENTHETICAL, surnames=surnames,
                year=int(work.group("year")), suffix=work.group("suffix"),
                locator=bool(work.group("locator")),
            ))
    for match in _NARRATIVE_RE.finditer(sentence):
        surnames = _split_names(match.group("names"))
        if not surnames:
            continue
        found.append(dict(
            span=(match.start(), match.end()), order=match.start(),
            style=STYLE_NARRATIVE, surnames=surnames, year=int(match.group("year")),
            suffix=match.group("suffix"), locator=False,
        ))
    for match in _NUMERIC_RE.finditer(sentence):
        for position, label in enumerate(re.findall(r"\d+", match.group(1))):
            found.append(dict(
                span=(match.start(), match.end()), order=match.start() + position,
                style=STYLE_NUMERIC, surnames=(), year=None, suffix=None,
                locator=False, label=label,
            ))
    found.sort(key=lambda item: (item["span"][0], item["order"]))
    citations = []
    for position, item in enumerate(found, start=1):
        citation = InTextCitation(
            citation_id=f"c{position:04d}", ref_id=None, link_status=LINK_UNRESOLVED,
            sentence_index=sentence_index, char_span=item["span"],
            marker_style=item["style"],
            surnames=item["surnames"], year=item["year"], year_suffix=item["suffix"],
            has_page_locator=item["locator"],
            numeric_label=item.get("label"),
        )
        if references is not None:
            ref_id, status = link_citation(citation, references)
            citation = replace(citation, ref_id=ref_id, link_status=status)
        citations.append(citation)
    return citations


def reference_extract_citations(doc):
    """The original extract_citations: renumber each sentence's citations."""
    citations = []
    for index, sentence in enumerate(doc.sentences):
        for citation in reference_detect_citations(sentence, doc.references, index):
            citations.append(replace(citation, citation_id=f"c{len(citations) + 1:04d}"))
    return citations


# Unicode whitespace (no-break, line separator, information separator,
# ideographic space) and letters whose case mapping is irregular: dotted
# capital I, dotless i, long s, the Kelvin sign and capital sigma.
_ODD_CHARACTERS = ["\u00a0", "\u2028", "\u001c", "\u3000", "\u0130", "\u0131", "\u017f",
                   "\u212a", "\u03a3"]
_MARKER_REFS = HJ_REFS + refs(
    "[3] Smith, J. (2011). A title. A Journal, 4(2), 1-10.",
    "Smith, J. (2011a). Another title. Press.",
    "Berg, J., Nelson, F., & Rietz, T. (2001). Markets. Proceedings of X.",
    "[7] Doe, A. (1999). A report.",
)
_SENTENCE_PIECES = [
    "(Smith, 2011)", "(Smith 2011a; Berg et al. 2001, p. 5)", "Smith (2011)",
    "Berg et al. (2001)", "Smith's (2011)", "Hjørland & Albrechtsen (1995)", "[3]", "[3, 7]",
    "(e.g., ", "(see ", "see ", "cf. ", "(", ")", "[", "]", ";", ",", ".", " ", "and ", "& ",
    "2011", "1995", "Smith", "Berg", "et al.", "pp. 4-5", "Doe", "van ", "xSmith",
    "Sullivan ", "O'Brien", "’s",
]
_SENTENCES = st.lists(
    st.sampled_from(_SENTENCE_PIECES)
    | st.text(alphabet=st.sampled_from(list("(); ,.[]Sa19") + _ODD_CHARACTERS), max_size=4),
    max_size=16,
).map("".join)


@given(sentence=_SENTENCES, sentence_index=st.integers(0, 3), linked=st.booleans())
@example(sentence="Some work (see, e.g., Smith, 2011; Berg et al. 2001) [3, 7].",
         sentence_index=0, linked=True)
@example(sentence="No markers here, only words.", sentence_index=2, linked=True)
@example(sentence="Brackets [alone] and Smith (2011)", sentence_index=1, linked=False)
@example(sentence="Smith ( 2011 )", sentence_index=0, linked=True)
@example(sentence="Smith ((2011))", sentence_index=0, linked=True)
@example(sentence="(2011) shows it", sentence_index=0, linked=True)
@example(sentence="(Smith, 2010; 2011)", sentence_index=0, linked=True)
@example(sentence="(Jones, 2010) and Smith (2011a)", sentence_index=0, linked=True)
@example(sentence="( Smith (2011)", sentence_index=0, linked=True)
@example(sentence="Smith ) (2011)", sentence_index=0, linked=True)
@example(sentence="xSmith (2011)", sentence_index=0, linked=True)
@example(sentence="Sullivan Dijk (2011)", sentence_index=0, linked=True)
@example(sentence="Smith (2010) (2011)", sentence_index=0, linked=True)
@example(sentence="(Jones, 2010) Smith's (2011)", sentence_index=0, linked=True)
@settings(max_examples=400)
def test_gated_detection_matches_the_ungated_scan(sentence, sentence_index, linked):
    references = _MARKER_REFS if linked else None
    assert detect_citations(sentence, references, sentence_index) == (
        reference_detect_citations(sentence, references, sentence_index)
    )


def _document(sentences):
    return Document(
        metadata=DocumentMetadata(doc_id="d"),
        sections=[Section("Intro", 0, len(sentences))],
        sentences=sentences,
        references=_MARKER_REFS,
    )


@given(st.lists(_SENTENCES, min_size=1, max_size=6))
@settings(max_examples=150)
def test_document_ids_run_in_reading_order(sentences):
    citations = extract_citations(_document(sentences))
    assert citations == reference_extract_citations(_document(sentences))
    assert [c.citation_id for c in citations] == [
        f"c{i:04d}" for i in range(1, len(citations) + 1)
    ]
    positions = [(c.sentence_index, c.char_span[0]) for c in citations]
    assert positions == sorted(positions)


def test_fixture_extraction_matches_the_original(corpus_documents):
    for doc in corpus_documents:
        assert extract_citations(doc) == reference_extract_citations(doc)


@pytest.mark.parametrize(
    "marker",
    [
        lambda i: f"(Smith, {1900 + i % 100})",
        lambda i: f"Smith ({1900 + i % 100})",
        lambda i: f"[{i % 1000}]",
    ],
    ids=["parenthetical", "narrative", "numeric"],
)
def test_detection_time_is_linear_in_markers_per_sentence(marker):
    # One sentence holding every marker. Quadrupling the markers must
    # cost well under the 16x a per-marker scan of the prefix would;
    # 8x leaves room for timer noise.
    small = " ".join(marker(i) for i in range(1000))
    large = " ".join(marker(i) for i in range(4000))
    assert len(detect_citations(large)) == 4000
    small_time, large_time = best_times(detect_citations, small, large)
    assert large_time < 8 * small_time, (small_time, large_time)


@pytest.mark.parametrize("token", ["A", "Ab"], ids=["capitals", "capital-lower-pairs"])
def test_narrative_names_are_linear_in_token_length(token):
    # One long token of name characters before ", (2011)" matches no
    # narrative marker. A search that restarts at every capital inside
    # the token rescans the rest of it each time: 16x for 4x the token.
    def sentence(n):
        return "See " + token * (n // len(token)) + ", (2011) here."

    assert detect_citations(sentence(4000)) == []
    small_time, large_time = best_times(detect_citations, sentence(1000), sentence(4000))
    assert large_time < 8 * small_time, (small_time, large_time)


def _one_marker_per_entry(n, numeric):
    """A document with n entries, each cited once, one marker a sentence."""
    names = ["Q" + "".join(chr(97 + i // 26**k % 26) for k in (2, 1, 0)) for i in range(n)]
    years = [1900 + i % 100 for i in range(n)]
    if numeric:
        markers = [f"[{i}]" for i in range(1, n + 1)]
        labels = [f"[{i}] " for i in range(1, n + 1)]
    else:
        markers = [f"({name}, {year})" for name, year in zip(names, years)]
        labels = [""] * n
    return parse_document(
        "#META id: many\n#SECTION Introduction\n"
        + "".join(f"A claim rests on {marker}.\n" for marker in markers)
        + "#REFERENCES\n"
        + "".join(
            f"{label}{name}, A. ({year}). A title. Minerva, 2(1), 1-2.\n"
            for label, name, year in zip(labels, names, years)
        ),
        FORMAT_PLAIN,
    )


@pytest.mark.parametrize("numeric", [False, True], ids=["author-year", "numeric"])
def test_linking_time_is_linear_in_references(numeric):
    # Quadrupling the entries and the markers must cost well under the
    # 16x a scan of the whole reference list per marker would; 8x leaves
    # room for timer noise.
    small = _one_marker_per_entry(1000, numeric)
    large = _one_marker_per_entry(4000, numeric)
    citations = extract_citations(large)
    assert [c.ref_id for c in citations] == [r.ref_id for r in large.references]
    small_time, large_time = best_times(extract_citations, small, large)
    assert large_time < 8 * small_time, (small_time, large_time)
