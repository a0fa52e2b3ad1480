"""Document parsing for both input grammars, plus the round trip."""

from __future__ import annotations

import copy
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import citecode
from citecode.citations import extract_citations
from citecode.errors import CitecodeError, MalformedInput
from citecode.ingest import (
    FORMAT_PLAIN,
    FORMAT_XML,
    _finalize_references,
    parse_document,
    serialize_document,
)
from citecode.models import AuthorName, ReferenceEntry
from citecode.names import normalize_author_key
from citecode.refparse import derive_ref_id
from citecode.syntactic import code_document_type, normalize_section_header

from conftest import ALL_FIXTURES, load_fixture
from timing import best_times

MINIMAL = """\
#META id: demo
#META authors: Smith, J.
#SECTION Introduction
First sentence here. Second sentence here.
#SECTION Discussion
Third sentence here.
#REFERENCES
Smith, A. (2011). One. Minerva, 2(1), 1-2.
Jones, B. (2012). Two. Minerva, 3(1), 3-4.
Brown, C. (2013). Three. Minerva, 4(1), 5-6.
"""


def test_plain_document_sections_and_references():
    doc = parse_document(MINIMAL, FORMAT_PLAIN)
    assert doc.metadata.doc_id == "demo"
    assert [s.raw_header for s in doc.sections] == ["Introduction", "Discussion"]
    assert len(doc.references) == 3
    assert doc.sentences == [
        "First sentence here.",
        "Second sentence here.",
        "Third sentence here.",
    ]


def test_sections_partition_the_sentences():
    doc = parse_document(MINIMAL, FORMAT_PLAIN)
    covered = [i for s in doc.sections for i in s.sentence_indices]
    assert covered == list(range(len(doc.sentences)))


def test_empty_section_kept_with_warning():
    text = "#META id: d1\n#SECTION Introduction\n#SECTION Body\nSome text here.\n"
    doc = parse_document(text, FORMAT_PLAIN)
    assert len(doc.sections) == 2
    assert doc.sections[0].start == doc.sections[0].end == 0
    assert any("no sentences" in w for w in doc.warnings)


def test_missing_reference_block_warns():
    text = "#META id: d2\n#SECTION Introduction\nText goes here.\n"
    doc = parse_document(text, FORMAT_PLAIN)
    assert doc.references == []
    assert any("missing-references" in w for w in doc.warnings)


def test_missing_id_is_malformed():
    with pytest.raises(MalformedInput):
        parse_document("#SECTION Introduction\nText.\n", FORMAT_PLAIN)


def test_no_sections_is_empty_document():
    with pytest.raises(MalformedInput, match="^document has no sections$"):
        parse_document("#META id: d3\n", FORMAT_PLAIN)


def test_duplicate_explicit_labels_rejected():
    text = (
        "#META id: d4\n#SECTION Introduction\nText.\n#REFERENCES\n"
        "[1] Smith, A. (2011). One. Minerva, 2(1), 1-2.\n"
        "[1] Jones, B. (2012). Two. Minerva, 3(1), 3-4.\n"
    )
    with pytest.raises(MalformedInput, match="^line 6: duplicate reference label '1'$") as err:
        parse_document(text, FORMAT_PLAIN)
    assert err.value.line == 6


def test_derived_id_collision_is_disambiguated():
    text = (
        "#META id: d5\n#SECTION Introduction\nText.\n#REFERENCES\n"
        "Smith, A. (2011). One. Minerva, 2(1), 1-2.\n"
        "Smith, B. (2011). Two. Minerva, 3(1), 3-4.\n"
    )
    doc = parse_document(text, FORMAT_PLAIN)
    assert [r.ref_id for r in doc.references] == ["smith-2011", "smith-2011-2"]
    assert any("repeated" in w for w in doc.warnings)


def test_explicit_label_keeps_its_id_over_an_earlier_derived_one():
    # The authorless entry derives ref-1; the label ref-1 is the one
    # its author wrote, so the derived id moves instead.
    text = (
        "<document><metadata><id>x</id></metadata><body>"
        "<section header='Introduction'><paragraph>Text.</paragraph></section></body>"
        "<references><reference>A title without authors.</reference>"
        "<reference id='ref-1'>Smith, A. (2011). One. Minerva, 2(1), 1-2.</reference>"
        "</references></document>"
    )
    doc = parse_document(text, FORMAT_XML)
    assert [r.ref_id for r in doc.references] == ["ref-1-2", "ref-1"]
    assert "derived reference id 'ref-1' repeated; using 'ref-1-2'" in doc.warnings


def test_xml_text_label_is_as_explicit_as_the_id_attribute():
    # A "[n]" label in the entry text is explicit, as in plain format,
    # so repeating an attribute's id raises instead of renaming.
    text = (
        "<document><metadata><id>x</id></metadata><body>"
        "<section header='Introduction'><paragraph>Text.</paragraph></section></body>"
        "<references><reference id='3'>Smith, A. (2011). One. Minerva, 2(1), 1-2.</reference>"
        "<reference>[3] Jones, B. (2012). Two. Minerva, 3(1), 3-4.</reference>"
        "</references></document>"
    )
    with pytest.raises(MalformedInput, match="^duplicate reference label '3'$"):
        parse_document(text, FORMAT_XML)


def test_xml_text_label_wins_over_the_id_attribute():
    text = (
        "<document><metadata><id>x</id></metadata><body>"
        "<section header='Introduction'><paragraph>Text.</paragraph></section></body>"
        "<references><reference id='3'>[5] Smith, A. (2011). One. Minerva, 2(1), 1-2."
        "</reference></references></document>"
    )
    assert [r.ref_id for r in parse_document(text, FORMAT_XML).references] == ["5"]


# -- the id assignment that searches each suffix from 2, kept as the
# reference for repeated ids --


def reference_finalize_references(entries, warnings):
    taken = set()
    for entry, line_no in entries:
        if entry.ref_id:
            if entry.ref_id in taken:
                raise MalformedInput(f"duplicate reference label {entry.ref_id!r}", line=line_no)
            taken.add(entry.ref_id)
    out = []
    for ordinal, (entry, _) in enumerate(entries, start=1):
        if not entry.ref_id:
            ref_id = derive_ref_id(entry, ordinal)
            if ref_id in taken:
                base = ref_id
                counter = 2
                while f"{base}-{counter}" in taken:
                    counter += 1
                ref_id = f"{base}-{counter}"
                warnings.append(f"derived reference id {base!r} repeated; using {ref_id!r}")
            taken.add(ref_id)
            entry.ref_id = ref_id
        out.append(entry)
    return out


def _smith_entry(label=None):
    """An entry whose derived id is smith-2011, with an optional label."""
    return ReferenceEntry(
        ref_id=label, raw="", authors=[AuthorName("Smith, A.", "smith,a")], year=2011
    )


def _finalized(finalize, entries):
    """The ids and warnings a finalizer gives, or its error and line."""
    entries = copy.deepcopy(entries)
    warnings = []
    try:
        out = finalize(entries, warnings)
    except MalformedInput as exc:
        return "error", str(exc), exc.line
    return [entry.ref_id for entry in out], warnings


# Labels that collide with smith-2011, with its -<n> forms, and with
# the ordinal ids of unlabelled entries that have no author.
_LABELS = st.sampled_from(
    [None, "smith-2011", "smith-2011-2", "smith-2011-3", "smith-2011-2-2", "ref-2", "1"]
)
_ENTRIES = st.lists(
    st.tuples(_LABELS, st.booleans()).map(
        lambda drawn: (
            _smith_entry(drawn[0]) if drawn[1] else ReferenceEntry(ref_id=drawn[0], raw=""),
            None,
        )
    ),
    max_size=12,
)


@given(_ENTRIES)
@example([(_smith_entry(), None)] * 3 + [(_smith_entry("smith-2011-4"), 4)]
         + [(_smith_entry(), None)] * 2)
def test_finalize_references_matches_the_reference(entries):
    assert _finalized(_finalize_references, entries) == _finalized(
        reference_finalize_references, entries
    )


def test_repeated_derived_id_time_is_linear_in_entries():
    # Every entry derives smith-2011. Quadrupling the entries must cost
    # well under the 16x that searching each repeat's suffix from 2
    # would; 8x leaves room for timer noise.
    small, large = best_times(
        lambda entries: _finalize_references(entries, []), 2_000, 8_000,
        prepare=lambda count: [(_smith_entry(), None) for _ in range(count)],
    )
    assert large < 8 * small, (small, large)


def test_unknown_venue_type_downgraded():
    text = "#META id: d6\n#META venue-type: zine\n#SECTION Introduction\nText.\n"
    doc = parse_document(text, FORMAT_PLAIN)
    assert doc.metadata.venue_type == "other"
    assert any("venue-type" in w for w in doc.warnings)


def test_domain_override_accepted_and_validated():
    good = "#META id: d7\n#META domain: K2\n#SECTION Introduction\nText.\n"
    assert parse_document(good, FORMAT_PLAIN).metadata.domain_override == "K2"
    bad = "#META id: d8\n#META domain: K9\n#SECTION Introduction\nText.\n"
    doc = parse_document(bad, FORMAT_PLAIN)
    assert doc.metadata.domain_override is None
    assert any("domain" in w for w in doc.warnings)


def test_year_bounds_enforced():
    text = "#META id: d9\n#META year: 1200\n#SECTION Introduction\nText.\n"
    doc = parse_document(text, FORMAT_PLAIN)
    assert doc.metadata.year is None
    assert any("1400..2099" in w for w in doc.warnings)


@pytest.mark.parametrize("year", ["2100", "1_999", "+2001", "\u0661\u0669\u0669\u0669", "1399"])
@pytest.mark.parametrize("fmt", [FORMAT_PLAIN, FORMAT_XML])
def test_metadata_year_outside_the_year_grammar_warns(year, fmt):
    doc = parse_document(_year_document(year, fmt), fmt)
    assert doc.metadata.year is None
    assert [w for w in doc.warnings if "year" in w] == [
        f"year {year!r} is not a year in 1400..2099; ignored"
    ]


@pytest.mark.parametrize("year", ["1400", "2099", " 1999 "])
@pytest.mark.parametrize("fmt", [FORMAT_PLAIN, FORMAT_XML])
def test_metadata_year_inside_the_year_grammar_is_kept(year, fmt):
    doc = parse_document(_year_document(year, fmt), fmt)
    assert doc.metadata.year == int(year)
    assert not any("year" in w for w in doc.warnings)


def test_years_take_ascii_digits_only():
    # "19\u0669\u0669" ends in two Arabic-Indic nines, which int() reads
    # as 1999. It is no year for the metadata, an entry or a marker.
    year = "19\u0669\u0669"
    doc = parse_document(
        f"#META id: y\n#META year: {year}\n#SECTION Introduction\n"
        f"First (Smith, {year}). Then (Smith, 1999).\n#REFERENCES\n"
        f"[1] Smith, A. ({year}). One. Minerva, 2(1), 1-2.\n"
        "[2] Smith, A. (1999). Two. Minerva, 3(1), 3-4.\n",
        FORMAT_PLAIN,
    )
    assert doc.metadata.year is None
    assert [ref.year for ref in doc.references] == [None, 1999]
    assert [(c.sentence_index, c.year, c.ref_id) for c in extract_citations(doc)] == [
        (1, 1999, "2")
    ]


def _year_document(year, fmt):
    if fmt == FORMAT_XML:
        return (
            f"<document><metadata><id>y</id><year>{year}</year></metadata>"
            "<body><section header='Introduction'><paragraph>Text.</paragraph>"
            "</section></body><references/></document>"
        )
    return f"#META id: y\n#META year: {year}\n#SECTION Introduction\nText.\n#REFERENCES\n"


def test_unknown_directive_and_stray_text_warn():
    text = (
        "#META id: d10\nStray line before sections.\n#NOTE something\n"
        "#SECTION Introduction\nReal text.\n"
    )
    doc = parse_document(text, FORMAT_PLAIN)
    assert doc.sentences == ["Real text."]
    assert any("before first #SECTION" in w for w in doc.warnings)
    assert any("#NOTE" in w for w in doc.warnings)


def test_repeated_plain_metadata_key_warns_and_keeps_the_later_value():
    text = (
        "#META id: d11\n#META authors: Smith, J.\n#META authors: Doe, A.\n"
        "#SECTION Introduction\nText.\n#REFERENCES\n[1] Lee, K. (2011). T.\n"
    )
    doc = parse_document(text, FORMAT_PLAIN)
    assert doc.metadata.authors == [AuthorName(raw="Doe, A.", key="doe,a")]
    assert doc.warnings == ["line 3: #META key 'authors' repeated; the earlier value is dropped"]


def test_repeated_xml_metadata_element_warns_and_keeps_the_later_value():
    text = (
        "<document><metadata><id>x1</id><authors><author>Smith, J.</author></authors>"
        "<id>x2</id><authors><author>Doe, A.</author></authors><note/><note/></metadata>"
        "<body><section header='Introduction'><paragraph>Text.</paragraph></section></body>"
        "<references><reference>Lee, K. (2011). T.</reference></references></document>"
    )
    doc = parse_document(text, FORMAT_XML)
    assert doc.metadata.doc_id == "x2"
    assert doc.metadata.authors == [AuthorName(raw="Doe, A.", key="doe,a")]
    # An unknown element is skipped, so its repeat drops nothing.
    assert doc.warnings == [
        "repeated metadata element <id>; the earlier value is dropped",
        "repeated metadata element <authors>; the earlier value is dropped",
        "unknown metadata element <note> skipped",
        "unknown metadata element <note> skipped",
    ]


@pytest.mark.parametrize(
    "header,expected",
    [
        ("Abstract", "D1"),
        ("Introduction", "D2"),
        ("Background", "D2"),
        ("Literature Review", "D3"),
        ("Related Work", "D3"),
        ("Prior Work", "D3"),
        ("Method", "D4"),
        ("Methods", "D4"),
        ("Methodology", "D4"),
        ("Materials and Methods", "D4"),
        ("Experimental Setup", "D4"),
        ("Results", "D5"),
        ("Discussion", "D5"),
        ("Findings", "D5"),
        ("Evaluation", "D5"),
        ("Experiments", "D5"),
        ("Conclusion", "D6"),
        ("Conclusions", "D6"),
        ("Summary", "D6"),
        ("Future Work", "D6"),
        ("Acknowledgements", "D7"),
        ("Appendix A", "D7"),
    ],
)
def test_section_header_normalization(header, expected):
    assert normalize_section_header(header) == expected


def test_xml_sample_parses():
    doc = load_fixture("sample.xml")
    assert doc.metadata.doc_id == "xml-sample"
    assert [a.key for a in doc.metadata.authors] == ["moreno,l", "pike,s"]
    assert doc.metadata.venue_type == "journal"
    assert doc.metadata.year == 2015
    assert [normalize_section_header(s.raw_header) for s in doc.sections] == ["D2", "D6"]
    assert len(doc.sentences) == 4


def test_xml_author_with_semicolon_stays_one_author():
    doc = parse_document(
        "<document><metadata><id>x</id>"
        "<authors><author>Smith; J.</author></authors></metadata>"
        "<body><section header='Introduction'><paragraph>Text.</paragraph></section></body>"
        "</document>",
        FORMAT_XML,
    )
    assert doc.metadata.authors == [AuthorName(raw="Smith; J.", key="smith,j")]
    again = parse_document(serialize_document(doc), FORMAT_XML)
    assert again.metadata == doc.metadata


_INLINE_MARKUP = (
    "<document><metadata><id>x</id>"
    "<title>A <i>study</i> of things</title>"
    "<authors><author>Smith, <b>J.</b></author></authors>"
    "<venue type='journal'>Acta <i>Sociologica</i></venue></metadata>"
    "<body><section header='Introduction'>"
    "<paragraph>As shown <i>earlier</i> by Lee (2011), it holds.</paragraph>"
    "</section></body>"
    "<references><reference>Lee, K. (2011). <i>A title</i>. Minerva, 4(2), 1-9.</reference>"
    "</references></document>"
)


def test_xml_metadata_keeps_the_text_of_inline_elements():
    meta = parse_document(_INLINE_MARKUP, FORMAT_XML).metadata
    assert meta.title == "A study of things"
    assert meta.authors == [AuthorName(raw="Smith, J.", key="smith,j")]
    assert meta.venue_name == "Acta Sociologica"


def test_xml_body_and_references_keep_the_text_of_inline_elements():
    doc = parse_document(_INLINE_MARKUP, FORMAT_XML)
    assert doc.sentences == ["As shown earlier by Lee (2011), it holds."]
    assert doc.references[0].raw == "Lee, K. (2011). A title. Minerva, 4(2), 1-9."
    assert code_document_type(doc.references[0]) == ("A1", "A:signal:volume_issue")
    [citation] = extract_citations(doc)
    assert citation.ref_id == "lee-2011"


def test_xml_explicit_and_derived_reference_ids():
    doc = load_fixture("sample.xml")
    assert [r.ref_id for r in doc.references] == ["moreno-2010", "pike-2012"]


def test_xml_wrong_root_rejected():
    with pytest.raises(MalformedInput):
        parse_document("<article><body/></article>", FORMAT_XML)


def test_xml_syntax_error_has_line():
    with pytest.raises(MalformedInput) as err:
        parse_document("<document>\n<oops\n</document>", FORMAT_XML)
    assert err.value.line is not None


def test_unknown_format_rejected():
    with pytest.raises(MalformedInput):
        parse_document("anything", "pdf")


def test_invalid_utf8_rejected():
    with pytest.raises(MalformedInput):
        parse_document(b"#META id: x\n\xff\xfe", FORMAT_PLAIN)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_serialize_then_reparse_round_trips(name):
    doc = load_fixture(name)
    rendered = serialize_document(doc)
    again = parse_document(rendered, FORMAT_XML)
    assert again.metadata == doc.metadata
    assert again.sections == doc.sections
    assert again.sentences == doc.sentences
    assert again.references == doc.references


def test_round_trip_is_stable_under_reserialization():
    doc = load_fixture("paper-a.txt")
    once = serialize_document(doc)
    twice = serialize_document(parse_document(once, FORMAT_XML))
    assert once == twice


def _with_text(doc, field, text):
    """A copy of the document with ``text`` set into one of its text fields."""
    doc = copy.deepcopy(doc)
    if field == "sentence":
        doc.sentences[0] = f"A{text}B."
    elif field == "header":
        doc.sections[0].raw_header = f"Intro{text}duction"
    elif field == "doc_id":
        doc.metadata.doc_id = f"a{text}b"
    elif field == "author":
        raw = f"Smith{text}, J."
        doc.metadata.authors[0] = AuthorName(raw, normalize_author_key(raw))
    else:
        doc.references[0].raw = f"Smith, A. (2011).{text} One."
    return doc


_TEXT_FIELDS = ["sentence", "header", "doc_id", "author", "reference"]


@pytest.mark.parametrize("char", ["\u0001", "\ufffe"])
@pytest.mark.parametrize("field", _TEXT_FIELDS)
def test_serialize_refuses_characters_xml_cannot_carry(field, char):
    doc = _with_text(parse_document(MINIMAL, FORMAT_PLAIN), field, char)
    with pytest.raises(MalformedInput) as err:
        serialize_document(doc)
    assert repr(doc.metadata.doc_id) in str(err.value)
    assert f"U+{ord(char):04X}" in str(err.value)


# U+007F is a character XML 1.0 carries; the rest is markup to escape,
# with both quote kinds for the attributes.
@pytest.mark.parametrize("text", ["\u007f", "&amp;<i>\"it's\"</i>&#10;"])
@pytest.mark.parametrize("field", _TEXT_FIELDS)
def test_serialize_round_trips_what_xml_can_carry(field, text):
    doc = _with_text(parse_document(MINIMAL, FORMAT_PLAIN), field, text)
    again = parse_document(serialize_document(doc), FORMAT_XML)
    assert again.metadata == doc.metadata
    assert again.sections == doc.sections
    assert again.sentences == doc.sentences
    assert again.references == doc.references


def test_serialize_escapes_the_domain_override():
    doc = parse_document(MINIMAL, FORMAT_PLAIN)
    doc.metadata.domain_override = "K1&"
    again = parse_document(serialize_document(doc), FORMAT_XML)
    assert again.metadata.domain_override is None
    assert again.warnings == ["invalid domain override 'K1&' ignored"]


def test_form_feed_in_a_plain_reference_line_does_not_split_it():
    # PDF-to-text writes a form feed at a page break.
    with_space = MINIMAL + "Lee, K. (2011). A title. Journal of X, 3(2), 1-9.\n"
    with_form_feed = with_space.replace("title. Journal", "title.\fJournal")
    spaced = parse_document(with_space, FORMAT_PLAIN).references
    fed = parse_document(with_form_feed, FORMAT_PLAIN).references
    assert [r.ref_id for r in fed] == [r.ref_id for r in spaced]
    assert fed[-1].ref_id == "lee-2011"
    assert code_document_type(fed[-1]) == ("A1", "A:signal:volume_issue")


def test_line_separator_in_a_plain_metadata_line_does_not_split_it():
    doc = parse_document(MINIMAL.replace("id: demo", "id: a\u2028b"), FORMAT_PLAIN)
    assert doc.metadata.doc_id == "a\u2028b"
    assert doc.warnings == []


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_documents_parse_as_lf(newline):
    expected = parse_document(MINIMAL, FORMAT_PLAIN)
    doc = parse_document(MINIMAL.replace("\n", newline), FORMAT_PLAIN)
    assert doc == expected
    assert doc.warnings == expected.warnings


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_bad_byte_line_counts_crlf_and_lone_cr_line_ends(newline):
    data = newline.join([b"#META id: x", b"#SECTION S", b"\xff", b""])
    with pytest.raises(MalformedInput, match="^line 3: document file is not UTF-8"):
        parse_document(data, FORMAT_PLAIN)


def test_reference_order_preserved():
    doc = parse_document(MINIMAL, FORMAT_PLAIN)
    surnames = [r.authors[0].key for r in doc.references]
    assert surnames == ["smith,a", "jones,b", "brown,c"]


def test_fuzz_smoke_returns_document_or_structured_error():
    rng = random.Random(404)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        fmt = FORMAT_PLAIN if rng.random() < 0.5 else FORMAT_XML
        try:
            doc = parse_document(blob, fmt)
        except CitecodeError:
            continue
        assert doc.metadata.doc_id


def test_import_loads_no_network_modules():
    network = ["urllib.request", "http.client", "ssl", "socket", "email"]
    code = (
        "import sys; before = set(sys.modules); import citecode.cli\n"
        "from citecode.config import PipelineConfig\n"
        "from citecode.pipeline import load_resources\n"
        "config = PipelineConfig(); config.validate(); load_resources(config)\n"
        f"print(sorted(set({network!r}) & (set(sys.modules) - before)))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(citecode.__file__).parents[1])},
    )
    assert completed.stdout.strip() == "[]"
