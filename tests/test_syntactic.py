"""Form-level coders: document types, authorship, location, counts, style."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from citecode.citations import detect_citations
from citecode.codebook import Uncodable
from citecode.errors import CitecodeError
from citecode.models import AuthorName, DocumentMetadata, Section
from citecode.refparse import parse_reference_entry
from citecode.syntactic import (
    _LOCATION_EXACT,
    _LOCATION_PREFIXES,
    code_authorship,
    code_document_type,
    code_frequency,
    code_location,
    code_style,
    has_attributed_quote,
)


@pytest.mark.parametrize(
    ("entry_text", "expected", "signal"),
    [
        (
            "Othman, A., & Sandholm, T. (2010). Decision rules and decision "
            "markets. In Proceedings of the 9th International Conference on "
            "Autonomous Agents and Multiagent Systems, pages 625-632.",
            "A2",
            "proceedings",
        ),
        (
            "Lipetz, B. A. (1965). Improvement of the selectivity of citation "
            "indexes. American Documentation, 16(2), 81-90.",
            "A1",
            "volume_issue",
        ),
        (
            "Krippendorff, K. (2004). Content analysis: An introduction to "
            "its methodology (2nd ed.). CA: Sage.",
            "A3",
            "publisher",
        ),
        (
            "Rand Corp. (1998). Forecast quality. Technical Report 12, "
            "Example Labs.",
            "A4",
            "report",
        ),
        (
            "Priem, J., Taraborelli, D., Groth, P., & Neylon, C. (2010). "
            "Altmetrics: A manifesto (v.1.0), Retrieved on August 1, 2012 at "
            "http://altmetrics.org/manifesto",
            "A5",
            "url",
        ),
    ],
)
def test_cited_work_types(entry_text, expected, signal):
    entry = parse_reference_entry(entry_text)
    value, trace = code_document_type(entry)
    assert value == expected
    assert trace == f"A:signal:{signal}"


def test_unclassified_entry_falls_through():
    entry = parse_reference_entry("Anonymous. (1900). An untraceable note.")
    value, trace = code_document_type(entry)
    assert value == "A6"
    assert trace == "A:signal:none"


def test_proceedings_outranks_volume_issue():
    entry = parse_reference_entry(
        "Goel, S., & Pennock, D. (2010). Prediction without markets. "
        "In Proceedings of the 11th ACM Conference on Electronic Commerce, "
        "EC, 11(1), 357-366."
    )
    value, _ = code_document_type(entry)
    assert value == "A2"


def test_volume_issue_outranks_publisher():
    entry = parse_reference_entry(
        "Mayr, E. (1997). This is biology. Science Watch, 12(3), 1-4. "
        "MA: Harvard University Press."
    )
    value, _ = code_document_type(entry)
    assert value == "A1"


@pytest.mark.parametrize(
    ("venue_type", "expected"),
    [
        ("journal", "G1"),
        ("conference", "G2"),
        ("book", "G3"),
        ("report", "G4"),
        ("web", "G5"),
        ("other", "G6"),
    ],
)
def test_citing_document_types(venue_type, expected):
    meta = DocumentMetadata(doc_id="d", venue_type=venue_type)
    value, trace = code_document_type(meta)
    assert value == expected
    assert trace == f"G:venue-type:{venue_type}"


def _authors(*keys):
    return [AuthorName(raw=k, key=k) for k in keys]


def test_authorship_bands():
    assert code_authorship(_authors("smith,a"))[0] == "B1"
    assert code_authorship(_authors("smith,a", "jones,b"))[0] == "B2"
    assert code_authorship(_authors("a,a", "b,b", "c,c", "d,d"))[0] == "B2"


def test_authorship_citing_side_uses_h():
    value, trace = code_authorship(_authors("smith,a"), category="H")
    assert value == "H1"
    assert trace == "H:count=1"


@pytest.mark.parametrize(
    ("entry_text", "expected"),
    [
        ("Smith, J. et al. (2011). A title.", ("B2", "B:count=1+et-al")),
        ("Smith, J., Jones, B., et al. (2011). A title.", ("B2", "B:count=2+et-al")),
        ("Smith, J. (2011). A title.", ("B1", "B:count=1")),
        ("Smith, J. and Jones, B. (2011). A title.", ("B2", "B:count=2")),
        # et al. with no named author is multiple, not missing.
        ("et al. (2011). A title.", ("B2", "B:count=0+et-al")),
    ],
)
def test_cited_authorship_reads_the_et_al_mark(entry_text, expected):
    ref = parse_reference_entry(entry_text)
    assert code_authorship(ref.authors, "B", ref.et_al) == expected


def test_authorship_empty_is_uncodable():
    value, trace = code_authorship([], category="H")
    assert isinstance(value, Uncodable)
    assert value.reason == "missing-authors"
    assert trace == "H:missing"


def _section(header):
    return Section(raw_header=header, start=0, end=1)


def test_location_reads_the_section():
    value, trace = code_location(_section("Literature Review"))
    assert value == "D3"
    assert trace == "D:header:literature review"


def test_location_other_keeps_raw_header_in_trace():
    value, trace = code_location(_section("Acknowledgements"))
    assert value == "D7"
    assert trace == "D:other:Acknowledgements"


# Every header of the location table, the prefixes with and without a
# tail, and headers that map to nothing, each with its value.
_HEADERS = (
    list(_LOCATION_EXACT.items())
    + [
        (prefix + tail, value)
        for prefix, value in _LOCATION_PREFIXES
        for tail in ("", "s", "ology", " and remarks")
    ]
    + [("acknowledgements", "D7"), ("appendix a", "D7"), ("related work and more", "D7")]
)


@st.composite
def _respelled(draw):
    """A table header with random letter case and runs of whitespace."""
    header, value = draw(st.sampled_from(_HEADERS))
    space = st.text(alphabet=" \t\n\u00a0\u2003", min_size=1, max_size=3)
    words = [
        "".join(draw(st.sampled_from((c, c.upper()))) for c in word) for word in header.split()
    ]
    text = draw(space | st.just("")) + words[0]
    for word in words[1:]:
        text += draw(space) + word
    return text + draw(space | st.just("")), value


@given(_respelled())
@example(("Related \t Work", "D3"))
@example((" Appendix  A", "D7"))
def test_location_depends_only_on_the_folded_collapsed_header(spelled):
    header, value = spelled
    coded = code_location(_section(header))
    if value == "D7":
        assert coded == ("D7", f"D:other:{header}")
    else:
        assert coded == (value, f"D:header:{header.lower()}")


@pytest.mark.parametrize(
    ("count", "expected"),
    [(1, "E1"), (2, "E2"), (3, "E2"), (4, "E2"), (5, "E3"), (17, "E3")],
)
def test_frequency_bands(count, expected):
    value, trace = code_frequency(count)
    assert value == expected
    assert trace == f"E:count={count}"


@pytest.mark.parametrize("count", [0, -2])
def test_frequency_rejects_nonpositive(count):
    with pytest.raises(ValueError, match=f"^mention count must be positive, got {count}$") as err:
        code_frequency(count)
    assert not isinstance(err.value, CitecodeError)


@given(a=st.integers(min_value=1, max_value=200), b=st.integers(min_value=0, max_value=200))
def test_frequency_bands_are_monotone(a, b):
    lo, hi = a, a + b
    order = {"E1": 1, "E2": 2, "E3": 3}
    assert order[code_frequency(lo)[0]] <= order[code_frequency(hi)[0]]


def _style_of(sentence):
    found = detect_citations(sentence)
    assert len(found) == 1
    return code_style(found[0], has_attributed_quote(sentence))


def test_style_parenthetical():
    value, trace = _style_of("Citation is a social act (Smith, 2011).")
    assert (value, trace) == ("F1", "F:parenthetical")


def test_style_narrative():
    value, trace = _style_of("Smith (2011) states that citation is a social act.")
    assert (value, trace) == ("F2", "F:narrative")


def test_style_page_locator():
    value, trace = _style_of("They coexist in all domains (Mayr, 1997, pp. 98-99).")
    assert (value, trace) == ("F3", "F:page-locator")


def test_style_quote_span_without_locator():
    value, trace = _style_of('Smith (2011) calls it "a social act of aligning".')
    assert (value, trace) == ("F3", "F:quote-span")


def test_style_short_scare_quote_is_not_a_quotation():
    value, _ = _style_of("Smith (2011) rejects the 'linear model' entirely.")
    assert value == "F2"
    value, _ = _style_of('The term "paradigm" recurs (Smith, 2011).')
    assert value == "F1"


def test_style_locator_beats_quote_span():
    value, trace = _style_of(
        'Citation has been described as "the currency of science" '
        "(Smith, 2011, P. xx)."
    )
    assert (value, trace) == ("F3", "F:page-locator")
