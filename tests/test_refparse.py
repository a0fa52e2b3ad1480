"""Reference-string parsing: authors, year, label; A coded from the entry text."""

from __future__ import annotations

import re
import string
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citecode.citations import detect_citations
from citecode.models import YEAR_PATTERN, ReferenceEntry
from citecode.names import normalize_author_key
from citecode.refparse import derive_ref_id, parse_author_block, parse_reference_entry
from citecode.syntactic import (
    _EDITION_RE,
    _EDITOR_RE,
    _PROCEEDINGS_RE,
    _PUBLISHER_NAME_RE,
    _REPORT_RE,
    _TERMINAL_IMPRINT_RE,
    _URL_RE,
    _VOLUME_ISSUE_RE,
    code_document_type,
)

from timing import best_times

LIPETZ = (
    "Lipetz, B. A. (1965). Improvement of the selectivity of citation indexes "
    "to science literature through inclusion of citation relationship "
    "indicators. American Documentation, 16(2), 81-90."
)
KRIPPENDORFF = (
    "Krippendorff, K. (2004). Content analysis: An introduction to its "
    "methodology (2nd ed.). CA: Sage."
)
OTHMAN = (
    "Othman, A., & Sandholm, T. (2010). Decision rules and decision markets. "
    "In Proceedings of the 9th International Conference on Autonomous Agents "
    "and Multiagent Systems, pages 625-632."
)
PRIEM = (
    "Priem, J., Taraborelli, D., Groth, P., & Neylon, C. (2010). Altmetrics: "
    "A manifesto (v.1.0), Retrieved on August 1, 2012 at "
    "http://altmetrics.org/manifesto"
)


def test_journal_entry_single_author_volume_issue():
    entry = parse_reference_entry(LIPETZ)
    assert [a.key for a in entry.authors] == ["lipetz,b"]
    assert entry.year == 1965
    assert code_document_type(entry) == ("A1", "A:signal:volume_issue")


def test_numeric_label_captured():
    entry = parse_reference_entry("[12] Doe, A. (2020). A short note. Kyklos, 3(1), 1-9.")
    assert entry.ref_id == "12"
    assert entry.year == 2020
    assert [a.key for a in entry.authors] == ["doe,a"]


def test_numeric_label_takes_ascii_digits_only():
    entry = parse_reference_entry("[\u0661] Smith, J. (2011). A title.")
    assert entry.ref_id == ""


def test_book_entry_publisher_not_volume_issue():
    entry = parse_reference_entry(KRIPPENDORFF)
    assert code_document_type(entry) == ("A3", "A:signal:publisher")


def test_proceedings_signal():
    entry = parse_reference_entry(OTHMAN)
    assert code_document_type(entry) == ("A2", "A:signal:proceedings")
    assert [a.key for a in entry.authors] == ["othman,a", "sandholm,t"]


def test_url_signal_from_retrieved_marker():
    entry = parse_reference_entry(PRIEM)
    assert code_document_type(entry) == ("A5", "A:signal:url")


def test_report_signal():
    entry = parse_reference_entry(
        "Doe, A. (2019). Annual usage. Technical Report 12, Example Labs."
    )
    assert code_document_type(entry) == ("A4", "A:signal:report")


def test_year_suffix():
    entry = parse_reference_entry("Smith, A. (2011a). First of two. Minerva, 4(4), 1-8.")
    assert entry.year == 2011
    assert entry.year_suffix == "a"


def test_missing_year_degrades_without_error():
    entry = parse_reference_entry("Anonymous pamphlet without a date. London.")
    assert entry.year is None
    assert entry.year_suffix is None


def test_plain_year_is_not_volume_issue():
    entry = parse_reference_entry("Smith, A. (1965). A title.")
    assert code_document_type(entry) == ("A6", "A:signal:none")


def test_terminal_imprint_counts_as_publisher():
    entry = parse_reference_entry(
        "Mayr, E. (1997). This is biology. Cambridge, MA: Belknap Press."
    )
    assert code_document_type(entry) == ("A3", "A:signal:publisher")


def test_author_block_with_ampersand_chain():
    authors = parse_author_block("Berg, J., Forsythe, R., Nelson, F., & Rietz, T.")
    assert [a.key for a in authors] == ["berg,j", "forsythe,r", "nelson,f", "rietz,t"]


def test_author_block_semicolon_form():
    authors = parse_author_block("Perry, M.; Bodkin, C.")
    assert [a.key for a in authors] == ["perry,m", "bodkin,c"]


@pytest.mark.parametrize(
    "block, keys",
    [
        ("Smith, J. and Jones, B.", ["smith,j", "jones,b"]),
        ("Smith, J. & Jones, B.", ["smith,j", "jones,b"]),
        ("Smith, J., Jones, B. and Lee, C.", ["smith,j", "jones,b", "lee,c"]),
        ("Smith, J., Jones, B., and Lee, C.", ["smith,j", "jones,b", "lee,c"]),
        ("Anderson, J. and Sandholm, T.", ["anderson,j", "sandholm,t"]),
    ],
)
def test_author_block_joined_without_a_serial_comma(block, keys):
    assert [a.key for a in parse_author_block(block)] == keys


def test_only_initials_split_off_at_a_joiner():
    # A name that holds "and" stays one author.
    assert len(parse_author_block("Research and Development Office")) == 1
    assert len(parse_author_block("Smith, J., Research and Development Office")) == 2


def test_two_authors_joined_without_a_serial_comma_resolve():
    # Both narrative and parenthetical markers read the entry's first surname.
    for entry_text in ("Smith, J. and Jones, B. (2011). T.", "Smith, J. & Jones, B. (2011). T."):
        entry = parse_reference_entry(entry_text)
        entry.ref_id = "smith-2011"
        for sentence in ("As Smith and Jones (2011) showed.", "It held (Smith & Jones, 2011)."):
            [citation] = detect_citations(sentence, [entry])
            assert (citation.link_status, citation.ref_id) == ("resolved", "smith-2011")


@pytest.mark.parametrize(
    "text, keys",
    [
        ("Smith, J. et al. (2011). A title.", ["smith,j"]),
        ("Smith, J., Jones, B., et al. (2011). Title.", ["smith,j", "jones,b"]),
        ("Smith et al (2011). A title.", ["smith,"]),
        # Any case, and a trailing comma: none of these is an author.
        ("Smith, J., et al., (2011). A title.", ["smith,j"]),
        ("Smith, J. et al., (2011). A title.", ["smith,j"]),
        ("Smith, J., Et al. (2011). A title.", ["smith,j"]),
        ("Smith, J., ET AL. (2011). A title.", ["smith,j"]),
        ("Smith, J.; Jones, B.; et al.; (2011). A title.", ["smith,j", "jones,b"]),
    ],
)
def test_et_al_marks_the_entry_and_names_no_author(text, keys):
    entry = parse_reference_entry(text)
    assert [a.key for a in entry.authors] == keys
    assert entry.et_al
    assert entry.year == 2011


def test_entry_without_et_al_is_not_marked():
    assert not parse_reference_entry("Smith, J., & Jones, B. (2011). Et alia.").et_al
    assert not parse_reference_entry("Smith, J. (2011). Notes et al. (2011)").et_al


_SURNAMES = ["Smith", "Jones", "Anderson", "Sand", "van Dijk", "O'Brien", "Smith-Jones", "Andrews"]
_INITIALS = ["J.", "B. A.", "J.-P.", "K"]
_JOINERS = [", & ", " & ", ", and ", " and ", "; "]


@given(
    authors=st.lists(
        st.tuples(st.sampled_from(_SURNAMES), st.sampled_from(_INITIALS)), min_size=1, max_size=4
    ),
    joiner=st.sampled_from(_JOINERS),
)
def test_author_lists_read_back_the_keys_written(authors, joiner):
    # APA joins all but the last two authors with ", "; a "; " list uses it throughout.
    names = [f"{surname}, {initials}" for surname, initials in authors]
    lead = "; " if joiner == "; " else ", "
    block = joiner.join([lead.join(names[:-1]), names[-1]]) if len(names) > 1 else names[0]
    expected = [normalize_author_key(name) for name in names]
    assert [a.key for a in parse_author_block(block)] == expected
    entry = parse_reference_entry(f"{block} (2011). A title.")
    assert [a.key for a in entry.authors] == expected
    assert not entry.et_al


def test_author_block_empty():
    assert parse_author_block("") == []
    assert parse_author_block("  .,; ") == []


def test_derived_id_from_author_and_year():
    entry = parse_reference_entry("Kuhn, T. S. (1962). The structure. Chicago: Press.")
    assert derive_ref_id(entry, 7) == "kuhn-1962"


def test_derived_id_includes_suffix():
    entry = parse_reference_entry("Smith, A. (2011b). Second of two. Minerva, 4(5), 9-16.")
    assert derive_ref_id(entry, 1) == "smith-2011b"


def test_derived_id_falls_back_to_ordinal():
    entry = parse_reference_entry("An untitled note without authors or date")
    assert derive_ref_id(entry, 3) == "ref-3"


def test_raw_is_normalized_whitespace_without_label():
    entry = parse_reference_entry("[3]  Doe,  A. (2001).   Spaced   out. Acta, 2(2), 4-5.")
    assert entry.ref_id == "3"
    assert entry.raw == "Doe, A. (2001). Spaced out. Acta, 2(2), 4-5."


def reference_detect_venue_signals(text):
    """The original signal scan: every pattern runs on every entry."""
    signals = set()
    if _PROCEEDINGS_RE.search(text):
        signals.add("proceedings")
    if _VOLUME_ISSUE_RE.search(text):
        signals.add("volume_issue")
    if (
        _EDITION_RE.search(text)
        or _EDITOR_RE.search(text)
        or _PUBLISHER_NAME_RE.search(text)
        or _TERMINAL_IMPRINT_RE.search(text)
    ):
        signals.add("publisher")
    if _REPORT_RE.search(text):
        signals.add("report")
    if _URL_RE.search(text):
        signals.add("url")
    return frozenset(signals)


# docs/codebook.md §A: the first signal in this order decides A.
_CODEBOOK_ORDER = (
    ("proceedings", "A2"),
    ("volume_issue", "A1"),
    ("publisher", "A3"),
    ("report", "A4"),
    ("url", "A5"),
)


def test_case_insensitive_letters_that_lower_does_not_map():
    # The venue gates rely on this: under re.IGNORECASE only these code
    # points match an ASCII letter that str.lower() does not turn them
    # into. (The Kelvin sign matches "k" and lowercases to it.)
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    unmapped = {}
    for ch in re.findall("[a-z]", everything, re.IGNORECASE):
        for letter in string.ascii_lowercase:
            if re.fullmatch(letter, ch, re.IGNORECASE) and ch.lower() != letter:
                unmapped[ch] = letter
    assert unmapped == {"\u0130": "i", "\u0131": "i", "\u017f": "s"}


# Words each signal pattern matches, in several casings and with the
# letters re.IGNORECASE folds but str.lower() leaves alone.
_VENUE_WORDS = [
    "proceedings", "PROCEEDINGS", "Proceed\u0131ngs", "PROCEED\u0130NGS", "Proceeding\u017f",
    "edition", "EDITION", "ed\u0131t\u0131on", "(2nd ed.)", "(3RD ED)", "(Eds.)", "(ed)",
    "(ed\u017f.)", "Press", "Sage", "McGraw", "CA: Sage.", "; New York: Wiley.",
    "report", "REPORT", "Newsletter", "NEWSPAPER", "new\u017f", "working paper",
    "Work\u0131ng Paper", "white paper", "press release", "Pre\u017f\u017f Relea\u017fe",
    "http://", "HTTPS://", "www.", "WWW.", "retrieved", "RETRIEVED", "Retr\u0131eved",
    "accessed", "Acce\u017f\u017fed", "ACCESSED", "4(2)", "12 (3-4)", "(1965)", "1(2\u20133)",
]
_VENUE_ALPHABET = list(" .,:;()&-/0123456789aAdDeEpPrRsSwW") + [
    "\u0130", "\u0131", "\u017f", "\u212a", "\u03a3", "\u00a0",
]


@given(
    st.lists(
        st.sampled_from(_VENUE_WORDS)
        | st.text(alphabet=st.sampled_from(_VENUE_ALPHABET), max_size=6),
        max_size=12,
    ).map("".join)
)
@example("Proceed\u0131ngs of the Tenth Workshop")
@example("Acce\u017f\u017fed 3 May 2012")
@example("RETRIEVED FROM THE ARCHIVE")
@example("PRESS RELEASE, 4 JUNE")
@example("Smith, J. (2001). A book (2ND ED.). London: Sage")
@example("Minerva, 4(2), 1-9. CA: Sage.")
@settings(max_examples=500)
def test_gated_venue_signals_match_the_ungated_scan(text):
    signals = reference_detect_venue_signals(text)
    expected = next(
        ((value, f"A:signal:{signal}") for signal, value in _CODEBOOK_ORDER if signal in signals),
        ("A6", "A:signal:none"),
    )
    assert code_document_type(ReferenceEntry(ref_id="r", raw=text)) == expected


# The original year pattern: when no ")" follows the first "(year", the
# search tries again from every later "(year", quadratic in the entry.
_BACKTRACKING_YEAR_RE = re.compile(rf"\((?P<year>{YEAR_PATTERN})(?P<suffix>[a-z])?[^)]*\)")
_YEAR_PIECES = ["(2011", "(1999", "(2100", "a", "b", ")", "(", " ", "x", "2011", "Smith, J. ", ". "]


@given(st.lists(st.sampled_from(_YEAR_PIECES), max_size=14).map("".join))
@example("Smith, J. (2011a. Title (2012). X")
@example("[3] Smith, J. (1999b (2011) x")
@example("Smith, J. (2011 x (2012 y")
@settings(max_examples=500)
def test_year_search_matches_the_backtracking_original(text):
    entry = parse_reference_entry(text)
    found = _BACKTRACKING_YEAR_RE.search(entry.raw)
    if found is None:
        assert (entry.year, entry.year_suffix) == (None, None)
    else:
        assert (entry.year, entry.year_suffix) == (int(found["year"]), found["suffix"])
        assert entry.authors == parse_author_block(entry.raw[: found.start()])


def test_year_search_is_linear_in_entry_length():
    # Many "(year" openings and no ")" to close any of them.
    small, large = best_times(
        parse_reference_entry, "Smith, J. " + "(2011 x " * 1000, "Smith, J. " + "(2011 x " * 4000
    )
    assert large < 8 * small, (small, large)


def test_joiner_and_et_al_scans_are_linear_in_block_length():
    # A long run of spaces before a joiner, and of separators before an
    # "et al" that does not end the block.
    small, large = best_times(
        parse_author_block,
        "Smith, J." + " " * 2000 + "x and Jones",
        "Smith, J." + " " * 8000 + "x and Jones",
    )
    assert large < 8 * small, (small, large)
    small, large = best_times(
        parse_reference_entry,
        "Smith, J. " + ", " * 2000 + " et alx (2011). T.",
        "Smith, J. " + ", " * 8000 + " et alx (2011). T.",
    )
    assert large < 8 * small, (small, large)


def test_et_al_with_trailing_separators_scan_is_linear():
    # An "et al" followed by a long run of separators that does not end
    # the block.
    small, large = best_times(
        parse_reference_entry,
        "Smith, J. et al" + " .," * 2000 + "x (2011). T.",
        "Smith, J. et al" + " .," * 8000 + "x (2011). T.",
    )
    assert large < 8 * small, (small, large)
