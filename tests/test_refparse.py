"""Reference-string parsing: authors, year, label, venue signals."""

from __future__ import annotations

import re
import string
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from citecode.refparse import (
    _EDITION_RE,
    _EDITOR_RE,
    _PROCEEDINGS_RE,
    _PUBLISHER_NAME_RE,
    _REPORT_RE,
    _TERMINAL_IMPRINT_RE,
    _URL_RE,
    _VOLUME_ISSUE_RE,
    SIG_PROCEEDINGS,
    SIG_PUBLISHER,
    SIG_REPORT,
    SIG_URL,
    SIG_VOLUME_ISSUE,
    derive_ref_id,
    detect_venue_signals,
    parse_author_block,
    parse_reference_entry,
)

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
    assert SIG_VOLUME_ISSUE in entry.venue_signals


def test_numeric_label_captured():
    entry = parse_reference_entry("[12] Doe, A. (2020). A short note. Kyklos, 3(1), 1-9.")
    assert entry.ref_id == "12"
    assert entry.year == 2020
    assert [a.key for a in entry.authors] == ["doe,a"]


def test_book_entry_publisher_not_volume_issue():
    entry = parse_reference_entry(KRIPPENDORFF)
    assert SIG_PUBLISHER in entry.venue_signals
    assert SIG_VOLUME_ISSUE not in entry.venue_signals


def test_proceedings_signal():
    entry = parse_reference_entry(OTHMAN)
    assert SIG_PROCEEDINGS in entry.venue_signals
    assert [a.key for a in entry.authors] == ["othman,a", "sandholm,t"]


def test_url_signal_from_retrieved_marker():
    entry = parse_reference_entry(PRIEM)
    assert SIG_URL in entry.venue_signals


def test_report_signal():
    signals = detect_venue_signals(
        "Doe, A. (2019). Annual usage. Technical Report 12, Example Labs."
    )
    assert SIG_REPORT in signals


def test_year_suffix():
    entry = parse_reference_entry("Smith, A. (2011a). First of two. Minerva, 4(4), 1-8.")
    assert entry.year == 2011
    assert entry.year_suffix == "a"


def test_missing_year_degrades_without_error():
    entry = parse_reference_entry("Anonymous pamphlet without a date. London.")
    assert entry.year is None
    assert entry.year_suffix is None


def test_plain_year_is_not_volume_issue():
    assert SIG_VOLUME_ISSUE not in detect_venue_signals("Smith, A. (1965). A title.")


def test_terminal_imprint_counts_as_publisher():
    entry = parse_reference_entry(
        "Mayr, E. (1997). This is biology. Cambridge, MA: Belknap Press."
    )
    assert SIG_PUBLISHER in entry.venue_signals


def test_author_block_with_ampersand_chain():
    authors = parse_author_block("Berg, J., Forsythe, R., Nelson, F., & Rietz, T.")
    assert [a.key for a in authors] == ["berg,j", "forsythe,r", "nelson,f", "rietz,t"]


def test_author_block_semicolon_form():
    authors = parse_author_block("Perry, M.; Bodkin, C.")
    assert [a.key for a in authors] == ["perry,m", "bodkin,c"]


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
    """The original detect_venue_signals: every pattern runs on every entry."""
    signals = set()
    if _PROCEEDINGS_RE.search(text):
        signals.add(SIG_PROCEEDINGS)
    if _VOLUME_ISSUE_RE.search(text):
        signals.add(SIG_VOLUME_ISSUE)
    if (
        _EDITION_RE.search(text)
        or _EDITOR_RE.search(text)
        or _PUBLISHER_NAME_RE.search(text)
        or _TERMINAL_IMPRINT_RE.search(text)
    ):
        signals.add(SIG_PUBLISHER)
    if _REPORT_RE.search(text):
        signals.add(SIG_REPORT)
    if _URL_RE.search(text):
        signals.add(SIG_URL)
    return frozenset(signals)


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
@settings(max_examples=500)
def test_gated_venue_signals_match_the_ungated_scan(text):
    assert detect_venue_signals(text) == reference_detect_venue_signals(text)
