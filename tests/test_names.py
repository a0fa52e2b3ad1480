"""Author-name key normalization."""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citecode.errors import UnparseableName
from citecode.names import (
    _INITIALS_RE,
    _split_no_comma,
    fold_to_ascii,
    normalize_author_key,
    surname_of,
)
from citecode.refparse import parse_author_block

from timing import best_times


def test_diacritic_surname_folds_to_ascii():
    assert normalize_author_key("Hjørland, B.") == "hjorland,b"


def test_upper_case_and_full_given_name():
    assert normalize_author_key("SMITH, John") == "smith,j"


def test_initial_and_full_given_name_collide():
    assert normalize_author_key("Smith, J.") == normalize_author_key("Smith, John")


def test_given_name_first_without_comma():
    assert normalize_author_key("John Smith") == "smith,j"


def test_trailing_initials_without_comma():
    assert normalize_author_key("Smith J.") == "smith,j"
    assert normalize_author_key("Lipetz B. A.") == "lipetz,b"


def test_particles_stay_with_the_surname():
    assert normalize_author_key("T. van Leeuwen") == "van leeuwen,t"
    assert normalize_author_key("van Leeuwen, T.") == "van leeuwen,t"


def test_hyphenated_surname_kept():
    assert normalize_author_key("Garcia-Molina, H.") == "garcia-molina,h"


def test_surname_only():
    assert normalize_author_key("Aristotle") == "aristotle,"


def test_organization_style_name():
    # Multi-word "given" part: the last token is read as the surname.
    assert normalize_author_key("Pew Research Center Survey") == "survey,p"


def test_no_alphabetic_content_raises():
    with pytest.raises(UnparseableName):
        normalize_author_key("1234")
    with pytest.raises(UnparseableName):
        normalize_author_key("...")
    # Letters elsewhere do not count: "0" is picked as the surname, and
    # a key "0,0" would not re-parse.
    with pytest.raises(UnparseableName):
        normalize_author_key("0A 0")
    with pytest.raises(UnparseableName):
        normalize_author_key("42, John")


def test_unparseable_name_raises_on_every_call():
    # Keys are memoized; a failure must not be, or the second call
    # would return something.
    for _ in range(2):
        with pytest.raises(UnparseableName):
            normalize_author_key("0A 0")


def test_fold_special_letters():
    assert fold_to_ascii("Ølberg") == "Olberg"
    assert fold_to_ascii("Müller") == "Muller"
    assert fold_to_ascii("Łukasz") == "Lukasz"
    assert fold_to_ascii("Strauß") == "Strauss"


def test_surname_of_key():
    assert surname_of("hjorland,b") == "hjorland"
    assert surname_of("smith,") == "smith"


_name_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    max_size=40,
)


@given(_name_text)
def test_normalization_is_total_and_well_formed(raw):
    try:
        key = normalize_author_key(raw)
    except UnparseableName:
        return
    assert key.count(",") == 1
    assert key == key.lower()
    assert key.encode("ascii")
    surname, initial = key.split(",")
    assert surname
    assert len(initial) <= 1


@given(_name_text)
@example("0A 0")
def test_normalization_is_idempotent_on_rendered_keys(raw):
    try:
        key = normalize_author_key(raw)
    except UnparseableName:
        return
    surname, initial = key.split(",")
    # Comma form only: a bare multi-token surname like "Pew Research" is
    # inherently ambiguous (it re-parses as given-first or trailing-initial).
    rendered = f"{surname.title()}, {initial.upper()}." if initial else f"{surname.title()},"
    assert normalize_author_key(rendered) == key


# The original initials pattern: each period can go to "\.?" or to the
# class, so a run of initials that fails at its end tries 2^k splits.
_BACKTRACKING_INITIALS_RE = re.compile(r"^(?:[A-Z]\.?[\s.-]*)+$")


@given(st.text(alphabet=st.sampled_from(list("AJz. -\t\n")), max_size=14))
@example("A.A.A.x")
@example("H-D.")
@settings(max_examples=400)
def test_initials_pattern_matches_the_backtracking_original(token):
    assert bool(_INITIALS_RE.match(token)) == bool(_BACKTRACKING_INITIALS_RE.match(token))


def test_initials_check_is_linear_in_token_length():
    # A run of initials that fails only at its last character. Both
    # callers check it: the comma-free name split and the author block.
    def check(token):
        _split_no_comma(["Smith", token])
        parse_author_block("Smith, " + token)

    small, large = best_times(check, "A." * 5 + "x", "A." * 20 + "x")
    assert large < 8 * small, (small, large)
