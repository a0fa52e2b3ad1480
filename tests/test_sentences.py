"""Sentence segmentation and its protection rules."""

from __future__ import annotations

import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from citecode.sentences import (
    _CLOSERS,
    _OPENERS,
    _STARTERS,
    _TERMINATORS,
    _TRAILING_QUOTES,
    DEFAULT_ABBREVIATIONS,
    _collapse,
    _protected,
    load_abbreviations,
    segment_sentences,
)


def test_example_cue_and_citation_do_not_split():
    text = "Some studies (e.g., Smith, 2011) show X. Another line follows."
    assert segment_sentences(text) == [
        "Some studies (e.g., Smith, 2011) show X.",
        "Another line follows.",
    ]


def test_text_without_terminator_is_one_sentence():
    assert segment_sentences("One sentence only") == ["One sentence only"]


def test_et_al_is_protected():
    text = "Jones et al. (2010) agree. So do we."
    assert segment_sentences(text) == ["Jones et al. (2010) agree.", "So do we."]


def test_abbreviation_mid_sentence():
    text = "See Fig. 3 for details. The rest follows."
    assert segment_sentences(text) == ["See Fig. 3 for details.", "The rest follows."]


def test_period_inside_parentheses_never_splits():
    text = "The claim (see p. 7. for context) holds. Next sentence."
    assert segment_sentences(text) == [
        "The claim (see p. 7. for context) holds.",
        "Next sentence.",
    ]


def test_boundary_requires_capital_or_digit_start():
    assert segment_sentences("we stop here. and continue lowercase.") == [
        "we stop here. and continue lowercase."
    ]
    assert segment_sentences("First part. 2 more things follow.") == [
        "First part.",
        "2 more things follow.",
    ]


def test_question_and_exclamation_terminate():
    assert segment_sentences("Is it so? It is! Done.") == ["Is it so?", "It is!", "Done."]


def test_trailing_quote_stays_with_sentence():
    text = 'He called it "done." Next claim follows.'
    assert segment_sentences(text) == ['He called it "done."', "Next claim follows."]


def test_whitespace_collapses_inside_sentences():
    assert segment_sentences("A  b\tc. Next   one.") == ["A b c.", "Next one."]


def test_protection_needs_word_boundary():
    # "lap." ends in "p." but the abbreviation must not match inside a word.
    assert segment_sentences("It sat on the lap. Then it left.") == [
        "It sat on the lap.",
        "Then it left.",
    ]


def test_abbreviation_file_loader(tmp_path):
    path = tmp_path / "abbrev.txt"
    path.write_text("# comment\ne.g.\n\nqq.\n", encoding="utf-8")
    assert load_abbreviations(path) == ("e.g.", "qq.")


def test_custom_abbreviations_change_splits():
    text = "Against qq. 4 we object. Done."
    default = segment_sentences(text)
    protected = segment_sentences(text, DEFAULT_ABBREVIATIONS + ("qq.",))
    assert default == ["Against qq.", "4 we object.", "Done."]
    assert protected == ["Against qq. 4 we object.", "Done."]


@given(st.text(max_size=300))
@settings(max_examples=200)
def test_concatenation_reproduces_collapsed_input(text):
    sentences = segment_sentences(text)
    assert " ".join(sentences) == " ".join(text.split())
    assert all(s == " ".join(s.split()) for s in sentences)


@given(st.text(max_size=300))
@settings(max_examples=200)
def test_segmentation_is_deterministic(text):
    assert segment_sentences(text) == segment_sentences(text)


@given(
    st.text(
        alphabet=st.sampled_from(list("AaBb Cc.!?()[]\"'0189 eg")),
        max_size=200,
    )
)
@settings(max_examples=200)
def test_resegmenting_a_sentence_returns_it_unchanged(text):
    for sentence in segment_sentences(text):
        assert segment_sentences(sentence) == [sentence]


def _protected_whole_prefix(text, dot_index, abbreviations):
    """The quadratic original: lowercase everything up to the period."""
    prefix_low = text[: dot_index + 1].lower()
    for abbr in abbreviations:
        if prefix_low.endswith(abbr):
            before = dot_index - len(abbr)
            if before < 0 or not text[before].isalnum():
                return True
    return False


# Capital sigma lowercases to final or medial sigma by context, dotted
# capital I to two characters, and the Kelvin sign to an ASCII "k".
_LOWERING_EDGE_CASES = ["\u03a3", "\u03c2", "\u03c3", "\u0130", "\u212a"]


@given(
    text=st.text(
        alphabet=st.sampled_from(list("AaEeGgKkPp .,-1") + _LOWERING_EDGE_CASES),
        max_size=60,
    ),
    extra=st.lists(
        st.text(
            alphabet=st.sampled_from(list("aegkp.") + _LOWERING_EDGE_CASES),
            min_size=1,
            max_size=4,
        ).map(lambda a: a + "."),
        max_size=3,
    ),
)
# The sigma is final only because of the "A" before the 6-character window.
@example(text="A......\u03a3.", extra=["\u03c2."])
@settings(max_examples=300)
def test_windowed_protection_matches_whole_prefix(text, extra):
    abbrevs = tuple(a.lower() for a in DEFAULT_ABBREVIATIONS + tuple(extra))
    window = max(map(len, abbrevs))
    for index, ch in enumerate(text):
        if ch == ".":
            assert _protected(text, index, abbrevs, window) == _protected_whole_prefix(
                text, index, abbrevs
            )


def _best_time(text, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        segment_sentences(text)
        best = min(best, time.perf_counter() - started)
    return best


def test_segmentation_time_is_linear_in_paragraph_length():
    # One long paragraph where every period is checked against the
    # abbreviation list. Quadrupling it must cost well under the 16x a
    # quadratic check would; 8x leaves room for timer noise.
    unit = "Smith et al. report e.g. Fig. 3 in pp. 4-5 and more. " * 400
    small = _best_time(unit)
    large = _best_time(unit * 4)
    assert large < 8 * small, (small, large)


def reference_segment_sentences(text, abbreviations=DEFAULT_ABBREVIATIONS):
    """The per-character original of segment_sentences."""
    abbrevs = tuple(a.lower() for a in abbreviations)
    window = max(map(len, abbrevs), default=0)
    sentences = []
    start = 0
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _OPENERS:
            depth += 1
        elif ch in _CLOSERS:
            depth = max(0, depth - 1)
        elif ch in _TERMINATORS and depth == 0:
            if ch == "." and _protected(text, i, abbrevs, window):
                i += 1
                continue
            j = i
            while j + 1 < n and text[j + 1] in _TERMINATORS:
                j += 1
            k = j + 1
            while k < n and text[k] in _TRAILING_QUOTES:
                k += 1
            m = k
            while m < n and text[m].isspace():
                m += 1
            next_starts_sentence = m < n and (
                text[m].isupper() or text[m].isdigit() or text[m] in _STARTERS
            )
            if m > k and next_starts_sentence:
                piece = _collapse(text[start:k])
                if piece:
                    sentences.append(piece)
                start = m
                i = m
                continue
            i = k
            continue
        i += 1
    tail = _collapse(text[start:])
    if tail:
        sentences.append(tail)
    return sentences


# Every character the segmenter reacts to, quotes and openers that may
# start a sentence, Unicode whitespace (no-break space, line separator,
# information separator), and the letters whose lowercase is irregular.
_SEGMENTER_ALPHABET = list(
    ".!?()[]\"'’”“ \t\n\u00a0\u2028\u001f aAeEgGpPsS019,;:-"
) + _LOWERING_EDGE_CASES + ["\u0131", "\u017f"]
_SEGMENTER_WORDS = [
    "e.g.", "et al.", "Fig.", "pp.", "vs.", "No.", "(Smith, 2011)", "[3]",
    ". A", "! B", "? 1", ".\u201d C", "!) D", "] E.",
]


@given(
    pieces=st.lists(
        st.text(alphabet=st.sampled_from(_SEGMENTER_ALPHABET), max_size=8)
        | st.sampled_from(_SEGMENTER_WORDS),
        max_size=30,
    )
)
@example(pieces=["See Fig. 3 (p. 7. here) ends.", "\u2028", "\u201cNext.\u201d Done!? ", "[1] x"])
@example(pieces=["A.", "\u00a0", "\u0130t works. ", "\u03a3.", " ", "\u212a"])
@example(pieces=["It is! Done [a. B] (c! D)."])
@settings(max_examples=400)
def test_segmentation_matches_the_per_character_loop(pieces):
    text = "".join(pieces)
    assert segment_sentences(text) == reference_segment_sentences(text)
    custom = DEFAULT_ABBREVIATIONS + ("\u0131.", "s.")
    assert segment_sentences(text, custom) == reference_segment_sentences(text, custom)
