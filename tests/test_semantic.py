"""Cue lexicons and the content-level coders I, J, K, L."""

from __future__ import annotations

import csv
import logging
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from citecode.codebook import Uncodable
from citecode.config import PipelineConfig
from citecode.errors import MalformedLexicon
from citecode.ingest import parse_document
from citecode.models import DocumentMetadata
from citecode.pipeline import load_resources
from citecode.semantic import (
    CueEntry,
    CueLexicon,
    LexiconSet,
    WindowCues,
    code_disposition,
    code_domain,
    code_focus,
    code_function,
    document_focus_matches,
    load_lexicons,
    load_venue_map,
    token_text,
    tokenize,
)

from cue_reference import old_match
from timing import best_times


@pytest.fixture(scope="module")
def resources():
    return load_resources(PipelineConfig())


@pytest.fixture(scope="module")
def lexicons(resources):
    return resources.lexicons


@pytest.fixture(scope="module")
def venue_map(resources):
    return resources.venue_map


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("However, Kuhn's (1962) “model” failed!") == [
        "however",
        "kuhn",
        "s",
        "1962",
        "model",
        "failed",
    ]
    assert tokenize("") == []


def test_shipped_negative_lexicon_contents(lexicons):
    phrases = {entry.phrase for entry in lexicons.negative.entries}
    assert {"however", "but", "problem", "nevertheless", "weak"} <= phrases
    assert {"suffer*", "limit*", "undermine*", "ignore*"} <= phrases


def write_lexicon(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_empty_lexicon_loads_with_warning(tmp_path, caplog):
    path = write_lexicon(tmp_path, "empty.csv", ["phrase,tag"])
    with caplog.at_level(logging.WARNING, logger="citecode.semantic"):
        lexicons = load_lexicons(path)
    for name in (*_SCANNED, "focus"):
        lexicon = getattr(lexicons, name)
        assert lexicon.name == name
        assert lexicon.entries == ()
        assert lexicon.match(token_text(tokenize("however this fails"))) == []
    assert lexicons.scan(token_text(tokenize("however this fails"))) == WindowCues([], [], [], [])
    warned = [record for record in caplog.records if "empty lexicon" in record.getMessage()]
    assert len(warned) == 1


def test_duplicate_phrase_rejected(tmp_path):
    # Phrases that tokenize alike are one cue: loading both would report
    # each hit twice.
    for first, second in [
        ("but", "but"),
        ("but", "but."),
        ("on the other hand", "on the other-hand"),
        ("suffer*", "suffer *"),
    ]:
        lines = ["phrase,tag", f"{first},negative", f"{second},negative"]
        path = write_lexicon(tmp_path, "dup.csv", lines)
        with pytest.raises(MalformedLexicon) as err:
            load_lexicons(path)
        assert "duplicate" in str(err.value)
        assert err.value.line == 3


def test_prefix_and_whole_token_are_distinct_phrases(tmp_path):
    path = write_lexicon(tmp_path, "pair.csv", ["phrase,tag", "suffer,negative", "suffer*,negative"])
    entries = load_lexicons(path).negative.entries
    assert [entry.tokens for entry in entries] == [("suffer",), ("suffer*",)]


def test_missing_header_rejected(tmp_path):
    path = write_lexicon(tmp_path, "raw.csv", ["but,negative"])
    with pytest.raises(MalformedLexicon) as err:
        load_lexicons(path)
    assert "header" in str(err.value)


def test_unknown_tag_rejected(tmp_path):
    path = write_lexicon(tmp_path, "tag.csv", ["phrase,tag", "but,sarcastic"])
    with pytest.raises(MalformedLexicon):
        load_lexicons(path)


def test_bare_wildcard_rejected(tmp_path):
    for phrase in ["*", "**", "* *"]:
        path = write_lexicon(tmp_path, "star.csv", ["phrase,tag", f"{phrase},negative"])
        with pytest.raises(MalformedLexicon) as err:
            load_lexicons(path)
        assert "bare wildcard" in str(err.value)


@pytest.mark.parametrize(
    "phrase", ["lack* of", "suff*ering", "*suffer", "* suffer*", "on the* other hand*"]
)
def test_star_before_the_phrase_end_rejected(tmp_path, phrase):
    # Tokenizing drops a * before the end: "lack* of" would load as the
    # exact phrase "lack of", and "suff*ering" as "suff ering".
    lines = ["phrase,tag", "however,negative", f"{phrase},negative"]
    path = write_lexicon(tmp_path, "star.csv", lines)
    with pytest.raises(MalformedLexicon) as err:
        load_lexicons(path)
    assert "may only end a phrase" in str(err.value)
    assert err.value.line == 3


def test_comments_and_blanks_skipped(tmp_path):
    path = write_lexicon(
        tmp_path,
        "c.csv",
        ["# sentiment cues", "phrase,tag", "", "but,negative"],
    )
    assert len(load_lexicons(path).negative.entries) == 1


_FOCUS_TAGS = ("experimental", "empirical", "theoretical")

# What one cue of each tag codes: I and J at location D1, whose prior is
# I1, or L for a document whose venue maps to no domain (prior L4).
_TAG_CODES = {
    "negative": ("I4", "J2"),
    "positive": ("I1", "J1"),
    "evidence": ("I3", "J4"),
    "framework": ("I2", "J4"),
    "experimental": "L3",
    "empirical": "L2",
    "theoretical": "L1",
}


def _codes_of(lexicons, tag, text):
    """What the cues in ``text`` code for the category ``tag`` bears on."""
    if tag in _FOCUS_TAGS:
        return code_focus(Uncodable("unmapped-venue"), lexicons.focus.match(text))[0]
    cues = lexicons.scan(text)
    return code_function(cues, "D1")[0], code_disposition(cues)[0]


@pytest.mark.parametrize("tag", list(_TAG_CODES))
def test_a_tag_picks_the_lexicon_its_phrase_joins(tmp_path, tag):
    path = write_lexicon(tmp_path, "one.csv", ["phrase,tag", f"zork,{tag}"])
    lexicons = load_lexicons(path)
    joined = "focus" if tag in _FOCUS_TAGS else tag
    assert [n for n in (*_SCANNED, "focus") if getattr(lexicons, n).entries] == [joined]
    assert _codes_of(lexicons, tag, " zork ") == _TAG_CODES[tag]


def test_a_phrase_may_join_each_lexicon_once(tmp_path):
    lines = ["phrase,tag", "confirmed,evidence", "confirmed,positive"]
    lexicons = load_lexicons(write_lexicon(tmp_path, "two.csv", lines))
    assert [entry.phrase for entry in lexicons.evidence.entries] == ["confirmed"]
    assert [entry.phrase for entry in lexicons.positive.entries] == ["confirmed"]
    cues = lexicons.scan(" confirmed ")
    assert code_function(cues, "D1") == ("I3", "I:cue:confirmed")
    assert code_disposition(cues)[0] == "J1"


def test_the_focus_tags_share_one_lexicon(tmp_path):
    lines = ["phrase,tag", "# one focus lexicon", "survey,experimental", "survey,empirical"]
    path = write_lexicon(tmp_path, "focus.csv", lines)
    with pytest.raises(MalformedLexicon) as err:
        load_lexicons(path)
    assert "duplicate phrase 'survey'" in str(err.value)
    assert err.value.line == 4


def test_background_is_an_unknown_tag(tmp_path):
    # It names no lexicon, so a phrase tagged with it would code nothing.
    path = write_lexicon(tmp_path, "bg.csv", ["phrase,tag", "but,negative", "review,background"])
    with pytest.raises(MalformedLexicon) as err:
        load_lexicons(path)
    assert "unknown tag 'background'" in str(err.value)
    assert err.value.line == 3


def _shipped_rows():
    text = PipelineConfig().lexicon.read_text(encoding="utf-8")
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    assert rows[0] == ["phrase", "tag"]
    return rows[1:]


@pytest.mark.parametrize("phrase, tag", _shipped_rows())
def test_every_shipped_row_codes_what_its_tag_names(phrase, tag, lexicons):
    # A prefix gets a continuation: suffer* is found in "suffering".
    text = token_text(tokenize(phrase.replace("*", "ing")))
    assert _codes_of(lexicons, tag, text) == _TAG_CODES[tag]


def test_match_is_whole_token(lexicons):
    assert lexicons.negative.match(token_text(tokenize("The butter melted."))) == []
    assert lexicons.negative.match(token_text(tokenize("All but one agreed."))) == [
        ("but", "negative")
    ]


def test_match_wildcard_prefix(lexicons):
    assert ("suffer*", "negative") in lexicons.negative.match(
        token_text(tokenize("These models suffer from overfitting."))
    )
    assert ("suffer*", "negative") in lexicons.negative.match(
        token_text(tokenize("Anyone suffering through this agrees."))
    )


def test_match_multi_token_phrase(lexicons):
    hits = lexicons.evidence.match(token_text(tokenize("Empirical work has shown the effect.")))
    assert ("has shown", "evidence") in hits
    assert ("empirical work", "evidence") in hits
    assert hits.index(("empirical work", "evidence")) < hits.index(("has shown", "evidence"))


def test_match_deduplicates_repeats(lexicons):
    hits = lexicons.negative.match(token_text(tokenize("but then but again but")))
    assert hits == [("but", "negative")]


def _reference_matches_at(entry, tokens, position):
    if position + len(entry.tokens) > len(tokens):
        return False
    for offset, want in enumerate(entry.tokens):
        have = tokens[position + offset]
        if entry.wildcard and offset == len(entry.tokens) - 1:
            if not have.startswith(want[:-1]):
                return False
        elif have != want:
            return False
    return True


def reference_match(lexicon, tokens):
    """The positional matcher: every entry that can start at a token tried there."""
    index = {}
    wildcard_singles = []
    for entry in lexicon.entries:
        if entry.wildcard and len(entry.tokens) == 1:
            wildcard_singles.append(entry)
        else:
            index.setdefault(entry.tokens[0], []).append(entry)
    hits = []
    seen = set()
    for position, token in enumerate(tokens):
        found = [e for e in index.get(token, []) if _reference_matches_at(e, tokens, position)]
        found += [e for e in wildcard_singles if token.startswith(e.tokens[0][:-1])]
        for entry in found:
            key = (entry.phrase, entry.tag)
            if key not in seen:
                seen.add(key)
                hits.append(key)
    return hits


def cue(phrase, tag="negative"):
    wildcard = phrase.endswith("*")
    return CueEntry(phrase=phrase, tag=tag, tokens=tuple(phrase.split()), wildcard=wildcard)


# Overlapping entries: two nested single-token wildcards, an exact token
# that both wildcards also cover, and multi-token phrases sharing a
# first token, one of them ending in a wildcard.
SYNTHETIC = CueLexicon(
    name="synthetic",
    entries=(
        cue("lim*"),
        cue("limit*", "positive"),
        cue("limit"),
        cue("limit of*", "evidence"),
        cue("limit of the"),
        cue("fail to*"),
        cue("but"),
    ),
)


def _token_strategy(lexicon):
    words = sorted({token.rstrip("*") for entry in lexicon.entries for token in entry.tokens})
    suffix = st.text(alphabet="aeinost", min_size=1, max_size=3)
    return st.one_of(
        st.sampled_from(words),
        st.builds(lambda word, tail: word + tail, st.sampled_from(words), suffix),
        st.text(alphabet="abefilmnostu", min_size=1, max_size=6),
    )


@pytest.mark.parametrize(
    "name", ["synthetic", "negative", "positive", "evidence", "framework", "focus"]
)
@given(data=st.data())
def test_match_equals_reference_scan(name, data, lexicons):
    lexicon = SYNTHETIC if name == "synthetic" else getattr(lexicons, name)
    tokens = data.draw(st.lists(_token_strategy(lexicon), max_size=30))
    assert lexicon.match(token_text(tokens)) == reference_match(lexicon, tokens)


def test_synthetic_overlaps_keep_first_hit_order():
    tokens = ["limits", "limit", "of", "theory", "limit", "of", "the", "but"]
    assert SYNTHETIC.match(token_text(tokens)) == [
        ("lim*", "negative"),
        ("limit*", "positive"),
        ("limit", "negative"),
        ("limit of*", "evidence"),
        ("limit of the", "negative"),
        ("but", "negative"),
    ]
    assert SYNTHETIC.match(token_text(tokens)) == reference_match(SYNTHETIC, tokens)


def test_lexicons_never_share_cached_candidates():
    exact = CueLexicon(name="exact", entries=(cue("but"),))
    prefix = CueLexicon(name="prefix", entries=(cue("but*", "positive"),))
    for _ in range(2):
        assert exact.match(" but butter ") == [("but", "negative")]
        assert prefix.match(" but butter ") == [("but*", "positive")]


@st.composite
def _generated_lexicon_and_tokens(draw):
    """A small lexicon and a token list over one 2- or 3-letter alphabet.

    Every token is a possible prefix of another, so exact phrases,
    prefixes and multi-token phrases overlap often. The phrases are
    unique; up to two entries are then repeated, as a directly built
    lexicon may repeat one.
    """
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    word = st.text(alphabet=alphabet, min_size=1, max_size=3)
    phrase = st.builds(
        lambda words, star: " ".join(words) + ("*" if star else ""),
        st.lists(word, min_size=1, max_size=3),
        st.booleans(),
    )
    phrases = draw(st.lists(phrase, min_size=1, max_size=6, unique=True))
    entries = [cue(p, draw(st.sampled_from(["negative", "positive"]))) for p in phrases]
    entries += draw(st.lists(st.sampled_from(entries), max_size=2))
    entries = draw(st.permutations(entries))
    tokens = draw(st.lists(word, max_size=12))
    return CueLexicon(name="generated", entries=tuple(entries)), tokens


@given(_generated_lexicon_and_tokens())
@example((CueLexicon(name="ranked", entries=(cue("a*"), cue("a"))), ["a"]))
@example((CueLexicon(name="exact", entries=(cue("ab"),)), ["abb"]))
@example((CueLexicon(name="repeated", entries=(cue("a"), cue("a"))), ["a"]))
def test_match_equals_reference_scan_on_generated_lexicons(lexicon_and_tokens):
    lexicon, tokens = lexicon_and_tokens
    assert lexicon.match(token_text(tokens)) == reference_match(lexicon, tokens)


_SCANNED = ("negative", "positive", "evidence", "framework")


def _scanned_set(name, lexicons):
    """The shipped set, or the shipped set with the synthetic lexicon in slot ``name``.

    The synthetic lexicon holds needles that no shipped one has, such as
    " lim", so a scan that skipped its slot would miss them.
    """
    return lexicons if name == "shipped" else replace(lexicons, **{name: SYNTHETIC})


def _set_token_strategy(lexicon_set):
    joined = CueLexicon(
        name="joined",
        entries=tuple(e for name in _SCANNED for e in getattr(lexicon_set, name).entries),
    )
    return _token_strategy(joined)


def _assert_scan_equals_old_matches(lexicon_set, tokens):
    expected = WindowCues(*(old_match(getattr(lexicon_set, n), tokens) for n in _SCANNED))
    assert lexicon_set.scan(token_text(tokens)) == expected


# Drawn windows range from empty, which the gate rejects, to windows
# where several lexicons hit.
@pytest.mark.parametrize("name", ["shipped", *_SCANNED])
@given(data=st.data())
def test_window_scan_equals_one_old_match_per_lexicon(name, data, lexicons):
    lexicon_set = _scanned_set(name, lexicons)
    tokens = data.draw(st.lists(_set_token_strategy(lexicon_set), max_size=12))
    _assert_scan_equals_old_matches(lexicon_set, tokens)


@pytest.mark.parametrize("name", ["shipped", *_SCANNED])
@pytest.mark.parametrize("tokens", [[], ["nothing", "cued", "here"], ["butter", "fai"]])
def test_window_scan_of_a_window_without_cues(name, tokens, lexicons):
    lexicon_set = _scanned_set(name, lexicons)
    assert lexicon_set.scan(token_text(tokens)) == WindowCues([], [], [], [])
    _assert_scan_equals_old_matches(lexicon_set, tokens)


@pytest.mark.parametrize("name", _SCANNED)
def test_window_scan_reads_each_lexicon(name, lexicons):
    # A window that holds only "lim" hits the synthetic lexicon alone.
    lexicon_set = _scanned_set(name, lexicons)
    assert getattr(lexicon_set.scan(" lim "), name) == [("lim*", "negative")]
    _assert_scan_equals_old_matches(lexicon_set, ["lim"])


@given(st.lists(st.text(alphabet=" .,;aZ9\u00e9", max_size=8), max_size=6))
@example(["", "A b.", "", " ; ", "c"])
def test_window_token_text_equals_its_sentences_tokens_joined(sentences):
    # Each sentence's tokens are joined once; a sentence without tokens
    # adds no space to the window.
    sentence_texts = [" ".join(tokenize(sentence)) for sentence in sentences]
    tokens = [token for sentence in sentences for token in tokenize(sentence)]
    assert token_text(sentence_texts) == f" {' '.join(tokens)} "


# Near misses: each word is a prefix or an extension of a negative cue
# and matches none.
_NEAR_MISSES = ("limi", "butter", "howeve", "weaker", "proble", "suffe", "buttress")


def _near_miss_window(count):
    # The one cue at the end makes every needle scan the whole window.
    return token_text(
        [_NEAR_MISSES[i % len(_NEAR_MISSES)] for i in range(count)] + ["however"]
    )


def test_match_time_is_linear_in_window_length(lexicons):
    # Quadrupling the window must cost well under the 16x of a quadratic
    # scan; 8x leaves room for timer noise.
    negative = lexicons.negative
    small, large = _near_miss_window(20_000), _near_miss_window(80_000)
    for text in (small, large):
        assert negative.match(text) == [("however", "negative")]
        assert lexicons.scan(text).negative == [("however", "negative")]
    for scan in (negative.match, lexicons.scan):
        small_time, large_time = best_times(scan, small, large)
        assert large_time < 8 * small_time, (scan, small_time, large_time)


@given(st.lists(st.text(max_size=20), max_size=6))
@example(["\u212a", "Kelvin\u212a"])
@example(["\u0130stanbul", "I\u0130"])
@example(["\u039f\u0394\u039f\u03a3", "\u03a3a"])
@example(["a\u03a3", "b"])
def test_tokenize_per_sentence_equals_joined_window(sentences):
    assert tokenize(" ".join(sentences)) == [t for s in sentences for t in tokenize(s)]


def window_cues(sentence, lexicons):
    """The one cue scan of a window that holds only ``sentence``."""
    return lexicons.scan(token_text(tokenize(sentence)))


KUHN_SENTENCE = (
    "However, Kuhn's view has been criticized for overstating consensus, "
    "but it remains a touchstone."
)


def test_disposition_negative(lexicons):
    value, matches, trace = code_disposition(window_cues(KUHN_SENTENCE, lexicons))
    assert value == "J2"
    assert ("however", "negative") in matches
    assert ("but", "negative") in matches
    assert trace == "J:cues:negative"


def test_disposition_negative_single_cue(lexicons):
    value, matches, _ = code_disposition(
        window_cues("Overfitting is a common problem in this family of models.", lexicons)
    )
    assert value == "J2"
    assert matches == [("problem", "negative")]


def test_disposition_positive(lexicons):
    value, matches, trace = code_disposition(
        window_cues("The markets predicted outcomes accurately.", lexicons)
    )
    assert value == "J1"
    assert matches == [("accurately", "positive")]
    assert trace == "J:cues:positive"


def test_disposition_mixed(lexicons):
    value, matches, trace = code_disposition(
        window_cues("This seminal study nevertheless overreached.", lexicons)
    )
    assert value == "J3"
    assert trace == "J:cues:mixed"
    assert {tag for _, tag in matches} == {"negative", "positive"}


def test_disposition_neutral(lexicons):
    value, matches, trace = code_disposition(
        window_cues("The corpus contains fifty documents.", lexicons)
    )
    assert (value, matches, trace) == ("J4", [], "J:cues:none")


def test_function_criticism_cue_wins(lexicons):
    value, trace = code_function(
        window_cues("However, empirical work has shown the framework fails.", lexicons), "D5"
    )
    assert value == "I4"
    assert trace == "I:cue:however"


def test_function_evidence_cue(lexicons):
    value, trace = code_function(
        window_cues("Empirical work has shown that interest forecasts citation.", lexicons), "D2"
    )
    assert value == "I3"
    assert trace.startswith("I:cue:")


def test_function_framework_cue(lexicons):
    value, trace = code_function(
        window_cues("We adopt the solution concept from classical game theory.", lexicons), "D5"
    )
    assert value == "I2"
    assert trace == "I:cue:solution concept"


def test_function_prior_from_location(lexicons):
    value, trace = code_function(
        window_cues("Kuhn wrote a famous book about science.", lexicons), "D2"
    )
    assert (value, trace) == ("I1", "I:prior:D2")


@pytest.mark.parametrize(
    ("location", "expected"),
    [
        ("D1", "I1"),
        ("D2", "I1"),
        ("D3", "I1"),
        ("D4", "I2"),
        ("D5", "I3"),
        ("D6", "I4"),
        ("D7", "I1"),
    ],
)
def test_function_prior_table(location, expected, lexicons):
    value, trace = code_function(window_cues("Nothing cue-like appears here.", lexicons), location)
    assert value == expected
    assert trace == f"I:prior:{location}"


def empty_lexicon_set():
    empty = CueLexicon(name="empty")
    return LexiconSet(
        negative=empty, positive=empty, evidence=empty, framework=empty, focus=empty
    )


def test_function_with_empty_lexicons_is_pure_prior():
    lexicons = empty_lexicon_set()
    for location, expected in (
        ("D1", "I1"), ("D2", "I1"), ("D3", "I1"), ("D4", "I2"),
        ("D5", "I3"), ("D6", "I4"), ("D7", "I1"),
    ):
        value, trace = code_function(window_cues(KUHN_SENTENCE, lexicons), location)
        assert value == expected
        assert trace == f"I:prior:{location}"


def test_disposition_with_empty_lexicons_is_neutral():
    value, matches, _ = code_disposition(window_cues(KUHN_SENTENCE, empty_lexicon_set()))
    assert value == "J4"
    assert matches == []


def make_meta(venue="", override=None):
    return DocumentMetadata(doc_id="d", venue_name=venue, domain_override=override)


def test_domain_from_venue_substring(venue_map):
    meta = make_meta("Journal of the American Society for Information Science")
    value, trace = code_domain(meta, venue_map)
    assert value == "K1"
    assert trace == "K:venue-match:information science"


def test_domain_life_sciences_venue(venue_map):
    value, trace = code_domain(make_meta("Cell"), venue_map)
    assert value == "K3"
    assert trace.startswith("K:venue-match:")


def test_domain_unmapped_venue(venue_map):
    value, trace = code_domain(make_meta("Annals of Improbable Research"), venue_map)
    assert isinstance(value, Uncodable)
    assert value.reason == "unmapped-venue"
    assert trace == "K:unmapped"


def test_domain_empty_venue(venue_map):
    value, _ = code_domain(make_meta(""), venue_map)
    assert isinstance(value, Uncodable)


def test_domain_override_beats_venue(venue_map):
    value, trace = code_domain(make_meta("Cell", override="K2"), venue_map)
    assert value == "K2"
    assert trace == "K:override"


def test_domain_first_match_wins(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text(
        "venue_pattern,K_value\nscience,K1\ninformation science,K4\n",
        encoding="utf-8",
    )
    venue_map = load_venue_map(path)
    value, trace = code_domain(make_meta("Information Science Annual"), venue_map)
    assert value == "K1"
    assert trace == "K:venue-match:science"


def test_venue_map_rejects_bad_value(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("venue_pattern,K_value\nscience,K9\n", encoding="utf-8")
    with pytest.raises(MalformedLexicon):
        load_venue_map(path)


def test_venue_map_requires_header(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("science,K1\n", encoding="utf-8")
    with pytest.raises(MalformedLexicon):
        load_venue_map(path)


@pytest.mark.parametrize(
    "load, header, good, bad",
    [
        (load_lexicons, "phrase,tag", "negative", "unknowntag"),
        (load_venue_map, "venue_pattern,K_value", "K1", "K9"),
    ],
    ids=["lexicon", "venue-map"],
)
@pytest.mark.parametrize(
    "layout, line",
    [
        ('{header}\n"two\nlines",{good}\nbad,{bad}\n', 4),
        ('# note\n\n{header}\n\n"three\nline\nfield",{good}\nbad,{bad}\n', 8),
        ('{header}\n"two\nlines",{good}\n"bad\nrow",{bad}\n', 4),
        # A field over csv.field_size_limit() that spans lines.
        ('{header}\n"two\nlines",{good}\n"' + "a\n" * 70_000 + '",{good}\n', 4),
    ],
    ids=[
        "after-multi-line-row", "after-comments-blanks-and-field", "multi-line-bad-row",
        "multi-line-oversized-field",
    ],
)
def test_csv_errors_name_the_line_their_row_starts_on(
    tmp_path, load, header, good, bad, layout, line
):
    path = tmp_path / "rows.csv"
    path.write_text(layout.format(header=header, good=good, bad=bad), encoding="utf-8")
    with pytest.raises(MalformedLexicon) as err:
        load(path)
    assert err.value.line == line


FOCUS_DOC = """\
#META id: focus-demo
#SECTION Method
We ran a survey and a regression. We prove the main theorem afterwards.
#REFERENCES
Smith, A. (2011). A title. Minerva, 2(1), 1-2.
"""


def test_document_focus_matches_cover_whole_body(lexicons):
    doc = parse_document(FOCUS_DOC)
    sentence_texts = [" ".join(tokenize(sentence)) for sentence in doc.sentences]
    tags = {tag for _, tag in document_focus_matches(doc, lexicons, sentence_texts)}
    assert tags == {"empirical", "theoretical"}


def test_focus_cue_order_experimental_first():
    matches = [("we prove", "theoretical"), ("experiment", "experimental")]
    value, trace = code_focus("K1", matches)
    assert value == "L3"
    assert trace == "L:cue:experiment"


def test_focus_empirical_beats_theoretical():
    matches = [("we prove", "theoretical"), ("survey", "empirical")]
    value, trace = code_focus("K2", matches)
    assert value == "L2"
    assert trace == "L:cue:survey"


def test_focus_single_cue():
    value, trace = code_focus("K1", [("theorem", "theoretical")])
    assert value == "L1"
    assert trace == "L:cue:theorem"


@pytest.mark.parametrize(
    ("domain", "expected"),
    [("K1", "L2"), ("K2", "L1"), ("K3", "L3"), ("K4", "L3")],
)
def test_focus_domain_priors(domain, expected):
    value, trace = code_focus(domain, [])
    assert value == expected
    assert trace == f"L:prior:{domain}"


def test_focus_unmapped_domain_without_cues():
    value, trace = code_focus(Uncodable("unmapped-venue"), [])
    assert value == "L4"
    assert trace == "L:default"


def test_focus_cue_rescues_unmapped_domain():
    value, trace = code_focus(Uncodable("unmapped-venue"), [("survey", "empirical")])
    assert value == "L2"
    assert trace == "L:cue:survey"


def test_coders_are_deterministic(lexicons):
    first = code_function(window_cues(KUHN_SENTENCE, lexicons), "D5")
    for _ in range(3):
        assert code_function(window_cues(KUHN_SENTENCE, lexicons), "D5") == first
