"""Record validation and byte-stable JSONL serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citecode.codebook import CATEGORIES, VALUES, Uncodable
from citecode.errors import CitecodeError
from citecode.models import (
    LEVEL_CLUSTER, STYLE_PARENTHETICAL, CitationContext, InTextCitation,
)
from citecode.records import (
    CodedCitation,
    assemble_record,
    decode_line,
    read_jsonl,
    record_from_json,
    record_to_json,
    write_jsonl,
)

FULL_SLOTS = {
    "A": "A1", "B": "B1", "C": "C2", "D": "D2", "E": "E1", "F": "F1",
    "G": "G1", "H": "H2", "I": "I1", "J": "J4", "K": "K1", "L": "L2",
}
FULL_RULES = {cat: f"{cat}:rule" for cat in CATEGORIES}


def build(slots=None, rules=None, doc_id="doc-1", matched_cues=(("but", "negative"),),
          **citation_fields):
    """One record; slots and rules override the full coding's values and rules.

    ``citation_fields`` override the citation's id, ref_id, link status
    and sentence index.
    """
    slots = FULL_SLOTS if slots is None else slots
    rules = {**FULL_RULES, **(rules or {})}
    citation = InTextCitation(**{
        "citation_id": "c0001",
        "ref_id": "smith-2011",
        "link_status": "resolved",
        "sentence_index": 4,
        "char_span": (0, 13),
        "marker_style": STYLE_PARENTHETICAL,
        **citation_fields,
    })
    context = CitationContext(level="sentence_cluster", sentence_indices=(3, 4, 5))
    coded = {cat: (value, rules.get(cat)) for cat, value in slots.items()}
    return assemble_record(doc_id, citation, context, coded, list(matched_cues))


def test_assemble_keeps_all_twelve_slots():
    record = build()
    assert set(record.codes) == set(CATEGORIES)
    assert record.codes["A"] == "A1"
    assert record.uncodable_reasons == {}
    assert record.rule_trace == list(FULL_RULES.values())


def test_assemble_uncodable_slot():
    slots = dict(FULL_SLOTS)
    slots["K"] = Uncodable("unmapped-venue")
    record = build(slots=slots)
    assert record.codes["K"] is None
    assert record.uncodable_reasons == {"K": "unmapped-venue"}


def test_assemble_missing_category():
    slots = dict(FULL_SLOTS)
    del slots["D"]
    with pytest.raises(ValueError, match="^doc-1/c0001: category D missing$") as err:
        build(slots=slots)
    assert not isinstance(err.value, CitecodeError)


def test_assemble_extra_category():
    slots = dict(FULL_SLOTS)
    slots["Z"] = "Z1"
    with pytest.raises(ValueError, match=r"^doc-1/c0001: unknown categories \['Z'\]$") as err:
        build(slots=slots)
    assert not isinstance(err.value, CitecodeError)


@pytest.mark.parametrize("j_trace", ["J", "JX:cue", "I:J:cue"])
def test_assemble_trace_entry_must_start_with_category_and_colon(j_trace):
    with pytest.raises(ValueError, match="^doc-1/c0001: coded category J has no rule trace$") as err:
        build(rules={"J": j_trace})
    assert not isinstance(err.value, CitecodeError)


def test_assemble_invalid_value():
    slots = dict(FULL_SLOTS)
    slots["E"] = "E9"
    with pytest.raises(ValueError, match="^doc-1/c0001: 'E9' is not a E value$") as err:
        build(slots=slots)
    assert not isinstance(err.value, CitecodeError)


def test_assemble_value_from_wrong_category():
    slots = dict(FULL_SLOTS)
    slots["E"] = "D1"
    with pytest.raises(ValueError, match="^doc-1/c0001: 'D1' is not a E value$") as err:
        build(slots=slots)
    assert not isinstance(err.value, CitecodeError)


def test_assemble_coded_value_requires_trace():
    with pytest.raises(ValueError, match="^doc-1/c0001: coded category J has no rule trace$") as err:
        build(rules={"J": None})
    assert not isinstance(err.value, CitecodeError)


def test_assemble_uncodable_needs_no_trace():
    slots = dict(FULL_SLOTS)
    slots["K"] = Uncodable("unmapped-venue")
    record = build(slots=slots, rules={"K": None})
    assert record.codes["K"] is None
    assert record.rule_trace == [rule for cat, rule in FULL_RULES.items() if cat != "K"]


def test_json_line_key_order():
    line = record_to_json(build())
    keys = list(json.loads(line).keys())
    assert keys == [
        "doc_id", "citation_id", "ref_id", "link_status", "sentence_index",
        "context_level", "context_sentences",
        *CATEGORIES,
        "matched_cues", "rule_trace", "uncodable_reasons",
    ]
    assert line.startswith('{"doc_id": "doc-1", "citation_id": "c0001"')


def test_json_round_trip():
    record = build()
    again = record_from_json(record_to_json(record))
    assert again == record


def test_json_round_trip_with_uncodable():
    slots = dict(FULL_SLOTS)
    slots["A"] = Uncodable("unresolved-reference")
    record = build(slots=slots, ref_id=None, link_status="unresolved")
    again = record_from_json(record_to_json(record))
    assert again.codes["A"] is None
    assert again.uncodable_reasons == {"A": "unresolved-reference"}
    assert again == record


def _slot_strategy(category):
    values = [*VALUES[category], Uncodable("missing-authors")]
    return st.sampled_from(values)


record_strategy = st.fixed_dictionaries({cat: _slot_strategy(cat) for cat in CATEGORIES})


@given(slots=record_strategy, sentence_index=st.integers(min_value=0, max_value=500))
@settings(max_examples=150)
def test_round_trip_over_random_slots(slots, sentence_index):
    record = build(slots=slots, sentence_index=sentence_index)
    again = record_from_json(record_to_json(record))
    assert again == record
    # Serialization itself must be stable, not merely equal.
    assert record_to_json(again) == record_to_json(record)


def test_write_jsonl_keeps_the_given_order_and_terminates(tmp_path):
    records = [
        build(doc_id="zeta", citation_id="c0001"),
        build(doc_id="alpha", citation_id="c0002"),
        build(doc_id="alpha", citation_id="c0001"),
    ]
    path = tmp_path / "coded.jsonl"
    write_jsonl(records, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    lines = text.splitlines()
    assert [json.loads(l)["doc_id"] for l in lines] == ["zeta", "alpha", "alpha"]
    assert [json.loads(l)["citation_id"] for l in lines] == ["c0001", "c0002", "c0001"]


def test_write_jsonl_is_byte_deterministic(tmp_path):
    records = [build(citation_id=f"c{i:04d}") for i in range(5, 0, -1)]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_jsonl(records, a)
    write_jsonl(read_jsonl(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_write_jsonl_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_jsonl([], path)
    assert path.read_text(encoding="utf-8") == ""
    assert list(read_jsonl(path)) == []


def test_read_jsonl_skips_blank_lines(tmp_path):
    record = build()
    path = tmp_path / "coded.jsonl"
    path.write_text(record_to_json(record) + "\n\n\n", encoding="utf-8")
    assert list(read_jsonl(path)) == [record]


def test_read_records_hold_the_codebook_strings(tmp_path):
    path = tmp_path / "coded.jsonl"
    write_jsonl([build(), build(citation_id="c0002")], path)
    codebook = {id(value) for values in VALUES.values() for value in values}
    for record in read_jsonl(path):
        assert all(id(value) in codebook for value in record.codes.values())


# -- the previous reader, kept as the reference for the one-pass reader --

_REFERENCE_STORED = {category: frozenset(VALUES[category]) | {None} for category in CATEGORIES}


def reference_record_from_json(line):
    data = json.loads(line)
    for key in ("doc_id", "citation_id", "link_status"):
        if not isinstance(data[key], str):
            raise TypeError(f"{key} is not a string")
    codes = {}
    for category in CATEGORIES:
        value = data.get(category)
        if value not in _REFERENCE_STORED[category]:
            raise ValueError(f"{value!r} is not a {category} value")
        codes[category] = value
    return CodedCitation(
        doc_id=data["doc_id"],
        citation_id=data["citation_id"],
        ref_id=data.get("ref_id"),
        link_status=data["link_status"],
        sentence_index=data.get("sentence_index", 0),
        context_level=data.get("context_level", LEVEL_CLUSTER),
        context_sentences=tuple(data.get("context_sentences", ())),
        codes=codes,
        matched_cues=[tuple(pair) for pair in data.get("matched_cues", [])],
        rule_trace=list(data.get("rule_trace", [])),
        uncodable_reasons=dict(data.get("uncodable_reasons", {})),
    )


def outcome(function, *args):
    """What a call gives: its value's repr (NaN equals itself there), or its error."""
    try:
        return "value", repr(function(*args))
    except Exception as exc:  # the comparison is the point
        return "error", type(exc), str(exc)


_CODE_VALUES = [value for category in CATEGORIES for value in VALUES[category]]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.just(1.5),
    st.just(float("nan")),
    st.sampled_from(["", "ab", "ab c", "resolved", "uncodable", *_CODE_VALUES]),
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["A", "J", "ab", "x"]), inner, max_size=3),
    ),
    max_leaves=6,
)
_DROP = object()
_CONTAINER_KEYS = ["matched_cues", "rule_trace", "uncodable_reasons", "context_sentences"]
_RECORD_KEYS = list(json.loads(record_to_json(build())))
# Every container key gets a string, a list or an int; any key may go,
# or get any small JSON value.
_MUTATIONS = st.one_of(
    st.tuples(
        st.sampled_from(_CONTAINER_KEYS),
        st.one_of(st.text(alphabet="ab c", max_size=4), st.lists(_JSON_VALUES, max_size=3),
                  st.integers(-2, 2)),
    ),
    st.tuples(st.sampled_from([*_RECORD_KEYS, "extra"]), _JSON_VALUES),
    st.sampled_from(_RECORD_KEYS).map(lambda key: (key, _DROP)),
)


@given(
    slots=record_strategy,
    mutations=st.lists(_MUTATIONS, max_size=3),
    whole=st.one_of(st.none(), _JSON_VALUES),
)
@settings(max_examples=400, deadline=None)
def test_record_from_json_matches_the_reference(slots, mutations, whole):
    payload = json.loads(record_to_json(build(
        slots=slots,
        matched_cues=[("but", "negative"), ("however", "negative")],
    )))
    for key, value in mutations:
        if value is _DROP:
            payload.pop(key, None)
        else:
            payload[key] = value
    line = json.dumps(payload if whole is None else whole)
    assert outcome(record_from_json, line) == outcome(reference_record_from_json, line)


def _damaged(value, cut, before, after):
    text = json.dumps(value)
    return before + (text if cut is None else text[:cut]) + after


# A JSON text with a byte-order mark or whitespace before it, whitespace,
# "\r" or more text after it, or cut short; or any short run of JSON's
# characters.
_RAW_LINES = st.one_of(
    st.builds(
        _damaged,
        _JSON_VALUES,
        st.none() | st.integers(0, 40),
        st.sampled_from(["", "\ufeff", " ", "\t", "\r", "\ufeff "]),
        st.sampled_from(["", " ", "\r", "\t\r", "x", "]", ", 1", "NaN"]),
    ),
    st.text(alphabet='{}[]",:0123456789.eE+- \ufeff\r\tnulltrueNaInfiy', max_size=12),
)


def loads_with_decode_errors(line):
    """json.loads, except that an integer past int's digit limit is bad JSON."""
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise json.JSONDecodeError(str(exc), line, 0) from None


@given(line=_RAW_LINES)
@settings(max_examples=600, deadline=None)
@example(line="")
@example(line="[1")
@example(line='{"A": 1.5} 2')
@example(line=" null")
@example(line="9" * 5000)
@example(line='{"A": ' + "9" * 5000 + "} ")
def test_decode_line_matches_json_loads(line):
    assert outcome(decode_line, line) == outcome(loads_with_decode_errors, line)


# -- the payload-and-encoder writer, kept as the reference for record_to_json --

_REFERENCE_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(", ", ": "))


def reference_record_to_json(record):
    payload = {
        "doc_id": record.doc_id,
        "citation_id": record.citation_id,
        "ref_id": record.ref_id,
        "link_status": record.link_status,
        "sentence_index": record.sentence_index,
        "context_level": record.context_level,
        "context_sentences": record.context_sentences,
    }
    for category in CATEGORIES:
        payload[category] = record.codes.get(category)
    payload["matched_cues"] = record.matched_cues
    payload["rule_trace"] = record.rule_trace
    payload["uncodable_reasons"] = {
        k: record.uncodable_reasons[k] for k in sorted(record.uncodable_reasons)
    }
    return _REFERENCE_ENCODER.encode(payload)


# Quotes, backslashes, control characters, the two line separators JSON
# leaves unescaped, a non-BMP character, and any other character.
_TRICKY = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\u2029",
                           "\U0001f600", "\u00e9", "a"])
_STRINGS = st.text(alphabet=_TRICKY | st.characters(), max_size=8)


@st.composite
def _reasons(draw):
    """Uncodable reasons, their keys in any order."""
    pairs = draw(st.lists(st.tuples(_STRINGS, _STRINGS), max_size=4, unique_by=lambda p: p[0]))
    return dict(draw(st.permutations(pairs)))


_RECORDS = st.builds(
    CodedCitation,
    doc_id=_STRINGS,
    citation_id=_STRINGS,
    ref_id=st.none() | _STRINGS,
    link_status=_STRINGS,
    sentence_index=st.integers(),
    context_level=_STRINGS,
    context_sentences=st.lists(st.integers(), max_size=5).map(tuple),
    codes=st.dictionaries(st.sampled_from(CATEGORIES), st.none() | _STRINGS),
    matched_cues=st.lists(st.tuples(_STRINGS, _STRINGS), max_size=3),
    rule_trace=st.lists(_STRINGS, max_size=4),
    uncodable_reasons=_reasons(),
)


@given(record=_RECORDS)
@example(record=build())
@example(record=build(slots={**FULL_SLOTS, "A": Uncodable("x")}, ref_id=None, matched_cues=()))
@settings(max_examples=300)
def test_record_to_json_writes_the_encoders_bytes(record):
    assert record_to_json(record) == reference_record_to_json(record)


@pytest.mark.parametrize(
    "field, value",
    [
        # The encoder would write true, and int's repr 1.
        ("sentence_index", True),
        ("sentence_index", 4.0),
        ("context_sentences", (3, True)),
        ("context_sentences", (3, 4.5)),
        ("context_sentences", iter((3, 4))),
        ("doc_id", 7),
        ("ref_id", 7),
        ("codes", {"A": 1}),
        ("matched_cues", ["ab"]),
        ("matched_cues", [("but", None)]),
        ("rule_trace", "A:rule"),
        ("rule_trace", ["A:rule", None]),
        ("uncodable_reasons", {"A": None}),
        ("uncodable_reasons", {1: "x"}),
        ("uncodable_reasons", [("A", "x")]),
    ],
)
def test_record_to_json_raises_on_an_undeclared_type(field, value):
    record = build()
    setattr(record, field, value)
    with pytest.raises(TypeError):
        record_to_json(record)
