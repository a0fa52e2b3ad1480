"""Coded citation records and their JSONL serialization.

A record carries every category slot A..L, either as a value or as an
uncodable reason, plus the cue matches and rule trace that justify the
coded values. Serialization writes each line straight from the
record's fields, in a fixed key order and with the bytes of
``json.JSONEncoder(ensure_ascii=False, separators=(", ", ": "))``; a
field of a type the record does not declare raises rather than being
written some other way. Records are written in the order the caller
gives them, so the same records give the same bytes.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .codebook import CATEGORIES, VALUES, Uncodable
from .errors import MalformedInput, _read_utf8
from .models import LEVEL_CLUSTER, CitationContext, InTextCitation

# Each category with what its key in a coded line may hold: a codebook
# value, or null when the category is uncodable. Each maps to the
# codebook's own string, so read records share the twelve values in
# place of holding a decoded copy each. A tuple of pairs, so a read line
# walks it without making a view.
_STORED_VALUES = tuple(
    (category, {value: value for value in VALUES[category]} | {None: None})
    for category in CATEGORIES
)

# Each category with its codebook values and the prefix its rule needs.
_CHECKS = tuple((category, VALUES[category], f"{category}:") for category in CATEGORIES)

# The string escaper json.JSONEncoder(ensure_ascii=False) writes with;
# it raises TypeError for anything but a str.
_escape = json.encoder.encode_basestring
_scan_once = json.JSONDecoder().scan_once


@dataclass(slots=True)
class CodedCitation:
    doc_id: str
    citation_id: str
    ref_id: str | None
    link_status: str
    sentence_index: int
    context_level: str
    context_sentences: tuple[int, ...]
    codes: dict[str, str | None]
    matched_cues: list[tuple[str, str]] = field(default_factory=list)
    rule_trace: list[str] = field(default_factory=list)
    uncodable_reasons: dict[str, str] = field(default_factory=dict)


def assemble_record(
    doc_id: str,
    citation: InTextCitation,
    context: CitationContext,
    coded: dict[str, tuple[str | Uncodable, str | None]],
    matched_cues: list[tuple[str, str]],
) -> CodedCitation:
    """Validate and build one record from each category's (value, rule) pair.

    The citation gives the record's ids, link status and sentence, the
    context its window. Every category must be present exactly once,
    either coded, with a rule that starts with "<category>:", or
    uncodable, with a reason. The rule trace is the rules that are not
    None, in the order of ``coded``.
    """
    citation_id = citation.citation_id
    codes: dict[str, str | None] = {}
    reasons: dict[str, str] = {}
    for category, values, prefix in _CHECKS:
        if category not in coded:
            raise ValueError(f"{doc_id}/{citation_id}: category {category} missing")
        value, rule = coded[category]
        if isinstance(value, Uncodable):
            codes[category] = None
            reasons[category] = value.reason
        else:
            if value not in values:
                raise ValueError(
                    f"{doc_id}/{citation_id}: {value!r} is not a {category} value"
                )
            if rule is None or not rule.startswith(prefix):
                raise ValueError(
                    f"{doc_id}/{citation_id}: coded category {category} has no rule trace"
                )
            codes[category] = value
    if len(coded) > len(CATEGORIES):
        # Every category is present, so only extra keys make it longer.
        extra = sorted(set(coded) - set(CATEGORIES))
        raise ValueError(f"{doc_id}/{citation_id}: unknown categories {extra}")
    return CodedCitation(
        doc_id=doc_id,
        citation_id=citation_id,
        ref_id=citation.ref_id,
        link_status=citation.link_status,
        sentence_index=citation.sentence_index,
        context_level=context.level,
        context_sentences=context.sentence_indices,
        codes=codes,
        matched_cues=list(matched_cues),
        rule_trace=[rule for _, rule in coded.values() if rule is not None],
        uncodable_reasons=reasons,
    )


def _array(items: list | tuple, write) -> str:
    if not isinstance(items, (list, tuple)):
        raise TypeError(f"a list or tuple was expected, not {type(items).__name__}")
    return f"[{', '.join(map(write, items))}]"


def _int(value: int) -> str:
    if type(value) is not int:
        raise TypeError(f"an int was expected, not {type(value).__name__}")
    return str(value)


def _strings(items: list | tuple) -> str:
    return _array(items, _escape)


def record_to_json(record: CodedCitation) -> str:
    """One JSONL line with fixed key order, in the bytes the encoder writes.

    Each field must hold what the record declares: strings, None for
    ``ref_id`` and uncodable categories, ints that are not bools, lists
    or tuples, and a dict of strings. Anything else raises TypeError
    rather than being written some other way; the encoder, for one,
    would write a bool ``sentence_index`` as true.
    """
    codes = record.codes
    reasons = record.uncodable_reasons
    if not isinstance(reasons, dict):
        raise TypeError(f"a dict was expected, not {type(reasons).__name__}")
    categories = ", ".join([
        f'"{category}": {"null" if (value := codes.get(category)) is None else _escape(value)}'
        for category in CATEGORIES
    ])
    reasons_text = ", ".join(
        [f"{_escape(key)}: {_escape(reasons[key])}" for key in sorted(reasons)]
    )
    return (
        f'{{"doc_id": {_escape(record.doc_id)}, "citation_id": {_escape(record.citation_id)}, '
        f'"ref_id": {"null" if record.ref_id is None else _escape(record.ref_id)}, '
        f'"link_status": {_escape(record.link_status)}, '
        f'"sentence_index": {_int(record.sentence_index)}, '
        f'"context_level": {_escape(record.context_level)}, '
        f'"context_sentences": {_array(record.context_sentences, _int)}, {categories}, '
        f'"matched_cues": {_array(record.matched_cues, _strings)}, '
        f'"rule_trace": {_strings(record.rule_trace)}, '
        f'"uncodable_reasons": {{{reasons_text}}}}}'
    )


def decode_line(line: str):
    """The value of one JSON text, exactly as ``json.loads`` gives it.

    The decoder's scanner reads a line that holds one JSON value and
    nothing else. Any other line, such as one with a byte-order mark,
    surrounding whitespace or bad JSON, goes to ``json.loads``, so its
    value or its JSONDecodeError is the one ``json.loads`` gives, except
    that a value nested too deeply, or an integer of more digits than
    int reads, raises JSONDecodeError, not RecursionError or ValueError.
    """
    try:
        try:
            value, end = _scan_once(line, 0)
        except (StopIteration, ValueError):
            return json.loads(line)
        return value if end == len(line) else json.loads(line)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", line, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise json.JSONDecodeError(str(exc), line, 0) from None


def record_from_json(line: str) -> CodedCitation:
    """Parse one JSONL line; doc_id, citation_id and link_status are required.

    A missing required key raises KeyError, a line that is not a coded
    record (or a category holding a list or an object) TypeError, and
    a category value outside the codebook ValueError. The checks run in
    key order, so a line with several faults raises for the first.
    """
    data = decode_line(line)
    for key in ("doc_id", "citation_id", "link_status"):
        if not isinstance(data[key], str):
            raise TypeError(f"{key} is not a string")
    get = data.get
    try:
        codes = {category: stored[get(category)] for category, stored in _STORED_VALUES}
    except KeyError:
        # Some value is outside the codebook: name the first.
        for category, stored in _STORED_VALUES:
            if (value := get(category)) not in stored:
                raise ValueError(f"{value!r} is not a {category} value") from None
    trace = get("rule_trace", [])
    reasons = get("uncodable_reasons", {})
    # Positional, in field order: doc_id, citation_id, ref_id,
    # link_status, sentence_index, context_level, context_sentences,
    # codes, matched_cues, rule_trace, uncodable_reasons.
    return CodedCitation(
        data["doc_id"],
        data["citation_id"],
        get("ref_id"),
        data["link_status"],
        get("sentence_index", 0),
        get("context_level", LEVEL_CLUSTER),
        tuple(get("context_sentences", ())),
        codes,
        [tuple(pair) for pair in get("matched_cues", [])],
        # A decoded list or object is already what the record stores.
        trace if type(trace) is list else list(trace),
        reasons if type(reasons) is dict else dict(reasons),
    )


def write_jsonl(records: list[CodedCitation], path: str | Path) -> None:
    """One line per record, in the caller's order; a non-empty file ends in a newline.

    Each line goes to the open file as it is made, so the whole text is
    never held at once.
    """
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(f"{record_to_json(record)}\n" for record in records)


def read_json_lines(path: str | Path, what: str) -> list[str]:
    """The lines of a UTF-8 JSON Lines file; unreadable input raises MalformedInput.

    Lines end at "\n" only: JSON strings may hold the other characters
    str.splitlines() breaks on, such as U+2028 in a document id.
    """
    return _read_utf8(path, what, MalformedInput, lf_only=True).split("\n")


def read_jsonl(path: str | Path) -> Iterator[CodedCitation]:
    """Yield coded records in file order; a bad file or line raises MalformedInput.

    The file is read when the first record is asked for, and each line
    is checked as its record is yielded; a repeated (doc_id,
    citation_id) is a bad line too.
    """
    path = Path(path)
    seen = set()
    for line_no, line in enumerate(read_json_lines(path, "coded"), start=1):
        # The same test as "not line.strip()", without copying the line.
        if not line or line.isspace():
            continue
        try:
            record = record_from_json(line)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"{path.name}: bad JSON ({exc})", line=line_no) from None
        except KeyError as exc:
            raise MalformedInput(f"{path.name}: record has no {exc}", line=line_no) from None
        except TypeError:
            raise MalformedInput(f"{path.name}: not a coded record", line=line_no) from None
        except ValueError as exc:
            raise MalformedInput(f"{path.name}: {exc}", line=line_no) from None
        key = (record.doc_id, record.citation_id)
        if key in seen:
            raise MalformedInput(
                f"{path.name}: duplicate record {key[0]}/{key[1]}", line=line_no
            )
        seen.add(key)
        yield record
