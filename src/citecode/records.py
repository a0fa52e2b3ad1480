"""Coded citation records and their JSONL serialization.

A record carries every category slot A..L, either as a value or as an
uncodable reason, plus the cue matches and rule trace that justify the
coded values. Serialization uses a fixed key order and writes the
records in the order the caller gives them, so the same records give
the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .codebook import CATEGORIES, VALUES, Uncodable
from .errors import IncompleteCoding, MalformedInput, _read_utf8
from .models import LEVEL_CLUSTER

# What a category key of a coded line may hold: a codebook value, or
# null when the category is uncodable.
_STORED_VALUES = {category: frozenset(VALUES[category]) | {None} for category in CATEGORIES}


@dataclass
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

    def value_or_bucket(self, category: str) -> str:
        """The coded value, or the literal bucket name 'uncodable'."""
        value = self.codes.get(category)
        return value if value is not None else "uncodable"


def assemble_record(
    doc_id: str,
    citation_id: str,
    ref_id: str | None,
    link_status: str,
    sentence_index: int,
    context_level: str,
    context_sentences: tuple[int, ...],
    coded: dict[str, tuple[str | Uncodable, str | None]],
    matched_cues: list[tuple[str, str]],
) -> CodedCitation:
    """Validate and build one record from each category's (value, rule) pair.

    Every category must be present exactly once, either coded, with a
    rule that starts with "<category>:", or uncodable, with a reason.
    The rule trace is the rules that are not None, in the order of
    ``coded``.
    """
    codes: dict[str, str | None] = {}
    reasons: dict[str, str] = {}
    for category in CATEGORIES:
        if category not in coded:
            raise IncompleteCoding(f"{doc_id}/{citation_id}: category {category} missing")
        value, rule = coded[category]
        if isinstance(value, Uncodable):
            codes[category] = None
            reasons[category] = value.reason
        else:
            if value not in VALUES[category]:
                raise IncompleteCoding(
                    f"{doc_id}/{citation_id}: {value!r} is not a {category} value"
                )
            if rule is None or not rule.startswith(category + ":"):
                raise IncompleteCoding(
                    f"{doc_id}/{citation_id}: coded category {category} has no rule trace"
                )
            codes[category] = value
    extra = set(coded) - set(CATEGORIES)
    if extra:
        raise IncompleteCoding(f"{doc_id}/{citation_id}: unknown categories {sorted(extra)}")
    return CodedCitation(
        doc_id=doc_id,
        citation_id=citation_id,
        ref_id=ref_id,
        link_status=link_status,
        sentence_index=sentence_index,
        context_level=context_level,
        context_sentences=tuple(context_sentences),
        codes=codes,
        matched_cues=list(matched_cues),
        rule_trace=[rule for _, rule in coded.values() if rule is not None],
        uncodable_reasons=reasons,
    )


def record_to_json(record: CodedCitation) -> str:
    """One JSONL line with fixed key order."""
    payload: dict = {
        "doc_id": record.doc_id,
        "citation_id": record.citation_id,
        "ref_id": record.ref_id,
        "link_status": record.link_status,
        "sentence_index": record.sentence_index,
        "context_level": record.context_level,
        "context_sentences": list(record.context_sentences),
    }
    for category in CATEGORIES:
        payload[category] = record.codes.get(category)
    payload["matched_cues"] = [list(pair) for pair in record.matched_cues]
    payload["rule_trace"] = list(record.rule_trace)
    payload["uncodable_reasons"] = {
        k: record.uncodable_reasons[k] for k in sorted(record.uncodable_reasons)
    }
    return json.dumps(payload, ensure_ascii=False, separators=(", ", ": "))


def record_from_json(line: str) -> CodedCitation:
    """Parse one JSONL line; doc_id, citation_id and link_status are required.

    A missing required key raises KeyError, a line that is not a coded
    record (or a category holding a list or an object) TypeError, and
    a category value outside the codebook ValueError.
    """
    data = json.loads(line)
    for key in ("doc_id", "citation_id", "link_status"):
        if not isinstance(data[key], str):
            raise TypeError(f"{key} is not a string")
    codes = {}
    for category in CATEGORIES:
        value = data.get(category)
        if value not in _STORED_VALUES[category]:
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


def write_jsonl(records: list[CodedCitation], path: str | Path) -> None:
    """One line per record, in the caller's order; a non-empty file ends in a newline."""
    lines = [record_to_json(r) for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_json_lines(path: str | Path, what: str) -> list[str]:
    """The lines of a UTF-8 JSON Lines file; unreadable input raises MalformedInput.

    Lines end at "\n" only: JSON strings may hold the other characters
    str.splitlines() breaks on, such as U+2028 in a document id.
    """
    return _read_utf8(path, what, MalformedInput).split("\n")


def read_jsonl(path: str | Path) -> list[CodedCitation]:
    """Read coded records; a bad file or line raises MalformedInput.

    A second record for one (doc_id, citation_id) is a bad line too.
    """
    path = Path(path)
    records = []
    seen = set()
    for line_no, line in enumerate(read_json_lines(path, "coded"), start=1):
        if not line.strip():
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
        records.append(record)
    return records
