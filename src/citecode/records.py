"""Coded citation records and their JSONL serialization.

A record carries every category slot A..L, either as a value or as an
uncodable reason, plus the cue matches and rule trace that justify the
coded values. Serialization uses a fixed key order and sorted records
so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .codebook import CATEGORIES, VALUES, Uncodable
from .errors import IncompleteCoding, MalformedInput

# What a category key of a coded line may hold: a codebook value, or
# null when the category is uncodable.
_STORED_VALUES = {category: frozenset(VALUES[category]) | {None} for category in CATEGORIES}

_FIXED_FIELDS = (
    "doc_id", "citation_id", "ref_id", "link_status", "sentence_index",
    "context_level", "context_sentences",
)


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
    slots: dict[str, str | Uncodable],
    matched_cues: list[tuple[str, str]],
    rule_trace: list[str],
) -> CodedCitation:
    """Validate and build one record.

    Every category must be present exactly once, either coded (with a
    matching trace entry) or uncodable (with a reason).
    """
    codes: dict[str, str | None] = {}
    reasons: dict[str, str] = {}
    # Categories with a trace entry: the text before an entry's first colon.
    traced = {t.partition(":")[0] for t in rule_trace if ":" in t}
    for category in CATEGORIES:
        if category not in slots:
            raise IncompleteCoding(f"{doc_id}/{citation_id}: category {category} missing")
        value = slots[category]
        if isinstance(value, Uncodable):
            codes[category] = None
            reasons[category] = value.reason
        else:
            if value not in VALUES[category]:
                raise IncompleteCoding(
                    f"{doc_id}/{citation_id}: {value!r} is not a {category} value"
                )
            if category not in traced:
                raise IncompleteCoding(
                    f"{doc_id}/{citation_id}: coded category {category} has no rule trace"
                )
            codes[category] = value
    extra = set(slots) - set(CATEGORIES)
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
        rule_trace=list(rule_trace),
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
        context_level=data.get("context_level", "sentence_cluster"),
        context_sentences=tuple(data.get("context_sentences", ())),
        codes=codes,
        matched_cues=[tuple(pair) for pair in data.get("matched_cues", [])],
        rule_trace=list(data.get("rule_trace", [])),
        uncodable_reasons=dict(data.get("uncodable_reasons", {})),
    )


def sort_records(records: list[CodedCitation]) -> list[CodedCitation]:
    """By document, then citation ids in reading order (c9999 before c10000)."""
    return sorted(records, key=lambda r: (r.doc_id, len(r.citation_id), r.citation_id))


def write_jsonl(records: list[CodedCitation], path: str | Path) -> None:
    lines = [record_to_json(r) for r in sort_records(records)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_json_lines(path: str | Path, what: str) -> list[str]:
    """The lines of a UTF-8 JSON Lines file; unreadable input raises MalformedInput.

    Lines end at "\n" only: JSON strings may hold the other characters
    str.splitlines() breaks on, such as U+2028 in a document id.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise MalformedInput(f"cannot read {what} file {path}: {exc}") from None
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedInput(f"{what} file is not UTF-8 ({exc.reason})", line=line) from None


def read_jsonl(path: str | Path) -> list[CodedCitation]:
    """Read coded records; a bad file or line raises MalformedInput."""
    path = Path(path)
    records = []
    for line_no, line in enumerate(read_json_lines(path, "coded"), start=1):
        if not line.strip():
            continue
        try:
            records.append(record_from_json(line))
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"{path.name}: bad JSON ({exc})", line=line_no) from None
        except KeyError as exc:
            raise MalformedInput(f"{path.name}: record has no {exc}", line=line_no) from None
        except TypeError:
            raise MalformedInput(f"{path.name}: not a coded record", line=line_no) from None
        except ValueError as exc:
            raise MalformedInput(f"{path.name}: {exc}", line=line_no) from None
    return records
