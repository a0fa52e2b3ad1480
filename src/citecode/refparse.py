"""Reference-entry parsing: label, authors and year.

The field grammar is deliberately loose. An optional leading "[n]"
label is stripped into ref_id, and the author block is whatever
precedes the first parenthesized year; a trailing "et al." there marks
the entry rather than naming an author. A missing year or an
unparseable author is tolerated; the raw string is always retained,
and the cited-work type (A) is coded from it, not parsed here.
"""

from __future__ import annotations

import re

from .errors import UnparseableName
from .models import YEAR_PATTERN, AuthorName, ReferenceEntry
from .names import _INITIALS_RE, normalize_author_key, surname_of

_LABEL_RE = re.compile(r"^\[(\d{1,4})\]\s*")
# A year is the first "(year" that some later ")" closes. When the first
# "(year" has no ")" after it, no later one has, so one search is enough.
_YEAR_RE = re.compile(rf"\((?P<year>{YEAR_PATTERN})(?P<suffix>[a-z])?")

_LEAD_SEP_RE = re.compile(r"^(?:&|and)\s+", re.IGNORECASE)
# A comma part that joins two authors without a serial comma: the
# initials that close one author, then the next author's name. Each
# start tries one space and the joiner, so the scan is linear.
_JOINED_RE = re.compile(r"(.+?)\s(?:&|and)\s+(.+)", re.IGNORECASE | re.DOTALL)
# "et al" or "et al." at the end of an author block.
_ET_AL_RE = re.compile(r"\bet al\.?\s*$")


def _author(raw: str) -> AuthorName | None:
    try:
        return AuthorName(raw=raw, key=normalize_author_key(raw))
    except UnparseableName:
        return None


def parse_author_block(block: str) -> list[AuthorName]:
    """Parse an author list written in surname-initials style.

    Handles "; "-separated lists, "&"/"and" conjunctions, and the
    comma-separated APA form where commas separate both surnames from
    initials and authors from each other. A conjunction may follow the
    initials with no comma before it, as in "Smith, J. and Jones, B.".
    """
    block = block.strip().rstrip(".,;")
    if not block:
        return []
    if ";" in block:
        authors = [_author(part) for part in block.split(";") if part.strip()]
        return [a for a in authors if a is not None]
    parts = []
    for part in block.split(","):
        part = part.strip()
        if not part:
            continue
        # Each comma part loses a leading "&" or "and" once.
        part = _LEAD_SEP_RE.sub("", part).strip()
        # "J. and Jones" closes one author with its initials and starts
        # the next; only initials split off, so "Research and
        # Development" stays whole. A joiner needs a space around it.
        if (
            " " in part
            and ("&" in part or "and" in part.lower())
            and (joined := _JOINED_RE.fullmatch(part))
            and _INITIALS_RE.match(joined.group(1))
        ):
            parts += joined.groups()
        else:
            parts.append(part)
    authors: list[AuthorName] = []
    i = 0
    while i < len(parts):
        part = parts[i]
        if not part:
            i += 1
            continue
        nxt = parts[i + 1] if i + 1 < len(parts) else ""
        if nxt and _INITIALS_RE.match(nxt):
            found = _author(f"{part}, {nxt}")
            i += 2
        else:
            found = _author(part)
            i += 1
        if found is not None:
            authors.append(found)
    return authors


def parse_reference_entry(text: str) -> ReferenceEntry:
    """Parse one bibliography entry.

    Its id is the "[n]" label it starts with, or "" when it has none;
    the caller then supplies or derives one.
    """
    raw = " ".join(text.split())
    ref_id = ""
    body = raw
    label_match = _LABEL_RE.match(body)
    if label_match:
        ref_id = label_match.group(1)
        body = body[label_match.end():]
    year = None
    suffix = None
    year_match = _YEAR_RE.search(body)
    if year_match and body.find(")", year_match.end()) >= 0:
        year = int(year_match.group("year"))
        suffix = year_match.group("suffix")
        author_block = body[: year_match.start()]
    else:
        # Best effort without a year: authors end at the first period
        # that closes an initials run or a plain word.
        author_block = body.split(". ", 1)[0] if ". " in body else ""
    # "et al." is a mark on the entry, not a name.
    et_al = "et al" in author_block and (found := _ET_AL_RE.search(author_block)) is not None
    if et_al:
        author_block = author_block[: found.start()]
    return ReferenceEntry(
        ref_id=ref_id,
        raw=body,
        authors=parse_author_block(author_block),
        year=year,
        year_suffix=suffix,
        et_al=et_al,
    )


def derive_ref_id(entry: ReferenceEntry, ordinal: int) -> str:
    """Fallback id for entries without an explicit label."""
    if entry.authors and entry.year is not None:
        surname = surname_of(entry.authors[0].key).replace(" ", "-")
        return f"{surname}-{entry.year}{entry.year_suffix or ''}"
    return f"ref-{ordinal}"
