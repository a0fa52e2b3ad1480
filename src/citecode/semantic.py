"""Cue-lexicon coders for the content categories I, J, K, L.

Lexicons are CSV files (phrase,tag) holding lowercase token sequences.
Matching is whole-token: "butter" never matches the cue "but". A
trailing * turns a phrase's last token into a prefix wildcard, so
"suffer*" covers "suffering"; a * anywhere else is rejected.

Matching searches text rather than walking tokens: a lexicon turns each
entry into a literal needle (" but " for an exact phrase, " suffer" for
a prefix) and looks for it in the window's token text, its tokens joined
by single spaces with one space at each end (``token_text``). A leading
space can only match at a token's start and a trailing one at a token's
end, so a substring hit is a whole-token hit. This holds for tokens as
``tokenize`` gives them: non-empty and without spaces.

I and J read one scan of each context window: ``LexiconSet.scan`` runs
one regex over the needles of the four lexicons they draw from, and only
a window that holds some needle has each lexicon place its hits.
"""

from __future__ import annotations

import csv
import logging
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import NamedTuple

from .codebook import VALUES, Uncodable
from .errors import MalformedLexicon, _read_utf8
from .models import Document, DocumentMetadata

VALID_TAGS = (
    "negative", "positive", "evidence", "framework", "background",
    "experimental", "empirical", "theoretical",
)

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_MAX_PHRASE_TOKENS = 6


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric word tokens, punctuation discarded."""
    return _TOKEN_RE.findall(text.lower())


def token_text(parts: Iterable[str]) -> str:
    """The text cue matching searches: ``parts`` joined by single spaces,
    with one space at each end.

    ``parts`` are tokens, or sentences' tokens each already joined by
    single spaces. An empty part, a sentence without tokens, is skipped,
    so joined sentences give the text of all their tokens.
    """
    return f" {' '.join(filter(None, parts))} "


@dataclass(frozen=True)
class CueEntry:
    phrase: str
    tag: str
    tokens: tuple[str, ...]
    wildcard: bool  # last token is a prefix


@dataclass
class CueLexicon:
    """A named list of cue phrases with tags, matched over token text."""

    name: str
    entries: tuple[CueEntry, ...] = ()
    _needles: tuple[tuple[str, tuple[str, str]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Needles are ranked as hits at one token are ordered: entries
        # with an exact first token, then single-token wildcards, each
        # kind in entry order (the sort is stable).
        ranked = sorted(self.entries, key=lambda e: e.wildcard and len(e.tokens) == 1)
        self._needles = tuple(
            (_needle(entry), (entry.phrase, entry.tag)) for entry in ranked
        )

    def match(self, text: str) -> list[tuple[str, str]]:
        """All (phrase, tag) hits in first-occurrence order, deduplicated.

        ``text`` is ``token_text`` of the tokens searched. Each needle's
        first offset places its hit; hits at one token keep the needles'
        rank.
        """
        found = []
        for rank, (needle, key) in enumerate(self._needles):
            offset = text.find(needle)
            if offset >= 0:
                found.append((offset, rank, key))
        found.sort()
        return list(dict.fromkeys(key for _, _, key in found))


def _needle(entry: CueEntry) -> str:
    """The entry's tokens between spaces; a prefix leaves its end open."""
    words = " ".join(entry.tokens)
    return f" {words[:-1]}" if entry.wildcard else f" {words} "


def _build_lexicon(name: str, rows: list[tuple[str, str]], source: str) -> CueLexicon:
    entries = []
    seen_tokens = set()  # phrases that tokenize alike are one cue
    for line_no, (phrase, tag) in rows:
        phrase = phrase.strip().lower()
        tag = tag.strip().lower()
        if not phrase:
            raise MalformedLexicon(f"{source}: empty phrase", line=line_no)
        if tag not in VALID_TAGS:
            raise MalformedLexicon(f"{source}: unknown tag {tag!r}", line=line_no)
        wildcard = phrase.endswith("*")
        tokens = tuple(tokenize(phrase[:-1] if wildcard else phrase))
        if wildcard:
            if not tokens:
                raise MalformedLexicon(f"{source}: bare wildcard", line=line_no)
            tokens = tokens[:-1] + (tokens[-1] + "*",)
        if not tokens or len(tokens) > _MAX_PHRASE_TOKENS:
            raise MalformedLexicon(
                f"{source}: phrase {phrase!r} must have 1..{_MAX_PHRASE_TOKENS} tokens",
                line=line_no,
            )
        if tokens in seen_tokens:
            raise MalformedLexicon(f"{source}: duplicate phrase {phrase!r}", line=line_no)
        if "*" in phrase[:-1]:
            # Tokenizing would drop it: "lack* of" would load as "lack of".
            raise MalformedLexicon(f"{source}: * may only end a phrase: {phrase!r}", line=line_no)
        seen_tokens.add(tokens)
        entries.append(CueEntry(phrase=phrase, tag=tag, tokens=tokens, wildcard=wildcard))
    return CueLexicon(name=name, entries=tuple(entries))


def _read_csv_rows(path: Path, header: str, what: str) -> list[tuple[int, list[str]]]:
    """Data rows of a CSV file, each with the line it starts on.

    Blank rows and # comment rows are skipped. The first other row must
    be ``header`` (compared case-insensitively on its first two cells).
    """
    expected = header.lower().split(",")
    text = _read_utf8(path, what, MalformedLexicon)
    # newline=None reads "\r\n" and a lone "\r" as "\n".
    reader = csv.reader(StringIO(text, newline=None))
    parsed = []
    start = 1  # a quoted field may span lines, so rows and lines differ
    try:
        for row in reader:
            parsed.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise MalformedLexicon(f"{path.name}: {exc}", line=start) from None
    rows = []
    header_seen = False
    for line_no, row in parsed:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].lstrip().startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            if [cell.strip().lower() for cell in row[:2]] == expected:
                continue
            raise MalformedLexicon(f"{path.name}: missing {header} header", line=line_no)
        rows.append((line_no, row))
    return rows


def load_lexicon(path: str | Path, name: str | None = None) -> CueLexicon:
    """Load a phrase,tag CSV; # comment lines and blanks are skipped."""
    path = Path(path)
    rows = []
    for line_no, row in _read_csv_rows(path, "phrase,tag", f"{name or path.stem} lexicon"):
        if len(row) < 2:
            raise MalformedLexicon(f"{path.name}: expected phrase,tag", line=line_no)
        rows.append((line_no, (row[0], row[1])))
    if not rows:
        logger.warning("%s: empty lexicon", path.name)
    return _build_lexicon(name or path.stem, rows, path.name)


class WindowCues(NamedTuple):
    """One window's hits in each lexicon I and J read, as ``match`` gives them."""

    negative: list[tuple[str, str]]
    positive: list[tuple[str, str]]
    evidence: list[tuple[str, str]]
    framework: list[tuple[str, str]]


@dataclass(frozen=True)
class LexiconSet:
    """The five lexicons the content coders draw from."""

    negative: CueLexicon
    positive: CueLexicon
    evidence: CueLexicon
    framework: CueLexicon
    focus: CueLexicon
    _window_any: re.Pattern[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        needles = {
            needle
            for lexicon in (self.negative, self.positive, self.evidence, self.framework)
            for needle, _ in lexicon._needles
        }
        # "(?!)" never matches: an empty alternation would match anything.
        pattern = "|".join(re.escape(needle) for needle in sorted(needles)) or "(?!)"
        object.__setattr__(self, "_window_any", re.compile(pattern))

    def scan(self, text: str) -> WindowCues:
        """The hits of the negative, positive, evidence and framework
        lexicons in one window's ``token_text``.

        One search over all four lexicons' needles rejects a window
        without a cue; in a window with one, each lexicon places its
        hits once.
        """
        if not self._window_any.search(text):
            return WindowCues([], [], [], [])
        return WindowCues(
            self.negative.match(text),
            self.positive.match(text),
            self.evidence.match(text),
            self.framework.match(text),
        )


def code_disposition(cues: WindowCues) -> tuple[str, list[tuple[str, str]], str]:
    """Sentiment toward the cited work from the context window's cues."""
    negative, positive = cues.negative, cues.positive
    matches = negative + positive
    if negative and positive:
        return "J3", matches, "J:cues:mixed"
    if negative:
        return "J2", matches, "J:cues:negative"
    if positive:
        return "J1", matches, "J:cues:positive"
    return "J4", [], "J:cues:none"


_LOCATION_PRIOR = {
    "D1": "I1", "D2": "I1", "D3": "I1",
    "D4": "I2", "D5": "I3", "D6": "I4", "D7": "I1",
}


def code_function(cues: WindowCues, location: str) -> tuple[str, str]:
    """Why the work is cited: criticism, evidence, method, background.

    ``cues`` are the context window's hits. Cue precedence is
    criticism, then evidence, then framework; with no cue the section
    location decides.
    """
    if cues.negative:
        return "I4", f"I:cue:{cues.negative[0][0]}"
    if cues.evidence:
        return "I3", f"I:cue:{cues.evidence[0][0]}"
    if cues.framework:
        return "I2", f"I:cue:{cues.framework[0][0]}"
    return _LOCATION_PRIOR[location], f"I:prior:{location}"


def load_venue_map(path: str | Path) -> tuple[tuple[str, str], ...]:
    """Load venue_pattern,K_value rows; order defines match priority."""
    path = Path(path)
    mapping = []
    for line_no, row in _read_csv_rows(path, "venue_pattern,K_value", "venue map"):
        if len(row) < 2 or row[1].strip() not in VALUES["K"]:
            raise MalformedLexicon(f"{path.name}: expected pattern,K1..K4", line=line_no)
        pattern = row[0].strip().lower()
        if not pattern:
            # The empty string is a substring of every venue name.
            raise MalformedLexicon(f"{path.name}: empty venue pattern", line=line_no)
        mapping.append((pattern, row[1].strip()))
    return tuple(mapping)


def code_domain(
    metadata: DocumentMetadata, venue_map: tuple[tuple[str, str], ...]
) -> tuple[str | Uncodable, str]:
    """Domain of the citing document from override or venue mapping."""
    if metadata.domain_override:
        return metadata.domain_override, "K:override"
    venue = metadata.venue_name.lower()
    if venue:
        for pattern, value in venue_map:
            if pattern in venue:
                return value, f"K:venue-match:{pattern}"
    return Uncodable("unmapped-venue"), "K:unmapped"


_FOCUS_PRIORS = {"K1": "L2", "K2": "L1", "K3": "L3", "K4": "L3"}
_FOCUS_CUE_ORDER = (("experimental", "L3"), ("empirical", "L2"), ("theoretical", "L1"))


def document_focus_matches(
    doc: Document, lexicons: LexiconSet, sentence_texts: list[str]
) -> list[tuple[str, str]]:
    """Focus-cue hits over the whole document body, computed once.

    ``sentence_texts`` holds each of ``doc``'s sentences' tokens joined
    by single spaces, in order. Their ``token_text`` is the body's: no
    token crosses the space that joins two sentences.
    """
    return lexicons.focus.match(token_text(sentence_texts))


def code_focus(
    domain: str | Uncodable, focus_matches: list[tuple[str, str]]
) -> tuple[str, str]:
    """Research focus: document-level cues override the domain prior."""
    for tag, value in _FOCUS_CUE_ORDER:
        for phrase, match_tag in focus_matches:
            if match_tag == tag:
                return value, f"L:cue:{phrase}"
    if isinstance(domain, Uncodable):
        return "L4", "L:default"
    return _FOCUS_PRIORS[domain], f"L:prior:{domain}"
