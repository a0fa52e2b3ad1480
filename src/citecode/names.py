"""Author-name normalization.

Keys take the form "surname,initial" (lowercase ASCII) so that the same
person written as "Smith, John", "John Smith" or "SMITH, J." collapses
to a single key. Diacritics are folded through a fixed transliteration
table plus NFKD decomposition, keeping keys stable across platforms.
"""

from __future__ import annotations

import functools
import re
import unicodedata

from .errors import UnparseableName

# Letters that do not decompose to ASCII under NFKD, so NFKD alone would
# silently drop them. The table is deliberately small and explicit.
_TRANSLITERATION = {
    "ø": "o", "Ø": "O",    # ø Ø
    "æ": "ae", "Æ": "Ae",  # æ Æ
    "œ": "oe", "Œ": "Oe",  # œ Œ
    "ß": "ss",                  # ß
    "đ": "d", "Đ": "D",    # đ Đ
    "ð": "d", "Ð": "D",    # ð Ð
    "þ": "th", "Þ": "Th",  # þ Þ
    "ł": "l", "Ł": "L",    # ł Ł
    "ħ": "h", "Ħ": "H",    # ħ Ħ
    "ı": "i",                   # ı
    "ŋ": "ng", "Ŋ": "Ng",  # ŋ Ŋ
}

# Lowercase surname particles kept with the family name ("van Leeuwen").
_PARTICLES = {
    "van", "von", "de", "del", "della", "der", "den", "du",
    "le", "la", "ter", "da", "dos", "di", "al", "el",
}

# Tokens that are initials rather than names: "J.", "B. A.", "H-D." Only a
# letter starts a repeat, so a token that does not match fails in linear time.
_INITIALS_RE = re.compile(r"^(?:[A-Z][\s.-]*)+$")


def fold_to_ascii(text: str) -> str:
    """Fold diacritics and special letters to plain ASCII."""
    mapped = "".join(_TRANSLITERATION.get(ch, ch) for ch in text)
    decomposed = unicodedata.normalize("NFKD", mapped)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return stripped.encode("ascii", "ignore").decode("ascii")


def _clean(part: str) -> str:
    folded = fold_to_ascii(part).lower()
    folded = re.sub(r"[^a-z0-9\- ]", " ", folded)
    return " ".join(folded.split())


def _split_no_comma(tokens: list[str]) -> tuple[str, str]:
    """Split a comma-free name into (surname part, given part)."""
    # Trailing initials mark the given name: "Smith J." -> Smith / J.
    tail = len(tokens)
    while tail > 1 and _INITIALS_RE.match(tokens[tail - 1]):
        tail -= 1
    if tail < len(tokens):
        return " ".join(tokens[:tail]), " ".join(tokens[tail:])
    # Otherwise the family name is the final token, together with any
    # lowercase particles directly in front of it ("T. van Leeuwen").
    head = len(tokens) - 1
    while head > 0 and tokens[head - 1].lower() in _PARTICLES:
        head -= 1
    return " ".join(tokens[head:]), " ".join(tokens[:head])


@functools.lru_cache(maxsize=8192)
def normalize_author_key(raw: str) -> str:
    """Build the canonical "surname,initial" key for one author name.

    Raises UnparseableName when the extracted surname has no letter, so
    every key re-parses ("0A 0" would otherwise give the key "0,0").
    The key always contains exactly one comma; the initial may be empty
    when the source name carries no given name. Keys are memoized,
    since a corpus repeats a small set of names; errors are not.
    """
    text = raw.strip().strip(";").strip()
    if "," in text:
        surname_part, given_part = text.split(",", 1)
    else:
        tokens = text.split()
        surname_part, given_part = _split_no_comma(tokens)
    surname = _clean(surname_part)
    given = _clean(given_part)
    if not surname:
        # Degenerate forms like ", J." fall back to the given side.
        surname, given = given, ""
    if not any(ch.isalpha() for ch in surname):
        raise UnparseableName(f"no letter in the surname of name: {raw!r}")
    initial = given[0] if given else ""
    return f"{surname},{initial}"


def surname_of(key: str) -> str:
    """Return the surname half of a normalized key."""
    return key.split(",", 1)[0]
