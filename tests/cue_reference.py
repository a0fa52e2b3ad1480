"""The cue coders as they were before the one-scan window path.

Each lexicon joined a token list itself and matched it, and I and J
each ran their own matches, so the negative lexicon ran twice per
window. Kept as the reference the window scan and ``code_document``
must agree with.
"""

from __future__ import annotations

import re


def old_match(lexicon, tokens):
    """``CueLexicon.match`` over a token list, as it was: one regex over
    the lexicon's needles gated the search for each needle's offset."""
    text = f" {' '.join(tokens)} "
    # "(?!)" never matches: an empty alternation would match anything.
    gate = "|".join(re.escape(needle) for needle, _ in lexicon._needles) or "(?!)"
    if not re.search(gate, text):
        return []
    found = []
    for rank, (needle, key) in enumerate(lexicon._needles):
        offset = text.find(needle)
        if offset >= 0:
            found.append((offset, rank, key))
    found.sort()
    return list(dict.fromkeys(key for _, _, key in found))


def old_code_disposition(tokens, lexicons):
    negative = old_match(lexicons.negative, tokens)
    positive = old_match(lexicons.positive, tokens)
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


def old_code_function(tokens, location, lexicons):
    negative = old_match(lexicons.negative, tokens)
    if negative:
        return "I4", f"I:cue:{negative[0][0]}"
    evidence = old_match(lexicons.evidence, tokens)
    if evidence:
        return "I3", f"I:cue:{evidence[0][0]}"
    framework = old_match(lexicons.framework, tokens)
    if framework:
        return "I2", f"I:cue:{framework[0][0]}"
    return _LOCATION_PRIOR[location], f"I:prior:{location}"
