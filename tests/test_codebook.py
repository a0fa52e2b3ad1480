"""Category registry sanity."""

from __future__ import annotations

import importlib.util
import itertools
import re
import sys
from pathlib import Path

import pytest

from citecode.codebook import (
    CATEGORIES,
    LABELS,
    UNCODABLE,
    VALUES,
    Uncodable,
    require_category,
    value_order,
)
from citecode.errors import UnknownCategory
from citecode.ingest import parse_document
from citecode.pipeline import code_corpus, read_manifest, run_pipeline
from citecode.synth import write_corpus

ROOT = Path(__file__).parents[1]


def test_every_category_has_values():
    assert tuple(VALUES) == CATEGORIES
    for category, values in VALUES.items():
        assert values
        assert all(v.startswith(category) for v in values)
        assert [v[len(category):] for v in values] == [
            str(i) for i in range(1, len(values) + 1)
        ]


def test_every_value_has_a_label():
    for values in VALUES.values():
        for value in values:
            assert LABELS[value]


def test_codebook_doc_names_every_value_with_its_label():
    text = " ".join((ROOT / "docs" / "codebook.md").read_text(encoding="utf-8").split())
    values = [value for values in VALUES.values() for value in values]
    assert len(values) == 48
    assert [value for value in values if f"{value} {LABELS[value]}" not in text] == []


def test_require_category():
    assert require_category("J") == "J"
    with pytest.raises(UnknownCategory):
        require_category("M")
    with pytest.raises(UnknownCategory):
        require_category("a")


def test_value_order_appends_uncodable():
    assert value_order("E") == ("E1", "E2", "E3", UNCODABLE)


def test_uncodable_marker_carries_reason():
    marker = Uncodable("missing-authors")
    assert marker.reason == "missing-authors"
    assert marker == Uncodable("missing-authors")
    assert marker != Uncodable("unmapped-venue")


def _documented_rules() -> dict[str, re.Pattern]:
    """Each backticked rule id of docs/codebook.md, with its regular expression.

    ``<a|b>`` is one of the alternatives, and each alternative makes an
    id of its own; any other ``<...>`` is a parameter of one or more
    characters.
    """
    text = (ROOT / "docs" / "codebook.md").read_text(encoding="utf-8")
    rules = {}
    for span in re.findall(r"`([^`]+)`", text):
        if not re.match(r"[A-L]:", span):
            continue
        # Each piece is an (id text, regex) choice; re.split leaves each
        # <...> parameter at an odd index.
        choices = []
        for index, part in enumerate(re.split(r"<([^>]*)>", span)):
            if index % 2 == 0:
                choices.append([(part, re.escape(part))])
            elif "|" in part:
                choices.append([(word, re.escape(word)) for word in part.split("|")])
            else:
                choices.append([(f"<{part}>", ".+")])
        for pieces in itertools.product(*choices):
            rules["".join(shown for shown, _ in pieces)] = re.compile(
                "".join(regex for _, regex in pieces)
            )
    return rules


# No citing authors, a [1] entry with no parseable author, an Appendix
# section, and no venue and no focus cue: B:missing, C:missing,
# D:other:<header>, H:missing and L:default, which the fixtures and the
# synth corpora never fire.
AUTHORLESS = """#META id: anon
#META authors: 1234
#SECTION Results
The effect held [1].
#SECTION Appendix
It held again [1].
#REFERENCES
[1] (2011). Untitled notes. Minerva, 2(1), 1-2.
"""


# An entry whose author block ends in "et al.": B:count=<n>+et-al, which
# the synth corpora never fire.
ET_AL = """#META id: et-al
#META authors: Doe, A.
#SECTION Results
The effect held (Smith et al., 2011).
#REFERENCES
Smith, J. et al. (2011). A title. Minerva, 2(1), 1-2.
"""


def _graph_manifest(root: Path, monkeypatch) -> Path:
    """A small corpus of perfbench's graph workload: authors from a shared pool."""
    path = ROOT / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up by name.
    monkeypatch.setitem(sys.modules, spec.name, corpus)
    spec.loader.exec_module(corpus)
    corpus.GRAPH_DOCS = 60
    return corpus.write_graph_corpus(root, seed=5).manifest


@pytest.mark.parametrize("source", ["fixtures", "text", "graph", "authorless"])
def test_every_emitted_trace_is_documented(source, corpus_result, tmp_path, monkeypatch):
    if source == "fixtures":
        records = corpus_result.records
    elif source == "text":
        manifest = write_corpus(tmp_path, 12, seed=5, sentences=25, refs=8)
        records = run_pipeline(read_manifest(manifest)).records
    elif source == "graph":
        records = run_pipeline(read_manifest(_graph_manifest(tmp_path, monkeypatch))).records
    else:
        records = code_corpus([parse_document(AUTHORLESS)]).records
        assert {"B:missing", "C:missing", "H:missing"} <= set(records[0].rule_trace)
    rules = _documented_rules().values()
    traces = {trace for record in records for trace in record.rule_trace}
    assert traces
    undocumented = sorted(t for t in traces if not any(r.fullmatch(t) for r in rules))
    assert undocumented == []


def test_every_documented_rule_fires(corpus_result, tmp_path):
    manifest = write_corpus(tmp_path, 20, seed=7)
    records = (
        corpus_result.records
        + run_pipeline(read_manifest(manifest)).records
        + code_corpus([parse_document(AUTHORLESS)]).records
        + code_corpus([parse_document(ET_AL)]).records
    )
    traces = {trace for record in records for trace in record.rule_trace}
    silent = sorted(
        rule for rule, regex in _documented_rules().items()
        if not any(regex.fullmatch(trace) for trace in traces)
    )
    assert silent == []
