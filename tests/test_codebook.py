"""Category registry sanity."""

from __future__ import annotations

import importlib.util
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


def _documented_rules() -> list[re.Pattern]:
    """Each backticked rule of docs/codebook.md as a regular expression.

    ``<a|b>`` is one of the alternatives, any other ``<...>`` any
    parameter.
    """
    text = (ROOT / "docs" / "codebook.md").read_text(encoding="utf-8")
    rules = []
    for span in re.findall(r"`([^`]+)`", text):
        if not re.match(r"[A-L]:", span):
            continue
        regex = ""
        # re.split leaves each <...> parameter at an odd index.
        for index, part in enumerate(re.split(r"<([^>]*)>", span)):
            if index % 2 == 0:
                regex += re.escape(part)
            elif "|" in part:
                regex += "(?:" + "|".join(map(re.escape, part.split("|"))) + ")"
            else:
                regex += ".+"
        rules.append(re.compile(regex))
    return rules


AUTHORLESS = """#META id: anon
#META authors: 1234
#SECTION Results
The effect held [1].
#REFERENCES
[1] (2011). Untitled notes. Minerva, 2(1), 1-2.
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
    rules = _documented_rules()
    traces = {trace for record in records for trace in record.rule_trace}
    assert traces
    undocumented = sorted(t for t in traces if not any(r.fullmatch(t) for r in rules))
    assert undocumented == []
