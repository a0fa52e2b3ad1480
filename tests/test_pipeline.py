"""End-to-end corpus runs over the frozen fixture corpus.

EXPECTED_CODES pins every record the fixture corpus produces. The
fixtures are deliberately frozen; a failure here means behavior moved,
not that the table needs casual updating.
"""

from __future__ import annotations

import copy
import gc
import importlib.util
import itertools
import json
import re
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from citecode import cli, pipeline
from citecode.citations import extract_citations, extract_context, mention_counts
from citecode.codebook import Uncodable
from citecode.config import PipelineConfig
from citecode.errors import EmptyDocument, MalformedInput
from citecode.ingest import FORMAT_PLAIN, FORMAT_XML, FORMATS, parse_document, serialize_document
from citecode.models import LINK_RESOLVED
from citecode.network import build_coauthor_graph, capital_scores, code_relation
from citecode.pipeline import (
    _LINK_REASON,
    code_corpus,
    code_document,
    load_resources,
    parse_corpus,
    read_manifest,
    run_pipeline,
    write_outputs,
)
from citecode.records import assemble_record, read_jsonl
from citecode.semantic import code_domain, code_focus, tokenize
from citecode.synth import SURNAMES, synth_document, write_corpus
from citecode.syntactic import (
    code_authorship,
    code_document_type,
    code_frequency,
    code_location,
    code_style,
    has_attributed_quote,
)

from conftest import FIXTURE_DIR, make_manifest
from cue_reference import old_code_disposition, old_code_function, old_match
from timing import best_times


def expect(codes_text):
    out = {}
    for token in codes_text.split():
        category = token[0]
        out[category] = None if token.endswith("-") else token
    return out


EXPECTED_CODES = {
    ("hj-peer", "c0001"): expect("A1 B1 C2 D2 E1 F2 G1 H1 I1 J4 K1 L2"),
    ("hj-peer", "c0002"): expect("A1 B2 C2 D2 E1 F1 G1 H1 I1 J4 K1 L2"),
    ("hj-self", "c0001"): expect("A1 B1 C1 D2 E1 F2 G1 H1 I1 J4 K1 L2"),
    ("hj-self", "c0002"): expect("A1 B2 C1 D2 E1 F1 G1 H1 I1 J4 K1 L2"),
    ("paper-a", "c0001"): expect("A- B- C- D2 E- F2 G1 H1 I1 J4 K1 L1"),
    ("paper-a", "c0002"): expect("A1 B1 C2 D4 E1 F3 G1 H1 I2 J4 K1 L1"),
    ("paper-a", "c0003"): expect("A3 B1 C2 D5 E1 F3 G1 H1 I4 J2 K1 L1"),
    ("paper-b", "c0001"): expect("A5 B1 C2 D2 E1 F1 G1 H2 I1 J4 K1 L2"),
    ("paper-b", "c0002"): expect("A3 B1 C2 D4 E1 F1 G1 H2 I2 J4 K1 L2"),
    ("paper-b", "c0003"): expect("A1 B2 C2 D5 E1 F1 G1 H2 I3 J1 K1 L2"),
    ("paper-b", "c0004"): expect("A1 B2 C2 D5 E1 F1 G1 H2 I3 J1 K1 L2"),
    ("paper-b", "c0005"): expect("A2 B2 C2 D5 E1 F1 G1 H2 I3 J1 K1 L2"),
    ("paper-b", "c0006"): expect("A1 B1 C2 D5 E1 F1 G1 H2 I4 J2 K1 L2"),
    ("paper-c", "c0001"): expect("A1 B2 C2 D2 E1 F1 G1 H2 I1 J4 K3 L3"),
    ("paper-c", "c0002"): expect("A3 B2 C2 D4 E1 F1 G1 H2 I2 J4 K3 L3"),
    ("paper-c", "c0003"): expect("A1 B2 C2 D5 E1 F1 G1 H2 I3 J4 K3 L3"),
    ("paper-c", "c0004"): expect("A1 B1 C2 D5 E1 F1 G1 H2 I4 J2 K3 L3"),
    ("style-fixture", "c0001"): expect("A1 B1 C3 D2 E2 F1 G1 H1 I1 J4 K1 L2"),
    ("style-fixture", "c0002"): expect("A1 B1 C3 D2 E2 F2 G1 H1 I1 J4 K1 L2"),
    ("style-fixture", "c0003"): expect("A1 B1 C3 D2 E2 F3 G1 H1 I1 J4 K1 L2"),
    ("xml-sample", "c0001"): expect("A1 B1 C1 D2 E1 F1 G1 H2 I1 J4 K1 L2"),
    ("xml-sample", "c0002"): expect("A1 B2 C1 D2 E1 F1 G1 H2 I1 J4 K1 L2"),
}

EXPECTED_REF_IDS = {
    ("hj-peer", "c0001"): "hjorland-1991",
    ("hj-peer", "c0002"): "hjorland-1995",
    ("hj-self", "c0001"): "hjorland-1991",
    ("hj-self", "c0002"): "hjorland-1995",
    ("paper-a", "c0001"): None,
    ("paper-a", "c0002"): "priss-2006",
    ("paper-a", "c0003"): "mayr-1997",
    ("paper-b", "c0001"): "survey-1998",
    ("paper-b", "c0002"): "bennett-1995",
    ("paper-b", "c0003"): "berg-2001",
    ("paper-b", "c0004"): "wolfers-2004",
    ("paper-b", "c0005"): "goel-2010",
    ("paper-b", "c0006"): "raghavan-2004",
    ("paper-c", "c0001"): "anders-2010",
    ("paper-c", "c0002"): "fudenberg-1991",
    ("paper-c", "c0003"): "yang-2006",
    ("paper-c", "c0004"): "spence-1973",
    ("style-fixture", "c0001"): "smith-2011",
    ("style-fixture", "c0002"): "smith-2011",
    ("style-fixture", "c0003"): "smith-2011",
    ("xml-sample", "c0001"): "moreno-2010",
    ("xml-sample", "c0002"): "pike-2012",
}

EXPECTED_CUES = {
    ("paper-a", "c0003"): [("however", "negative"), ("but", "negative")],
    ("paper-b", "c0003"): [("accurate", "positive")],
    ("paper-b", "c0004"): [("accurate", "positive")],
    ("paper-b", "c0005"): [("accurate", "positive")],
    ("paper-b", "c0006"): [("problem", "negative")],
    ("paper-c", "c0004"): [("suffer*", "negative")],
}


def test_manifest_roundtrip(tmp_path):
    manifest = make_manifest(tmp_path)
    entries = read_manifest(manifest)
    assert len(entries) == 8
    assert all(path.is_file() for path, _ in entries)
    assert {fmt for _, fmt in entries} == {"plain_annotated", "structured_xml"}


def test_manifest_skips_comments_and_blanks(tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        f"# corpus\n\n{FIXTURE_DIR / 'paper-a.txt'}\tplain_annotated\n",
        encoding="utf-8",
    )
    assert len(read_manifest(manifest)) == 1


def test_manifest_resolves_relative_paths(tmp_path):
    doc = tmp_path / "docs" / "one.txt"
    doc.parent.mkdir()
    doc.write_text(
        "#META id: one\n#SECTION Introduction\nHello there.\n#REFERENCES\n"
        "Smith, A. (2011). T. Minerva, 2(1), 1-2.\n",
        encoding="utf-8",
    )
    manifest = tmp_path / "m.tsv"
    manifest.write_text("docs/one.txt\tplain_annotated\n", encoding="utf-8")
    entries = read_manifest(manifest)
    assert entries[0][0] == doc


def test_manifest_lines_end_only_at_line_breaks(tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_bytes(
        "# a\u2028comment\r\none\u2028two.txt\tplain_annotated\rthree\x0c.txt\tstructured_xml\n"
        .encode("utf-8")
    )
    assert read_manifest(manifest) == [
        (tmp_path / "one\u2028two.txt", "plain_annotated"),
        (tmp_path / "three\x0c.txt", "structured_xml"),
    ]


def test_manifest_without_tab_rejected(tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("paper-a.txt plain_annotated\n", encoding="utf-8")
    with pytest.raises(MalformedInput) as err:
        read_manifest(manifest)
    assert err.value.line == 1


def test_manifest_unknown_format_rejected(tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("paper-a.txt\tpdf\n", encoding="utf-8")
    with pytest.raises(MalformedInput) as err:
        read_manifest(manifest)
    assert "pdf" in str(err.value)


def test_manifest_with_no_documents_rejected(tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(MalformedInput):
        read_manifest(manifest)


@pytest.fixture(scope="module")
def resources():
    return load_resources(PipelineConfig())


def bad_doc(tmp_path):
    path = tmp_path / "broken.xml"
    path.write_text("<document><unclosed>", encoding="utf-8")
    return path


def test_parse_corpus_skips_broken_documents(tmp_path, resources):
    entries = [
        (FIXTURE_DIR / "paper-a.txt", "plain_annotated"),
        (bad_doc(tmp_path), "structured_xml"),
    ]
    documents, skipped = parse_corpus(entries, resources.abbreviations)
    assert [d.metadata.doc_id for d in documents] == ["paper-a"]
    assert len(skipped) == 1
    assert "broken.xml" in skipped[0][0]
    assert skipped[0][1]


def test_parse_corpus_strict_raises(tmp_path, resources):
    entries = [(bad_doc(tmp_path), "structured_xml")]
    with pytest.raises(MalformedInput):
        parse_corpus(entries, resources.abbreviations, strict=True)


def test_parse_corpus_strict_error_names_the_path(tmp_path, resources):
    path = tmp_path / "bad.txt"
    path.write_text("#META id: bad\n", encoding="utf-8")
    with pytest.raises(EmptyDocument) as err:
        parse_corpus([(path, "plain_annotated")], resources.abbreviations, strict=True)
    assert str(err.value) == f"{path}: document has no sections"
    _, skipped = parse_corpus([(path, "plain_annotated")], resources.abbreviations)
    assert skipped == [(str(path), "document has no sections")]


def test_parse_corpus_skips_duplicate_ids(resources):
    entries = [
        (FIXTURE_DIR / "paper-a.txt", "plain_annotated"),
        (FIXTURE_DIR / "paper-a.txt", "plain_annotated"),
    ]
    documents, skipped = parse_corpus(entries, resources.abbreviations)
    assert len(documents) == 1
    assert len(skipped) == 1
    assert "duplicate document id" in skipped[0][1]


def test_parse_corpus_strict_rejects_duplicate_ids(resources):
    entries = [
        (FIXTURE_DIR / "paper-a.txt", "plain_annotated"),
        (FIXTURE_DIR / "paper-a.txt", "plain_annotated"),
    ]
    with pytest.raises(MalformedInput) as err:
        parse_corpus(entries, resources.abbreviations, strict=True)
    assert "duplicate" in str(err.value)


def test_parse_corpus_strict_stops_at_first_bad_document(tmp_path, resources):
    # The duplicate id comes before the sectionless document in manifest
    # order, so strict mode must report it, not the later parse error.
    paper = (FIXTURE_DIR / "paper-a.txt").read_bytes()
    (tmp_path / "a.txt").write_bytes(paper)
    (tmp_path / "a2.txt").write_bytes(paper)
    (tmp_path / "bad.txt").write_text("#META id: bad\n", encoding="utf-8")
    entries = [
        (tmp_path / name, "plain_annotated") for name in ("a.txt", "a2.txt", "bad.txt")
    ]
    with pytest.raises(MalformedInput) as err:
        parse_corpus(entries, resources.abbreviations, strict=True)
    assert "a2.txt: duplicate document id 'paper-a'" in str(err.value)
    documents, skipped = parse_corpus(entries, resources.abbreviations)
    assert [d.metadata.doc_id for d in documents] == ["paper-a"]
    assert [(Path(path).name, error) for path, error in skipped] == [
        ("a2.txt", "duplicate document id 'paper-a'"),
        ("bad.txt", "document has no sections"),
    ]


def test_repeated_document_id_codes_the_first_path_in_any_manifest_order(tmp_path, resources):
    # One id, two contents: a.txt cites in its Introduction, b.txt in
    # its Methods, so the coded D value shows which one was kept.
    for name, section in (("a.txt", "Introduction"), ("b.txt", "Methods")):
        (tmp_path / name).write_text(
            f"#META id: same\n#SECTION {section}\nShown (Smith, 2011).\n#REFERENCES\n"
            "Smith, A. (2011). One. Minerva, 2(1), 1-2.\n",
            encoding="utf-8",
        )
    entries = [(tmp_path / name, "plain_annotated") for name in ("a.txt", "b.txt")]
    forward = _output_bytes(entries, resources)
    assert _output_bytes(entries[::-1], resources) == forward
    assert json.loads(forward["coded"])["D"] == "D2"
    assert json.loads(forward["summary"])["skipped_documents"] == [
        {"path": str(tmp_path / "b.txt"), "error": "duplicate document id 'same'"}
    ]


def test_parse_corpus_skips_unreadable_path(tmp_path, resources):
    entries = [(tmp_path / "ghost.txt", "plain_annotated")]
    documents, skipped = parse_corpus(entries, resources.abbreviations)
    assert documents == []
    assert "ghost.txt" in skipped[0][0]


def test_every_fixture_record_matches_the_frozen_table(corpus_result):
    keyed = {(r.doc_id, r.citation_id): r for r in corpus_result.records}
    assert set(keyed) == set(EXPECTED_CODES)
    for key, expected in EXPECTED_CODES.items():
        assert keyed[key].codes == expected, key
    for key, ref_id in EXPECTED_REF_IDS.items():
        assert keyed[key].ref_id == ref_id, key
    for key, record in keyed.items():
        assert record.matched_cues == EXPECTED_CUES.get(key, []), key


def test_summary_counts(corpus_result):
    summary = corpus_result.summary
    # docs/formats.md documents exactly these keys, in the written order.
    assert list(summary) == [
        "documents",
        "citations",
        "records_written",
        "coauthor_graph",
        "skipped_documents",
        "unresolved_citations",
        "ambiguous_citations",
        "document_warnings",
        "config",
    ]
    assert summary["documents"] == 8
    assert summary["citations"] == {
        "total": 22,
        "resolved": 21,
        "unresolved": 1,
        "ambiguous": 0,
    }
    assert summary["records_written"] == 21
    assert summary["coauthor_graph"] == {"authors": 10, "edges": 6}
    assert summary["skipped_documents"] == []
    assert summary["ambiguous_citations"] == []
    assert summary["unresolved_citations"] == [
        {
            "doc_id": "paper-a",
            "citation_id": "c0001",
            "sentence_index": 0,
            "marker": "Revolutions (1962)",
        }
    ]
    assert summary["config"] == PipelineConfig().echo()


def test_unresolved_record_reasons(corpus_result, tmp_path):
    record = next(r for r in corpus_result.records if r.link_status == "unresolved")
    assert (record.doc_id, record.citation_id) == ("paper-a", "c0001")
    assert record.uncodable_reasons == {
        "A": "unresolved-reference",
        "B": "unresolved-reference",
        "C": "unresolved-reference",
        "E": "unresolved-reference",
    }
    written = read_jsonl(write_outputs(corpus_result, tmp_path)["coded"])
    assert (record.doc_id, record.citation_id) not in {
        (r.doc_id, r.citation_id) for r in written
    }


def test_ambiguous_citation_reasons():
    text = (
        "#META id: ambig\n"
        "#SECTION Introduction\n"
        "The claim is old (Smith, 2011).\n"
        "#REFERENCES\n"
        "[1] Smith, A. (2011a). First. Minerva, 4(4), 1-8.\n"
        "[2] Smith, A. (2011b). Second. Minerva, 4(5), 9-16.\n"
    )
    from citecode.ingest import parse_document

    result = code_corpus([parse_document(text)])
    record = result.records[0]
    assert record.link_status == "ambiguous"
    assert record.uncodable_reasons["A"] == "ambiguous-reference"
    assert result.summary["citations"]["ambiguous"] == 1
    assert result.summary["ambiguous_citations"][0]["marker"] == "(Smith, 2011)"


def test_neutral_records_carry_no_cues(corpus_result):
    for record in corpus_result.records:
        if record.codes["J"] == "J4":
            assert record.matched_cues == []
        else:
            assert record.matched_cues


def test_document_constant_categories(corpus_result):
    by_doc = {}
    for record in corpus_result.records:
        by_doc.setdefault(record.doc_id, []).append(record)
    for records in by_doc.values():
        for category in ("G", "H", "K", "L"):
            assert len({r.codes[category] for r in records}) == 1


def test_records_are_sorted(corpus_result):
    keys = [(r.doc_id, r.citation_id) for r in corpus_result.records]
    assert keys == sorted(keys)


def test_trace_covers_every_coded_category(corpus_result):
    for record in corpus_result.records:
        for category, value in record.codes.items():
            if value is not None:
                assert any(t.startswith(f"{category}:") for t in record.rule_trace)


def test_rule_trace_order(records_by_key):
    # D F I J, then the citing-document codes G H K L, then A B C E.
    assert records_by_key[("paper-a", "c0003")].rule_trace == [
        "D:header:discussion",
        "F:page-locator",
        "I:cue:however",
        "J:cues:negative",
        "G:venue-type:journal",
        "H:count=1",
        "K:venue-match:information science",
        "L:cue:epistemolog*",
        "A:signal:publisher",
        "B:count=1",
        "C:parallel-default",
        "E:count=1",
    ]
    # An unresolved citation's uncodable A, B, C and E leave no trace.
    assert records_by_key[("paper-a", "c0001")].rule_trace == [
        "D:header:introduction",
        "F:narrative",
        "I:prior:D2",
        "J:cues:none",
        "G:venue-type:journal",
        "H:count=1",
        "K:venue-match:information science",
        "L:cue:epistemolog*",
    ]


def test_unlinked_markers_listed_in_reading_order():
    from citecode.ingest import parse_document

    def doc(doc_id):
        return parse_document(
            f"#META id: {doc_id}\n"
            "#SECTION Introduction\n"
            "Old claims (Smith, 2011) and (Moss, 1990).\n"
            "Also (Smith, 2011) and (Moss, 1990).\n"
            "#REFERENCES\n"
            "[1] Smith, A. (2011a). First. Minerva, 4(4), 1-8.\n"
            "[2] Smith, A. (2011b). Second. Minerva, 4(5), 9-16.\n"
        )

    def items(citation_ids, marker):
        return [
            {"doc_id": doc_id, "citation_id": citation_id,
             "sentence_index": index, "marker": marker}
            for doc_id in ("alpha", "zeta")
            for citation_id, index in zip(citation_ids, (0, 1))
        ]

    # Manifest order zeta, alpha; reading order alpha, zeta.
    summary = code_corpus([doc("zeta"), doc("alpha")]).summary
    assert summary["ambiguous_citations"] == items(("c0001", "c0003"), "(Smith, 2011)")
    assert summary["unresolved_citations"] == items(("c0002", "c0004"), "(Moss, 1990)")


def test_run_pipeline_from_manifest(tmp_path):
    result = run_pipeline(read_manifest(make_manifest(tmp_path)))
    assert result.summary["citations"]["total"] == 22
    assert result.summary["records_written"] == 21
    assert result.summary["skipped_documents"] == []


def test_parallel_run_is_identical(tmp_path, corpus_result):
    entries = read_manifest(make_manifest(tmp_path))
    parallel = run_pipeline(entries, jobs=4)
    assert [
        (r.doc_id, r.citation_id, r.codes, tuple(r.matched_cues))
        for r in parallel.records
    ] == [
        (r.doc_id, r.citation_id, r.codes, tuple(r.matched_cues))
        for r in corpus_result.records
    ]
    assert parallel.summary == corpus_result.summary


def test_write_outputs_files(tmp_path, corpus_result):
    paths = write_outputs(corpus_result, tmp_path / "out")
    coded = paths["coded"].read_text(encoding="utf-8")
    assert len(coded.splitlines()) == 21
    assert all(json.loads(line)["link_status"] == "resolved" for line in coded.splitlines())
    summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
    assert summary["citations"]["total"] == 22
    edges = paths["edges"].read_text(encoding="utf-8").splitlines()
    assert len(edges) == 6
    assert edges == sorted(edges)


def test_write_outputs_twice_is_byte_identical(tmp_path, corpus_result):
    first = write_outputs(corpus_result, tmp_path / "a")
    second = write_outputs(corpus_result, tmp_path / "b")
    for key in ("coded", "edges"):
        assert first[key].read_bytes() == second[key].read_bytes()
    assert first["summary"].read_bytes() == second["summary"].read_bytes()


def test_style_fixture_counts_mentions_across_styles(corpus_result):
    styles = [r for r in corpus_result.records if r.doc_id == "style-fixture"]
    assert [r.codes["F"] for r in styles] == ["F1", "F2", "F3"]
    assert all(r.codes["E"] == "E2" for r in styles)


def _output_bytes(entries, resources):
    with tempfile.TemporaryDirectory() as out:
        paths = write_outputs(run_pipeline(entries, resources=resources), out)
        return {key: path.read_bytes() for key, path in paths.items()}


@pytest.fixture(scope="module")
def mixed_manifest(tmp_path_factory, resources):
    """Synth documents, the fixtures and four written files, and their outputs."""
    root = tmp_path_factory.mktemp("mixed")
    entries = read_manifest(write_corpus(root / "synth", 12, seed=3, sentences=12, refs=6))
    entries += read_manifest(make_manifest(root))
    for name in ("broken-a.xml", "broken-b.xml"):
        (root / name).write_text("<document><unclosed>", encoding="utf-8")
        entries.append((root / name, "structured_xml"))
    for doc_id in ("warn-a", "warn-b"):
        (root / f"{doc_id}.txt").write_text(
            f"#META id: {doc_id}\n#NOTE x\n#SECTION Introduction\n"
            "Old (Smith, 2011) and (Moss, 1990).\n#REFERENCES\n"
            "[1] Smith, A. (2011a). First. Minerva, 4(4), 1-8.\n"
            "[2] Smith, A. (2011b). Second. Minerva, 4(5), 9-16.\n",
            encoding="utf-8",
        )
        entries.append((root / f"{doc_id}.txt", "plain_annotated"))
    return entries, _output_bytes(entries, resources)


def test_mixed_manifest_fills_every_summary_list(mixed_manifest):
    summary = json.loads(mixed_manifest[1]["summary"])
    assert len(summary["skipped_documents"]) == 2
    for key in ("unresolved_citations", "ambiguous_citations"):
        assert len({item["doc_id"] for item in summary[key]}) >= 2
    assert len(summary["document_warnings"]) >= 2


@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_outputs_do_not_depend_on_manifest_order(data, mixed_manifest, resources):
    entries, expected = mixed_manifest
    assert _output_bytes(data.draw(st.permutations(entries)), resources) == expected


def test_recoding_from_canonical_xml_changes_nothing(tmp_path, resources):
    # Each document re-parsed from serialize_document codes as before.
    # Parse-time warnings such as an unknown directive are not part of
    # the document, so only the summary's document_warnings may differ.
    entries = read_manifest(write_corpus(tmp_path / "corpus", 12, seed=5, sentences=25, refs=8))
    assert {doc_format for _, doc_format in entries} == set(FORMATS)
    documents, skipped = parse_corpus(entries, resources.abbreviations)
    assert not skipped
    reparsed = [
        parse_document(serialize_document(doc), FORMAT_XML, resources.abbreviations)
        for doc in documents
    ]
    original = code_corpus(documents, resources=resources)
    again = code_corpus(reparsed, resources=resources)
    assert again.records == original.records
    edges = [
        write_outputs(result, tmp_path / name)["edges"].read_bytes()
        for name, result in (("original", original), ("again", again))
    ]
    assert edges[0] == edges[1]
    assert original.summary.pop("document_warnings")
    again.summary.pop("document_warnings")
    assert again.summary == original.summary


def test_records_keep_reading_order_past_c9999():
    # Ten thousand and one sentences, one citation each.
    text = (
        "#META id: long\n#SECTION Introduction\n"
        + "Shown (Smith, 2011).\n\n" * 10_001
        + "#REFERENCES\nSmith, A. (2011). One. Minerva, 2(1), 1-2.\n"
    )
    records = code_corpus([parse_document(text, FORMAT_PLAIN)]).records
    ids = [r.citation_id for r in records]
    assert ids[9_998:] == ["c9999", "c10000", "c10001"]


# -- the per-citation loop, with a memo per context window and the cue
# coders as they were before the one-scan window path, kept as the
# reference for code_document --


def reference_code_document(doc, citations, resources, config, graph, scores):
    meta = doc.metadata
    lexicons = resources.lexicons
    citing_keys = [a.key for a in meta.authors]
    domain = code_domain(meta, resources.venue_map)
    citing_codes = {
        "G": code_document_type(meta),
        "H": code_authorship(meta.authors, "H"),
        "K": domain,
        "L": code_focus(domain[0], old_match(lexicons.focus, tokenize(" ".join(doc.sentences)))),
    }
    counts = mention_counts(doc, citations)
    references = {ref.ref_id: ref for ref in reversed(doc.references)}
    sentence_tokens = {}
    window_codes = {}
    records = []
    for citation in citations:
        location = code_location(doc.section_of(citation.sentence_index))
        context = extract_context(doc, citation, config.window_before, config.window_after)
        window = context.sentence_indices
        if window not in window_codes:
            tokens = []
            for index in window:
                if index not in sentence_tokens:
                    sentence_tokens[index] = tokenize(doc.sentences[index])
                tokens += sentence_tokens[index]
            window_codes[window] = (
                old_code_function(tokens, location[0], lexicons),
                old_code_disposition(tokens, lexicons),
            )
        i_code, (j_value, j_matches, j_rule) = window_codes[window]
        sentence = doc.sentences[citation.sentence_index]
        coded = {
            "D": location,
            "F": code_style(citation, has_attributed_quote(sentence)),
            "I": i_code,
            "J": (j_value, j_rule),
            **citing_codes,
        }
        if citation.link_status == LINK_RESOLVED:
            ref = references[citation.ref_id]
            cited_keys = [a.key for a in ref.authors]
            coded["A"] = code_document_type(ref)
            coded["B"] = code_authorship(ref.authors, "B", ref.et_al)
            coded["C"] = code_relation(citing_keys, cited_keys, graph, scores, config.delta)
            coded["E"] = code_frequency(counts[citation.ref_id])
        else:
            uncodable = Uncodable(_LINK_REASON[citation.link_status])
            coded.update(dict.fromkeys("ABCE", (uncodable, None)))
        records.append(assemble_record(meta.doc_id, citation, context, coded, j_matches))
    return records


def _assert_codes_as_the_reference(documents, resources, config=PipelineConfig()):
    graph = build_coauthor_graph([doc.metadata for doc in documents])
    scores = capital_scores(graph)
    for doc in documents:
        citations = extract_citations(doc)
        args = (doc, citations, resources, config, graph, scores)
        assert code_document(*args) == reference_code_document(*args)


def test_code_document_matches_the_reference_on_the_fixtures(corpus_documents, resources):
    _assert_codes_as_the_reference(corpus_documents, resources)


@pytest.mark.parametrize(
    "shape", [{}, {"sentences": 4, "refs": 4}], ids=["text", "graph"]
)
def test_code_document_matches_the_reference_on_synth_documents(tmp_path, resources, shape):
    entries = read_manifest(write_corpus(tmp_path, 24, seed=5, **shape))
    documents, skipped = parse_corpus(entries, resources.abbreviations)
    assert not skipped
    _assert_codes_as_the_reference(documents, resources)


# Several markers in one sentence, the first with a page locator, all
# behind a quote; a two-sentence section whose citing sentences share
# one window; an entry whose one listed author is followed by "et al.";
# one unresolved and one ambiguous marker.
_CRAFTED = (
    "#META id: crafted\n#META authors: Doe, J.; Roe, K.\n"
    "#SECTION Introduction\n"
    "This field is broad. As \"a social act of aligning\" shows, the claim holds "
    "(Smith, 2011, p. 4; Jones, 2012) and Lee (2013) agrees. Nothing else is cited here.\n"
    "#SECTION Results\n"
    "However, the method is limited and fails (Smith, 2011). Lee (2013) reports robust results "
    "(Green et al., 2014).\n"
    "#SECTION Discussion\n"
    "The old claim (Zzyzx, 1888) was never replicated. Brown (2009) builds on it.\n"
    "#REFERENCES\n"
    "Smith, A. (2011). One. Minerva, 2(1), 1-2.\n"
    "Jones, B. (2012). Two. Proceedings of the Workshop, 3-4.\n"
    "Lee, C., & Doe, J. (2013). Three. Chicago: Press.\n"
    "Green, E., et al. (2014). Six. Minerva, 5(1), 1-4.\n"
    "Brown, D. (2009a). Four. Minerva, 4(4), 1-8.\n"
    "Brown, D. (2009b). Five. Minerva, 4(5), 9-16.\n"
)


@pytest.mark.parametrize("window", [(1, 1), (0, 0)], ids=["cluster", "single"])
def test_code_document_matches_the_reference_on_a_crafted_document(resources, window):
    doc = parse_document(_CRAFTED, FORMAT_PLAIN)
    records = code_corpus([doc], resources=resources).records
    assert [r.sentence_index for r in records] == [1, 1, 1, 3, 4, 4, 5, 6]
    assert [r.codes["F"] for r in records[:3]] == ["F3"] * 3
    assert [r.link_status for r in records[6:]] == ["unresolved", "ambiguous"]
    assert records[3].context_sentences == records[4].context_sentences == (3, 4)
    # The et-al entry lists one author, but its B reads co-authored.
    assert (records[5].ref_id, records[5].codes["B"]) == ("green-2014", "B2")
    config = PipelineConfig(window_before=window[0], window_after=window[1])
    _assert_codes_as_the_reference([doc], resources, config)


def test_authorship_is_coded_through_the_pipeline_name(resources, monkeypatch):
    # The benchmark's tracer times B and H by wrapping
    # citecode.pipeline.code_authorship, so every B and H must come
    # through that name: once for H, once per distinct resolved entry.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return code_authorship(*args, **kwargs)

    monkeypatch.setattr(pipeline, "code_authorship", counted)
    doc = parse_document(_CRAFTED, FORMAT_PLAIN)
    records = code_corpus([doc], resources=resources).records
    resolved = {r.ref_id for r in records if r.link_status == LINK_RESOLVED}
    assert len(resolved) == 4
    assert len(calls) == len(resolved) + 1


@pytest.mark.parametrize(
    "placements",
    [("text",), ("both",), ("attribute", "text"), ("text", "both", "attribute")],
)
def test_moving_labels_between_id_attribute_and_text_changes_no_record(resources, placements):
    # Synth document 11 is XML with numeric labels, each in the id
    # attribute. Each label moves to a "[n]" prefix, to both, or stays.
    _, doc_format, content = synth_document(11, seed=5)
    assert doc_format == FORMAT_XML
    ordinal = itertools.count()

    def place(match):
        where = placements[next(ordinal) % len(placements)]
        attribute = "" if where == "text" else f' id="{match[1]}"'
        prefix = "" if where == "attribute" else f"[{match[1]}] "
        return f"<reference{attribute}>{prefix}"

    moved, count = re.subn(r'<reference id="(\d+)">', place, content)
    assert count == 20
    expected = code_corpus([parse_document(content, FORMAT_XML)], resources=resources)
    again = code_corpus([parse_document(moved, FORMAT_XML)], resources=resources)
    assert expected.records
    assert again.records == expected.records


def test_coding_time_is_linear_in_markers_per_sentence(resources):
    # One sentence holding every marker, between two plain ones.
    # Quadrupling the markers must cost well under the 16x that coding
    # each citation's window from scratch would; 8x leaves room for
    # timer noise.
    def doc(markers):
        labels = " ".join(f"[{i % 5 + 1}]" for i in range(markers))
        entries = "".join(
            f"[{i}] Smith, A. ({2000 + i}). T{i}. Minerva, 2(1), 1-2.\n" for i in range(1, 6)
        )
        return parse_document(
            "#META id: many\n#SECTION Introduction\n"
            f"A first claim. A survey shows \"the same three results\" {labels}. A last claim.\n"
            f"#REFERENCES\n{entries}",
            FORMAT_PLAIN,
        )

    small, large = doc(500), doc(2_000)
    assert len(code_corpus([large], resources=resources).records) == 2_000
    small_time, large_time = best_times(
        lambda doc: code_corpus([doc], resources=resources), small, large
    )
    assert large_time < 8 * small_time, (small_time, large_time)


def _synth_documents(n_docs, seed, **shape):
    """Synth documents parsed in memory, in index order."""
    return [
        parse_document(content, doc_format)
        for _, doc_format, content in (
            synth_document(index, seed=seed, **shape) for index in range(n_docs)
        )
    ]


def test_code_corpus_consumes_its_documents(resources):
    documents = _synth_documents(3, seed=5, sentences=8, refs=4)[::-1]
    metadata = [doc.metadata for doc in documents[::-1]]
    probe = documents[0]
    held = sys.getrefcount(probe)
    result = code_corpus(documents, resources=resources)
    assert documents == []
    # Only this test's name still holds the document.
    assert sys.getrefcount(probe) == held - 1
    assert all(kept is given for kept, given in zip(result.documents, metadata))
    assert [meta.doc_id for meta in result.documents] == ["syn-0000", "syn-0001", "syn-0002"]


def test_code_corpus_rejects_a_repeated_document_id(resources):
    doc = parse_document((FIXTURE_DIR / "paper-a.txt").read_bytes(), FORMAT_PLAIN)
    with pytest.raises(MalformedInput) as err:
        code_corpus([doc, copy.deepcopy(doc)], resources=resources)
    assert str(err.value) == f"duplicate document id {doc.metadata.doc_id!r}"


def test_coding_does_not_hold_the_corpus_and_its_records_at_once(tmp_path, resources):
    # Each document is dropped once it is coded, so the traced peak of a
    # run is about the larger of the parsed corpus and the records, well
    # under their sum, which is what a run that keeps every document
    # until the end reaches.
    entries = read_manifest(write_corpus(tmp_path, 100, seed=5, sentences=4, refs=4))
    run_pipeline(entries, resources=resources)  # fills every cache first
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        documents, _ = parse_corpus(entries, resources.abbreviations)
        parsed = tracemalloc.get_traced_memory()[0] - base
        del documents
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run_pipeline(entries, resources=resources)
        peak = tracemalloc.get_traced_memory()[1] - base
        records = result.records
        del result
        gc.collect()
        coded = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(records) > 150
    assert peak < 0.8 * (parsed + coded), (peak, parsed, coded)


_NEW_AUTHORS = ("Quill, V.", "Ostrander, W.")


def _by_new_authors(content, doc_id):
    """The synth document's content with a new id and two new authors."""
    content = re.sub(r"(?m)^#META id: .*$", f"#META id: {doc_id}", content)
    content = re.sub(r"<id>.*?</id>", f"<id>{doc_id}</id>", content)
    content = re.sub(r"(?m)^#META authors: .*$", "#META authors: " + "; ".join(_NEW_AUTHORS),
                     content)
    return re.sub(
        r"(?s)<authors>.*?</authors>",
        "<authors>" + "".join(f"<author>{name}</author>" for name in _NEW_AUTHORS) + "</authors>",
        content,
    )


def _records_but_c(documents, resources):
    """Each record by (doc_id, citation_id), with C's value and trace entry left out."""
    records = {}
    for record in code_corpus(documents, resources=resources).records:
        codes = dict(record.codes)
        del codes["C"]
        trace = [rule for rule in record.rule_trace if not rule.startswith("C:")]
        records[record.doc_id, record.citation_id] = replace(
            record, codes=codes, rule_trace=trace
        )
    return records


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 63), copied=st.integers(0, 19))
def test_a_document_by_new_authors_changes_only_c_elsewhere(resources, seed, copied):
    # Locality: a document whose authors appear in no other document
    # adds authors to the coauthor graph, which moves the capital
    # percentiles and so C, and nothing else of any other document. The
    # new document copies one of the corpus, so it cites the same
    # works, and is coded first ("new-" sorts before "syn-").
    shape = {"sentences": 12, "refs": 6}
    assert not {name.split(",")[0] for name in _NEW_AUTHORS} & set(SURNAMES)
    _, doc_format, content = synth_document(copied, seed=seed, **shape)
    added = parse_document(_by_new_authors(content, "new-copy"), doc_format)
    assert [author.raw for author in added.metadata.authors] == list(_NEW_AUTHORS)
    assume(any(c.link_status == LINK_RESOLVED for c in extract_citations(added)))
    before = _records_but_c(_synth_documents(20, seed, **shape), resources)
    after = _records_but_c(_synth_documents(20, seed, **shape) + [added], resources)
    assert {key: record for key, record in after.items() if key[0] != "new-copy"} == before


def _load_tracing():
    """perfbench/tracing.py, the benchmark's per-layer tracer."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_fires(tmp_path):
    """A refactor that renames or bypasses a traced function fails here."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        entries = pipeline.read_manifest(make_manifest(tmp_path))
        paths = pipeline.write_outputs(pipeline.run_pipeline(entries), tmp_path / "out")
        coded = str(paths["coded"])
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(
            json.dumps({"doc_id": r.doc_id, "citation_id": r.citation_id, "I": r.codes["I"]})
            + "\n"
            for r in read_jsonl(coded)
        ), encoding="utf-8")
        assert cli.main(["report", "--input", coded, "--rows", "D", "--cols", "I",
                         "--out", str(tmp_path / "report.csv")]) == 0
        assert cli.main(["eval", "--input", coded, "--gold", str(gold), "--categories", "I",
                         "--out", str(tmp_path / "eval.csv")]) == 0
    finally:
        tracer.remove()
    assert {span[0] for span in tracer.spans()} == {name for name, *_ in tracing.SPANS}
    # remove() put the originals back.
    assert pipeline.run_pipeline is run_pipeline
