"""Synthetic corpus generator: determinism and parsability."""

from __future__ import annotations

from citecode.ingest import parse_document
from citecode.pipeline import read_manifest, run_pipeline
from citecode.synth import synth_document, write_corpus


def test_document_content_is_a_function_of_seed_and_index():
    assert synth_document(3, seed=7) == synth_document(3, seed=7)
    a = synth_document(3, seed=7)[2]
    b = synth_document(3, seed=8)[2]
    assert a != b
    assert synth_document(3, seed=7)[2] != synth_document(4, seed=7)[2]


def test_corpus_mixes_both_formats():
    formats = {synth_document(i)[1] for i in range(6)}
    assert formats == {"plain_annotated", "structured_xml"}
    names = [synth_document(i)[0] for i in range(6)]
    assert any(n.endswith(".xml") for n in names)
    assert any(n.endswith(".txt") for n in names)


def test_every_document_parses():
    for index in range(12):
        name, doc_format, content = synth_document(index, sentences=30, refs=10)
        doc = parse_document(content, doc_format)
        assert doc.metadata.doc_id == f"syn-{index:04d}"
        assert doc.sentences
        assert doc.references
        assert len(doc.sections) == 6


def test_write_corpus_same_seed_is_byte_identical(tmp_path):
    manifest_a = write_corpus(tmp_path / "a", 8, seed=11)
    manifest_b = write_corpus(tmp_path / "b", 8, seed=11)
    assert manifest_a.read_bytes() == manifest_b.read_bytes()
    files_a = sorted((tmp_path / "a" / "docs").iterdir())
    files_b = sorted((tmp_path / "b" / "docs").iterdir())
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()


def test_write_corpus_different_seed_differs(tmp_path):
    write_corpus(tmp_path / "a", 3, seed=11)
    write_corpus(tmp_path / "b", 3, seed=12)
    names = [f"syn-{i:04d}" for i in range(3)]
    differing = 0
    for index, name in enumerate(names):
        suffix = ".xml" if index % 3 == 2 else ".txt"
        a = (tmp_path / "a" / "docs" / (name + suffix)).read_bytes()
        b = (tmp_path / "b" / "docs" / (name + suffix)).read_bytes()
        if a != b:
            differing += 1
    assert differing == 3


def test_generated_corpus_codes_cleanly(tmp_path):
    manifest = write_corpus(tmp_path, 6, seed=5, sentences=25, refs=8)
    result = run_pipeline(read_manifest(manifest))
    assert result.summary["documents"] == 6
    assert result.summary["skipped_documents"] == []
    assert result.summary["citations"]["total"] > 0
    assert result.summary["citations"]["resolved"] > 0
    # Document 0 carries one marker that matches no reference entry.
    assert result.summary["citations"]["unresolved"] >= 1
