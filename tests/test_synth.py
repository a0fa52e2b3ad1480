"""Synthetic corpus generator: determinism and parsability."""

from __future__ import annotations

import hashlib

import pytest

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


# sha256 over (filename, format, content) of documents 0..39, each part
# followed by a NUL. The default corpus is what the benchmark builds
# from, so any change to the generator's bytes must be deliberate.
_CORPUS_DIGESTS = {
    (0, 50, 20): "bb6870c0b2eb4eaf1bcddf7c842aa553bc12c420b635141ad4d91e5d5794e39a",
    (5, 50, 20): "a24cae1aedbe6f727a31c8bf7264b4c42555823a16b57a9f50a07d6945201ac0",
    (7, 50, 20): "aeb7e98181e1388b8ea49ffa943c8e0348aa6af4d69157d270c690817bd4a536",
    (0, 4, 4): "95cf946ac69ac3a4d347d313e4171ddeb32e79180045e386cb872eb33f7a23c0",
    (5, 4, 4): "3acdcc732c75178f0460ef7732ef18133975b082435a75f1068173c62879b3c9",
    (7, 4, 4): "5e3fc9e741d74a6fef138c8b421c5a8ee2916cff49e75565031b2277d5140542",
}


@pytest.mark.parametrize(("seed", "sentences", "refs"), sorted(_CORPUS_DIGESTS))
def test_default_corpus_bytes_are_pinned(seed, sentences, refs):
    digest = hashlib.sha256()
    for index in range(40):
        for part in synth_document(index, seed, sentences, refs):
            digest.update(part.encode("utf-8") + b"\0")
    assert digest.hexdigest() == _CORPUS_DIGESTS[seed, sentences, refs]
