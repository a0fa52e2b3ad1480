"""Shared fixtures: the hand-built corpus, parsed and coded once.

The corpus under tests/fixtures holds seven plain-annotated documents
plus one structured XML document. Several tests pin exact coded values
for individual citations in it, so the files should be treated as
frozen; extending the corpus means re-deriving those expectations.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from citecode.ingest import FORMAT_PLAIN, FORMAT_XML, parse_document
from citecode.pipeline import code_corpus

FIXTURE_DIR = Path(__file__).parent / "fixtures"

PLAIN_FIXTURES = (
    "paper-a.txt",
    "paper-b.txt",
    "paper-c.txt",
    "style.txt",
    "hj-self.txt",
    "hj-peer.txt",
    "hj-joint.txt",
)
ALL_FIXTURES = PLAIN_FIXTURES + ("sample.xml",)


def load_fixture(name: str):
    path = FIXTURE_DIR / name
    fmt = FORMAT_XML if name.endswith(".xml") else FORMAT_PLAIN
    return parse_document(path.read_bytes(), fmt)


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def corpus_documents():
    return [load_fixture(name) for name in ALL_FIXTURES]


@pytest.fixture(scope="session")
def documents_by_id(corpus_documents):
    return {doc.metadata.doc_id: doc for doc in corpus_documents}


@pytest.fixture(scope="session")
def corpus_result(corpus_documents):
    # code_corpus empties the list it is given; other tests read this one.
    return code_corpus(list(corpus_documents))


@pytest.fixture(scope="session")
def records_by_key(corpus_result):
    return {(r.doc_id, r.citation_id): r for r in corpus_result.records}


def make_manifest(tmp_path: Path, names=ALL_FIXTURES) -> Path:
    """Write a manifest pointing at the shared fixture files."""
    lines = []
    for name in names:
        fmt = FORMAT_XML if name.endswith(".xml") else FORMAT_PLAIN
        lines.append(f"{FIXTURE_DIR / name}\t{fmt}")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
