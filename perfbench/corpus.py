"""Seeded corpora for the benchmark workloads.

``text`` is the library's own synthetic corpus. ``graph`` starts from
short synthetic documents and rewrites each document's author header
from a pool whose size grows with the corpus, so the coauthorship
graph, and with it the centrality cost, grows too. The generator
records the author keys and edges it planted; the benchmark compares
them with ``coauthors.tsv`` without going through the library's name
normalization.

Every corpus plants one unresolvable marker in each document whose
index is divisible by 7 (the library's synthetic generator does this);
every other marker points at an entry of the document's own
reference list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from citecode.ingest import FORMAT_PLAIN
from citecode.synth import synth_document, write_corpus

TEXT_DOCS = 400
GRAPH_DOCS = 1200
GRAPH_SENTENCES = 4
GRAPH_REFS = 4
# Authors per graph document; a pool of this share of the corpus size
# gives each author about four documents on average.
GRAPH_POOL_PER_DOC = 0.64

PLANTED_MARKER = "(Zzyzx, 1888)"

# Two-letter onsets and distinct codas: every concatenation is a
# distinct surname, and none collides with the synthetic reference
# authors.
_ONSETS = (
    "Ba", "Be", "Bo", "Da", "De", "Do", "Fa", "Fe", "Ga", "Go", "Ha", "He",
    "Ka", "Ke", "Ko", "La", "Le", "Lo", "Ma", "Me", "Mo", "Na", "Ne", "Pa",
    "Pe", "Ra", "Re", "Ro", "Sa", "Se", "Ta", "Te", "Va", "Ve", "Wa", "Za",
)
_CODAS = (
    "lbrek", "ndrup", "rvish", "stmor", "lgard", "nwick", "rtell", "skamp",
    "mbury", "rdovi", "lfast", "nquor", "rmund", "shtel", "lvane", "ngrim",
    "rbalt", "ckund", "mpton", "rswel",
)
_GRAPH_INITIALS = ("B", "G", "K", "T")


@dataclass
class Corpus:
    manifest: Path
    docs: int
    planted_unresolved: set[str]
    # Only the graph workload records the graph it planted.
    authors: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)


def _planted(n_docs: int) -> set[str]:
    return {f"syn-{index:04d}" for index in range(n_docs) if index % 7 == 0}


def write_text_corpus(root: Path, seed: int) -> Corpus:
    manifest = write_corpus(root, TEXT_DOCS, seed=seed)
    return Corpus(manifest, TEXT_DOCS, _planted(TEXT_DOCS))


def _graph_pool(size: int, seed: int) -> list[tuple[str, str]]:
    identities = [
        (onset + coda, initial)
        for onset in _ONSETS for coda in _CODAS for initial in _GRAPH_INITIALS
    ]
    if size > len(identities):
        raise ValueError(f"author pool of {size} exceeds {len(identities)} identities")
    random.Random(f"graph-pool:{seed}").shuffle(identities)
    return identities[:size]


def _key(surname: str, initial: str) -> str:
    return f"{surname.lower()},{initial.lower()}"


def _rewrite_authors(content: str, doc_format: str, labels: list[str]) -> str:
    lines = content.split("\n")
    if doc_format == FORMAT_PLAIN:
        header = [i for i, line in enumerate(lines) if line.startswith("#META authors: ")]
        if len(header) != 1:
            raise ValueError("expected one '#META authors:' line")
        lines[header[0]] = "#META authors: " + "; ".join(labels)
    else:
        start = lines.index("    <authors>")
        end = lines.index("    </authors>")
        lines[start + 1:end] = [f"      <author>{label}</author>" for label in labels]
    return "\n".join(lines)


def write_graph_corpus(root: Path, seed: int) -> Corpus:
    pool = _graph_pool(round(GRAPH_DOCS * GRAPH_POOL_PER_DOC), seed)
    docs_dir = root / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    authors: set[str] = set()
    edges: set[tuple[str, str]] = set()
    manifest_lines = []
    for index in range(GRAPH_DOCS):
        name, doc_format, content = synth_document(
            index, seed=seed, sentences=GRAPH_SENTENCES, refs=GRAPH_REFS
        )
        rng = random.Random(f"graph-authors:{seed}:{index}")
        chosen = rng.sample(pool, rng.randint(1, 4))
        content = _rewrite_authors(
            content, doc_format, [f"{surname}, {initial}." for surname, initial in chosen]
        )
        keys = sorted({_key(surname, initial) for surname, initial in chosen})
        authors.update(keys)
        edges.update(combinations(keys, 2))
        (docs_dir / name).write_text(content, encoding="utf-8")
        manifest_lines.append(f"docs/{name}\t{doc_format}")
    manifest = root / "manifest.tsv"
    manifest.write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    return Corpus(manifest, GRAPH_DOCS, _planted(GRAPH_DOCS), authors, edges)
