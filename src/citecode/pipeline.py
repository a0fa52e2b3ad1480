"""End-to-end corpus runs: parse, link, code, and summarize.

The run is serial: parse each document in manifest order, build the
coauthorship graph from every parsed document's metadata (relation
coding needs the finished graph), then make one pass per document, in
document-id order, that extracts, links and codes its citations, one
citing sentence at a time. Within a document each sentence's tokens
are found and joined once, the citing-document codes are made once,
the window-side codes, from one cue scan of the window, once per citing
sentence, and the cited-work codes once per cited entry. The pass
consumes the parsed documents: each is dropped once its records,
unlinked markers and warnings are taken, and only its metadata stays.
No output depends on manifest order, and outputs carry no timestamps: a
corpus coded twice is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import groupby, pairwise
from pathlib import Path

from .citations import extract_citations, extract_context, mention_counts
from .codebook import Uncodable
from .config import PipelineConfig
from .errors import CitecodeError, MalformedInput, _read_lines, _read_utf8
from .ingest import FORMATS, parse_document
from .models import (
    Document,
    DocumentMetadata,
    InTextCitation,
    LINK_AMBIGUOUS,
    LINK_RESOLVED,
    LINK_UNRESOLVED,
)
from .network import (
    CoauthorGraph,
    build_coauthor_graph,
    capital_scores,
    code_relation,
    write_edge_list,
)
from .records import CodedCitation, assemble_record, write_jsonl
from .semantic import (
    LexiconSet,
    code_disposition,
    code_domain,
    code_focus,
    code_function,
    document_focus_matches,
    load_lexicons,
    load_venue_map,
    token_text,
    tokenize,
)
from .sentences import load_abbreviations
from .syntactic import (
    code_authorship,
    code_document_type,
    code_frequency,
    code_location,
    code_style,
    has_attributed_quote,
)

@dataclass(frozen=True)
class Resources:
    """Lexicons, venue mapping, and abbreviation list, loaded once."""

    lexicons: LexiconSet
    venue_map: tuple[tuple[str, str], ...]
    abbreviations: tuple[str, ...]


def load_resources(config: PipelineConfig) -> Resources:
    return Resources(
        lexicons=load_lexicons(config.lexicon),
        venue_map=load_venue_map(config.venue_map),
        abbreviations=load_abbreviations(config.abbreviations),
    )


def read_manifest(path: str | Path) -> list[tuple[Path, str]]:
    """Read a corpus manifest: one ``<path><TAB><format>`` per line.

    Blank lines and # comments are skipped. Relative document paths are
    resolved against the manifest's directory.
    """
    path = Path(path)
    entries: list[tuple[Path, str]] = []
    for line_no, line in _read_lines(path, "manifest", MalformedInput):
        if "\t" not in line:
            raise MalformedInput(
                f"{path.name}: expected <path><TAB><format>", line=line_no
            )
        doc_part, _, format_part = line.partition("\t")
        doc_format = format_part.strip()
        if doc_format not in FORMATS:
            raise MalformedInput(
                f"{path.name}: unknown format {doc_format!r} "
                f"(expected one of {', '.join(FORMATS)})",
                line=line_no,
            )
        doc_path = Path(doc_part.strip())
        if not doc_path.is_absolute():
            doc_path = path.parent / doc_path
        entries.append((doc_path, doc_format))
    if not entries:
        raise MalformedInput(f"{path.name}: manifest lists no documents")
    return entries


def parse_corpus(
    entries: list[tuple[Path, str]],
    abbreviations: tuple[str, ...],
    strict: bool = False,
) -> tuple[list[Document], list[tuple[str, str]]]:
    """Parse every manifest entry in order; failures are skipped unless strict.

    Returns the parsed documents in the manifest order of their ids'
    first appearance, plus a list of (path, error message) pairs for the
    skipped ones. Of documents that share an id, the one whose path
    sorts first is kept and the others are skipped, so the choice does
    not depend on manifest order. Strict mode raises on the first bad
    document: unreadable, unparseable, or repeating an earlier
    document's id. Its message names the path.
    """
    skipped: list[tuple[str, str]] = []
    kept: dict[str, tuple[Path, Document]] = {}
    for doc_path, doc_format in entries:
        try:
            text = _read_utf8(doc_path, "document", MalformedInput)
            doc = parse_document(text, doc_format, abbreviations)
        except CitecodeError as exc:
            if strict:
                # Same class and line; the message gains the document's path.
                exc.args = (f"{doc_path}: {exc}",)
                raise
            skipped.append((str(doc_path), str(exc)))
            continue
        doc_id = doc.metadata.doc_id
        if doc_id in kept:
            message = f"duplicate document id {doc_id!r}"
            if strict:
                raise MalformedInput(f"{doc_path}: {message}")
            dropped = doc_path
            kept_path = kept[doc_id][0]
            if str(doc_path) < str(kept_path):
                kept[doc_id] = (doc_path, doc)
                dropped = kept_path
            skipped.append((str(dropped), message))
            continue
        kept[doc_id] = (doc_path, doc)
    return [doc for _, doc in kept.values()], skipped


_LINK_REASON = {
    LINK_UNRESOLVED: "unresolved-reference",
    LINK_AMBIGUOUS: "ambiguous-reference",
}


def code_document(
    doc: Document,
    citations: list[InTextCitation],
    resources: Resources,
    config: PipelineConfig,
    graph: CoauthorGraph,
    scores: dict[str, float],
) -> list[CodedCitation]:
    """Produce one full record per citation, resolved or not.

    Each piece of work is done once at the level it belongs to:

    * per document: the sentences' tokens, the citing-document codes
      G H K L, and the mention counts;
    * per citing sentence (citations come in reading order, so the loop
      takes each sentence's citations together): D, the context window,
      its one cue scan, I and J from that scan, and the quote test;
    * per cited work: A B C E, coded at the entry's first resolved
      mention and reused for its later ones;
    * per citation: F and the record.

    Each category's (value, rule) pair is stated once, in rule-trace
    order: D F I J, then G H K L, then A B C E. Unresolved and ambiguous
    citations keep their context-side codes; A, B, C and E become
    uncodable, untraced.
    """
    meta = doc.metadata
    lexicons = resources.lexicons
    citing_keys = [a.key for a in meta.authors]
    # Each sentence's tokens are found and joined once: the focus scan
    # reads them all, and neighbouring windows share theirs.
    sentence_texts = [" ".join(tokenize(sentence)) for sentence in doc.sentences]

    # Citing-document codes are constant across the document.
    domain = code_domain(meta, resources.venue_map)
    citing_codes = {
        "G": code_document_type(meta),
        "H": code_authorship(meta.authors, "H"),
        "K": domain,
        "L": code_focus(domain[0], document_focus_matches(doc, lexicons, sentence_texts)),
    }
    counts = mention_counts(doc, citations)
    # The entry a resolved citation names; of two entries with one id,
    # the first wins.
    references = {ref.ref_id: ref for ref in reversed(doc.references)}
    # A B C E of each cited entry, by ref_id: they read only the entry,
    # the two author lists and the entry's mention count.
    cited_codes: dict[str, dict] = {}

    records = []
    for index, group in groupby(citations, key=lambda c: c.sentence_index):
        group = list(group)
        location = code_location(doc.section_of(index))
        context = extract_context(doc, group[0], config.window_before, config.window_after)
        # The window's token text is that of tokenize() of its sentences
        # joined by spaces: no token crosses the space between two sentences.
        cues = lexicons.scan(token_text(sentence_texts[i] for i in context.sentence_indices))
        i_code = code_function(cues, location[0])
        j_value, j_matches, j_rule = code_disposition(cues)
        quoted = has_attributed_quote(doc.sentences[index])
        for citation in group:
            coded = {
                "D": location,
                "F": code_style(citation, quoted),
                "I": i_code,
                "J": (j_value, j_rule),
                **citing_codes,
            }
            if citation.link_status == LINK_RESOLVED:
                ref_id = citation.ref_id
                if ref_id not in cited_codes:
                    ref = references[ref_id]
                    cited_keys = [a.key for a in ref.authors]
                    cited_codes[ref_id] = {
                        "A": code_document_type(ref),
                        "B": code_authorship(ref.authors, "B", ref.et_al),
                        "C": code_relation(citing_keys, cited_keys, graph, scores, config.delta),
                        "E": code_frequency(counts[ref_id]),
                    }
                coded.update(cited_codes[ref_id])
            else:
                uncodable = Uncodable(_LINK_REASON[citation.link_status])
                coded.update(dict.fromkeys("ABCE", (uncodable, None)))
            records.append(assemble_record(meta.doc_id, citation, context, coded, j_matches))
    return records


@dataclass
class RunResult:
    """Everything a corpus run produces, before any file is written.

    ``documents`` holds each coded document's metadata, in id order;
    the parsed documents themselves do not outlive the coding pass.
    """

    records: list[CodedCitation]
    documents: list[DocumentMetadata]
    graph: CoauthorGraph
    summary: dict = field(default_factory=dict)


def code_corpus(
    documents: list[Document],
    config: PipelineConfig | None = None,
    resources: Resources | None = None,
    skipped: list[tuple[str, str]] | None = None,
) -> RunResult:
    """Code a parsed corpus: graph first, then one pass per document.

    The pass consumes ``documents``: it leaves the list empty and holds
    no parsed document once that document is coded, so the corpus and
    its records are never all in memory at once. A repeated document id
    raises MalformedInput before any document is coded. The documents
    are coded in id order, and a document's citation ids run in reading
    order, so the records, the unlinked-citation lists and the warnings
    come out in output order without a further sort. The pass extracts
    a document's citations, codes them, and notes its unresolved and
    ambiguous markers and its warnings for the summary.
    """
    config = config or PipelineConfig()
    resources = resources or load_resources(config)
    documents.sort(key=lambda doc: doc.metadata.doc_id)
    metadata = [doc.metadata for doc in documents]
    for before, after in pairwise(metadata):
        if before.doc_id == after.doc_id:
            raise MalformedInput(f"duplicate document id {after.doc_id!r}")
    documents.reverse()  # so that pop() hands them out in id order

    graph = build_coauthor_graph(metadata)
    scores = capital_scores(graph)

    records: list[CodedCitation] = []
    unlinked: dict[str, list[dict]] = {LINK_UNRESOLVED: [], LINK_AMBIGUOUS: []}
    warnings: dict[str, list[str]] = {}
    while documents:
        doc = documents.pop()
        citations = extract_citations(doc)
        records += code_document(doc, citations, resources, config, graph, scores)
        for citation in citations:
            if citation.link_status != LINK_RESOLVED:
                start, end = citation.char_span
                unlinked[citation.link_status].append({
                    "doc_id": doc.metadata.doc_id,
                    "citation_id": citation.citation_id,
                    "sentence_index": citation.sentence_index,
                    "marker": doc.sentences[citation.sentence_index][start:end],
                })
        if doc.warnings:
            warnings[doc.metadata.doc_id] = doc.warnings
    resolved = sum(r.link_status == LINK_RESOLVED for r in records)
    unresolved = unlinked[LINK_UNRESOLVED]
    ambiguous = unlinked[LINK_AMBIGUOUS]

    summary = {
        "documents": len(metadata),
        "citations": {
            "total": len(records),
            "resolved": resolved,
            "unresolved": len(unresolved),
            "ambiguous": len(ambiguous),
        },
        "records_written": resolved,
        "coauthor_graph": {
            "authors": len(graph.nodes),
            "edges": graph.edge_count,
        },
        "skipped_documents": [
            {"path": path, "error": error}
            for path, error in sorted(skipped or [])
        ],
        "unresolved_citations": unresolved,
        "ambiguous_citations": ambiguous,
        "document_warnings": warnings,
        "config": config.echo(),
    }
    return RunResult(records=records, documents=metadata, graph=graph, summary=summary)


def run_pipeline(
    entries: list[tuple[Path, str]],
    config: PipelineConfig | None = None,
    resources: Resources | None = None,
    jobs: int = 1,
    strict: bool = False,
) -> RunResult:
    """Manifest entries in, fully coded corpus out.

    ``jobs`` has no effect; the run is serial. It is accepted so that
    callers which pass it keep working.
    """
    config = config or PipelineConfig()
    resources = resources or load_resources(config)
    documents, skipped = parse_corpus(entries, resources.abbreviations, strict=strict)
    return code_corpus(documents, config, resources, skipped=skipped)


def write_outputs(result: RunResult, output_dir: str | Path) -> dict[str, Path]:
    """Write the three deterministic run artifacts.

    coded.jsonl holds one record per resolved citation; summary.json
    carries counts, warnings, skips, and the effective configuration;
    coauthors.tsv is the coauthorship edge list.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "coded": out / "coded.jsonl",
        "summary": out / "summary.json",
        "edges": out / "coauthors.tsv",
    }
    resolved = [r for r in result.records if r.link_status == LINK_RESOLVED]
    write_jsonl(resolved, paths["coded"])
    paths["summary"].write_text(
        json.dumps(result.summary, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    write_edge_list(result.graph, paths["edges"])
    return paths
