"""Citation content coding for scholarly full text.

Parse documents, detect and link in-text citations, assign each one a
twelve-category code (A through L), aggregate the results, and measure
agreement against gold annotations.

Every name below is importable from the package, but each layer loads
on first use: ``import citecode`` loads only the aggregation layer, and
``citecode.run_pipeline`` (say) imports ``citecode.pipeline`` when it is
first read. ``aggregate`` and ``table_to_csv`` are bound eagerly,
because the submodule ``citecode.aggregate`` shares the function's
name: importing that submodule later would rebind the package's
``aggregate`` to the module.
"""

import importlib

from .aggregate import aggregate, table_to_csv

__version__ = "0.1.0"

# Owning submodule -> the names the package exports from it.
_EXPORTS = {
    "citations": (
        "detect_citations",
        "extract_citations",
        "extract_context",
        "link_citation",
        "mention_counts",
    ),
    "codebook": ("CATEGORIES", "LABELS", "UNCODABLE", "VALUES", "Uncodable", "value_order"),
    "config": ("PipelineConfig",),
    "errors": (
        "CitecodeError",
        "DuplicateRefId",
        "EmptyDocument",
        "IncompleteCoding",
        "InvalidCount",
        "LengthMismatch",
        "MalformedConfig",
        "MalformedInput",
        "MalformedLexicon",
        "NoOverlap",
        "ParseError",
        "UnknownCategory",
        "UnparseableName",
    ),
    "ingest": ("FORMAT_PLAIN", "FORMAT_XML", "parse_document", "serialize_document"),
    "metrics": (
        "AgreementReport",
        "agreement_report",
        "cohens_kappa",
        "confusion_table",
        "percent_agreement",
    ),
    "models": (
        "AuthorName",
        "CitationContext",
        "Document",
        "DocumentMetadata",
        "InTextCitation",
        "LINK_AMBIGUOUS",
        "LINK_RESOLVED",
        "LINK_UNRESOLVED",
        "ReferenceEntry",
        "Section",
    ),
    "names": ("fold_to_ascii", "normalize_author_key", "surname_of"),
    "network": (
        "CoauthorGraph",
        "build_coauthor_graph",
        "capital_scores",
        "centrality_betweenness",
        "centrality_degree",
        "centrality_harmonic",
        "code_relation",
        "percentile_ranks",
        "write_edge_list",
    ),
    "pipeline": (
        "Resources",
        "RunResult",
        "code_corpus",
        "code_document",
        "load_resources",
        "read_manifest",
        "run_pipeline",
        "write_outputs",
    ),
    "records": (
        "CodedCitation",
        "assemble_record",
        "read_jsonl",
        "record_from_json",
        "record_to_json",
        "write_jsonl",
    ),
    "refparse": ("parse_reference_entry",),
    "semantic": (
        "CueLexicon",
        "LexiconSet",
        "WindowCues",
        "code_disposition",
        "code_domain",
        "code_focus",
        "code_function",
        "load_lexicon",
        "load_venue_map",
        "token_text",
    ),
    "sentences": ("DEFAULT_ABBREVIATIONS", "load_abbreviations", "segment_sentences"),
    "syntactic": (
        "code_authorship",
        "code_document_type",
        "code_frequency",
        "code_location",
        "code_style",
        "has_attributed_quote",
        "normalize_section_header",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["aggregate", "table_to_csv", *_OWNER])


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
