"""Citation content coding for scholarly full text.

Parse documents, detect and link in-text citations, assign each one a
twelve-category code (A through L), aggregate the results, and measure
agreement against gold annotations.
"""

from .aggregate import aggregate, table_to_csv
from .citations import (
    detect_citations,
    extract_citations,
    extract_context,
    link_citation,
    mention_counts,
)
from .codebook import CATEGORIES, LABELS, UNCODABLE, VALUES, Uncodable, value_order
from .config import PipelineConfig
from .errors import (
    CitecodeError,
    DuplicateRefId,
    EmptyDocument,
    IncompleteCoding,
    InvalidCount,
    LengthMismatch,
    MalformedConfig,
    MalformedInput,
    MalformedLexicon,
    NoOverlap,
    ParseError,
    UnknownCategory,
    UnparseableName,
)
from .ingest import (
    FORMAT_PLAIN,
    FORMAT_XML,
    parse_document,
    serialize_document,
)
from .metrics import (
    AgreementReport,
    agreement_report,
    cohens_kappa,
    confusion_table,
    percent_agreement,
)
from .models import (
    AuthorName,
    CitationContext,
    Document,
    DocumentMetadata,
    InTextCitation,
    LINK_AMBIGUOUS,
    LINK_RESOLVED,
    LINK_UNRESOLVED,
    ReferenceEntry,
    Section,
)
from .names import fold_to_ascii, normalize_author_key, surname_of
from .network import (
    CoauthorGraph,
    build_coauthor_graph,
    capital_scores,
    centrality_betweenness,
    centrality_degree,
    centrality_harmonic,
    code_relation,
    percentile_ranks,
    write_edge_list,
)
from .pipeline import (
    Resources,
    RunResult,
    code_corpus,
    code_document,
    load_resources,
    read_manifest,
    run_pipeline,
    write_outputs,
)
from .records import (
    CodedCitation,
    assemble_record,
    read_jsonl,
    record_from_json,
    record_to_json,
    write_jsonl,
)
from .refparse import parse_reference_entry
from .semantic import (
    CueLexicon,
    LexiconSet,
    WindowCues,
    code_disposition,
    code_domain,
    code_focus,
    code_function,
    load_lexicon,
    load_venue_map,
    token_text,
)
from .sentences import DEFAULT_ABBREVIATIONS, load_abbreviations, segment_sentences
from .syntactic import (
    code_authorship,
    code_document_type,
    code_frequency,
    code_location,
    code_style,
    has_attributed_quote,
    normalize_section_header,
)

__version__ = "0.1.0"
