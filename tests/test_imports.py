"""What each entry point imports, each checked in a fresh interpreter.

The package resolves its exported names on first access, so a command
loads only the layers it runs: ``import citecode`` the aggregation
layer, ``citecode.cli`` the read side, and a coding run the coding
layers without agreement metrics or logging.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import citecode

SRC = str(Path(citecode.__file__).parents[1])

# Every name the package exported when it imported each layer eagerly,
# with the submodule that defines it.
EXPORTED = {
    "aggregate": ("aggregate", "table_to_csv"),
    "citations": (
        "detect_citations", "extract_citations", "extract_context", "link_citation",
        "mention_counts",
    ),
    "codebook": ("CATEGORIES", "LABELS", "UNCODABLE", "VALUES", "Uncodable", "value_order"),
    "config": ("PipelineConfig",),
    "errors": (
        "CitecodeError", "DuplicateRefId", "EmptyDocument", "IncompleteCoding", "InvalidCount",
        "LengthMismatch", "MalformedConfig", "MalformedInput", "MalformedLexicon", "NoOverlap",
        "ParseError", "UnknownCategory", "UnparseableName",
    ),
    "ingest": ("FORMAT_PLAIN", "FORMAT_XML", "parse_document", "serialize_document"),
    "metrics": (
        "AgreementReport", "agreement_report", "cohens_kappa", "confusion_table",
        "percent_agreement",
    ),
    "models": (
        "AuthorName", "CitationContext", "Document", "DocumentMetadata", "InTextCitation",
        "LINK_AMBIGUOUS", "LINK_RESOLVED", "LINK_UNRESOLVED", "ReferenceEntry", "Section",
    ),
    "names": ("fold_to_ascii", "normalize_author_key", "surname_of"),
    "network": (
        "CoauthorGraph", "build_coauthor_graph", "capital_scores", "centrality_betweenness",
        "centrality_degree", "centrality_harmonic", "code_relation", "percentile_ranks",
        "write_edge_list",
    ),
    "pipeline": (
        "Resources", "RunResult", "code_corpus", "code_document", "load_resources",
        "read_manifest", "run_pipeline", "write_outputs",
    ),
    "records": (
        "CodedCitation", "assemble_record", "read_jsonl", "record_from_json", "record_to_json",
        "write_jsonl",
    ),
    "refparse": ("parse_reference_entry",),
    "semantic": (
        "CueLexicon", "LexiconSet", "WindowCues", "code_disposition", "code_domain",
        "code_focus", "code_function", "load_lexicon", "load_venue_map", "token_text",
    ),
    "sentences": ("DEFAULT_ABBREVIATIONS", "load_abbreviations", "segment_sentences"),
    "syntactic": (
        "code_authorship", "code_document_type", "code_frequency", "code_location",
        "code_style", "has_attributed_quote", "normalize_section_header",
    ),
}

CODING_MODULES = [
    f"citecode.{name}"
    for name in (
        "pipeline", "semantic", "syntactic", "ingest", "citations", "network", "config",
        "refparse", "sentences", "names",
    )
]


def _run(code: str) -> object:
    """Run code in a fresh interpreter; the JSON it prints last."""
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _loaded_by(statements: str) -> set[str]:
    """The modules that the statements import, beyond start-up's."""
    return set(_run(
        "import json, sys\nbefore = set(sys.modules)\n"
        f"{statements}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    ))


def test_import_citecode_loads_only_the_aggregation_layer():
    loaded = _loaded_by("import citecode")
    assert {name for name in loaded if name.startswith("citecode")} == {
        "citecode", "citecode.aggregate", "citecode.records", "citecode.codebook",
        "citecode.errors", "citecode.models",
    }


def test_import_cli_loads_no_coding_layer():
    loaded = _loaded_by("import citecode.cli")
    assert "citecode.cli" in loaded
    unwanted = [*CODING_MODULES, "xml.etree.ElementTree", "logging"]
    assert sorted(loaded & set(unwanted)) == []


def test_coding_set_up_loads_neither_metrics_nor_logging():
    loaded = _loaded_by(
        "from citecode.config import PipelineConfig\n"
        "from citecode.pipeline import load_resources\n"
        "config = PipelineConfig()\nconfig.validate()\nload_resources(config)"
    )
    assert "citecode.pipeline" in loaded
    assert sorted(loaded & {"citecode.metrics", "logging"}) == []


def test_package_exports_every_name_it_exported_before():
    problems = _run(
        "import importlib, json\n"
        "import citecode\n"
        f"exported = {EXPORTED!r}\n"
        "problems = []\n"
        "listed = dir(citecode)\n"
        "for module, names in exported.items():\n"
        "    for name in names:\n"
        "        if name not in citecode.__all__ or name not in listed:\n"
        "            problems.append(f'{name} not listed')\n"
        "        owner = importlib.import_module(f'citecode.{module}')\n"
        "        if getattr(citecode, name) is not getattr(owner, name):\n"
        "            problems.append(f'{name} is not citecode.{module}.{name}')\n"
        "import citecode.cli\n"
        "if citecode.aggregate is not citecode.cli.aggregate:\n"
        "    problems.append('citecode.aggregate is not the function')\n"
        "try:\n"
        "    citecode.no_such_name\n"
        "    problems.append('an unknown name resolved')\n"
        "except AttributeError:\n"
        "    pass\n"
        "print(json.dumps(problems))"
    )
    assert problems == []
    assert sorted(citecode.__all__) == sorted(n for names in EXPORTED.values() for n in names)
