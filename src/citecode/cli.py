"""Command-line front end.

Four subcommands: ``code`` runs the full pipeline over a manifest,
``report`` turns coded output into frequency tables, ``eval`` compares
coded output against gold annotations, ``net`` exports the coauthorship
edge list. Exit codes: 0 success, 2 malformed input or flags, 1
internal error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from pathlib import Path

from .aggregate import aggregate, table_to_csv
from .codebook import require_category, value_order
from .config import PipelineConfig
from .errors import CitecodeError, MalformedInput, NoOverlap
from .metrics import agreement_report
from .network import build_coauthor_graph, write_edge_list
from .pipeline import (
    load_resources,
    parse_corpus,
    read_manifest,
    run_pipeline,
    write_outputs,
)
from .records import read_json_lines, read_jsonl
from .sentences import DEFAULT_ABBREVIATIONS


def _load_config(path: str | None) -> PipelineConfig:
    if path:
        return PipelineConfig.from_file(path)
    config = PipelineConfig()
    config.validate()
    return config


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_code(args: argparse.Namespace) -> int:
    started = time.monotonic()
    config = _load_config(args.config)
    if args.out:
        config.output_dir = Path(args.out)
    entries = read_manifest(args.manifest)
    resources = load_resources(config)
    result = run_pipeline(entries, config, resources, strict=args.strict)
    paths = write_outputs(result, config.output_dir)

    for path, error in result.skipped:
        print(f"skipped {path}: {error}", file=sys.stderr)

    log_lines = [
        f"started: {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
        f"elapsed_seconds: {time.monotonic() - started:.3f}",
        f"manifest: {args.manifest}",
        f"documents: {len(result.documents)}",
        f"records_written: {len(result.resolved_records)}",
        f"skipped: {len(result.skipped)}",
    ]
    for doc in result.documents:
        for warning in doc.warnings:
            log_lines.append(f"warning [{doc.metadata.doc_id}]: {warning}")
    for path, error in result.skipped:
        log_lines.append(f"skipped: {path}: {error}")
    (Path(config.output_dir) / "run.log").write_text(
        "\n".join(log_lines) + "\n", encoding="utf-8"
    )

    counts = result.summary["citations"]
    print(
        f"coded {counts['total']} citations from {len(result.documents)} documents "
        f"({counts['resolved']} resolved, {counts['unresolved']} unresolved, "
        f"{counts['ambiguous']} ambiguous)"
    )
    print(f"wrote {paths['coded']}, {paths['summary']}, {paths['edges']}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows = require_category(args.rows)
    cols = require_category(args.cols) if args.cols else None
    records = read_jsonl(args.input)
    counts = aggregate(records, rows, cols)
    _write_or_print(table_to_csv(counts, rows, cols), args.out)
    return 0


def _read_gold(path: str) -> dict[tuple[str, str], dict[str, str]]:
    gold: dict[tuple[str, str], dict[str, str]] = {}
    for line_no, line in enumerate(read_json_lines(path, "gold"), start=1):
        if not line.strip():
            continue
        try:
            item = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"gold: bad JSON ({exc})", line=line_no) from None
        if not isinstance(item, dict) or "doc_id" not in item or "citation_id" not in item:
            raise MalformedInput(
                "gold: every line needs doc_id and citation_id", line=line_no
            )
        key = (str(item["doc_id"]), str(item["citation_id"]))
        if key in gold:
            raise MalformedInput(f"gold: duplicate item {key[0]}/{key[1]}", line=line_no)
        values = {
            require_category(field): str(value)
            for field, value in item.items()
            if field not in ("doc_id", "citation_id")
        }
        for category, value in values.items():
            if value not in value_order(category):
                raise MalformedInput(f"gold: {value!r} is not a {category} value", line=line_no)
        gold[key] = values
    return gold


def cmd_eval(args: argparse.Namespace) -> int:
    categories = [
        require_category(c.strip()) for c in args.categories.split(",") if c.strip()
    ]
    if not categories:
        raise MalformedInput("no categories requested")
    records = {(r.doc_id, r.citation_id): r for r in read_jsonl(args.input)}
    gold = _read_gold(args.gold)

    aligned = [(records[key], values) for key, values in gold.items() if key in records]
    unmatched = len(gold) - len(aligned)
    if not aligned:
        raise NoOverlap("no gold item matches any coded citation")

    out_lines = ["category,n,percent_agreement,cohens_kappa"]
    for category in categories:
        pairs = [
            (record.value_or_bucket(category), values[category])
            for record, values in aligned
            if category in values
        ]
        if not pairs:
            out_lines.append(f"{category},0,,")
            continue
        auto = [a for a, _ in pairs]
        manual = [g for _, g in pairs]
        report = agreement_report(category, auto, manual)
        out_lines.append(
            f"{category},{report.n_items},{report.percent_agreement:.6f},{report.kappa:.6f}"
        )
    _write_or_print("\n".join(out_lines) + "\n", args.out)
    if unmatched:
        print(f"unmatched gold items: {unmatched}", file=sys.stderr)
    return 0


def cmd_net(args: argparse.Namespace) -> int:
    entries = read_manifest(args.manifest)
    documents, skipped = parse_corpus(entries, DEFAULT_ABBREVIATIONS)
    for path, error in skipped:
        print(f"skipped {path}: {error}", file=sys.stderr)
    graph = build_coauthor_graph([doc.metadata for doc in documents])
    write_edge_list(graph, args.out)
    print(f"wrote {args.out}: {len(graph.nodes)} authors, {len(graph.edges)} edges")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citecode",
        description="Code in-text citations of scholarly documents with a 12-category scheme.",
    )
    sub = parser.add_subparsers(dest="command")

    p_code = sub.add_parser("code", help="run the full coding pipeline")
    p_code.add_argument("--manifest", required=True, help="corpus manifest (path<TAB>format per line)")
    p_code.add_argument("--config", help="key=value configuration file")
    p_code.add_argument("--strict", action="store_true", help="fail on the first bad document")
    p_code.add_argument("--out", help="override the configured output directory")
    p_code.set_defaults(func=cmd_code)

    p_report = sub.add_parser("report", help="aggregate coded output into a CSV table")
    p_report.add_argument("--input", required=True, help="coded JSONL file")
    p_report.add_argument("--rows", required=True, help="category for table rows (A..L)")
    p_report.add_argument("--cols", help="optional category for a cross-tab")
    p_report.add_argument("--out", help="write CSV here instead of stdout")
    p_report.set_defaults(func=cmd_report)

    p_eval = sub.add_parser("eval", help="agreement between coded output and gold annotations")
    p_eval.add_argument("--input", required=True, help="coded JSONL file")
    p_eval.add_argument("--gold", required=True, help="gold JSONL file")
    p_eval.add_argument("--categories", required=True, help="comma-separated categories")
    p_eval.add_argument("--out", help="write CSV here instead of stdout")
    p_eval.set_defaults(func=cmd_eval)

    p_net = sub.add_parser("net", help="export the coauthorship edge list")
    p_net.add_argument("--manifest", required=True, help="corpus manifest")
    p_net.add_argument("--out", required=True, help="edge list output path")
    p_net.set_defaults(func=cmd_net)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except CitecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
