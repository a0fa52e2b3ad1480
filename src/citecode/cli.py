"""Command-line front end.

Four subcommands: ``code`` runs the full pipeline over a manifest,
``report`` turns coded output into frequency tables, ``eval`` compares
coded output against gold annotations, ``net`` exports the coauthorship
edge list. Exit codes: 0 success, 2 malformed input or flags or an
output path that cannot be written, 1 internal error.

Only the read side loads with this module: ``report`` and ``eval`` run
without importing the coding layers, which ``code`` and ``net`` import
when they start.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

from .aggregate import aggregate, table_to_csv
from .codebook import CATEGORIES, UNCODABLE, require_category, value_order
from .errors import CitecodeError, MalformedInput, NoOverlap
from .metrics import agreement_report
from .records import decode_line, read_json_lines, read_jsonl


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_code(args: argparse.Namespace) -> int:
    import datetime

    from .config import PipelineConfig
    from .pipeline import load_resources, read_manifest, run_pipeline, write_outputs

    started = time.monotonic()
    if args.config:
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig()
        config.validate()
    if args.out:
        config.output_dir = Path(args.out)
    entries = read_manifest(args.manifest)
    resources = load_resources(config)
    result = run_pipeline(entries, config, resources, strict=args.strict)
    paths = write_outputs(result, config.output_dir)

    summary = result.summary
    skipped = [f"{item['path']}: {item['error']}" for item in summary["skipped_documents"]]
    for line in skipped:
        print(f"skipped {line}", file=sys.stderr)

    log_lines = [
        f"started: {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
        f"elapsed_seconds: {time.monotonic() - started:.3f}",
        f"manifest: {args.manifest}",
        f"documents: {summary['documents']}",
        f"records_written: {summary['records_written']}",
        f"skipped: {len(skipped)}",
    ]
    for doc_id, warnings in summary["document_warnings"].items():
        for warning in warnings:
            log_lines.append(f"warning [{doc_id}]: {warning}")
    log_lines += [f"skipped: {line}" for line in skipped]
    (Path(config.output_dir) / "run.log").write_text(
        "\n".join(log_lines) + "\n", encoding="utf-8"
    )

    counts = summary["citations"]
    print(
        f"coded {counts['total']} citations from {summary['documents']} documents "
        f"({counts['resolved']} resolved, {counts['unresolved']} unresolved, "
        f"{counts['ambiguous']} ambiguous)"
    )
    print(f"wrote {paths['coded']}, {paths['summary']}, {paths['edges']}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows = require_category(args.rows)
    cols = require_category(args.cols) if args.cols else None
    counts = aggregate(read_jsonl(args.input), rows, cols)
    _write_or_print(table_to_csv(counts, rows, cols), args.out)
    return 0


def _read_gold(path: str) -> Iterator[tuple[tuple[str, str], dict[str, str]]]:
    """Each gold item's (doc_id, citation_id) and values, in file order.

    A bad file or line raises. A line is checked in this order: its
    JSON, its shape, a repeated key, every field a category, every value
    one of that category's. Only the keys seen so far are kept, for the
    repeat check.
    """
    allowed = {
        category: {value: value for value in value_order(category)} for category in CATEGORIES
    }
    seen: set[tuple[str, str]] = set()
    for line_no, line in enumerate(read_json_lines(path, "gold"), start=1):
        if not line.strip():
            continue
        try:
            item = decode_line(line)
        except ValueError as exc:  # decode_line's JSONDecodeError
            raise MalformedInput(f"gold: bad JSON ({exc})", line=line_no) from None
        if not isinstance(item, dict) or "doc_id" not in item or "citation_id" not in item:
            raise MalformedInput(
                "gold: every line needs doc_id and citation_id", line=line_no
            )
        key = (str(item["doc_id"]), str(item["citation_id"]))
        if key in seen:
            raise MalformedInput(f"gold: duplicate item {key[0]}/{key[1]}", line=line_no)
        seen.add(key)
        values = {}
        invalid = None
        for field, value in item.items():
            if field == "doc_id" or field == "citation_id":
                continue
            if field not in allowed:
                raise MalformedInput(f"gold: {field!r} is not a category", line=line_no)
            value = str(value)
            # The codebook's own string, or None for a value outside it.
            values[field] = stored = allowed[field].get(value)
            if stored is None and invalid is None:
                invalid = f"gold: {value!r} is not a {field} value"
        if invalid is not None:
            raise MalformedInput(invalid, line=line_no)
        yield key, values


def cmd_eval(args: argparse.Namespace) -> int:
    categories = [
        require_category(c.strip()) for c in args.categories.split(",") if c.strip()
    ]
    if not categories:
        raise MalformedInput("no categories requested")
    # One (auto, gold) pair count per category; coded faults come first.
    tables: dict[str, Counter] = {}
    for category in categories:
        if category in tables:
            raise MalformedInput(f"category {category!r} requested twice")
        tables[category] = Counter()
    coded = {(record.doc_id, record.citation_id): record.codes for record in read_jsonl(args.input)}
    # Each gold line's pairs are counted as soon as the line is checked.
    items = matched = 0
    for key, values in _read_gold(args.gold):
        items += 1
        codes = coded.get(key)
        if codes is None:
            continue
        matched += 1
        for category, table in tables.items():
            if category in values:
                auto = codes[category]
                table[UNCODABLE if auto is None else auto, values[category]] += 1
    if not matched:
        raise NoOverlap("no gold item matches any coded citation")

    out_lines = ["category,n,percent_agreement,cohens_kappa"]
    for category in categories:
        row = f"{category},0,,"
        if tables[category]:
            report = agreement_report(category, tables[category])
            row = f"{category},{report.n_items},{report.percent_agreement:.6f},{report.kappa:.6f}"
        out_lines.append(row)
    _write_or_print("\n".join(out_lines) + "\n", args.out)
    if items > matched:
        print(f"unmatched gold items: {items - matched}", file=sys.stderr)
    return 0


def cmd_net(args: argparse.Namespace) -> int:
    from .network import build_coauthor_graph, write_edge_list
    from .pipeline import parse_corpus, read_manifest
    from .sentences import DEFAULT_ABBREVIATIONS

    entries = read_manifest(args.manifest)
    documents, skipped = parse_corpus(entries, DEFAULT_ABBREVIATIONS)
    for path, error in skipped:
        print(f"skipped {path}: {error}", file=sys.stderr)
    graph = build_coauthor_graph([doc.metadata for doc in documents])
    write_edge_list(graph, args.out)
    print(f"wrote {args.out}: {len(graph.nodes)} authors, {graph.edge_count} edges")
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
    except (CitecodeError, OSError) as exc:
        # Input readers raise CitecodeError, so an OSError here is an
        # output path that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
