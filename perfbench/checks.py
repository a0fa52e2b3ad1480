"""Output checks that do not trust the program's own code paths.

Each check returns a list of failure messages; an empty list passes.
Expected values come from the generator's plan, from the pinned
digests, or from recomputing a table straight from the JSON lines.
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from pathlib import Path

I_VALUES = ("I1", "I2", "I3", "I4")
J_VALUES = ("J1", "J2", "J3", "J4")
# Shares of gold labels that disagree with the coded value, so eval
# has real disagreements to score.
GOLD_FLIP = {"I": 0.2, "J": 0.15}


def _records(coded: Path) -> list[dict]:
    return [json.loads(line) for line in coded.read_text(encoding="utf-8").splitlines() if line]


def write_gold(coded: Path, gold: Path, seed: int) -> None:
    """Gold labels for I and J: the coded values, a seeded share rotated."""
    rng = random.Random(f"gold:{seed}")
    lines = []
    for record in _records(coded):
        item = {"doc_id": record["doc_id"], "citation_id": record["citation_id"]}
        for category, values in (("I", I_VALUES), ("J", J_VALUES)):
            value = record[category]
            if rng.random() < GOLD_FLIP[category]:
                value = values[(values.index(value) + 1) % len(values)]
            item[category] = value
        lines.append(json.dumps(item))
    gold.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_summary(summary: dict, n_docs: int, planted: set[str], marker: str) -> tuple[list[str], int]:
    """Count fields and link outcomes.

    Returns the failed checks, and separately the number of citations
    linked other than planted; skipped documents are read from the
    summary by the caller, so neither is also counted as a check.
    """
    failures = []
    counts = summary["citations"]
    if summary["documents"] + len(summary["skipped_documents"]) != n_docs:
        failures.append(f"{summary['documents']} documents coded and "
                        f"{len(summary['skipped_documents'])} skipped, of {n_docs}")
    if counts["total"] != counts["resolved"] + counts["unresolved"] + counts["ambiguous"]:
        failures.append(f"citation counts do not add up: {counts}")
    if summary["records_written"] != counts["resolved"]:
        failures.append(f"records_written {summary['records_written']} != resolved {counts['resolved']}")
    if len(summary["unresolved_citations"]) != counts["unresolved"]:
        failures.append(f"{len(summary['unresolved_citations'])} unresolved items, count says {counts['unresolved']}")
    unresolved = Counter(
        item["doc_id"] for item in summary["unresolved_citations"] if item["marker"] == marker
    )
    bad_links = (
        counts["ambiguous"]
        + sum(1 for item in summary["unresolved_citations"] if item["marker"] != marker)
        + sum(n for doc, n in unresolved.items() if doc not in planted)
        + sum(abs(unresolved[doc] - 1) for doc in planted)
    )
    return failures, bad_links


def check_coded_lines(coded: Path, resolved: int) -> list[str]:
    lines = sum(1 for line in coded.read_text(encoding="utf-8").splitlines() if line)
    return [] if lines == resolved else [f"coded.jsonl has {lines} lines, summary says {resolved}"]


def check_graph(edges_tsv: Path, summary: dict, authors: set[str], edges: set[tuple[str, str]]) -> list[str]:
    """coauthors.tsv against the generator's own author and edge sets."""
    written = {
        tuple(line.split("\t"))
        for line in edges_tsv.read_text(encoding="utf-8").splitlines() if line
    }
    failures = []
    if written != edges:
        failures.append(
            f"coauthors.tsv: {len(written - edges)} unplanted edges, {len(edges - written)} missing"
        )
    connected = {key for edge in edges for key in edge}
    written_authors = {key for edge in written for key in edge}
    if written_authors != connected:
        failures.append(f"coauthors.tsv names {len(written_authors)} authors, planted {len(connected)}")
    graph = summary["coauthor_graph"]
    if graph != {"authors": len(authors), "edges": len(edges)}:
        failures.append(f"summary coauthor_graph {graph}, planted {len(authors)} authors, {len(edges)} edges")
    return failures


def check_report(coded: Path, report_csv: Path) -> list[str]:
    """The D x I cross-tab recomputed from the JSON lines."""
    expected = Counter(
        (r["D"] or "uncodable", r["I"] or "uncodable") for r in _records(coded)
    )
    with report_csv.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    columns = rows[0][1:]
    got = Counter()
    for row in rows[1:]:
        for column, cell in zip(columns, row[1:]):
            if int(cell):
                got[(row[0], column)] = int(cell)
    return [] if got == expected else [f"report D x I differs from recount: {sum(got.values())} vs {sum(expected.values())}"]


def check_eval(coded: Path, gold: Path, eval_csv: Path) -> list[str]:
    """n and percent agreement per category, recomputed from both files."""
    coded_values = {(r["doc_id"], r["citation_id"]): r for r in _records(coded)}
    gold_items = _records(gold)
    failures = []
    with eval_csv.open(encoding="utf-8", newline="") as handle:
        rows = {row["category"]: row for row in csv.DictReader(handle)}
    for category in ("I", "J"):
        pairs = [
            (coded_values[(g["doc_id"], g["citation_id"])][category], g[category])
            for g in gold_items
        ]
        agree = sum(1 for a, b in pairs if a == b) / len(pairs)
        row = rows.get(category)
        if row is None or int(row["n"]) != len(pairs) or abs(float(row["percent_agreement"]) - agree) > 1e-6:
            failures.append(f"eval {category}: got {row}, expected n={len(pairs)} agreement={agree:.6f}")
    return failures
