"""Acceptance gate: eight checks, one visible verdict line each.

Each test prints `acceptance N <label>: PASS/FAIL (elapsed, budget)`
even under captured output, so a plain pytest run shows the verdicts.
Budgets are wall-clock seconds and are asserted, not just reported.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import citecode
from citecode.config import PipelineConfig
from citecode.errors import CitecodeError
from citecode.ingest import FORMAT_PLAIN, FORMAT_XML, parse_document
from citecode.metrics import agreement_report
from citecode.models import Document
from citecode.network import centrality_betweenness, centrality_harmonic
from citecode.pipeline import (
    code_corpus,
    load_resources,
    read_manifest,
    run_pipeline,
    write_outputs,
)
from citecode.records import read_jsonl
from citecode.aggregate import aggregate, table_to_csv
from citecode.syntactic import code_frequency
from citecode.synth import write_corpus

from conftest import ALL_FIXTURES, load_fixture, make_manifest
from test_network import graph_of, oracle_betweenness, oracle_harmonic_fraction


class Verdict:
    """Times one criterion and prints its pass/fail line."""

    def __init__(self, capsys, number, label, budget):
        self.capsys = capsys
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        ok = exc_type is None and elapsed < self.budget
        status = "PASS" if ok else "FAIL"
        with self.capsys.disabled():
            print(
                f"acceptance {self.number} {self.label}: {status} "
                f"({elapsed:.2f}s, budget {self.budget:.0f}s)"
            )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"acceptance {self.number} exceeded its {self.budget:.0f}s budget"
            )
        return False


def test_acceptance_1_fixture_corpus_worked_examples(capsys):
    with Verdict(capsys, 1, "fixture corpus coding", budget=1.0):
        documents = [load_fixture(name) for name in ALL_FIXTURES]
        result = code_corpus(documents)
        keyed = {(r.doc_id, r.citation_id): r for r in result.records}

        # Style ladder: one document shows all three F values.
        assert [
            keyed[("style-fixture", f"c{i:04d}")].codes["F"] for i in (1, 2, 3)
        ] == ["F1", "F2", "F3"]

        # Relation: self-citation vs coauthor-edge citation.
        assert keyed[("hj-self", "c0001")].codes["C"] == "C1"
        assert keyed[("hj-peer", "c0002")].codes["C"] == "C2"

        # Function values across the three essay fixtures.
        expected_i = {
            ("paper-a", "c0001"): "I1",
            ("paper-a", "c0002"): "I2",
            ("paper-a", "c0003"): "I4",
            ("paper-b", "c0001"): "I1",
            ("paper-b", "c0002"): "I2",
            ("paper-b", "c0003"): "I3",
            ("paper-b", "c0004"): "I3",
            ("paper-b", "c0005"): "I3",
            ("paper-b", "c0006"): "I4",
            ("paper-c", "c0001"): "I1",
            ("paper-c", "c0002"): "I2",
            ("paper-c", "c0003"): "I3",
            ("paper-c", "c0004"): "I4",
        }
        for key, value in expected_i.items():
            assert keyed[key].codes["I"] == value, key

        # Criticism shows up as J2 with recorded cues.
        for key in (("paper-a", "c0003"), ("paper-b", "c0006"), ("paper-c", "c0004")):
            assert keyed[key].codes["J"] == "J2", key
            assert keyed[key].matched_cues, key

        # Domain and focus pairs per citing document.
        for doc_id, k_value, l_value in (
            ("paper-a", "K1", "L1"),
            ("paper-b", "K1", "L2"),
            ("paper-c", "K3", "L3"),
        ):
            doc_records = [r for r in result.records if r.doc_id == doc_id]
            assert {r.codes["K"] for r in doc_records} == {k_value}
            assert {r.codes["L"] for r in doc_records} == {l_value}


def test_acceptance_2_frequency_boundaries(capsys):
    with Verdict(capsys, 2, "mention-count boundaries", budget=1.0):
        outcomes = [code_frequency(count)[0] for count in (1, 2, 4, 5, 17)]
        assert outcomes == ["E1", "E2", "E2", "E3", "E3"]


def test_acceptance_3_centrality_against_oracles(capsys):
    with Verdict(capsys, 3, "centrality dual-route check", budget=5.0):
        rng = random.Random(31337)
        for _ in range(100):
            n = rng.randint(2, 8)
            nodes = [f"a{i}" for i in range(n)]
            p = rng.choice((0.15, 0.35, 0.55, 0.8))
            edges = [
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            ]
            graph = graph_of(nodes, edges)
            fast = centrality_betweenness(graph)
            slow = oracle_betweenness(graph.adjacency)
            for node in nodes:
                assert abs(fast[node] - slow[node]) <= 1e-9, graph.adjacency
            harmonic = centrality_harmonic(graph)
            for node in nodes:
                exact = oracle_harmonic_fraction(graph.adjacency, node)
                assert abs(harmonic[node] - float(exact)) <= 1e-12, graph.adjacency


def test_acceptance_4_agreement_metrics(capsys):
    with Verdict(capsys, 4, "agreement metrics", budget=1.0):
        def scored(a, b):
            return agreement_report("J", Counter(zip(a, b)))

        sample = ["J1", "J2", "J4", "J2", "J3"]
        assert scored(sample, list(sample)).percent_agreement == 1.0
        assert scored(sample, list(sample)).kappa == 1.0

        a = ["J1", "J1", "J2", "J2"]
        b = ["J1", "J2", "J1", "J2"]
        assert scored(a, b).percent_agreement == 0.5
        assert scored(a, b).kappa == 0.0

        rng = random.Random(99)
        values = ("J1", "J2", "J3", "J4", "uncodable")
        for _ in range(1000):
            n = rng.randint(1, 50)
            x = [rng.choice(values) for _ in range(n)]
            y = [rng.choice(values) for _ in range(n)]
            assert scored(x, y).percent_agreement == scored(y, x).percent_agreement
            assert scored(x, y).kappa == scored(y, x).kappa


def test_acceptance_5_deterministic_outputs(capsys, tmp_path):
    with Verdict(capsys, 5, "byte-identical reruns", budget=10.0):
        manifest = write_corpus(tmp_path / "corpus", 50)
        entries = read_manifest(manifest)

        def run_and_write(tag):
            result = run_pipeline(entries)
            out = tmp_path / tag
            paths = write_outputs(result, out)
            report = table_to_csv(
                aggregate(read_jsonl(paths["coded"]), "D", "I"), "D", "I"
            )
            (out / "report.csv").write_text(report, encoding="utf-8")
            return out

        first = run_and_write("run1")
        second = run_and_write("run2")
        # A fresh interpreter under another hash seed iterates sets and
        # dicts of strings in another order, which a shared one cannot.
        other = tmp_path / "other-process"
        seed = "999" if os.environ.get("PYTHONHASHSEED") == "12345" else "12345"
        code = (
            "import sys; from citecode.pipeline import read_manifest, run_pipeline, "
            "write_outputs; write_outputs(run_pipeline(read_manifest(sys.argv[1])), sys.argv[2])"
        )
        subprocess.run(
            [sys.executable, "-c", code, str(manifest), str(other)], check=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(citecode.__file__).parents[1]),
                "PYTHONHASHSEED": seed,
            },
        )
        for name in ("coded.jsonl", "summary.json", "coauthors.tsv", "report.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name
        for name in ("coded.jsonl", "summary.json", "coauthors.tsv"):
            assert (other / name).read_bytes() == (first / name).read_bytes(), name


def test_acceptance_6_parser_fuzzing(capsys):
    with Verdict(capsys, 6, "ingestion fuzzing", budget=30.0):
        rng = random.Random(0xF00D)
        formats = (FORMAT_PLAIN, FORMAT_XML)
        for i in range(10_000):
            blob = rng.randbytes(rng.randint(0, 160))
            try:
                outcome = parse_document(blob, formats[i % 2])
            except CitecodeError:
                continue
            assert isinstance(outcome, Document)


def test_acceptance_7_throughput(capsys, tmp_path):
    with Verdict(capsys, 7, "single-threaded throughput", budget=60.0):
        manifest = write_corpus(tmp_path, 1000, sentences=50, refs=20)
        entries = read_manifest(manifest)
        result = run_pipeline(entries, jobs=1)
        assert result.summary["documents"] == 1000
        assert result.summary["citations"]["total"] > 10_000
        assert result.summary["skipped_documents"] == []


def test_acceptance_8_lexicon_ablation(capsys, tmp_path):
    with Verdict(capsys, 8, "empty-lexicon ablation", budget=5.0):
        empty = tmp_path / "empty.csv"
        empty.write_text("phrase,tag\n", encoding="utf-8")
        config = PipelineConfig(lexicon=empty)
        config.validate()
        resources = load_resources(config)
        entries = read_manifest(make_manifest(tmp_path))
        result = run_pipeline(entries, config, resources)

        location_prior = {
            "D1": "I1", "D2": "I1", "D3": "I1", "D4": "I2",
            "D5": "I3", "D6": "I4", "D7": "I1",
        }
        focus_prior = {"K1": "L2", "K2": "L1", "K3": "L3", "K4": "L3"}
        assert result.records
        for record in result.records:
            assert record.codes["I"] == location_prior[record.codes["D"]]
            assert record.codes["J"] == "J4"
            assert record.matched_cues == []
            k_value = record.codes["K"]
            expected_l = focus_prior[k_value] if k_value else "L4"
            assert record.codes["L"] == expected_l
