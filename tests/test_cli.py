"""The four subcommands, driven through main(argv)."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from citecode import cli
from citecode.cli import _read_gold, main
from citecode.codebook import CATEGORIES, VALUES, require_category, value_order
from citecode.config import PipelineConfig
from citecode.errors import MalformedInput, NoOverlap
from citecode.ingest import FORMATS, parse_document
from citecode.metrics import agreement_report
from citecode.pipeline import read_manifest, run_pipeline, write_outputs
from citecode.records import decode_line, read_json_lines, read_jsonl, record_to_json
from citecode.synth import write_corpus

from conftest import FIXTURE_DIR, make_manifest
from test_records import build


@pytest.fixture(scope="module")
def coded_run(tmp_path_factory):
    """One full `code` run shared by the report/eval tests."""
    root = tmp_path_factory.mktemp("cli-run")
    manifest = make_manifest(root)
    out_dir = root / "out"
    exit_code = main(["code", "--manifest", str(manifest), "--out", str(out_dir)])
    assert exit_code == 0
    return out_dir


def test_code_writes_artifacts_and_reports(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    out_dir = tmp_path / "out"
    exit_code = main(["code", "--manifest", str(manifest), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert (
        "coded 22 citations from 8 documents (21 resolved, 1 unresolved, 0 ambiguous)"
        in captured.out
    )
    assert "wrote" in captured.out
    for name in ("coded.jsonl", "summary.json", "coauthors.tsv", "run.log"):
        assert (out_dir / name).is_file(), name
    assert len((out_dir / "coded.jsonl").read_text(encoding="utf-8").splitlines()) == 21


def test_code_without_out_writes_into_out_in_the_working_directory(tmp_path, monkeypatch):
    manifest = make_manifest(tmp_path)
    assert main(["code", "--manifest", str(manifest), "--out", str(tmp_path / "given")]) == 0
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["code", "--manifest", str(manifest)]) == 0
    assert sorted(path.name for path in work.iterdir()) == ["out"]
    for name in ("coded.jsonl", "coauthors.tsv"):
        assert (work / "out" / name).read_bytes() == (tmp_path / "given" / name).read_bytes()
    assert (work / "out" / "run.log").is_file()


def test_run_log_counts_and_warnings_match_the_summary(tmp_path, capsys):
    (tmp_path / "paper-a.txt").write_bytes((FIXTURE_DIR / "paper-a.txt").read_bytes())
    # Two documents without a section, listed against path order.
    for name in ("zz-empty.txt", "aa-empty.txt"):
        (tmp_path / name).write_text("#META id: empty\n", encoding="utf-8")
    (tmp_path / "zeta.txt").write_text(
        "#META id: zeta\n#META year: 2100\n#SECTION Introduction\nText (Smith, 2011).\n",
        encoding="utf-8",
    )
    (tmp_path / "alpha.txt").write_text(
        "#META id: alpha\n#META authors: Doe, A.\n#NOTE x\n#SECTION Introduction\nText.\n"
        "#REFERENCES\n",
        encoding="utf-8",
    )
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        "".join(
            f"{name}\tplain_annotated\n"
            for name in ("paper-a.txt", "zz-empty.txt", "zeta.txt", "aa-empty.txt", "alpha.txt")
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert main(["code", "--manifest", str(manifest), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    log = (out_dir / "run.log").read_text(encoding="utf-8").splitlines()
    assert f"documents: {summary['documents']}" in log
    assert f"records_written: {summary['records_written']}" in log
    assert list(summary["document_warnings"]) == ["alpha", "zeta"]
    assert [line for line in log if line.startswith("warning [")] == [
        f"warning [{doc_id}]: {warning}"
        for doc_id, warnings in summary["document_warnings"].items()
        for warning in warnings
    ]
    skipped = summary["skipped_documents"]
    assert [Path(item["path"]).name for item in skipped] == ["aa-empty.txt", "zz-empty.txt"]
    assert "skipped: 2" in log
    assert log[-2:] == [
        f"skipped: {item['path']}: {item['error']}" for item in skipped
    ]
    assert capsys.readouterr().err.splitlines() == [
        f"skipped {item['path']}: {item['error']}" for item in skipped
    ]


def test_code_respects_config_windows(tmp_path):
    manifest = make_manifest(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("window_before=0\nwindow_after=0\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    exit_code = main(
        [
            "code",
            "--manifest", str(manifest),
            "--config", str(config),
            "--out", str(out_dir),
        ]
    )
    assert exit_code == 0
    records = list(read_jsonl(out_dir / "coded.jsonl"))
    assert all(r.context_level == "single_sentence" for r in records)
    assert all(len(r.context_sentences) == 1 for r in records)


def test_code_skips_bad_documents(tmp_path, capsys):
    broken = tmp_path / "broken.xml"
    broken.write_text("<document><unclosed>", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    good = make_manifest(tmp_path, names=("paper-a.txt",))
    manifest.write_text(
        good.read_text(encoding="utf-8") + f"{broken}\tstructured_xml\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    exit_code = main(["code", "--manifest", str(manifest), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "skipped" in captured.err
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["documents"] == 1
    assert len(summary["skipped_documents"]) == 1


def test_code_strict_fails_on_bad_document(tmp_path, capsys):
    broken = tmp_path / "broken.xml"
    broken.write_text("<document><unclosed>", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"{broken}\tstructured_xml\n", encoding="utf-8")
    exit_code = main(
        ["code", "--manifest", str(manifest), "--strict", "--out", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert captured.err.startswith("error:")


def test_code_strict_names_the_sectionless_document(tmp_path, capsys):
    bad = tmp_path / "sectionless.txt"
    bad.write_text("#META id: bad\n", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"{bad}\tplain_annotated\n", encoding="utf-8")
    exit_code = main(
        ["code", "--manifest", str(manifest), "--strict", "--out", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert captured.err == f"error: {bad}: document has no sections\n"


def test_code_missing_manifest(tmp_path, capsys):
    exit_code = main(
        ["code", "--manifest", str(tmp_path / "ghost.tsv"), "--out", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "error:" in captured.err


def test_report_one_way(coded_run, tmp_path, capsys):
    out_csv = tmp_path / "j.csv"
    exit_code = main(
        [
            "report",
            "--input", str(coded_run / "coded.jsonl"),
            "--rows", "J",
            "--out", str(out_csv),
        ]
    )
    assert exit_code == 0
    assert out_csv.read_text(encoding="utf-8").splitlines() == [
        "J,count",
        "J1,3",
        "J2,3",
        "J3,0",
        "J4,15",
        "uncodable,0",
    ]


def test_report_to_stdout(coded_run, capsys):
    exit_code = main(
        ["report", "--input", str(coded_run / "coded.jsonl"), "--rows", "F"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "F,count"
    assert "F3,3" in lines


def test_report_cross_tab(coded_run, tmp_path):
    out_csv = tmp_path / "di.csv"
    exit_code = main(
        [
            "report",
            "--input", str(coded_run / "coded.jsonl"),
            "--rows", "D",
            "--cols", "I",
            "--out", str(out_csv),
        ]
    )
    assert exit_code == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "D\\I,I1,I2,I3,I4,uncodable"
    assert len(lines) == 9
    total = sum(int(cell) for line in lines[1:] for cell in line.split(",")[1:])
    assert total == 21


def test_report_unknown_category(coded_run, capsys):
    exit_code = main(
        ["report", "--input", str(coded_run / "coded.jsonl"), "--rows", "Z"]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "unknown category" in captured.err


def write_gold(path, items):
    """One line per item: a string as it is, anything else as its JSON."""
    lines = [item if isinstance(item, str) else json.dumps(item) for item in items]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_eval_against_identical_gold(coded_run, tmp_path, capsys):
    records = read_jsonl(coded_run / "coded.jsonl")
    gold = write_gold(
        tmp_path / "gold.jsonl",
        [
            {"doc_id": r.doc_id, "citation_id": r.citation_id, "J": r.codes["J"]}
            for r in records
        ],
    )
    exit_code = main(
        [
            "eval",
            "--input", str(coded_run / "coded.jsonl"),
            "--gold", str(gold),
            "--categories", "J",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert captured.out.splitlines() == [
        "category,n,percent_agreement,cohens_kappa",
        "J,21,1.000000,1.000000",
    ]


def test_eval_half_agreement_worked_numbers(coded_run, tmp_path, capsys):
    # Two matches and two mismatches with balanced marginals: percent
    # agreement 0.5 and kappa exactly 0.
    gold = write_gold(
        tmp_path / "gold.jsonl",
        [
            {"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"},
            {"doc_id": "paper-b", "citation_id": "c0004", "J": "J2"},
            {"doc_id": "paper-b", "citation_id": "c0006", "J": "J1"},
            {"doc_id": "paper-c", "citation_id": "c0004", "J": "J2"},
        ],
    )
    exit_code = main(
        [
            "eval",
            "--input", str(coded_run / "coded.jsonl"),
            "--gold", str(gold),
            "--categories", "J",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "J,4,0.500000,0.000000" in captured.out.splitlines()


def test_eval_category_without_gold_values(coded_run, tmp_path, capsys):
    gold = write_gold(
        tmp_path / "gold.jsonl",
        [{"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"}],
    )
    exit_code = main(
        [
            "eval",
            "--input", str(coded_run / "coded.jsonl"),
            "--gold", str(gold),
            "--categories", "J,K",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    lines = captured.out.splitlines()
    assert lines[1].startswith("J,1,")
    assert lines[2] == "K,0,,"


def test_eval_rejects_a_repeated_category(coded_run, tmp_path, capsys):
    gold = write_gold(
        tmp_path / "gold.jsonl",
        [{"doc_id": "paper-b", "citation_id": "c0003", "I": "I1", "J": "J1"}],
    )
    exit_code = main(
        [
            "eval",
            "--input", str(coded_run / "coded.jsonl"),
            "--gold", str(gold),
            "--categories", "I,I,J",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert captured.out == ""
    assert captured.err == "error: category 'I' requested twice\n"


@pytest.mark.parametrize(
    "command, flag",
    [("report", "cols"), ("report", "out"), ("eval", "out"), ("code", "out"), ("code", "config")],
)
def test_an_empty_flag_value_is_a_bad_flag(
    coded_run, tmp_path, capsys, monkeypatch, command, flag
):
    # Read as the flag left out, an empty value would give a one-way
    # table, stdout, the configured out/ or the default config.
    coded = str(coded_run / "coded.jsonl")
    gold = write_gold(tmp_path / "gold.jsonl", [{"doc_id": "paper-b", "citation_id": "c0003"}])
    argv = {
        "report": ["report", "--input", coded, "--rows", "A"],
        "eval": ["eval", "--input", coded, "--gold", str(gold), "--categories", "J"],
        "code": ["code", "--manifest", str(make_manifest(tmp_path))],
    }[command]
    monkeypatch.chdir(tmp_path)
    assert main(argv + [f"--{flag}", ""]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: --{flag} is empty\n")
    assert not (tmp_path / "out").exists()


def test_eval_unmatched_gold_reported(coded_run, tmp_path, capsys):
    gold = write_gold(
        tmp_path / "gold.jsonl",
        [
            {"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"},
            {"doc_id": "nowhere", "citation_id": "c9999", "J": "J1"},
        ],
    )
    exit_code = main(
        [
            "eval",
            "--input", str(coded_run / "coded.jsonl"),
            "--gold", str(gold),
            "--categories", "J",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "unmatched gold items: 1" in captured.err


def test_eval_no_overlap_fails(coded_run, tmp_path, capsys):
    gold = write_gold(
        tmp_path / "gold.jsonl",
        [{"doc_id": "nowhere", "citation_id": "c9999", "J": "J1"}],
    )
    exit_code = main(
        [
            "eval",
            "--input", str(coded_run / "coded.jsonl"),
            "--gold", str(gold),
            "--categories", "J",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "error:" in captured.err


def test_eval_rejects_gold_without_ids(coded_run, tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text('{"J": "J1"}\n', encoding="utf-8")
    exit_code = main(
        [
            "eval",
            "--input", str(coded_run / "coded.jsonl"),
            "--gold", str(gold),
            "--categories", "J",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "doc_id" in captured.err


def test_eval_rejects_bad_gold_json(coded_run, tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text("not json\n", encoding="utf-8")
    exit_code = main(
        [
            "eval",
            "--input", str(coded_run / "coded.jsonl"),
            "--gold", str(gold),
            "--categories", "J",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "bad JSON" in captured.err


def _drop_key(line, key):
    payload = json.loads(line)
    del payload[key]
    return json.dumps(payload)


def _set_key(line, key, value):
    payload = json.loads(line)
    payload[key] = value
    return json.dumps(payload)


@pytest.mark.parametrize(
    "damage, message",
    [
        (None, "cannot read coded file"),
        (lambda line: line[: len(line) // 2], "line 2: coded.jsonl: bad JSON"),
        (lambda line: _drop_key(line, "doc_id"), "line 2: coded.jsonl: record has no 'doc_id'"),
        (
            lambda line: _drop_key(line, "link_status"),
            "line 2: coded.jsonl: record has no 'link_status'",
        ),
        (lambda line: "[]", "line 2: coded.jsonl: not a coded record"),
        (lambda line: _set_key(line, "doc_id", 5), "line 2: coded.jsonl: not a coded record"),
        (
            lambda line: _set_key(line, "J", "J9"),
            "line 2: coded.jsonl: 'J9' is not a J value",
        ),
        (lambda line: _set_key(line, "I", []), "line 2: coded.jsonl: not a coded record"),
        (lambda line: _set_key(line, "uncodable_reasons", "ab c"), "line 2: coded.jsonl: "),
        # Line 1 is hj-peer/c0001 and line 2 hj-peer/c0002.
        (
            lambda line: _set_key(line, "citation_id", "c0001"),
            "line 2: coded.jsonl: duplicate record hj-peer/c0001",
        ),
        # Deeper than the decoder's recursion limit.
        (
            lambda line: "[" * 100_000 + "]" * 100_000,
            "line 2: coded.jsonl: bad JSON (nested too deeply",
        ),
        # json reads no integer of more than 4,300 digits.
        (
            lambda line: line.replace('"sentence_index": ', '"sentence_index": ' + "9" * 5000),
            "line 2: coded.jsonl: bad JSON (Exceeds the limit",
        ),
    ],
    ids=[
        "missing-file", "truncated-line", "no-doc-id", "no-link-status", "not-an-object",
        "numeric-doc-id", "value-outside-codebook", "list-value", "string-reasons",
        "duplicate-record", "deeply-nested", "over-long-integer",
    ],
)
@pytest.mark.parametrize("command", ["report", "eval"])
def test_bad_coded_input_exits_two(coded_run, tmp_path, capsys, command, damage, message):
    coded = tmp_path / "coded.jsonl"
    if damage is not None:
        lines = (coded_run / "coded.jsonl").read_text(encoding="utf-8").splitlines()
        lines[1] = damage(lines[1])
        coded.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gold = write_gold(
        tmp_path / "gold.jsonl",
        [{"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"}],
    )
    argv = {
        "report": ["report", "--input", str(coded), "--rows", "J"],
        "eval": [
            "eval", "--input", str(coded), "--gold", str(gold), "--categories", "J",
        ],
    }[command]
    exit_code = main(argv)
    captured = capsys.readouterr()
    assert exit_code == 2
    assert message in captured.err
    assert "internal error" not in captured.err


@pytest.mark.parametrize("command", ["report", "eval"])
def test_non_utf8_input_exits_two_with_its_line(coded_run, tmp_path, capsys, command):
    good = (coded_run / "coded.jsonl").read_bytes()
    broken = tmp_path / "broken.jsonl"
    broken.write_bytes(good.replace(b'"paper-b"', b'"paper-\xff"', 1))
    bad_line = good[: good.index(b'"paper-b"')].count(b"\n") + 1
    gold = write_gold(
        tmp_path / "gold.jsonl",
        [{"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"}],
    )
    argv = {
        "report": ["report", "--input", str(broken), "--rows", "J"],
        "eval": [
            "eval", "--input", str(coded_run / "coded.jsonl"), "--gold", str(broken),
            "--categories", "J",
        ],
    }[command]
    what = {"report": "coded", "eval": "gold"}[command]
    exit_code = main(argv)
    captured = capsys.readouterr()
    assert exit_code == 2
    assert f"line {bad_line}: {what} file is not UTF-8" in captured.err


@pytest.mark.parametrize("command", ["report", "eval"])
def test_non_utf8_json_lines_count_lines_at_newlines_only(coded_run, tmp_path, capsys, command):
    # A carriage return between JSON tokens is whitespace, not a line end.
    good = (coded_run / "coded.jsonl").read_bytes().replace(b'{"', b'{\r"')
    bad_line = good[: good.index(b'"paper-b"')].count(b"\n") + 1
    broken = tmp_path / "broken.jsonl"
    broken.write_bytes(good.replace(b'"paper-b"', b'"paper-\xff"', 1))
    argv = {
        "report": ["report", "--input", str(broken), "--rows", "J"],
        "eval": [
            "eval", "--input", str(coded_run / "coded.jsonl"), "--gold", str(broken),
            "--categories", "J",
        ],
    }[command]
    assert main(argv) == 2
    what = {"report": "coded", "eval": "gold"}[command]
    assert f"line {bad_line}: {what} file is not UTF-8" in capsys.readouterr().err


_BOM = b"\xef\xbb\xbf"
_DATA_DIR = Path(PipelineConfig().abbreviations).parent


def _output_with_prefix(kind, root, prefix, coded_jsonl):
    """What the command that reads a ``kind`` input prints or writes,
    with ``prefix`` written before that one input's bytes."""
    root.mkdir()
    manifest = make_manifest(root)

    def write(name, data):
        (root / name).write_bytes(prefix + data)
        return root / name

    # The file each configured kind names, and its bytes.
    configured = {
        "lexicon": ("lexicon_negative", "neg.csv", (_DATA_DIR / "lexicon_negative.csv").read_bytes()),
        "venue-map": ("venue_map", "venues.csv", (_DATA_DIR / "venue_domains.csv").read_bytes()),
        # "Dr." first, where a byte-order mark would stick to it.
        "abbreviations": ("abbreviations", "abbr.txt", b"Dr.\ne.g.\n"),
    }
    config = None
    if kind == "document":
        doc = write("paper-a.txt", (FIXTURE_DIR / "paper-a.txt").read_bytes())
        manifest.write_text(f"{doc}\tplain_annotated\n", encoding="utf-8")
    elif kind == "manifest":
        manifest = write("manifest.tsv", manifest.read_bytes())
    elif kind == "config":
        config = write("run.cfg", b"# a comment first\nwindow_before=2\n")
    elif kind in configured:
        key, name, data = configured[kind]
        config = root / "run.cfg"
        config.write_text(f"{key}={write(name, data)}\n", encoding="utf-8")
        if kind == "abbreviations":
            (root / "dr.txt").write_text(
                "#META id: dr\n#SECTION Results\nAs Dr. Smith (2011) showed, it works.\n"
                "#REFERENCES\nSmith, J. (2011). T. J, 4(2), 1-10.\n",
                encoding="utf-8",
            )
            manifest.write_text(f"{root / 'dr.txt'}\tplain_annotated\n", encoding="utf-8")
    if kind == "coded":
        argv = ["report", "--input", str(write("coded.jsonl", coded_jsonl)), "--rows", "J"]
    elif kind == "gold":
        (root / "in.jsonl").write_bytes(coded_jsonl)
        gold = write("gold.jsonl", b'{"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"}\n')
        argv = ["eval", "--input", str(root / "in.jsonl"), "--gold", str(gold), "--categories", "J"]
    else:
        argv = ["code", "--manifest", str(manifest), "--out", str(root / "out")]
        argv += ["--config", str(config)] if config else []
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return (root / "out" / "coded.jsonl").read_bytes() if argv[0] == "code" else stdout.getvalue()


@pytest.mark.parametrize(
    "kind",
    ["document", "manifest", "config", "lexicon", "venue-map", "abbreviations", "coded", "gold"],
)
def test_a_byte_order_mark_reads_as_the_same_file_without_it(coded_run, tmp_path, kind):
    coded_jsonl = (coded_run / "coded.jsonl").read_bytes()
    plain = _output_with_prefix(kind, tmp_path / "plain", b"", coded_jsonl)
    assert _output_with_prefix(kind, tmp_path / "bom", _BOM, coded_jsonl) == plain


def test_a_byte_order_mark_moves_no_bad_byte_line():
    with pytest.raises(MalformedInput, match="^line 2: document file is not UTF-8 "):
        parse_document(_BOM + b"#META id: x\n\xff\n", "plain_annotated")


def test_eval_reports_the_coded_file_before_the_gold_file(coded_run, tmp_path, capsys):
    lines = (coded_run / "coded.jsonl").read_text(encoding="utf-8").splitlines()
    coded = tmp_path / "coded.jsonl"
    coded.write_text("\n".join(lines[:3] + ["not json"] + lines[3:]) + "\n", encoding="utf-8")
    gold = write_gold(tmp_path / "gold.jsonl", ["not json"])
    exit_code = main(["eval", "--input", str(coded), "--gold", str(gold), "--categories", "J"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "line 4: coded.jsonl: bad JSON" in captured.err
    assert "gold" not in captured.err


@pytest.mark.parametrize("command", ["report", "eval"])
def test_a_bad_last_coded_line_writes_no_output(coded_run, tmp_path, capsys, command):
    lines = (coded_run / "coded.jsonl").read_text(encoding="utf-8").splitlines()
    coded = tmp_path / "coded.jsonl"
    coded.write_text("\n".join(lines + ["not json"]) + "\n", encoding="utf-8")
    gold = write_gold(
        tmp_path / "gold.jsonl",
        [{"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"}],
    )
    out = tmp_path / "out.csv"
    argv = {
        "report": ["report", "--input", str(coded), "--rows", "J"],
        "eval": ["eval", "--input", str(coded), "--gold", str(gold), "--categories", "J"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"line {len(lines) + 1}: coded.jsonl: bad JSON" in capsys.readouterr().err
    assert not out.exists()


def _traced_peak(function) -> int:
    """The tracemalloc peak of one call, above what was held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        function()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["report", "eval"])
def test_report_and_eval_hold_under_the_record_list(tmp_path, command):
    # Both commands take one record at a time, so neither holds every
    # record of the file at once, as a list of them does.
    manifest = write_corpus(tmp_path / "corpus", 20, seed=5)
    coded = str(write_outputs(run_pipeline(read_manifest(manifest)), tmp_path / "out")["coded"])
    gold = write_gold(tmp_path / "gold.jsonl", [
        {"doc_id": r.doc_id, "citation_id": r.citation_id, "I": value_or_bucket(r, "I"),
         "J": value_or_bucket(r, "J")}
        for r in read_jsonl(coded)
    ])
    argv = {
        "report": ["report", "--input", coded, "--rows", "D", "--cols", "I"],
        "eval": ["eval", "--input", coded, "--gold", str(gold), "--categories", "I,J"],
    }[command] + ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0  # fills every cache first
    as_list = _traced_peak(lambda: list(read_jsonl(coded)))
    command_peak = _traced_peak(lambda: main(argv))
    assert as_list > 500_000
    assert command_peak < 0.7 * as_list, (command_peak, as_list)


def test_report_reads_ids_holding_a_line_separator(tmp_path, capsys):
    # JSON leaves U+2028 unescaped, and str.splitlines() would break the
    # record there.
    source = (FIXTURE_DIR / "sample.xml").read_text(encoding="utf-8")
    doc = tmp_path / "doc.xml"
    doc.write_text(source.replace("<id>xml-sample</id>", "<id>xml\u2028sample</id>"),
                   encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"{doc}\tstructured_xml\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["code", "--manifest", str(manifest), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--input", str(out_dir / "coded.jsonl"), "--rows", "D"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "D2,2"


@pytest.mark.parametrize(
    "items, message",
    [
        (
            [
                {"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"},
                {"doc_id": "paper-b", "citation_id": "c0004", "J": "J1"},
                {"doc_id": "paper-b", "citation_id": "c0003", "J": "J2"},
            ],
            "line 3: gold: duplicate item paper-b/c0003",
        ),
        (
            [
                {"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"},
                {"doc_id": "paper-b", "citation_id": "c0004", "J": "I1"},
            ],
            "line 2: gold: 'I1' is not a J value",
        ),
        (
            [
                {"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"},
                {"doc_id": "paper-b", "citation_id": "c0004", "Q": "J1"},
            ],
            "line 2: gold: 'Q' is not a category",
        ),
        (
            [
                {"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"},
                '{"doc_id": "paper-b", "citation_id": "c0004", "J": ' + "9" * 5000 + "}",
            ],
            # json reads no integer of more than 4,300 digits.
            "line 2: gold: bad JSON (Exceeds the limit",
        ),
        (
            [
                {"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"},
                "[" * 100_000 + "]" * 100_000,
            ],
            "line 2: gold: bad JSON (nested too deeply",
        ),
    ],
    ids=[
        "duplicate-item", "value-of-other-category", "unknown-category", "over-long-integer",
        "deeply-nested",
    ],
)
def test_eval_rejects_bad_gold_items(coded_run, tmp_path, capsys, items, message):
    gold = write_gold(tmp_path / "gold.jsonl", items)
    exit_code = main(
        [
            "eval",
            "--input", str(coded_run / "coded.jsonl"),
            "--gold", str(gold),
            "--categories", "J",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 2
    assert message in captured.err


def test_eval_accepts_uncodable_gold_value(coded_run, tmp_path, capsys):
    gold = write_gold(
        tmp_path / "gold.jsonl",
        [{"doc_id": "paper-b", "citation_id": "c0003", "K": "uncodable"}],
    )
    exit_code = main(
        [
            "eval",
            "--input", str(coded_run / "coded.jsonl"),
            "--gold", str(gold),
            "--categories", "K",
        ]
    )
    assert exit_code == 0
    assert capsys.readouterr().out.splitlines()[1] == "K,1,0.000000,0.000000"


# -- the previous gold reader, kept as the reference for the one-pass reader --


def reference_read_gold(path):
    gold = {}
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
        values = {}
        for field, value in item.items():
            if field in ("doc_id", "citation_id"):
                continue
            if field not in CATEGORIES:
                raise MalformedInput(f"gold: {field!r} is not a category", line=line_no)
            values[field] = str(value)
        for category, value in values.items():
            if value not in value_order(category):
                raise MalformedInput(f"gold: {value!r} is not a {category} value", line=line_no)
        gold[key] = values
    return gold


def outcome(function, *args):
    """What a call gives: its value, or its error's type and message."""
    try:
        return "value", function(*args)
    except Exception as exc:  # the comparison is the point
        return "error", type(exc), str(exc)


_GOLD_VALUES = st.one_of(
    st.sampled_from(["I1", "I4", "J2", "K3", "uncodable", "Z1", "", "c1"]),
    st.none(),
    st.integers(0, 2),
    st.lists(st.just("I1"), max_size=1),
)
_GOLD_ITEMS = st.fixed_dictionaries(
    {"doc_id": st.sampled_from(["d1", "d2", 1]), "citation_id": st.sampled_from(["c1", "1"])},
    optional={field: _GOLD_VALUES for field in ("I", "J", "K", "Z", "i", "Id")},
)
# A gold line: an item, maybe missing an id, or a line that is not one.
_GOLD_LINES = st.one_of(
    st.tuples(_GOLD_ITEMS, st.sets(st.sampled_from(["doc_id", "citation_id"]))).map(
        lambda pair: json.dumps({k: v for k, v in pair[0].items() if k not in pair[1]})
    ),
    _GOLD_ITEMS.map(lambda item: json.dumps(item)[:-1]),
    _GOLD_ITEMS.map(lambda item: "\ufeff" + json.dumps(item)),
    _GOLD_ITEMS.map(lambda item: f" {json.dumps(item)}\r"),
    st.sampled_from(["", "  ", "[]", '"d1"', "null", "not json", "NaN", '{"doc_id": NaN, "citation_id": 1}']),
)


@pytest.fixture(scope="module")
def gold_path(tmp_path_factory):
    return tmp_path_factory.mktemp("gold") / "gold.jsonl"


@given(lines=st.lists(_GOLD_LINES, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_read_gold_matches_the_reference(gold_path, lines):
    gold_path.write_text("\n".join(lines), encoding="utf-8")
    assert outcome(_gold_by_key, str(gold_path)) == outcome(reference_read_gold, str(gold_path))


def _gold_by_key(path):
    return dict(_read_gold(path))


# -- the two-pass eval and the method-call aggregate, kept as references --


def value_or_bucket(record, category):
    """The coded value, or the literal bucket name 'uncodable'."""
    value = record.codes.get(category)
    return value if value is not None else "uncodable"


def reference_gold_by_key(path):
    allowed = {
        category: {value: value for value in value_order(category)} for category in CATEGORIES
    }
    gold = {}
    for line_no, line in enumerate(read_json_lines(path, "gold"), start=1):
        if not line.strip():
            continue
        try:
            item = decode_line(line)
        except ValueError as exc:
            raise MalformedInput(f"gold: bad JSON ({exc})", line=line_no) from None
        if not isinstance(item, dict) or "doc_id" not in item or "citation_id" not in item:
            raise MalformedInput(
                "gold: every line needs doc_id and citation_id", line=line_no
            )
        key = (str(item["doc_id"]), str(item["citation_id"]))
        if key in gold:
            raise MalformedInput(f"gold: duplicate item {key[0]}/{key[1]}", line=line_no)
        values = {}
        invalid = None
        for field, value in item.items():
            if field == "doc_id" or field == "citation_id":
                continue
            if field not in allowed:
                raise MalformedInput(f"gold: {field!r} is not a category", line=line_no)
            value = str(value)
            values[field] = stored = allowed[field].get(value)
            if stored is None and invalid is None:
                invalid = f"gold: {value!r} is not a {field} value"
        if invalid is not None:
            raise MalformedInput(invalid, line=line_no)
        gold[key] = values
    return gold


def reference_cmd_eval(args):
    categories = [
        require_category(c.strip()) for c in args.categories.split(",") if c.strip()
    ]
    if not categories:
        raise MalformedInput("no categories requested")
    tables = {}
    for category in categories:
        if category in tables:
            raise MalformedInput(f"category {category!r} requested twice")
        tables[category] = Counter()
    coded = {
        (record.doc_id, record.citation_id): tuple(
            value_or_bucket(record, category) for category in tables
        )
        for record in read_jsonl(args.input)
    }
    gold = reference_gold_by_key(args.gold)
    matched = gold.keys() & coded.keys()
    if not matched:
        raise NoOverlap("no gold item matches any coded citation")
    for key in matched:
        values = gold[key]
        for (category, table), auto_value in zip(tables.items(), coded[key]):
            if category in values:
                table[auto_value, values[category]] += 1
    out_lines = ["category,n,percent_agreement,cohens_kappa"]
    for category in categories:
        row = f"{category},0,,"
        if tables[category]:
            report = agreement_report(category, tables[category])
            row = f"{category},{report.n_items},{report.percent_agreement:.6f},{report.kappa:.6f}"
        out_lines.append(row)
    cli._write_or_print("\n".join(out_lines) + "\n", args.out)
    if len(gold) > len(matched):
        print(f"unmatched gold items: {len(gold) - len(matched)}", file=sys.stderr)
    return 0


def reference_aggregate(records, rows, cols=None):
    require_category(rows)
    if cols is not None:
        require_category(cols)
    counts = Counter()
    for record in records:
        row_value = value_or_bucket(record, rows)
        if cols is None:
            counts[row_value] += 1
        else:
            counts[(row_value, value_or_bucket(record, cols))] += 1
    return counts


# (key, value) faults of read_jsonl's; a None value drops the key.
_CODED_FAULTS = (
    ("doc_id", None), ("doc_id", 5), ("J", "J9"), ("I", []), ("uncodable_reasons", "ab c"),
)


def _with_one_fault(draw, lines, faults):
    """The lines as they are, or with one faulty line put in."""
    if not draw(st.booleans()):
        return lines
    fault = draw(st.sampled_from(faults))
    return draw(st.permutations([*lines, fault]))


@st.composite
def _eval_coded_file(draw):
    """Coded lines of a small id pool, one of read_jsonl's faults among them at times."""
    lines = []
    for doc_id, citation_id in draw(st.lists(
        st.tuples(st.sampled_from(["d1", "d2", "5"]), st.sampled_from(["c1", "c2"])),
        unique=True, min_size=1, max_size=5,
    )):
        payload = json.loads(record_to_json(build(doc_id=doc_id, citation_id=citation_id)))
        payload.update(draw(st.fixed_dictionaries({}, optional={
            category: st.sampled_from([*VALUES[category], None]) for category in "DIJK"
        })))
        lines.append(json.dumps(payload))
    line = draw(st.sampled_from(lines))
    faulty = [line, line[: len(line) // 2], "[]", " "]
    for key, value in _CODED_FAULTS:
        payload = json.loads(line)
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        faulty.append(json.dumps(payload))
    return _with_one_fault(draw, lines, faulty)


@st.composite
def _eval_gold_file(draw):
    """Gold lines whose ids overlap the coded pool in part, a bad line among them at times.

    The integer id 5 matches the coded "5".
    """
    items = draw(st.lists(
        st.fixed_dictionaries(
            {"doc_id": st.sampled_from(["d1", "d2", 5, "d3"]),
             "citation_id": st.sampled_from(["c1", "c2"])},
            optional={category: st.sampled_from(value_order(category)) for category in "IJK"},
        ),
        unique_by=lambda item: (item["doc_id"], item["citation_id"]), min_size=1, max_size=5,
    ))
    lines = [json.dumps(item) for item in items]
    item = draw(st.sampled_from(items))
    faulty = [
        # A repeat, also of 5 as "5"; cut JSON; no object; no doc_id.
        json.dumps({**item, "doc_id": str(item["doc_id"])}), json.dumps(item)[:-1], "[]",
        "not json", "",
        json.dumps({"citation_id": item["citation_id"]}),
        json.dumps({**item, "Z": "Z1"}), json.dumps({**item, "J": "Q1"}),
        json.dumps({**item, "I": 1}),
    ]
    return _with_one_fault(draw, lines, faulty)


_EVAL_COMMANDS = st.one_of(
    st.sampled_from(["I,J", "J", "K,I", "D", "I,I"]).map(
        lambda categories: ["eval", "--categories", categories]
    ),
    st.tuples(st.sampled_from("DIJ"), st.sampled_from([None, "I", "K"])).map(
        lambda pair: ["report", "--rows", pair[0]] + (["--cols", pair[1]] if pair[1] else [])
    ),
)


def _run_command(argv, out):
    """Exit code, the --out file's bytes (None when none was written), stderr."""
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else None, stderr.getvalue()


@given(
    coded_lines=_eval_coded_file(),
    gold_lines=_eval_gold_file(),
    command=_EVAL_COMMANDS,
)
@settings(max_examples=300, deadline=None)
def test_report_and_eval_match_the_reference(gold_path, coded_lines, gold_lines, command):
    coded = gold_path.with_name("coded.jsonl")
    coded.write_text("\n".join(coded_lines), encoding="utf-8")
    gold_path.write_text("\n".join(gold_lines), encoding="utf-8")
    argv = [command[0], "--input", str(coded), *command[1:]]
    if command[0] == "eval":
        argv += ["--gold", str(gold_path)]
    out = gold_path.with_name("out.csv")
    got = _run_command(argv, out)
    with mock.patch.object(cli, "cmd_eval", reference_cmd_eval), \
            mock.patch.object(cli, "aggregate", reference_aggregate):
        expected = _run_command(argv, out)
    assert got == expected


def test_net_exports_edges(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    out_path = tmp_path / "edges.tsv"
    exit_code = main(["net", "--manifest", str(manifest), "--out", str(out_path)])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "10 authors, 6 edges" in captured.out
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    assert all("\t" in line for line in lines)


def test_no_subcommand_prints_usage(capsys):
    exit_code = main([])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "usage:" in captured.err


def _boom(*args, **kwargs):
    raise RuntimeError("synthetic failure")


def _style_off_the_codebook(*args, **kwargs):
    return "F9", "F:bogus"


@pytest.mark.parametrize(
    "name, fault",
    [("run_pipeline", _boom), ("code_style", _style_off_the_codebook)],
    ids=["runtime-error", "coder-off-the-codebook"],
)
def test_internal_errors_exit_one(tmp_path, capsys, monkeypatch, name, fault):
    import citecode.pipeline

    # cmd_code imports run_pipeline from citecode.pipeline when it runs,
    # and code_document calls each coder through the module's globals.
    monkeypatch.setattr(citecode.pipeline, name, fault)
    manifest = make_manifest(tmp_path)
    exit_code = main(["code", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "Traceback (most recent call last)" in captured.err
    assert captured.err.splitlines()[-1].startswith("internal error:")
    if name == "code_style":
        # assemble_record is where the off-the-codebook value is caught.
        assert 'records.py", line' in captured.err


# -- fuzzing: any input bytes exit 0 or 2, never 1 ----------------------

# Pieces of both input grammars, spliced into real documents so that
# most fuzzed inputs get past the first parse check.
_DOCUMENT_PIECES = [
    "\n", "\n\n", "#META id: fz\n", "#META id:\n", "#META authors: Smith, J.; ;0\n",
    "#META year: 20x1\n", "#META venue-type: zine\n", "#META domain: K9\n",
    "#SECTION Results\n", "#SECTION\n", "#REFERENCES\n", "#OTHER\n",
    "[1] Smith, J. (2011). T. J, 4(2), 1-10.\n", "[1] Doe, A. (2011a). Dup.\n",
    "(Smith, 2011)", "Smith (2011)", "[1, 2]",
    "(e.g., Doe and Smith 2011a; Berg et al. 2001, p. 5)",
    "(", ")", "[", "]", ";", ":", ".", "e.g.", "\"", "“", "<", ">", "&", "&amp;", "&#0;",
    "<section header=\"Methods\">", "</section>", "<paragraph>", "</paragraph>",
    "<reference id=\"1\">", "</reference>", "<id>", "</id>", "<year>x</year>",
    "<author>0</author>", "<venue type=\"zine\">", "</document>", "<document>",
    "\u2028", "\x85", "\x00", "\ufeff", "\u0130", "\u03a3", "\u212a",
]


@st.composite
def _spliced(draw, base: bytes):
    data = bytearray(base)
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(len(data), start + 60)))
        data[start:stop] = draw(
            st.binary(max_size=8) | st.sampled_from(_DOCUMENT_PIECES).map(str.encode)
        )
    return bytes(data)


_DOCUMENT_BYTES = (
    st.binary(max_size=300)
    | _spliced((FIXTURE_DIR / "paper-a.txt").read_bytes())
    | _spliced((FIXTURE_DIR / "sample.xml").read_bytes())
)


@given(data=_DOCUMENT_BYTES, doc_format=st.sampled_from(FORMATS), strict=st.booleans())
@settings(max_examples=150, deadline=None)
def test_code_on_any_document_bytes_exits_zero_or_two(data, doc_format, strict):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "doc").write_bytes(data)
        manifest = root / "m.tsv"
        manifest.write_text(f"doc\t{doc_format}\n", encoding="utf-8")
        argv = ["code", "--manifest", str(manifest), "--out", str(root / "out")]
        assert main(argv + ["--strict"] * strict) in (0, 2)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _coded_bytes(draw, lines: list[str]):
    """Coded JSONL whose records have keys dropped or retyped."""
    out = []
    for line in draw(st.lists(st.sampled_from(lines), min_size=1, max_size=4)):
        record = json.loads(line)
        for key in draw(st.lists(st.sampled_from(sorted(record)), max_size=3, unique=True)):
            if draw(st.booleans()):
                del record[key]
            else:
                record[key] = draw(_JSON_VALUES)
        out.append(json.dumps(record, ensure_ascii=draw(st.booleans())))
    return "\n".join(out).encode("utf-8")


@given(data=st.data(), command=st.sampled_from(["report", "eval"]))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_report_and_eval_on_any_coded_bytes_exit_zero_or_two(coded_run, data, command):
    lines = (coded_run / "coded.jsonl").read_text(encoding="utf-8").splitlines()
    coded_bytes = data.draw(st.binary(max_size=300) | _coded_bytes(lines))
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        coded = root / "coded.jsonl"
        coded.write_bytes(coded_bytes)
        gold = write_gold(root / "gold.jsonl", [
            {"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"},
        ])
        argv = {
            "report": ["report", "--input", str(coded), "--rows", "J", "--cols", "I"],
            "eval": [
                "eval", "--input", str(coded), "--gold", str(gold), "--categories", "I,J",
            ],
        }[command]
        assert main(argv) in (0, 2)


# -- every input reader: unreadable bytes exit 2 and name the file -----

# The config key that names each resource file, and a file name for it.
_RESOURCE_KEYS = {
    "lexicon": ("lexicon_negative", "lexicon_negative.csv"),
    "venue map": ("venue_map", "venue_domains.csv"),
    "abbreviation": ("abbreviations", "abbreviations.txt"),
}


def _one_document_run(root: Path, kind: str, data: bytes) -> list[str]:
    """Write a one-document corpus with ``data`` as the file of ``kind``.

    Returns the `code` argv; the output goes under ``root``.
    """
    (root / "paper-a.txt").write_bytes((FIXTURE_DIR / "paper-a.txt").read_bytes())
    manifest = root / "m.tsv"
    manifest.write_bytes(data if kind == "manifest" else b"paper-a.txt\tplain_annotated\n")
    argv = ["code", "--manifest", str(manifest), "--out", str(root / "out")]
    config = root / "run.cfg"
    if kind == "config":
        config.write_bytes(data)
    elif kind in _RESOURCE_KEYS:
        key, name = _RESOURCE_KEYS[kind]
        (root / name).write_bytes(data)
        config.write_text(f"{key}={name}\n", encoding="utf-8")
    else:
        return argv
    return argv + ["--config", str(config)]


@pytest.mark.parametrize(
    "kind, data, message",
    [
        ("manifest", b"# corpus\n\xffpaper-a.txt\tplain_annotated\n",
         "line 2: manifest file is not UTF-8"),
        ("config", b"window_before=1\n\nwindow_after=\xc3\n", "line 3: config file is not UTF-8"),
        ("lexicon", b"phrase,tag\nbut,negative\nlacks \xe9,negative\n",
         "line 3: negative lexicon file is not UTF-8"),
        ("lexicon", b"phrase,tag\n" + b"a" * 140_000 + b",negative\n",
         "line 2: lexicon_negative.csv: field larger than field limit"),
        ("venue map", b"venue_pattern,K_value\n\x80,K1\n", "line 2: venue map file is not UTF-8"),
        # An empty pattern is a substring of every venue name.
        ("venue map", b"venue_pattern,K_value\njournal,K1\n  ,K3\n",
         "line 3: venue_domains.csv: empty venue pattern"),
        ("abbreviation", b"e.g.\ni.e.\n\xfe\n", "line 3: abbreviation file is not UTF-8"),
        # A path holding a NUL byte cannot be opened or resolved.
        ("config", b"window_before=1\nlexicon_negative=a\x00b\n",
         "line 2: run.cfg: lexicon_negative holds a NUL byte"),
        ("config", b"abbreviations=a\x00b\n", "line 1: run.cfg: abbreviations holds a NUL byte"),
        # The output directory is --out's alone.
        ("config", b"# out\noutput_dir=o\n", "line 2: run.cfg: unknown key 'output_dir'"),
    ],
    ids=["manifest", "config", "lexicon", "lexicon-field-limit", "venue-map",
         "venue-map-empty-pattern", "abbreviation", "config-nul-lexicon",
         "config-nul-abbreviations", "config-output-dir"],
)
def test_bad_input_file_exits_two_naming_kind_and_line(tmp_path, capsys, kind, data, message):
    exit_code = main(_one_document_run(tmp_path, kind, data))
    captured = capsys.readouterr()
    assert exit_code == 2
    assert message in captured.err
    assert "internal error" not in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("strict", [False, True])
def test_nul_byte_in_a_manifest_path_is_reported(tmp_path, capsys, strict):
    manifest = tmp_path / "m.tsv"
    manifest.write_bytes(b"paper-a.txt\tplain_annotated\na\x00b.txt\tplain_annotated\n")
    (tmp_path / "paper-a.txt").write_bytes((FIXTURE_DIR / "paper-a.txt").read_bytes())
    argv = ["code", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    exit_code = main(argv + ["--strict"] * strict)
    captured = capsys.readouterr()
    assert exit_code == (2 if strict else 0)
    assert "a\x00b.txt: cannot read document file" in captured.err
    assert "embedded null byte" in captured.err
    assert "internal error" not in captured.err
    if not strict:
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert summary["documents"] == 1
        assert [item["path"] for item in summary["skipped_documents"]] == [
            str(tmp_path / "a\x00b.txt")
        ]
    exit_code = main(["net", "--manifest", str(manifest), "--out", str(tmp_path / "e.tsv")])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "a\x00b.txt: cannot read document file" in captured.err


def test_net_rejects_a_non_utf8_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    manifest.write_bytes(b"\n\n\xff\tplain_annotated\n")
    exit_code = main(["net", "--manifest", str(manifest), "--out", str(tmp_path / "e.tsv")])
    assert exit_code == 2
    assert "line 3: manifest file is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("strict", [False, True])
def test_non_utf8_document_is_reported_with_its_line(tmp_path, capsys, strict):
    text = (FIXTURE_DIR / "paper-a.txt").read_bytes()
    (tmp_path / "paper-a.txt").write_bytes(text)
    bad_line = 3
    lines = text.split(b"\n")
    lines[bad_line - 1] += b"\xff"
    (tmp_path / "bad.txt").write_bytes(b"\n".join(lines))
    manifest = tmp_path / "m.tsv"
    manifest.write_text("paper-a.txt\tplain_annotated\nbad.txt\tplain_annotated\n",
                        encoding="utf-8")
    argv = ["code", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    exit_code = main(argv + ["--strict"] * strict)
    captured = capsys.readouterr()
    assert exit_code == (2 if strict else 0)
    assert f"line {bad_line}: document file is not UTF-8" in captured.err
    assert "bad.txt" in captured.err


_UNWRITABLE = ["missing-directory", "under-a-file"]


def _unwritable_out(root: Path, where: str, segments: list[str]) -> Path:
    if where == "missing-directory":
        return root.joinpath("missing", *segments)
    (root / "plain-file").write_text("x", encoding="utf-8")
    return root.joinpath("plain-file", *segments)


def _out_argv(command: str, root: Path, out: Path, coded: Path) -> list[str]:
    manifest = root / "m.tsv"
    (root / "paper-a.txt").write_bytes((FIXTURE_DIR / "paper-a.txt").read_bytes())
    manifest.write_text("paper-a.txt\tplain_annotated\n", encoding="utf-8")
    gold = write_gold(root / "gold.jsonl", [
        {"doc_id": "paper-b", "citation_id": "c0003", "J": "J1"},
    ])
    return {
        "code": ["code", "--manifest", str(manifest), "--out", str(out)],
        "report": ["report", "--input", str(coded), "--rows", "J", "--out", str(out)],
        "eval": [
            "eval", "--input", str(coded), "--gold", str(gold), "--categories", "J",
            "--out", str(out),
        ],
        "net": ["net", "--manifest", str(manifest), "--out", str(out)],
    }[command]


@pytest.mark.parametrize(
    "command, where",
    [("report", "missing-directory"), ("eval", "missing-directory"),
     ("net", "missing-directory"), ("code", "under-a-file"), ("report", "under-a-file")],
)
def test_unwritable_output_path_exits_two(coded_run, tmp_path, capsys, command, where):
    out = _unwritable_out(tmp_path, where, ["x.out"])
    exit_code = main(_out_argv(command, tmp_path, out, coded_run / "coded.jsonl"))
    captured = capsys.readouterr()
    assert exit_code == 2
    assert captured.err.startswith("error: ")
    assert "internal error" not in captured.err


_RESOURCE_BYTES = {
    "manifest": b"paper-a.txt\tplain_annotated\n",
    "config": b"window_before=1\nwindow_after=2\ndelta=0.3\n# note\nabbreviations=abbr.txt\n",
    **{
        kind: getattr(PipelineConfig(), key).read_bytes()
        for kind, (key, _) in _RESOURCE_KEYS.items()
    },
}

_RESOURCE_PIECES = [
    "\n", "\r", "\r\n", ",", "\t", "=", "#", "\"", "*", ".", " ", "0", "-1", "6", "1e9", "nan",
    "K1", "K9", "negative", "phrase,tag", "venue_pattern,K_value", "window_before",
    "lexicon_focus", "abbreviations", "plain_annotated", "structured_xml", "paper-a.txt",
    "\u2028", "\x85", "\x00", "\ufeff", "\u0130",
]


@st.composite
def _resource_bytes(draw, kind: str):
    data = bytearray(_RESOURCE_BYTES[kind])
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(len(data), start + 40)))
        data[start:stop] = draw(
            st.binary(max_size=6) | st.sampled_from(_RESOURCE_PIECES).map(str.encode)
        )
    return bytes(data)


_READER_INPUTS = st.sampled_from(["manifest", "config", *_RESOURCE_KEYS]).flatmap(
    lambda kind: st.tuples(st.just(kind), st.binary(max_size=300) | _resource_bytes(kind))
)


@given(case=_READER_INPUTS)
@example(case=("manifest", b"a\x00b.txt\tplain_annotated\n"))
@example(case=("config", b"abbreviations=a\x00b\n"))
@settings(max_examples=150, deadline=None)
def test_code_on_any_reader_bytes_exits_zero_or_two(case):
    kind, payload = case
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        if kind == "config":
            (root / "abbr.txt").write_bytes(_RESOURCE_BYTES["abbreviation"])
        assert main(_one_document_run(root, kind, payload)) in (0, 2)
        if kind == "manifest":
            argv = ["net", "--manifest", str(root / "m.tsv"), "--out", str(root / "e.tsv")]
            assert main(argv) in (0, 2)


@given(
    command=st.sampled_from(["code", "report", "eval", "net"]),
    where=st.sampled_from(_UNWRITABLE),
    segments=st.lists(st.text(alphabet="abxy_-", min_size=1, max_size=6), min_size=1,
                      max_size=3),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_unwritable_output_path_exits_zero_or_two(coded_run, command, where, segments):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        out = _unwritable_out(root, where, segments)
        assert main(_out_argv(command, root, out, coded_run / "coded.jsonl")) in (0, 2)
