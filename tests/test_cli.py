"""The four subcommands, driven through main(argv)."""

from __future__ import annotations

import json

import pytest

from citecode.cli import main
from citecode.records import read_jsonl

from conftest import make_manifest


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
    records = read_jsonl(out_dir / "coded.jsonl")
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
    lines = [json.dumps(item) for item in items]
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
    ],
    ids=["missing-file", "truncated-line", "no-doc-id", "no-link-status", "not-an-object"],
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
    ],
    ids=["duplicate-item", "value-of-other-category"],
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


def test_internal_errors_exit_one(tmp_path, capsys, monkeypatch):
    import citecode.cli as cli_module

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_module, "run_pipeline", boom)
    manifest = make_manifest(tmp_path)
    exit_code = main(["code", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "internal error" in captured.err
