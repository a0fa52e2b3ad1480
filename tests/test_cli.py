"""The four subcommands, driven through main(argv)."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citecode.cli import main
from citecode.ingest import FORMATS
from citecode.records import read_jsonl

from conftest import FIXTURE_DIR, make_manifest


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
    ],
    ids=[
        "missing-file", "truncated-line", "no-doc-id", "no-link-status", "not-an-object",
        "numeric-doc-id", "value-outside-codebook", "list-value", "string-reasons",
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
