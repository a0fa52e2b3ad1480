"""Frequency tables and their CSV rendering."""

from __future__ import annotations

from collections import Counter

import pytest

from citecode.aggregate import aggregate, table_to_csv
from citecode.codebook import CATEGORIES, Uncodable, value_order
from citecode.errors import UnknownCategory

from test_records import FULL_SLOTS, build


def test_one_way_counts():
    records = [
        build(citation_id="c0001", slots={**FULL_SLOTS, "J": "J2"}),
        build(citation_id="c0002", slots={**FULL_SLOTS, "J": "J2"}),
        build(citation_id="c0003", slots={**FULL_SLOTS, "J": "J4"}),
    ]
    assert aggregate(records, "J") == Counter({"J2": 2, "J4": 1})


def test_cross_tab_counts():
    records = [
        build(citation_id="c0001", slots={**FULL_SLOTS, "D": "D2", "I": "I1"}),
        build(citation_id="c0002", slots={**FULL_SLOTS, "D": "D2", "I": "I1"}),
        build(citation_id="c0003", slots={**FULL_SLOTS, "D": "D5", "I": "I3"}),
    ]
    counts = aggregate(records, "D", "I")
    assert counts == Counter({("D2", "I1"): 2, ("D5", "I3"): 1})


def test_cross_tab_margins_match_one_way():
    records = [
        build(citation_id=f"c{i:04d}", slots={**FULL_SLOTS, "D": d, "I": i_})
        for i, (d, i_) in enumerate(
            [("D2", "I1"), ("D2", "I2"), ("D4", "I2"), ("D5", "I3"), ("D5", "I3")],
            start=1,
        )
    ]
    one_way = aggregate(records, "D")
    crossed = aggregate(records, "D", "I")
    for d_value in value_order("D"):
        assert one_way.get(d_value, 0) == sum(
            count for (row, _), count in crossed.items() if row == d_value
        )


def test_uncodable_bucket():
    records = [
        build(citation_id="c0001", slots={**FULL_SLOTS, "K": Uncodable("unmapped-venue")}),
        build(citation_id="c0002"),
    ]
    counts = aggregate(records, "K")
    assert counts == Counter({"uncodable": 1, "K1": 1})


def test_empty_record_list():
    assert aggregate([], "J") == Counter()


def test_unknown_category_rejected():
    with pytest.raises(UnknownCategory):
        aggregate([], "Z")
    with pytest.raises(UnknownCategory):
        aggregate([], "D", "Q")


def test_one_way_csv_is_dense_and_ordered():
    records = [build(citation_id="c0001", slots={**FULL_SLOTS, "J": "J2"})]
    csv_text = table_to_csv(aggregate(records, "J"), "J")
    lines = csv_text.splitlines()
    assert lines[0] == "J,count"
    assert lines[1:] == ["J1,0", "J2,1", "J3,0", "J4,0", "uncodable,0"]


def test_cross_tab_csv_grid_shape():
    records = [
        build(citation_id="c0001", slots={**FULL_SLOTS, "D": "D2", "I": "I1"}),
    ]
    csv_text = table_to_csv(aggregate(records, "D", "I"), "D", "I")
    lines = csv_text.splitlines()
    assert lines[0] == "D\\I,I1,I2,I3,I4,uncodable"
    assert len(lines) == 1 + 7 + 1  # header + D1..D7 + uncodable row
    d2_row = lines[2].split(",")
    assert d2_row[0] == "D2"
    assert d2_row[1] == "1"
    assert sum(int(cell) for cell in d2_row[1:]) == 1


def test_csv_totals_match_record_count(corpus_result):
    records = corpus_result.records
    for category in CATEGORIES:
        csv_text = table_to_csv(aggregate(records, category), category)
        total = sum(
            int(line.rsplit(",", 1)[1]) for line in csv_text.splitlines()[1:]
        )
        assert total == len(records)


def test_cross_tab_totals_match_record_count(corpus_result):
    records = corpus_result.records
    csv_text = table_to_csv(aggregate(records, "D", "I"), "D", "I")
    total = sum(
        int(cell)
        for line in csv_text.splitlines()[1:]
        for cell in line.split(",")[1:]
    )
    assert total == len(records)
