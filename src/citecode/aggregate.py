"""Frequency tables over coded records, with CSV rendering.

Tables are sparse mappings in the library and dense, deterministically
ordered grids in CSV form: every defined value of a category appears,
plus the trailing uncodable bucket.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from io import StringIO

from .codebook import UNCODABLE, require_category, value_order
from .records import CodedCitation


def aggregate(
    records: Iterable[CodedCitation],
    rows: str,
    cols: str | None = None,
) -> Counter:
    """Count records by one category, or cross two categories.

    Keys are values (one-way) or (row value, column value) pairs;
    uncodable slots land in the explicit "uncodable" bucket.
    """
    require_category(rows)
    if cols is not None:
        require_category(cols)
    counts: Counter = Counter()
    for record in records:
        codes = record.codes
        row_value = codes.get(rows)
        if row_value is None:
            row_value = UNCODABLE
        if cols is None:
            counts[row_value] += 1
        else:
            col_value = codes.get(cols)
            counts[row_value, UNCODABLE if col_value is None else col_value] += 1
    return counts


def table_to_csv(counts: Counter, rows: str, cols: str | None = None) -> str:
    """Render a dense CSV grid in codebook value order."""
    out = StringIO()
    row_values = value_order(rows)
    if cols is None:
        out.write(f"{rows},count\n")
        for value in row_values:
            out.write(f"{value},{counts.get(value, 0)}\n")
        return out.getvalue()
    col_values = value_order(cols)
    out.write(f"{rows}\\{cols}," + ",".join(col_values) + "\n")
    for row_value in row_values:
        cells = [str(counts.get((row_value, c), 0)) for c in col_values]
        out.write(f"{row_value}," + ",".join(cells) + "\n")
    return out.getvalue()
