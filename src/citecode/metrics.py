"""Agreement metrics between two coders: percent agreement and kappa.

Every metric comes from one count table of (a, b) value pairs, which a
caller can fill as it reads; two code lists give theirs as
``Counter(zip(a, b))``. An empty table raises LengthMismatch. Uncodable
slots participate as a category value of their own, so two coders who
both mark a slot uncodable agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import LengthMismatch


@dataclass(frozen=True)
class AgreementReport:
    category: str
    n_items: int
    percent_agreement: float
    kappa: float
    values: tuple[str, ...]
    confusion: tuple[tuple[int, ...], ...]


def agreement_report(category: str, counts: Counter) -> AgreementReport:
    """Every agreement metric of one category from its (a, b) pair counts.

    Kappa is (p_o - p_e) / (1 - p_e), with p_e the sum of the products of
    the coders' marginal shares in sorted value order. When p_e reaches 1
    kappa is undefined: by convention 1.0 for perfect observed agreement,
    0.0 otherwise. Confusion rows index coder a, columns coder b.
    """
    n = sum(counts.values())
    if not n:
        raise LengthMismatch("cannot compute agreement on empty code lists")
    a_counts, b_counts = Counter(), Counter()
    for (x, y), count in counts.items():
        a_counts[x] += count
        b_counts[y] += count
    values = tuple(sorted(a_counts.keys() | b_counts.keys()))
    observed = sum(counts[value, value] for value in values) / n
    expected = 0.0
    for value in values:
        expected += (a_counts[value] / n) * (b_counts[value] / n)
    if abs(1.0 - expected) < 1e-12:
        kappa = 1.0 if abs(observed - 1.0) < 1e-12 else 0.0
    else:
        kappa = (observed - expected) / (1.0 - expected)
    return AgreementReport(
        category=category,
        n_items=n,
        percent_agreement=observed,
        kappa=kappa,
        values=values,
        confusion=tuple(tuple(counts[x, y] for y in values) for x in values),
    )

