"""Agreement metrics between two coders: percent agreement and kappa.

Every metric comes from one count table of (a, b) value pairs, which a
caller can fill as it reads; two code lists give theirs as
``Counter(zip(a, b))``. An empty table is a caller's fault and raises
ValueError. Uncodable slots participate as a category value of their
own, so two coders who both mark a slot uncodable agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass



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
    the coders' marginal shares. It is computed from integer counts as
    (n * agree - S) / (n * n - S), with S the sum of the products of the
    marginal counts, so it is rounded once and reads exactly 0 at chance.
    S reaches n * n only when both coders used one value throughout, so
    every item agrees and kappa is 1.0 by convention. Confusion rows
    index coder a, columns coder b, in sorted value order.
    """
    n = sum(counts.values())
    if not n:
        raise ValueError("cannot compute agreement on empty code lists")
    a_counts, b_counts = Counter(), Counter()
    for (x, y), count in counts.items():
        a_counts[x] += count
        b_counts[y] += count
    values = tuple(sorted(a_counts.keys() | b_counts.keys()))
    agree = sum(counts[value, value] for value in values)
    chance = sum(a_counts[value] * b_counts[value] for value in values)
    kappa = 1.0 if chance == n * n else (n * agree - chance) / (n * n - chance)
    return AgreementReport(
        category=category,
        n_items=n,
        percent_agreement=agree / n,
        kappa=kappa,
        values=values,
        confusion=tuple(tuple(counts[x, y] for y in values) for x in values),
    )

