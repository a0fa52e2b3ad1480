"""Percent agreement, Cohen's kappa, and the confusion table."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citecode.errors import CitecodeError
from citecode.metrics import agreement_report

codes = st.lists(
    st.sampled_from(["J1", "J2", "J3", "J4", "uncodable"]), min_size=1, max_size=60
)


@st.composite
def code_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    values = st.sampled_from(["J1", "J2", "J3", "J4", "uncodable"])
    same_length = st.lists(values, min_size=n, max_size=n)
    return draw(same_length), draw(same_length)


def scored(a, b):
    """The agreement report of two code lists of one length."""
    return agreement_report("J", Counter(zip(a, b)))


def test_identical_lists_agree_fully():
    a = ["J1", "J2", "J4", "J2"]
    assert scored(a, list(a)).percent_agreement == 1.0


def test_half_agreement_worked_example():
    a = ["J1", "J1", "J2", "J2"]
    b = ["J1", "J2", "J1", "J2"]
    assert scored(a, b).percent_agreement == pytest.approx(0.5)
    assert scored(a, b).kappa == pytest.approx(0.0)


def test_kappa_perfect_agreement_non_degenerate():
    a = ["J1", "J2", "J1", "J4"]
    assert scored(a, list(a)).kappa == pytest.approx(1.0)


def test_kappa_degenerate_single_value():
    # Both coders used one value everywhere: p_e is 1, and the
    # convention keeps perfect observed agreement at 1.0.
    a = ["J1", "J1", "J1"]
    assert scored(a, list(a)).kappa == 1.0


def test_kappa_no_agreement_beyond_chance_is_negative_or_zero():
    a = ["J1", "J2"]
    b = ["J2", "J1"]
    assert scored(a, b).kappa < 0.0
    assert scored(a, b).percent_agreement == 0.0


def test_empty_lists_raise():
    with pytest.raises(ValueError, match="^cannot compute agreement on empty code lists$") as err:
        scored([], [])
    assert not isinstance(err.value, CitecodeError)


def test_kappa_at_chance_is_exactly_zero():
    # p_o = p_e = 1/3, which float shares do not cancel exactly: eval
    # must print 0.000000 here, not -0.000000.
    report = scored(list("CCABCCCBABBB"), list("BCBBBACAAACC"))
    assert report.kappa == 0.0
    assert f"{report.kappa:.6f}" == "0.000000"


def test_uncodable_is_an_ordinary_value():
    a = ["J1", "uncodable"]
    b = ["J1", "uncodable"]
    assert scored(a, b).percent_agreement == 1.0
    assert scored(a, b).kappa == pytest.approx(1.0)


@given(pair=code_pairs())
@settings(max_examples=300)
def test_metrics_are_symmetric(pair):
    a, b = pair
    assert scored(a, b).percent_agreement == scored(b, a).percent_agreement
    assert scored(a, b).kappa == scored(b, a).kappa


@given(a=codes)
@settings(max_examples=150)
def test_self_agreement_is_always_perfect(a):
    assert scored(a, list(a)).percent_agreement == 1.0
    assert scored(a, list(a)).kappa == 1.0


@given(pair=code_pairs())
@settings(max_examples=300)
def test_kappa_never_exceeds_agreement_bounds(pair):
    a, b = pair
    kappa = scored(a, b).kappa
    assert kappa <= 1.0 + 1e-12
    if kappa == 1.0:
        # Perfect kappa only ever reports genuinely perfect agreement.
        assert scored(a, b).percent_agreement == 1.0


def test_confusion_table_counts():
    a = ["J1", "J1", "J2", "J2"]
    b = ["J1", "J2", "J1", "J2"]
    report = scored(a, b)
    assert report.values == ("J1", "J2")
    assert report.confusion == ((1, 1), (1, 1))


@given(pair=code_pairs())
@settings(max_examples=200)
def test_confusion_table_is_consistent_with_agreement(pair):
    a, b = pair
    report = scored(a, b)
    values, cells = report.values, report.confusion
    n = sum(sum(row) for row in cells)
    assert n == len(a)
    index = {value: i for i, value in enumerate(values)}
    trace = sum(cells[i][i] for i in range(len(values)))
    assert trace / n == pytest.approx(report.percent_agreement)
    for value in values:
        assert sum(cells[index[value]]) == a.count(value)
        assert sum(row[index[value]] for row in cells) == b.count(value)


def test_agreement_report_bundle():
    a = ["J1", "J1", "J2", "J2"]
    b = ["J1", "J2", "J1", "J2"]
    report = agreement_report("J", Counter(zip(a, b)))
    assert report.category == "J"
    assert report.n_items == 4
    assert report.percent_agreement == pytest.approx(0.5)
    assert report.kappa == pytest.approx(0.0)
    assert report.values == ("J1", "J2")
    assert report.confusion == ((1, 1), (1, 1))


# -- list functions kept as the reference; kappa in exact arithmetic --


def reference_percent_agreement(a, b):
    return sum(1 for x, y in zip(a, b) if x == y) / len(a)


def reference_cohens_kappa(a, b):
    """Kappa in exact arithmetic, rounded to a float once."""
    n = len(a)
    observed = Fraction(sum(1 for x, y in zip(a, b) if x == y), n)
    expected = sum(Fraction(a.count(value) * b.count(value), n * n) for value in set(a) | set(b))
    if expected == 1:
        return 1.0 if observed == 1 else 0.0
    return float((observed - expected) / (1 - expected))


def reference_confusion_table(a, b):
    values = tuple(sorted(set(a) | set(b)))
    index = {value: i for i, value in enumerate(values)}
    cells = [[0 for _ in values] for _ in values]
    for x, y in zip(a, b):
        cells[index[x]][index[y]] += 1
    return values, cells


_VALUE = st.sampled_from(["J1", "J2", "J3", "J4", "uncodable"])


@st.composite
def one_value_pairs(draw):
    # Both coders use one value throughout, so p_e is 1.
    value = draw(_VALUE)
    n = draw(st.integers(min_value=1, max_value=40))
    return [value] * n, [value] * n


@st.composite
def disagreeing_pairs(draw):
    a = draw(st.lists(_VALUE, min_size=1, max_size=40))
    return a, [draw(_VALUE.filter(lambda value, x=x: value != x)) for x in a]


@given(pair=st.one_of(code_pairs(), one_value_pairs(), disagreeing_pairs()))
@settings(max_examples=500)
def test_the_count_table_gives_the_list_reference_exactly(pair):
    a, b = pair
    report = agreement_report("J", Counter(zip(a, b)))
    values, cells = reference_confusion_table(a, b)
    assert report.n_items == len(a)
    assert report.percent_agreement == reference_percent_agreement(a, b)
    assert report.kappa == reference_cohens_kappa(a, b)
    assert (report.values, report.confusion) == (values, tuple(map(tuple, cells)))
