"""Unit tests for ``bench/_stats.py``, the benchmark's statistics helper."""

import importlib.util
import os
import statistics

import pytest

BENCH = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "bench"))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


stats = _load("_stats")


def test_quartiles_match_the_spread_check_estimator():
    values = [0.31, 0.29, 0.35, 0.40, 0.33, 0.30, 0.36, 0.32, 0.34, 0.38]
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == stats.median(values) == statistics.median(values)
    assert stats.rel_iqr(values) == pytest.approx((q3 - q1) / q2)


def test_single_value_and_empty_samples():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert stats.rel_iqr([2.5]) == 0.0
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.quartiles([])


@pytest.mark.parametrize("n, expected_pct", [
    (19, None),     # even the median has only 9 samples beyond it
    (20, 50.0),
    (39, 50.0),     # p75 would leave 9 beyond
    (40, 75.0),
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
])
def test_tail_keeps_ten_samples_beyond(n, expected_pct):
    values = list(range(n, 0, -1))          # order must not matter
    found = stats.tail(values)
    if expected_pct is None:
        assert found is None
        return
    pct, value, count = found
    assert (pct, count) == (expected_pct, n)
    assert sum(1 for v in values if v > value) >= 10


def test_sign_test_ci_order_statistics():
    values = [9, 1, 8, 2, 7, 3, 6, 4, 5]    # n=9: 2nd and 8th at ~96%
    lo, hi, achieved = stats.sign_test_ci(values)
    assert (lo, hi) == (2, 8)
    assert achieved == pytest.approx(1 - 2 * 10 / 512)
    lo, hi, achieved = stats.sign_test_ci([3, 1, 2])
    assert (lo, hi) == (1, 3)               # too few for 95%: min..max
    assert achieved == pytest.approx(0.75)


def test_pair_rule_claims_only_with_nine_of_ten_and_a_clear_gap():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [b - 0.2 for b in base]
    verdict = stats.pair_rule(base, faster)
    assert verdict["wins"] == 10 and verdict["claim"]

    eight_of_ten = faster[:8] + [b + 0.01 for b in base[8:]]
    assert not stats.pair_rule(base, eight_of_ten)["claim"]

    # wins every pair, but by less than the parent's own spread
    tiny = [b - 0.001 for b in base]
    assert stats.pair_rule(base, tiny)["wins"] == 10
    assert not stats.pair_rule(base, tiny)["claim"]

    # ties count for neither side
    tied = faster[:9] + [base[9]]
    verdict = stats.pair_rule(base, tied)
    assert (verdict["wins"], verdict["ties"]) == (9, 1)
    assert verdict["claim"]

    # higher-is-better metrics flip the direction
    assert stats.pair_rule(faster, base, better="higher")["claim"]
    assert not stats.pair_rule(base, faster, better="higher")["claim"]


def test_pair_rule_rejects_unpaired_input():
    with pytest.raises(ValueError):
        stats.pair_rule([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        stats.pair_rule([1.0], [1.0], better="faster")
