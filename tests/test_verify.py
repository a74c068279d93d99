import json

import pytest

from rigidsolv.verify import (
    ALL_CHECKS,
    CheckReport,
    check_lex_drop,
    check_no_torsion,
    check_product_rule,
    check_rank_bounds,
    check_retraction,
    check_series_criteria,
    check_sigma,
    random_word,
    run_all,
)


def test_each_check_passes_small():
    assert check_product_rule(seed=0, samples=40).passed
    assert check_sigma(seed=0, samples=40).passed
    assert check_no_torsion(seed=0, samples=20).passed
    assert check_series_criteria(seed=0, samples=15).passed
    assert check_lex_drop().passed
    assert check_rank_bounds(seed=0, samples=10).passed
    assert check_retraction(seed=0, samples=10).passed


def test_reports_record_seed_and_are_reproducible():
    a = check_product_rule(seed=123, samples=20)
    b = check_product_rule(seed=123, samples=20)
    assert a.seed == 123
    assert a.failures == b.failures
    assert a.to_json()["passed"] is True
    # elapsed differs between runs; everything else must match
    ja, jb = a.to_json(), b.to_json()
    ja.pop("elapsed"), jb.pop("elapsed")
    assert ja == jb


def test_report_serializes_to_json():
    report = check_lex_drop()
    payload = json.dumps(report.to_json())
    parsed = json.loads(payload)
    assert parsed["name"] == "lex_drop"
    assert parsed["passed"] is True
    assert parsed["failures"] == []


def test_run_all_and_only_filter():
    reports = run_all(seed=5, samples=5)
    assert [r.name for r in reports] == list(ALL_CHECKS)
    assert all(r.passed for r in reports)
    only = run_all(seed=5, samples=5, only="sigma")
    assert len(only) == 1
    assert only[0].name == "sigma"
    with pytest.raises(ValueError, match="unknown check"):
        run_all(only="nope")


def test_random_word_distribution_contract():
    import random

    rng = random.Random(0)
    for _ in range(100):
        w = random_word(rng, 3, 10)
        assert 1 <= len(w) <= 10
        assert all(1 <= abs(letter) <= 3 for letter in w)


def test_failures_carry_reproduction_data():
    report = CheckReport("demo", "statement", seed=7, samples=1)
    report.failures.append({"w": "x1"})
    assert not report.passed
    assert "FAIL" in report.summary()


def test_lex_drop_reports_its_one_sample():
    # One fixed case: a requested sample count is not echoed back.
    report = run_all(only="lex_drop", samples=100_000_000)[0]
    assert report.passed
    assert report.samples == 1
    assert check_lex_drop(samples=7).to_json()["samples"] == 1
