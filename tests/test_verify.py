import contextlib
import hashlib
import io
import json

import pytest

from rigidsolv.cli import main
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


# SHA-256 of `verify --only C` stdout with every "elapsed" dropped, for
# `--seed 0` and for `--seed 1 --samples 20`, made by the per-check
# scaffolding (`CheckReport(...)` plus a `run` body under `_timed`).
VERIFY_DIGESTS = {
    "product_rule": (
        "234c984a20e87d2ee6b069f2a57b8a22ab581444acc0eecd14a5a5e7ca8c8e3b",
        "f862ea78c92669d8e37259e1811f544b0353e29e961be22843d12da2bde3d7ce",
    ),
    "sigma": (
        "f5c694316938761381cc00bf2220188fe0d8526fa158b412a0a5667a6c7f5556",
        "654f9b2185a8e0375ac427c183de64299e932aaf491b0762c3f21758c33c2576",
    ),
    "no_torsion": (
        "fb539a3ed25fc73a877ac9f34ec2f034eee447687f7cb69cd66a2102d7b782f7",
        "b55555a925a022a036639b27f65d457d5fe6c5ebe3ba7dc3132b3787944ba19f",
    ),
    "series_criteria": (
        "9434ddcd52b62dcb2ec2f98b50acfcdcc8fdc6c5d981c489980b8c153a8dabda",
        "7caabaf2178ea5161156132ecbc45c7fcfbf313ca5f6ce5cdd3a9777f0f9a629",
    ),
    "lex_drop": (
        "70bb38b03e0eb0e52d535a1c83c2ac6f363d3ca881ef5fb360dc0e2751a9a4b1",
        "3fb76bb77f05d6c4c8125611c7699510a8a81c16ad833530f9c5f4569d2cdf37",
    ),
    "rank_bounds": (
        "314cfae5b80fdfa7ee00819d5da6d8ddc58d3a1fb3b3a607888caee1c39c9687",
        "5a03212b5ce87b873d48f6ef5a2899d8d674309dcb23d9d0d37ca8085fd5c8e4",
    ),
    "retraction": (
        "ad29804cd79ae8f0de4da60860fcf87a4ef697239ec5502fe4a632496c4b2ab2",
        "d22ff6077bd32b09b165f3e1c62ba12a2015dfc235664cc2eb0fd2649d61c592",
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_output_is_pinned(name):
    assert set(VERIFY_DIGESTS) == set(ALL_CHECKS)
    runs = (["--seed", "0"], ["--seed", "1", "--samples", "20"])
    for flags, expected in zip(runs, VERIFY_DIGESTS[name]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", "--only", name, *flags]) == 0
        payload = json.loads(out.getvalue())
        for check in payload["checks"]:
            del check["elapsed"]
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert digest == expected, flags
