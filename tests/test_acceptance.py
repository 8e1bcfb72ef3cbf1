"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line; run with `pytest -s` to see
them, or `autqm verify all` for the same records as JSON lines.  Every
record must match, byte for byte, the line pinned for it in
data/verify-seed0.jsonl (the output of `autqm verify all --seed 0`).
"""

import json
from pathlib import Path

import pytest

from autqm.verify import ALL_CHECKS, ExperimentConfig

BUDGET_SECONDS = {
    "ad_conjugation_identity": 10,
    "autocommutator_equivariance": 10,
    "homogenisation_error_bound": 300,
    "conjugacy_invariance": 10,
    "single_autocommutator_witness": 1,
    "achiral_power_vanishing": 30,
    "free_factor_vanishing": 10,
    "whitehead_suite": 120,
    "product_averaging": 120,
    "finite_average_norm_bounds": 180,
    "graph_product_suite": 300,
    "pipeline_quasimorphism": 60,
    "autocommutator_vs_commutator": 300,
}

PINNED_RECORDS = {
    json.loads(line)["check"]: line
    for line in (Path(__file__).parent / "data" / "verify-seed0.jsonl")
    .read_text()
    .splitlines()
}


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.check_name)
def test_acceptance(check):
    result = check(ExperimentConfig(seed=0))
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name} [{result.seconds:.2f}s] {result.detail}")
    assert result.passed, result.detail
    record = json.dumps({"op": "verify", **result.record()}, sort_keys=True)
    assert record == PINNED_RECORDS[result.name]
    budget = BUDGET_SECONDS[result.name]
    assert result.seconds < budget, (
        f"{result.name} took {result.seconds:.1f}s, budget {budget}s"
    )


def test_every_criterion_is_covered():
    assert {c.check_name for c in ALL_CHECKS} == set(BUDGET_SECONDS)
    assert set(PINNED_RECORDS) == set(BUDGET_SECONDS)
    assert len(ALL_CHECKS) == 13
