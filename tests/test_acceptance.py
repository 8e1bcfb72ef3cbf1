"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line; run with `pytest -s` to see
them, or `autqm verify all` for the same records as JSON lines.  Every
record must match, byte for byte, the line pinned for it in
data/verify-seed<N>.jsonl (the output of `autqm verify all --seed <N>`),
for the seeds 0 and 7.
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

SEEDS = (0, 7)

PINNED_RECORDS = {
    seed: {
        json.loads(line)["check"]: line
        for line in (Path(__file__).parent / "data" / f"verify-seed{seed}.jsonl")
        .read_text()
        .splitlines()
    }
    for seed in SEEDS
}


@pytest.mark.parametrize(
    "seed, check",
    [
        pytest.param(
            seed,
            check,
            id=check.check_name if seed == 0 else f"{check.check_name}-seed{seed}",
        )
        for seed in SEEDS
        for check in ALL_CHECKS
    ],
)
def test_acceptance(seed, check):
    result = check(ExperimentConfig(seed=seed))
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name} [{result.seconds:.2f}s] {result.detail}")
    assert result.passed, result.detail
    record = json.dumps({"op": "verify", **result.record()}, sort_keys=True)
    assert record == PINNED_RECORDS[seed][result.name]
    budget = BUDGET_SECONDS[result.name]
    assert result.seconds < budget, (
        f"{result.name} took {result.seconds:.1f}s, budget {budget}s"
    )


def test_every_criterion_is_covered():
    assert {c.check_name for c in ALL_CHECKS} == set(BUDGET_SECONDS)
    for seed in SEEDS:
        assert set(PINNED_RECORDS[seed]) == set(BUDGET_SECONDS)
    assert len(ALL_CHECKS) == 13
