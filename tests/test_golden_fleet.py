"""Golden-regression tests across worker counts.

The fleet search is the only steady-state DVFS solver, and it solves
whatever GPU subset a worker's shard holds as one batch.  Every committed
fixture in ``tests/golden/`` must therefore come out byte-for-byte the
same serially and with two workers: the batched solve and the shard plan
are execution shape only, and the plan never feeds one GPU's lanes into
another's.
"""

from __future__ import annotations

import pytest

from tests.golden import GOLDEN_CAMPAIGNS, golden_csv_text, read_golden_text

ALL_NAMES = sorted(GOLDEN_CAMPAIGNS)


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_fleet_campaign_matches_golden(name, workers):
    expected = read_golden_text(name)
    actual = golden_csv_text(name, workers=workers)
    if actual != expected:  # pinpoint the first divergence before failing
        exp_lines = expected.splitlines()
        act_lines = actual.splitlines()
        for i, (e, a) in enumerate(zip(exp_lines, act_lines)):
            assert a == e, (
                f"{name} (workers={workers}): first diff at line {i + 1}\n"
                f"  golden : {e}\n  current: {a}"
            )
        assert len(act_lines) == len(exp_lines), (
            f"{name} (workers={workers}): row count changed "
            f"({len(exp_lines)} golden vs {len(act_lines)} current)"
        )
        pytest.fail(
            f"{name} (workers={workers}): fleet-solver output differs "
            "from committed golden"
        )
