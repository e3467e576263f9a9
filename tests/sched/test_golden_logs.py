"""Golden event-log guard: the engine must reproduce the original bytes.

``tests/sched/golden/`` holds the canonical event logs of a 120-job
half-Longhorn run (the scheduling benchmark's configuration) for every
built-in policy, generated once by the original rank-every-node dispatch
loop (kept as the oracle in ``tests/sched/reference_engine.py``).  This
test replays the identical run through the engine and compares the
serialized logs *byte for byte*: any drift in placement order, backfill
decisions, RNG stream consumption, or event formatting fails here before
it can silently change results.  The files also pin each built-in
policy's ranking independently of the policy code that declares it.
"""

from pathlib import Path

import pytest

from repro import api
from repro.sched import event_log_lines

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The scheduling benchmark's configuration (benchmarks/bench_ext_scheduling).
SEED = 2022
SCALE = 0.5
TRACE = dict(n_jobs=120, arrival_rate_per_hour=900.0, seed=SEED)
PROFILE_DAYS = 2


@pytest.fixture(scope="module")
def cluster():
    return api.load_preset("longhorn", seed=SEED, scale=SCALE)


@pytest.mark.slow
@pytest.mark.parametrize("policy", api.POLICY_NAMES)
def test_indexed_engine_reproduces_golden_bytes(cluster, policy):
    golden = (GOLDEN_DIR / f"events_{policy}.jsonl").read_text()
    result = api.schedule(
        cluster=cluster,
        policy=policy,
        trace=api.TraceConfig(**TRACE),
        profile_config=api.CampaignConfig(days=PROFILE_DAYS),
    )
    replayed = "\n".join(event_log_lines(result.events)) + "\n"
    assert replayed == golden, (
        f"engine event log diverged from golden bytes for "
        f"{policy!r}"
    )


def test_golden_files_cover_every_policy():
    present = {p.stem for p in GOLDEN_DIR.glob("events_*.jsonl")}
    assert present == {f"events_{name}" for name in api.POLICY_NAMES}
