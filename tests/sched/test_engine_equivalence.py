"""Engine vs reference oracle: byte-identical, and actually faster.

The guarantee of the near-linear engine: for every built-in policy,
every queue discipline, and every trace shape (flat, congested, diurnal,
multi-node gangs, power-capped), :func:`~repro.sched.run_schedule` and
the rank-every-node oracle in ``tests/sched/reference_engine.py`` emit
the *same bytes* — same event log, same records, same report.  A
near-linearity guard pins the engine's work per job so a regression back
to head-rescan behavior fails loudly.
"""

import numpy as np
import pytest

from repro import api
from repro.obs.tracer import Tracer, activate
from repro.sched import (
    BackfillPolicy,
    EnergyCappedPolicy,
    FifoPolicy,
    HealthAwarePolicy,
    VariabilityAwarePolicy,
    build_scheduling_report,
    event_log_lines,
    node_power_watts,
    run_schedule,
)
from tests.sched.reference_engine import run_reference


@pytest.fixture(scope="module")
def cluster():
    return api.load_preset("longhorn", seed=2022, scale=0.25)


def _scores(n_nodes):
    return 1.0 + 0.1 * np.random.default_rng(11).random(n_nodes)


def _grades(n_nodes):
    from repro.obs.health import GRADES

    draw = np.random.default_rng(12).integers(0, len(GRADES), size=n_nodes)
    return tuple(GRADES[g] for g in draw)


def _energy_policy(cluster, backfill=True):
    node_power = node_power_watts(
        cluster.fleet_for_day(0).power_cap_w(None),
        cluster.topology.node_of_gpu,
        cluster.topology.n_nodes,
    )
    return EnergyCappedPolicy(
        node_power,
        power_budget_w=float(node_power.sum()) * 0.3,
        gpus_per_node=cluster.topology.gpus_per_node,
        backfill=backfill,
    )


def _policy(name, cluster):
    n = cluster.topology.n_nodes
    return {
        "fifo": lambda: FifoPolicy(),
        "backfill": lambda: BackfillPolicy(),
        "va": lambda: VariabilityAwarePolicy(_scores(n)),
        "va-bf": lambda: VariabilityAwarePolicy(_scores(n), backfill=True),
        "health": lambda: HealthAwarePolicy(_grades(n)),
        "health-bf": lambda: HealthAwarePolicy(_grades(n), backfill=True),
        "energy": lambda: _energy_policy(cluster),
        "energy-nobf": lambda: _energy_policy(cluster, backfill=False),
    }[name]()


POLICY_KEYS = (
    "fifo", "backfill", "va", "va-bf", "health", "health-bf",
    "energy", "energy-nobf",
)

#: Congested enough that queues form and backfill/admission both bind.
CONGESTED = api.TraceConfig(n_jobs=80, arrival_rate_per_hour=900.0, seed=5)

#: A week-shaped load: diurnal swell plus quiet weekends.
DIURNAL = api.TraceConfig(
    n_jobs=80,
    arrival_rate_per_hour=600.0,
    seed=5,
    diurnal_amplitude=0.5,
    day_of_week_weights=(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.4),
)


def _run_both(cluster, policy_key, trace):
    jobs = api.generate_trace(trace)
    ref = run_reference(cluster, jobs, _policy(policy_key, cluster))
    idx = run_schedule(cluster, jobs, _policy(policy_key, cluster))
    return ref, idx


class TestByteEquivalence:
    @pytest.mark.parametrize("policy_key", POLICY_KEYS)
    def test_congested_trace_identical(self, cluster, policy_key):
        ref, idx = _run_both(cluster, policy_key, CONGESTED)
        assert event_log_lines(ref.events) == event_log_lines(idx.events)
        assert ref.records == idx.records
        assert ref.makespan_s == idx.makespan_s

    @pytest.mark.parametrize("policy_key", ("backfill", "va-bf", "energy"))
    def test_diurnal_trace_identical(self, cluster, policy_key):
        ref, idx = _run_both(cluster, policy_key, DIURNAL)
        assert event_log_lines(ref.events) == event_log_lines(idx.events)
        assert ref.records == idx.records

    def test_auto_matches_forced_indexed(self, cluster):
        """The facade's default path reproduces the oracle's log."""
        jobs = api.generate_trace(CONGESTED)
        facade = api.schedule(cluster=cluster, policy="backfill", trace=jobs)
        ref = run_reference(cluster, jobs, BackfillPolicy())
        assert event_log_lines(facade.events) == event_log_lines(ref.events)

    def test_report_digests_match_across_engines(self, cluster):
        result = api.schedule(
            cluster=cluster, policy="backfill", trace=CONGESTED
        )
        ref = run_reference(
            cluster, api.generate_trace(CONGESTED), BackfillPolicy()
        )
        oracle_report = build_scheduling_report(
            cluster.name,
            ref,
            BackfillPolicy().describe(),
            cluster.topology.n_gpus,
            trace_seed=CONGESTED.seed,
        )
        assert result.report.to_json() == oracle_report.to_json()


class TestEngineSelection:
    def test_indexed_path_batches_pricing(self, cluster):
        jobs = api.generate_trace(CONGESTED)
        tracer = Tracer()
        with activate(tracer):
            run_schedule(cluster, jobs, BackfillPolicy())
        assert tracer.counters["sched.price_batches"] >= 1
        assert tracer.counters["sched.placements"] == CONGESTED.n_jobs
        # batching cannot exceed one batch per dispatch round
        assert (
            tracer.counters["sched.price_batches"]
            <= tracer.counters["sched.placements"]
        )

    def test_dispatch_attempt_counters_agree_for_random_policies(
        self, cluster
    ):
        """Stream parity implies attempt-for-attempt parity."""
        jobs = api.generate_trace(CONGESTED)
        attempts = {}
        for name, run in (("reference", run_reference),
                          ("engine", run_schedule)):
            tracer = Tracer()
            with activate(tracer):
                run(cluster, jobs, BackfillPolicy())
            attempts[name] = tracer.counters["sched.dispatch_attempts"]
        assert attempts["reference"] == attempts["engine"]


class TestNearLinearity:
    """The static-backfill dispatch does O(1) queue work per event.

    Each dispatch round costs one failed probe plus one probe per
    placement, and rounds run once per event (one submit + one finish
    per job) — so total attempts are bounded by ~3 per job regardless of
    queue depth.  The reference head-rescan loop has no such bound.
    """

    @pytest.mark.parametrize("n_jobs", (100, 300))
    def test_attempts_bounded_per_job(self, cluster, n_jobs):
        trace = api.TraceConfig(
            n_jobs=n_jobs, arrival_rate_per_hour=2000.0, seed=6
        )
        policy = VariabilityAwarePolicy(
            _scores(cluster.topology.n_nodes), backfill=True
        )
        tracer = Tracer()
        with activate(tracer):
            run_schedule(cluster, api.generate_trace(trace), policy)
        attempts = tracer.counters["sched.dispatch_attempts"]
        assert attempts <= 3.5 * n_jobs

    def test_reference_attempts_grow_superlinearly_here(self, cluster):
        """The congestion above genuinely defeats the reference loop.

        This is the counterpart that keeps the guard honest: on the same
        trace the oracle's head-rescan loop performs far more attempts, so
        the engine's bound is a real invariant, not a slack tautology.
        """
        trace = api.TraceConfig(
            n_jobs=100, arrival_rate_per_hour=2000.0, seed=6
        )
        policy = VariabilityAwarePolicy(
            _scores(cluster.topology.n_nodes), backfill=True
        )
        tracer = Tracer()
        with activate(tracer):
            run_reference(cluster, api.generate_trace(trace), policy)
        assert tracer.counters["sched.dispatch_attempts"] > 3.5 * 100


class TestCachedMakespan:
    def test_makespan_cached_and_stable(self, cluster):
        jobs = api.generate_trace(api.TraceConfig(n_jobs=10))
        outcome = run_schedule(cluster, jobs, FifoPolicy())
        first = outcome.makespan_s
        assert outcome.makespan_s is first  # cached_property: same object
        expected = max(r.finish_time_s for r in outcome.records) - min(
            r.submit_time_s for r in outcome.records
        )
        assert first == expected
