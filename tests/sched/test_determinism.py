"""Bit-reproducibility of the batch-queue simulator.

The ISSUE-level guarantee: the same seed and policy produce a
byte-identical event log and report — across repeated invocations, across
worker counts (the profiling campaign is the only parallel stage and is
bit-identical to serial), and across policy objects rebuilt from scratch.
"""

import pytest

from repro import api
from repro.sched import event_log_lines


@pytest.fixture(scope="module")
def cluster():
    return api.load_preset("longhorn", seed=2022, scale=0.25)


TRACE = None  # initialized lazily to keep fixture scope simple


def _trace():
    return api.TraceConfig(n_jobs=20, arrival_rate_per_hour=300.0, seed=9)


class TestRepeatability:
    def test_fifo_bytes_stable_across_invocations(self, cluster):
        a = api.schedule(cluster=cluster, policy="fifo", trace=_trace())
        b = api.schedule(cluster=cluster, policy="fifo", trace=_trace())
        assert event_log_lines(a.events) == event_log_lines(b.events)
        assert a.report.to_json() == b.report.to_json()

    def test_variability_aware_bytes_stable(self, cluster):
        kwargs = dict(
            cluster=cluster,
            policy="variability-aware",
            trace=_trace(),
            profile_config=api.CampaignConfig(days=1),
        )
        a = api.schedule(**kwargs)
        b = api.schedule(**kwargs)
        assert event_log_lines(a.events) == event_log_lines(b.events)
        assert a.report.to_json() == b.report.to_json()

    def test_fresh_cluster_object_same_bytes(self):
        a = api.schedule(
            cluster=api.load_preset("longhorn", seed=2022, scale=0.25),
            policy="fifo", trace=_trace(),
        )
        b = api.schedule(
            cluster=api.load_preset("longhorn", seed=2022, scale=0.25),
            policy="fifo", trace=_trace(),
        )
        assert a.report.to_json() == b.report.to_json()


class TestWorkerInvariance:
    def test_aware_policy_identical_for_workers_1_and_2(self, cluster):
        kwargs = dict(
            cluster=cluster,
            policy="variability-aware",
            trace=_trace(),
            profile_config=api.CampaignConfig(days=1),
        )
        serial = api.schedule(workers=1, **kwargs)
        sharded = api.schedule(workers=2, **kwargs)
        assert event_log_lines(serial.events) == event_log_lines(
            sharded.events
        )
        assert serial.report.to_json() == sharded.report.to_json()


class TestPolicyIsolation:
    def test_job_intrinsics_keyed_by_job_id(self, cluster):
        """A job landing on the same GPUs runs identically under any policy.

        Two policies with different names (hence different policy RNG
        streams) that rank nodes identically must produce byte-identical
        runs: every job's intrinsic draws come from its own job-id-keyed
        stream, not from the policy stream.
        """
        import numpy as np

        from repro.sched import StaticRankingSpec

        class _Identity(api.PlacementPolicy):
            """Deterministic identity ranking under a given policy name."""

            def __init__(self, name):
                self.name = name

            def ranking(self, n_nodes):
                """Nodes in ascending index order for every job."""
                return StaticRankingSpec(
                    orders=(np.arange(n_nodes),),
                    order_index_of=lambda workload, n_gpus: 0,
                )

        a = api.schedule(
            cluster=cluster, policy=_Identity("ident-a"), trace=_trace()
        )
        b = api.schedule(
            cluster=cluster, policy=_Identity("ident-b"), trace=_trace()
        )
        assert event_log_lines(a.events) == event_log_lines(b.events)
        for ra, rb in zip(a.records, b.records):
            assert ra.runtime_s == rb.runtime_s
            assert ra.energy_j == rb.energy_j

    def test_different_trace_seed_changes_bytes(self, cluster):
        a = api.schedule(
            cluster=cluster, policy="fifo",
            trace=api.TraceConfig(n_jobs=20, seed=1),
        )
        b = api.schedule(
            cluster=cluster, policy="fifo",
            trace=api.TraceConfig(n_jobs=20, seed=2),
        )
        assert a.report.to_json() != b.report.to_json()

    def test_explicit_job_tuple_accepted(self, cluster):
        jobs = [api.Job(0, 1.0, "sgemm", 2, 20),
                api.Job(1, 2.0, "pagerank", 1, 20)]
        result = api.schedule(cluster=cluster, policy="fifo", trace=jobs)
        assert result.report.trace_seed is None
        assert result.report.metrics["n_jobs"] == 2
