"""Tests for the placement policies.

Ranking semantics are checked through the oracle's per-attempt resolver
(:func:`tests.sched.reference_engine.attempt_ranking`), which turns a
policy's declared spec into the node order one placement attempt sees.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sched.policies import (
    SENSITIVITY_THRESHOLD,
    BackfillPolicy,
    EnergyCappedPolicy,
    FifoPolicy,
    HealthAwarePolicy,
    PlacementPolicy,
    PowerBudgetAdmission,
    RandomRankingSpec,
    StaticRankingSpec,
    VariabilityAwarePolicy,
    node_grades_from_gpu_grades,
    node_power_watts,
)
from repro.workloads import get_workload
from tests.sched.reference_engine import attempt_ranking

N_NODES = 6


def _rng(seed=0):
    return np.random.default_rng(seed)


def _ranked(policy, workload_name, rng, n_nodes=N_NODES):
    """The node order one placement attempt of a 2-GPU job sees."""
    return attempt_ranking(
        policy.ranking(n_nodes), get_workload(workload_name), 2, rng
    )


class TestFifo:
    def test_permutation_of_all_nodes(self):
        ranked = _ranked(FifoPolicy(), "sgemm", _rng())
        assert sorted(ranked.tolist()) == list(range(N_NODES))

    def test_no_backfill(self):
        assert FifoPolicy().backfill is False
        assert BackfillPolicy().backfill is True

    def test_rng_drives_order(self):
        a = _ranked(FifoPolicy(), "sgemm", _rng(1))
        b = _ranked(FifoPolicy(), "sgemm", _rng(2))
        assert a.tolist() != b.tolist()


class TestVariabilityAware:
    SCORES = np.asarray([1.30, 1.01, 1.10, 1.05, 1.20, 1.02])

    def test_sensitive_workload_prefers_low_variation(self):
        policy = VariabilityAwarePolicy(self.SCORES)
        ranked = _ranked(policy, "sgemm", _rng())
        assert ranked[0] == 1  # lowest score first
        assert ranked[-1] == 0  # highest score last

    def test_memory_bound_workload_absorbs_high_variation(self):
        policy = VariabilityAwarePolicy(self.SCORES)
        ranked = _ranked(policy, "pagerank", _rng())
        assert ranked[0] == 0  # highest-variation node first
        assert ranked[-1] == 1

    def test_threshold_is_between_classes(self):
        from repro.core.classify import (
            classify_workload,
            expected_performance_sensitivity,
        )

        sgemm = expected_performance_sensitivity(
            classify_workload(get_workload("sgemm"))
        )
        pagerank = expected_performance_sensitivity(
            classify_workload(get_workload("pagerank"))
        )
        assert pagerank < SENSITIVITY_THRESHOLD <= sgemm

    def test_deterministic_ranking(self):
        policy = VariabilityAwarePolicy(self.SCORES)
        a = _ranked(policy, "sgemm", _rng())
        b = _ranked(policy, "sgemm", _rng(99))
        np.testing.assert_array_equal(a, b)  # rng not consumed at all

    def test_wrong_size_rejected(self):
        policy = VariabilityAwarePolicy(self.SCORES[:3])
        with pytest.raises(ConfigError, match="nodes"):
            _ranked(policy, "sgemm", _rng())

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ConfigError):
            VariabilityAwarePolicy(np.asarray([1.0, np.nan]))


class TestHealthAware:
    GRADES = ("ok", "degraded", "ok", "critical", "watch", "ok")

    def test_unhealthy_nodes_rank_last(self):
        policy = HealthAwarePolicy(self.GRADES)
        ranked = _ranked(policy, "sgemm", _rng()).tolist()
        assert set(ranked[-2:]) == {1, 3}  # degraded + critical at the back
        assert ranked[-1] == 3  # critical strictly last

    def test_healthy_nodes_shuffled_by_rng(self):
        policy = HealthAwarePolicy(self.GRADES)
        a = _ranked(policy, "sgemm", _rng(1)).tolist()
        b = _ranked(policy, "sgemm", _rng(2)).tolist()
        assert a != b
        assert a[-1] == b[-1] == 3

    def test_unknown_grade_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            HealthAwarePolicy(("ok", "sick"))

    def test_describe_counts_grades(self):
        described = HealthAwarePolicy(self.GRADES).describe()
        assert described["node_grade_counts"]["ok"] == 3
        assert described["node_grade_counts"]["critical"] == 1


class TestNodeGradesRollup:
    def test_worst_member_wins(self):
        node_of_gpu = np.asarray([0, 0, 1, 1])
        grades = node_grades_from_gpu_grades(
            ("ok", "degraded", "ok", "ok"), node_of_gpu, 2
        )
        assert grades == ("degraded", "ok")


class TestNodePowerWatts:
    def test_sums_per_node(self):
        node_of_gpu = np.asarray([0, 0, 1, 1])
        out = node_power_watts(
            np.asarray([100.0, 110.0, 90.0, 95.0]), node_of_gpu, 2
        )
        np.testing.assert_allclose(out, [210.0, 185.0])

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ConfigError):
            node_power_watts(np.asarray([100.0, 0.0]), np.asarray([0, 1]), 2)


class TestPowerBudgetAdmission:
    def test_commit_release_accounting(self):
        admission = PowerBudgetAdmission(budget_w=1000.0, gpu_reserve_w=100.0)
        assert admission.can_admit(10)
        assert not admission.can_admit(11)
        admission.commit(0, 6)
        assert admission.committed_w == 600.0
        assert admission.max_admissible_gpus() == 4
        assert admission.can_admit(4)
        assert not admission.can_admit(5)
        admission.commit(1, 4)
        assert not admission.can_admit(1)
        admission.release(0)
        assert admission.can_admit(6)
        admission.release(1)
        assert admission.committed_w == 0.0

    def test_reset_clears_reservations(self):
        admission = PowerBudgetAdmission(budget_w=500.0, gpu_reserve_w=100.0)
        admission.commit(0, 3)
        admission.reset()
        assert admission.committed_w == 0.0
        assert admission.can_admit(5)

    def test_release_unknown_job_raises(self):
        admission = PowerBudgetAdmission(budget_w=500.0, gpu_reserve_w=100.0)
        with pytest.raises(KeyError):
            admission.release(42)

    @pytest.mark.parametrize("budget,reserve", [(0.0, 100.0), (500.0, -1.0)])
    def test_bad_configuration_rejected(self, budget, reserve):
        with pytest.raises(ConfigError):
            PowerBudgetAdmission(budget_w=budget, gpu_reserve_w=reserve)


class TestEnergyCapped:
    POWER = np.asarray([400.0, 280.0, 340.0, 280.0, 500.0, 310.0])

    def _policy(self, **kwargs):
        kwargs.setdefault("power_budget_w", 1200.0)
        kwargs.setdefault("gpus_per_node", 4)
        return EnergyCappedPolicy(self.POWER, **kwargs)

    def test_cheapest_nodes_first_ties_by_index(self):
        ranked = _ranked(self._policy(), "sgemm", _rng())
        assert ranked.tolist() == [1, 3, 5, 2, 0, 4]

    def test_rng_not_consumed(self):
        policy = self._policy()
        a = _ranked(policy, "sgemm", _rng(1))
        b = _ranked(policy, "sgemm", _rng(2))
        np.testing.assert_array_equal(a, b)

    def test_default_reserve_is_worst_gpu_share(self):
        policy = self._policy()
        assert policy.admission.gpu_reserve_w == pytest.approx(500.0 / 4)

    def test_backfills_by_default(self):
        assert self._policy().backfill is True
        assert self._policy(backfill=False).backfill is False

    def test_describe_includes_budget(self):
        described = self._policy().describe()
        assert described["power_budget_w"] == 1200.0
        assert described["node_power_min_w"] == 280.0
        assert described["node_power_max_w"] == 500.0

    def test_wrong_size_rejected(self):
        with pytest.raises(ConfigError, match="nodes"):
            _ranked(self._policy(), "sgemm", _rng(), n_nodes=3)


class TestIndexedRankingSpecs:
    def test_fifo_is_random_spec_with_legacy_draw(self):
        spec = FifoPolicy().ranking(N_NODES)
        assert isinstance(spec, RandomRankingSpec)
        np.testing.assert_array_equal(
            spec.draw(_rng(7)), _rng(7).permutation(N_NODES)
        )

    def test_backfill_inherits_fifo_spec(self):
        assert isinstance(
            BackfillPolicy().ranking(N_NODES), RandomRankingSpec
        )

    def test_energy_capped_single_static_order(self):
        policy = EnergyCappedPolicy(
            TestEnergyCapped.POWER, power_budget_w=1200.0, gpus_per_node=4
        )
        spec = policy.ranking(N_NODES)
        assert isinstance(spec, StaticRankingSpec)
        assert len(spec.orders) == 1
        assert spec.order_index_of(get_workload("bert"), 8) == 0

    def test_wrong_node_count_rejected(self):
        policy = VariabilityAwarePolicy(TestVariabilityAware.SCORES)
        with pytest.raises(ConfigError, match="nodes"):
            policy.ranking(N_NODES + 1)

    def test_policy_without_ranking_cannot_be_built(self):
        """Every policy must declare its ranking; there is no fallback."""

        class Undeclared(PlacementPolicy):
            name = "undeclared"

        with pytest.raises(TypeError, match="ranking"):
            Undeclared()
