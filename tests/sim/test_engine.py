"""Tests for the time-stepped reactive engine."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs import Tracer, activate
from repro.sim.engine import Engine, EngineConfig
from repro.workloads import resnet50, sgemm


@pytest.fixture()
def fleet(tiny_cloudlab):
    return tiny_cloudlab.fleet.take(np.arange(4))


class TestConstruction:
    def test_multi_phase_rejected(self, fleet):
        with pytest.raises(SimulationError, match="single-phase"):
            Engine(fleet, resnet50())

    def test_dt_exceeding_control_interval_rejected(self, fleet):
        with pytest.raises(SimulationError, match="control interval"):
            Engine(fleet, sgemm(), EngineConfig(dt_s=1.0))

    def test_invalid_config(self):
        with pytest.raises(Exception):
            EngineConfig(dt_s=0.0)


class TestDynamics:
    def test_kernels_complete(self, fleet):
        engine = Engine(fleet, sgemm())
        engine.run_for(12.0)
        assert np.all(engine.state.kernels_completed >= 2)
        assert len(engine.state.kernel_start_times) >= 2

    def test_dvfs_throttles_under_compute(self, fleet):
        engine = Engine(fleet, sgemm())
        engine.run_for(10.0)
        assert np.median(engine.frequency_mhz()) < fleet.spec.f_max_mhz

    def test_power_settles_near_cap(self, fleet):
        engine = Engine(fleet, sgemm())
        engine.run_for(15.0)
        p = engine.instantaneous_power()
        assert np.all(p < fleet.spec.tdp_w * 1.05)
        assert np.median(p) > fleet.spec.tdp_w * 0.9

    def test_temperature_rises_from_coolant(self, fleet):
        engine = Engine(fleet, sgemm())
        t0 = engine.state.temperature_c.copy()
        engine.run_for(20.0)
        assert np.all(engine.state.temperature_c > t0 + 5.0)

    def test_engine_matches_steady_solver(self, fleet):
        """Cross-validation: the reactive engine converges to the fixed point."""
        wl = sgemm()
        engine = Engine(fleet, wl, EngineConfig(thermal_time_scale=20.0))
        engine.run_for(40.0)
        phase = wl.phases[0]
        op = fleet.controller.solve_steady(
            phase.activity, phase.dram_utilization,
            fleet.throughput_efficiency(), fleet.power_cap_w(),
        )
        # Same ladder neighbourhood: within 3 p-states (the reactive
        # controller oscillates around the cap; gaps between kernels let
        # it boost briefly).
        f_engine = engine.frequency_mhz()
        assert np.all(
            np.abs(f_engine - op.f_effective_mhz) <= 3 * 7.5 + 1e-9
        )
        # Temperatures agree within a few degrees.
        assert np.all(
            np.abs(engine.state.temperature_c - op.temperature_c) < 6.0
        )

    def test_power_limit_respected_between_controls(self, fleet):
        engine = Engine(fleet, sgemm(), power_limit_w=150.0)
        engine.run_for(20.0)
        # After settling, instantaneous power hovers near 150 W.
        assert np.median(engine.instantaneous_power()) < 165.0

    def test_fast_cap_clamp_engages_under_tight_limit(self, fleet):
        # Every kernel launch boosts over a tight cap; the hardware fast
        # cap must step those GPUs down within the integration step.
        engine = Engine(fleet, sgemm(), EngineConfig(thermal_time_scale=10.0),
                        power_limit_w=160.0)
        tracer = Tracer()
        with activate(tracer):
            engine.run_for(10.0)
        assert tracer.counters.get("engine.clamp_reevaluations", 0) > 0
        assert np.all(engine.state.pstate_index >= 0)
        assert np.median(engine.instantaneous_power()) < 160.0 * 1.1

    def test_frequency_ceiling(self, tiny_cloudlab):
        fleet = tiny_cloudlab.fleet.take(np.arange(2))
        fleet.defects.frequency_cap_frac[:] = 0.6
        engine = Engine(fleet, sgemm())
        engine.run_for(5.0)
        assert np.all(engine.frequency_mhz() <= 0.6 * fleet.spec.f_max_mhz + 7.5)

    def test_run_for_rejects_nonpositive(self, fleet):
        engine = Engine(fleet, sgemm())
        with pytest.raises(SimulationError):
            engine.run_for(0.0)
