"""DVFS steady-state solver: fleet search vs the dense-scan test oracle.

The campaign hot path is ``DvfsController.solve_steady``; its batched
fleet search must beat the dense (n, k) scan of
``tests/gpu/dense_oracle.py`` by at least ``MIN_SOLVER_SPEEDUP``x on a
Summit-scale fleet (27,648 GPUs x 187 p-states) *while producing the
bit-identical* :class:`SteadyOperatingPoint`.  The equality assertions
run unconditionally; the timing assertion is skipped under
``REPRO_BENCH_CHECK_ONLY=1`` (the CI solver job, which runs on noisy
shared runners).

Timings are also written to ``BENCH_solver.json`` so the solver's perf
trajectory is machine-readable across commits.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from _bench_util import emit
from tests.gpu.dense_oracle import dense_solve

#: Skip timing assertions (equality always asserts) — for CI smoke runs.
CHECK_ONLY = os.environ.get("REPRO_BENCH_CHECK_ONLY") == "1"

#: Acceptance floor for the micro benchmark (dense / fleet wall clock);
#: about a third of the ratio measured on a 2-vCPU x86 VM (62x).
MIN_SOLVER_SPEEDUP = 20.0

OUTPUT_PATH = pathlib.Path("BENCH_solver.json")

#: SGEMM-like stationary operating point for the micro benchmark.
ACTIVITY, DRAM_UTIL = 1.0, 0.35


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _write_json(payload: dict) -> None:
    existing = {}
    if OUTPUT_PATH.exists():
        existing = json.loads(OUTPUT_PATH.read_text())
    existing.update(payload)
    OUTPUT_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def test_solve_steady_fleet_vs_dense_summit(summit_cluster):
    fleet = summit_cluster.fleet
    ctl = fleet.controller
    eff = fleet.throughput_efficiency()
    kwargs = dict(power_cap_w=fleet.power_cap_w(),
                  f_cap_mhz=fleet.frequency_cap_mhz())

    def solve():
        return ctl.solve_steady(ACTIVITY, DRAM_UTIL, eff, **kwargs)

    def solve_dense():
        return dense_solve(ctl, ACTIVITY, DRAM_UTIL, eff, **kwargs)

    # Warm both paths (allocates workspaces, float32 parameter caches).
    op_fleet, op_dense = solve(), solve_dense()
    for field in ("pstate_index", "f_effective_mhz", "f_reported_mhz",
                  "power_w", "temperature_c", "power_capped",
                  "thermally_capped"):
        assert np.array_equal(
            getattr(op_fleet, field), getattr(op_dense, field)
        ), f"fleet solver disagrees with the dense oracle on {field}"

    ctl.stats = type(ctl.stats)()  # count the timed solves only
    fleet_s = _best_of(solve, repeats=3)
    stats = ctl.stats.copy()
    dense_s = _best_of(solve_dense, repeats=3)
    speedup = dense_s / fleet_s

    emit(None, "solve_steady: fleet vs dense oracle (Summit, 27648 GPUs)", [
        ("dense oracle best-of-3", "-", f"{dense_s * 1e3:.1f} ms"),
        ("fleet best-of-3", "-", f"{fleet_s * 1e3:.1f} ms"),
        ("speedup", f">= {MIN_SOLVER_SPEEDUP:.0f}x", f"{speedup:.1f}x"),
        ("dense cells avoided", "-",
         f"{stats.dense_fraction_avoided:.1%}"),
    ])
    _write_json({"solve_steady_summit": {
        "n_gpus": fleet.n,
        "n_pstates": int(fleet.spec.n_pstates),
        "dense_s": dense_s,
        "fleet_s": fleet_s,
        "speedup": speedup,
        "dense_fraction_avoided": stats.dense_fraction_avoided,
        "check_only": CHECK_ONLY,
    }})

    if not CHECK_ONLY:
        assert speedup >= MIN_SOLVER_SPEEDUP, (
            f"fleet solver only {speedup:.1f}x faster than the dense scan "
            f"(floor {MIN_SOLVER_SPEEDUP:.0f}x)"
        )
