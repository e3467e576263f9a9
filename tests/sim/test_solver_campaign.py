"""Campaign-level DVFS solver cross-checks and solver telemetry.

Routing every solve through the dense-scan oracle must reproduce the
campaign dataset bit for bit — including on Corona, where AMD DPM
dithering draws per-run RNG inside ``solve_steady`` and would drift on
the first miscounted draw.  The oracle patch is in-process, so those
comparisons run serially; fresh clusters are built per run so the
per-(day, shard) fleet cache never carries state between them.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import corona, longhorn
from repro.sim import CampaignConfig, run_campaign
from repro.telemetry.progress import CampaignProgress
from repro.workloads import sgemm
from repro.workloads.sgemm import SGEMM_N_AMD
from tests.gpu.dense_oracle import dense_search

CONFIG = CampaignConfig(days=2, runs_per_day=2, coverage=0.9)


def assert_datasets_identical(a, b):
    assert a.column_names == b.column_names
    assert a.n_rows == b.n_rows
    for name in a.column_names:
        x, y = a[name], b[name]
        assert x.dtype == y.dtype, f"column {name!r} dtype differs"
        assert np.array_equal(x, y), f"column {name!r} differs"


def run(make_cluster, workload, workers=None, progress=None):
    return run_campaign(make_cluster(), workload, CONFIG, workers=workers,
                        progress=progress)


def run_dense(make_cluster, workload, progress=None):
    with dense_search():
        return run(make_cluster, workload, progress=progress)


def test_grid_solver_reproduces_longhorn_campaign():
    make = lambda: longhorn(seed=13, scale=0.25)
    assert_datasets_identical(run(make, sgemm()), run_dense(make, sgemm()))


def test_grid_solver_reproduces_corona_dither_campaign():
    # The AMD cluster: every solve dithers, so this fails on the first
    # RNG draw the fleet search would add or skip relative to the scan.
    make = lambda: corona(seed=13, scale=0.3)
    workload = sgemm(n=SGEMM_N_AMD)
    assert_datasets_identical(run(make, workload), run_dense(make, workload))


def test_fleet_solver_parallel_matches_serial():
    make = lambda: longhorn(seed=13, scale=0.25)
    assert_datasets_identical(run(make, sgemm()),
                              run(make, sgemm(), workers=2))


def test_solve_counters_invariant_across_solvers_and_workers():
    # A batched solve counts as n per-GPU solves in one batch, so the
    # campaign-total solve/batch counters depend only on the campaign
    # shape — never on the search (fleet or dense oracle) or the shard
    # plan.
    make = lambda: longhorn(seed=13, scale=0.25)
    totals = {}
    for label in ("serial", "workers=2", "dense"):
        progress = CampaignProgress()
        if label == "dense":
            run_dense(make, sgemm(), progress=progress)
        else:
            run(make, sgemm(), workers=2 if label == "workers=2" else None,
                progress=progress)
        stats = progress.solver_stats
        totals[label] = (stats.solves, stats.batches)
    reference = totals["serial"]
    assert reference[0] > 0 and reference[1] > 0
    assert all(t == reference for t in totals.values()), totals


def test_progress_surfaces_solver_stats(small_longhorn):
    progress = CampaignProgress()
    run_campaign(small_longhorn, sgemm(), CONFIG, progress=progress)
    stats = progress.solver_stats
    assert stats.solves > 0
    assert stats.dense_cells > stats.columns_evaluated
    assert stats.dense_fraction_avoided > 0.5
    assert "solver skipped" in progress.summary()
    assert all(t.solver is not None for t in progress.timings)
