"""Dense (n, k) feasibility scan: the test oracle for the DVFS solver.

The production solver (:meth:`repro.gpu.dvfs.DvfsController.solve_steady`)
finds each GPU's settled ladder level with an estimate-guided batched
search that evaluates ~2 of the k ladder columns per GPU.  This oracle
evaluates all k of them through the public
:meth:`~repro.gpu.dvfs.DvfsController.power_grid` and scans explicitly
for the highest feasible level, so it shares no search logic with the
solver under test.  It hands the same five epilogue inputs — level index,
(power, temperature) at the level, and at the level above — to the
solver's own epilogue (cap classification, AMD dithering), which is what
lets every comparison be bitwise.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.gpu.dvfs import DvfsController


def dense_scan(ctl, activity, dram_utilization, efficiency, cap, f_cap,
               t_limit):
    """Highest feasible ladder level per GPU by an explicit dense scan.

    Returns ``(idx, p_level, t_level, p_above, t_above)``, the epilogue
    inputs of :meth:`~repro.gpu.dvfs.DvfsController.solve_steady`.
    """
    steps = ctl.pstates()
    k = steps.shape[0]
    p_grid, t_grid = ctl.power_grid(activity, dram_utilization, efficiency)
    feasible = (p_grid <= cap[:, None]) & (t_grid <= t_limit)
    if f_cap is not None:
        feasible &= steps[None, :] <= f_cap[:, None]
    # Scan for the top feasible column rather than assuming feasibility is
    # a prefix of the ladder — the assumption the solver relies on.
    rev = feasible[:, ::-1]
    idx = np.where(rev.any(axis=1), k - 1 - np.argmax(rev, axis=1), 0)
    rows = np.arange(ctl.n)
    above = np.minimum(idx + 1, k - 1)
    return (
        idx,
        p_grid[rows, idx],
        t_grid[rows, idx],
        p_grid[rows, above],
        t_grid[rows, above],
    )


@contextlib.contextmanager
def dense_search():
    """Route every controller's steady-state search through the dense scan.

    Everything outside the search — input broadcasting, the epilogue,
    RNG consumption, the solve/batch counters — runs the production code.
    In-process only: campaign worker processes keep the fleet search.
    """
    with mock.patch.object(DvfsController, "_search_fleet", dense_scan):
        yield


def dense_solve(ctl, *args, **kwargs):
    """``ctl.solve_steady(*args, **kwargs)`` under :func:`dense_search`."""
    with dense_search():
        return ctl.solve_steady(*args, **kwargs)
