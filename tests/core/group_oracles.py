"""Brute-force grouping oracles for the analysis passes.

The production passes (:meth:`MeasurementDataset.per_gpu_median`,
:func:`~repro.core.scheduler.slow_assignment_probability`,
:func:`~repro.core.scheduler.node_variability_scores`,
:func:`~repro.core.repeatability.per_gpu_repeatability`) group rows through
one cached sort (:class:`~repro.telemetry.dataset.GroupIndex`).  The
oracles here group the obvious way instead: one full-column mask per group
and ``np.median`` / ``.max()`` on each mask's rows.  That costs
O(groups x rows), which is why it is not the production path, but it shares
no grouping logic with the code under test, so the property tests in
``test_group_index.py`` can demand bitwise equality.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError
from repro.telemetry.dataset import MeasurementDataset


def per_gpu_median_oracle(dataset: MeasurementDataset, value: str,
                          gpu_key: str = "gpu_index") -> MeasurementDataset:
    """One row per GPU, ``np.median`` of ``value`` over a mask per GPU."""
    keys = dataset.column(gpu_key)
    uniq, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    values = dataset.column(value)
    medians = np.array([
        np.median(values[inverse == gi]) for gi in range(uniq.shape[0])
    ])
    out: dict[str, np.ndarray] = {}
    for name in dataset.column_names:
        if name == value:
            continue
        col = dataset.column(name)
        representative = col[first_index]
        if bool(np.all(col == representative[inverse])):
            out[name] = representative
    out[value] = medians
    return MeasurementDataset(out)


def slow_assignment_probability_oracle(
    dataset: MeasurementDataset,
    n_gpus: int = 1,
    slow_threshold: float = 0.06,
    metric: str = "performance_ms",
    fast_percentile: float = 2.0,
) -> float:
    """Per-node loop: each node's members by mask, hypergeometric odds."""
    med = per_gpu_median_oracle(dataset, metric)
    values = med.column(metric)
    fast = np.percentile(values, fast_percentile)
    slow = values > fast * (1.0 + slow_threshold)
    if n_gpus == 1:
        return float(slow.mean())
    nodes = med.column("node_label")
    probs: list[float] = []
    for node in np.unique(nodes):
        members = slow[nodes == node]
        width = members.shape[0]
        if width < n_gpus:
            continue
        if n_gpus == width:
            probs.append(float(members.any()))
        else:
            n_fast = int((~members).sum())
            p_clean = 1.0
            for j in range(n_gpus):
                p_clean *= max(0, n_fast - j) / (width - j)
            probs.append(1.0 - p_clean)
    if not probs:
        raise AnalysisError(f"no node is wide enough for {n_gpus}-GPU jobs")
    return float(np.mean(probs))


def node_variability_scores_oracle(
    dataset: MeasurementDataset, metric: str = "performance_ms",
) -> dict[str, float]:
    """Per-node loop: worst member median over the fleet median."""
    med = per_gpu_median_oracle(dataset, metric)
    values = med.column(metric)
    nodes = med.column("node_label")
    fleet_median = np.median(values)
    scores: dict[str, float] = {}
    for node in np.unique(nodes):
        member_values = values[nodes == node]
        scores[str(node)] = float(member_values.max() / fleet_median)
    return scores


def per_gpu_repeatability_oracle(
    dataset: MeasurementDataset, metric: str = "performance_ms",
    gpu_key: str = "gpu_index", min_runs: int = 2,
) -> MeasurementDataset:
    """Per-GPU loop: ``(max - min) / median`` of each GPU's masked rows."""
    keys = dataset.column(gpu_key)
    values = dataset.column(metric)
    uniq, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    rows_idx: list[int] = []
    variation: list[float] = []
    n_runs: list[int] = []
    for gi in range(uniq.shape[0]):
        v = values[inverse == gi]
        if v.shape[0] < min_runs:
            continue
        med = np.median(v)
        if med == 0:
            raise AnalysisError("zero median makes repeat variation undefined")
        rows_idx.append(int(first_index[gi]))
        variation.append(float((v.max() - v.min()) / med))
        n_runs.append(int(v.shape[0]))
    if not variation:
        raise AnalysisError(f"no GPU had at least {min_runs} runs of {metric!r}")
    columns: dict[str, np.ndarray] = {
        gpu_key: keys[rows_idx],
        "n_runs": np.asarray(n_runs, dtype=np.int64),
        "repeat_variation": np.asarray(variation),
    }
    for carry in ("gpu_label", "node_label", "cabinet", "cluster", "workload"):
        if carry in dataset:
            columns[carry] = dataset.column(carry)[rows_idx]
    return MeasurementDataset(columns)
