"""Outlier flagging — the operator-facing early-warning capability.

The paper's study "helped TACC's operators identify and perform targeted
maintenance on problematic nodes" (Section VII).  The functions here turn a
measurement table into exactly that: per-GPU outlier flags under the Tukey
fences, per-node counts across all four metrics (the Appendix-B row-H
breakdown), persistence of outliers across applications (Takeaway 6), and
a ranked worst-performer list for maintenance tickets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..telemetry.dataset import MeasurementDataset
from ..telemetry.sample import METRIC_PERFORMANCE, PAPER_METRICS
from .boxstats import BoxStats

__all__ = [
    "OutlierReport",
    "OutlierAccumulator",
    "flag_outlier_gpus",
    "flag_outlier_values",
    "persistent_outliers",
    "node_outlier_counts",
    "worst_performers",
]


@dataclass(frozen=True)
class OutlierReport:
    """Outliers of one metric across the fleet."""

    metric: str
    stats: BoxStats
    gpu_labels: tuple[str, ...]        # flagged GPUs (sorted)
    node_labels: tuple[str, ...]       # their nodes (unique, sorted)
    high_side: tuple[str, ...]         # GPUs above the upper fence
    low_side: tuple[str, ...]          # GPUs below the lower fence

    @property
    def n_outlier_gpus(self) -> int:
        """Number of flagged GPUs."""
        return len(self.gpu_labels)


def flag_outlier_values(
    values: np.ndarray,
    gpu_labels: np.ndarray,
    node_labels: np.ndarray | None = None,
    metric: str = METRIC_PERFORMANCE,
) -> OutlierReport:
    """Flag outliers over plain per-GPU arrays — the streaming entry point.

    Unlike :func:`flag_outlier_gpus` this needs no measurement table: any
    producer holding one value per GPU (a sliding-window median, a single
    day's summary, live telemetry) can call it directly.  The fence math is
    :class:`~repro.core.boxstats.BoxStats` (one fence definition repo-wide).
    """
    values = np.asarray(values, dtype=float).ravel()
    labels = np.asarray(gpu_labels, dtype=object).ravel()
    if values.shape[0] != labels.shape[0]:
        raise AnalysisError(
            f"values ({values.shape[0]}) and gpu_labels ({labels.shape[0]}) "
            "must have one entry per GPU"
        )
    stats = BoxStats.from_values(values)
    mask = stats.outlier_mask(values)
    if node_labels is not None:
        nodes = np.asarray(node_labels, dtype=object).ravel()
        if nodes.shape[0] != labels.shape[0]:
            raise AnalysisError("node_labels must match gpu_labels in length")
    else:
        nodes = np.asarray(
            [lbl.rsplit("-", 1)[0] for lbl in labels], dtype=object
        )
    high = labels[mask & (values > stats.fence_hi)]
    low = labels[mask & (values < stats.fence_lo)]
    return OutlierReport(
        metric=metric,
        stats=stats,
        gpu_labels=tuple(sorted(labels[mask])),
        node_labels=tuple(sorted(set(nodes[mask]))),
        high_side=tuple(sorted(high)),
        low_side=tuple(sorted(low)),
    )


def flag_outlier_gpus(
    dataset: MeasurementDataset,
    metric: str = METRIC_PERFORMANCE,
) -> OutlierReport:
    """Flag GPUs whose per-GPU median falls outside the fleet's fences."""
    med = dataset.per_gpu_median(metric)
    if "gpu_label" not in med:
        raise AnalysisError("dataset needs a gpu_label column for flagging")
    return flag_outlier_values(
        med.column(metric),
        med.column("gpu_label"),
        med.column("node_label") if "node_label" in med else None,
        metric=metric,
    )


class OutlierAccumulator:
    """Incremental cross-report outlier persistence counter.

    The batch API (:func:`persistent_outliers`) needs every report in hand
    at once; this accumulator is its streaming twin — feed it one report
    (or a bare label iterable) at a time as windows complete, and ask for
    the persistent set whenever an operator looks.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._n_reports = 0

    @property
    def n_reports(self) -> int:
        """How many reports have been folded in."""
        return self._n_reports

    def add(self, report) -> None:
        """Fold in one :class:`OutlierReport` or iterable of GPU labels."""
        labels = (
            report.gpu_labels if isinstance(report, OutlierReport) else report
        )
        for label in labels:
            self._counts[str(label)] = self._counts.get(str(label), 0) + 1
        self._n_reports += 1

    def counts(self) -> dict[str, int]:
        """Occurrence count per flagged GPU label (sorted by label)."""
        return dict(sorted(self._counts.items()))

    def persistent(self, min_occurrences: int = 2) -> dict[str, int]:
        """GPUs flagged at least ``min_occurrences`` times so far."""
        if min_occurrences < 1:
            raise AnalysisError("min_occurrences must be >= 1")
        return {
            label: count
            for label, count in sorted(self._counts.items())
            if count >= min_occurrences
        }


def persistent_outliers(
    reports: list[OutlierReport],
    min_occurrences: int = 2,
) -> dict[str, int]:
    """GPUs flagged in at least ``min_occurrences`` reports.

    Feeding the same cluster's ResNet and BERT reports reproduces
    Takeaway 6 ("BERT's and ResNet-50's outlier nodes are the same"); a GPU
    that keeps appearing is a maintenance candidate, not a transient.
    """
    if min_occurrences < 1:
        raise AnalysisError("min_occurrences must be >= 1")
    acc = OutlierAccumulator()
    for report in reports:
        acc.add(report)
    return acc.persistent(min_occurrences)


def node_outlier_counts(
    dataset: MeasurementDataset,
    metrics: tuple[str, ...] = PAPER_METRICS,
) -> dict[str, dict[str, int]]:
    """Outlier-GPU count per node, per metric (the Appendix-B breakdown).

    Returns ``{node_label: {metric: count}}`` including only nodes with at
    least one outlier in some metric.
    """
    per_node: dict[str, dict[str, int]] = {}
    for metric in metrics:
        if metric not in dataset:
            continue
        med = dataset.per_gpu_median(metric)
        labels = med.column("gpu_label")
        nodes = med.column("node_label")
        report = flag_outlier_values(med.column(metric), labels, nodes,
                                     metric=metric)
        node_of = dict(zip(labels, nodes))
        for gpu in report.gpu_labels:
            node = node_of[gpu]
            per_node.setdefault(node, {})[metric] = (
                per_node.get(node, {}).get(metric, 0) + 1
            )
    return dict(sorted(per_node.items()))


def worst_performers(
    dataset: MeasurementDataset,
    metric: str = METRIC_PERFORMANCE,
    k: int = 10,
    higher_is_worse: bool = True,
) -> list[tuple[str, float]]:
    """The ``k`` worst GPUs by per-GPU median, with their values.

    Durations are worse when higher; pass ``higher_is_worse=False`` for
    frequency-like metrics.
    """
    if k < 1:
        raise AnalysisError("k must be >= 1")
    med = dataset.per_gpu_median(metric)
    values = med.column(metric)
    labels = med.column("gpu_label")
    order = np.argsort(values)
    if higher_is_worse:
        order = order[::-1]
    picked = order[:k]
    return [(str(labels[i]), float(values[i])) for i in picked]
