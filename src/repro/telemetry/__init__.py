"""Telemetry substrate: profiler-like sampling, traces, and datasets.

Mirrors the paper's measurement stack (nvprof / rocm-smi, Section III):
samples at a >= 1 ms interval, quantized sensors (integer degrees, ladder
frequencies, watt-resolution power), per-run summary records, and long-form
measurement datasets with CSV/JSON persistence.
"""

from .sample import (
    METRIC_FREQUENCY,
    METRIC_PERFORMANCE,
    METRIC_POWER,
    METRIC_TEMPERATURE,
    PAPER_METRICS,
    SensorModel,
)
from .trace import TelemetryTrace
from .recorder import TraceRecorder
from .dataset import GroupIndex, MeasurementDataset
from .progress import CampaignProgress, ShardTiming
from .io import (
    dataset_to_csv_text,
    read_csv,
    read_trace_json,
    write_csv,
    write_trace_json,
)

__all__ = [
    "METRIC_PERFORMANCE",
    "METRIC_FREQUENCY",
    "METRIC_POWER",
    "METRIC_TEMPERATURE",
    "PAPER_METRICS",
    "SensorModel",
    "TelemetryTrace",
    "TraceRecorder",
    "MeasurementDataset",
    "GroupIndex",
    "CampaignProgress",
    "ShardTiming",
    "read_csv",
    "write_csv",
    "dataset_to_csv_text",
    "read_trace_json",
    "write_trace_json",
]
