"""Layer probes: time the calls into each layer from outside ``src/``.

The benchmark never edits the program to measure it.  Instead a traced run
replaces the module attributes through which one layer calls the next
(``repro.api.run_campaign``, ``repro.sched.engine.sample_job_runtimes``,
``MeasurementDataset.per_gpu_median``, ...) with timed wrappers that add
their wall time and call counts to a :class:`Ledger`.  Untraced runs never
import this module.

Every probe name is a per-layer metric of ``BENCHMARK.json``; probes whose
layer a workload bypasses simply never fire and read 0.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Ledger:
    """Per-layer busy seconds and counts, safe to feed from many threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Probe firings, for :func:`probe_overhead_s`.
        self.calls = 0

    def add(self, name: str, seconds: float = 0.0, count: int = 0) -> None:
        with self._lock:
            self.calls += 1
            if seconds:
                self.seconds[name] += seconds
            if count:
                self.counts[name] += count

    @contextmanager
    def span(self, name: str):
        """Time the body as busy time of layer ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``name`` is the layer name, or a callable of the call's
        ``(args, kwargs)`` returning it when one entry point serves several
        layers.  ``on_result(ledger, args, result)`` records counts.
        """
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            layer = name(args, kwargs) if callable(name) else name
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.add(layer, time.perf_counter() - started)
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attr, timed)

    def snapshot(self) -> dict:
        with self._lock:
            return {"seconds": dict(self.seconds), "counts": dict(self.counts),
                    "calls": self.calls}


def probe_overhead_s(calls: int) -> float:
    """What ``calls`` probe firings add to a run's wall time.

    Wall-time differences between traced and untraced runs cannot resolve
    it: the probes cost milliseconds, the runs drift by seconds.  So the
    cost of one firing is measured here instead — a probed no-op against
    the bare no-op, best of five — and multiplied by the ledger additions
    counted.  A count addition costs less than a timed call, so this errs
    high; the tracer counters a traced batch run also enables are not in
    it.
    Call this after the measured work; it takes about a tenth of a second.
    """

    class Target:
        @staticmethod
        def noop():
            return None

    bare = Target.noop
    Ledger().wrap(Target, "noop", "probe")
    probed = Target.noop

    def best(fn, samples=20_000) -> float:
        times = []
        for _ in range(5):
            started = time.perf_counter()
            for _ in range(samples):
                fn()
            times.append(time.perf_counter() - started)
        return min(times) / samples

    return calls * max(best(probed) - best(bare), 0.0)


def _campaign_layer(args, kwargs) -> str:
    # monitor_fleet is the only caller that attaches a FleetMonitor.
    if kwargs.get("monitor") is not None:
        return "obs.monitor_campaign_s"
    return "sim.campaign_s"


def _count_rows(ledger: Ledger, args, dataset) -> None:
    ledger.add("sim.rows", count=int(dataset.n_rows))


def _count_health_events(ledger: Ledger, args, result) -> None:
    tracker, _report = result
    ledger.add("obs.health_events", count=len(tracker.events))


def _count_priced_jobs(ledger: Ledger, args, result) -> None:
    ledger.add("sim.job.price_calls", count=1)
    ledger.add("sim.job.priced_jobs", count=len(result))


def _count_median_call(ledger: Ledger, args, result) -> None:
    ledger.add("core.per_gpu_median_calls", count=1)


def install_verb_probes(ledger: Ledger) -> None:
    """Probe the layers under the facade verbs (campaign, analysis, sched)."""
    import repro.api as api_mod
    import repro.core.suite as suite
    import repro.sched.engine as engine
    from repro.core.suite import ClusterReport, VariabilitySuite
    from repro.telemetry.dataset import MeasurementDataset

    ledger.wrap(api_mod, "run_campaign", _campaign_layer, _count_rows)
    ledger.wrap(api_mod, "analyze_fleet_health", "obs.health_s",
                _count_health_events)
    ledger.wrap(api_mod, "generate_trace", "sched.trace_s")
    ledger.wrap(api_mod, "run_schedule", "sched.run_schedule_s")
    ledger.wrap(api_mod, "build_scheduling_report", "sched.report_s")
    ledger.wrap(engine, "sample_job_runtimes", "sim.job.price_s",
                _count_priced_jobs)

    ledger.wrap(VariabilitySuite, "analyze", "core.analyze_s")
    ledger.wrap(suite, "variability_table", "core.variability_table_s")
    ledger.wrap(suite, "paper_correlation_pairs", "core.correlation_s")
    ledger.wrap(suite, "flag_outlier_gpus", "core.outliers_s")
    ledger.wrap(suite, "worst_performers", "core.worst_performers_s")
    ledger.wrap(suite, "slow_assignment_probability",
                "core.slow_assignment_s")
    ledger.wrap(MeasurementDataset, "per_gpu_median", "core.per_gpu_median_s",
                _count_median_call)
    ledger.wrap(ClusterReport, "render", "core.render_s")


def _execute_layer(args, kwargs) -> str:
    return f"api.execute_s.{args[0].kind}"


def _count_csv_bytes(ledger: Ledger, args, text: str) -> None:
    ledger.add("telemetry.csv_bytes", count=len(text.encode("utf-8")))


def install_service_probes(ledger: Ledger) -> None:
    """Probe the request stages of the HTTP service, plus the verb layers."""
    import repro.api as api_mod
    import repro.service.server as server
    import repro.service.wire as wire

    install_verb_probes(ledger)
    ledger.wrap(server, "request_from_dict", "api.decode_s")
    ledger.wrap(server, "request_digest", "api.digest_s")
    ledger.wrap(server, "execute_request", _execute_layer)
    ledger.wrap(server, "build_response", "service.encode_s")
    ledger.wrap(server, "encode_response", "service.encode_s")
    ledger.wrap(wire, "dataset_to_csv_text", "telemetry.csv_write_s",
                _count_csv_bytes)
    ledger.wrap(api_mod, "load_preset", "cluster.build_s")
