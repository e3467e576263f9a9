"""One repetition of a batch verb, in the fresh interpreter a CLI user gets.

Usage (from the checkout root; ``run.py`` drives it)::

    PYTHONPATH=src python3 perfbench/batch.py WORKLOAD SEED MODE OUTDIR SPAWNED

``SPAWNED`` is the parent's ``time.perf_counter()`` just before it started
this process; ``perf_counter`` is the system-wide monotonic clock on Linux,
so set-up time includes interpreter start.  The repetition writes the
verb's outputs under ``OUTDIR``, checks them, and prints one JSON object:
set-up and verb times (wall, and this process's CPU time with the host
speed sampled meanwhile, see ``hostspeed.py``), peak RSS, output digests,
failed checks and — when ``MODE`` is ``traced`` — the layer ledger, the
tracer's work counters and the probes' own cost.
``MODE`` ``setup`` stops after the set-up and prints its times only.
"""

import gzip
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import repro.api as api
from hostspeed import HostSpeed
from repro.errors import ReproError
from repro.telemetry.io import write_csv

IMPORTED = time.perf_counter()

#: Shape of each workload; the seed is the only input that varies.
CLUSTER = "summit"
CHARACTERIZE_DAYS = 3
SCHED_JOBS = 5000
SCHED_ARRIVALS_PER_HOUR = 600.0
SCHED_PROFILE_DAYS = 3


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def characterize(cluster, seed, outdir, span, tracer, checks):
    """``repro characterize --cluster summit --days 3 --csv out.csv.gz``."""
    workload = api.load_workload("sgemm")
    config = api.CampaignConfig(days=CHARACTERIZE_DAYS, runs_per_day=1)
    result = api.characterize(
        cluster=cluster, workload=workload, config=config, tracer=tracer
    )
    report_text = result.report.render()
    csv_path = outdir / "measurements.csv.gz"
    with span("telemetry.csv_write_s"):
        write_csv(result.dataset, csv_path)
    with span("bench.check_s"):
        csv_bytes = gzip.decompress(csv_path.read_bytes())
        rows = csv_bytes.count(b"\n") - 1
        expected = cluster.n_gpus * CHARACTERIZE_DAYS
        if rows != expected or result.dataset.n_rows != expected:
            checks.append(
                f"csv has {rows} rows, dataset {result.dataset.n_rows}; "
                f"expected GPUs x days = {expected}"
            )
        if cluster.name not in report_text:
            checks.append("report text does not name the cluster")
        digests = {
            "report_text": digest(report_text.encode("utf-8")),
            "csv": digest(csv_bytes),
        }
    return digests, {"telemetry.csv_bytes": len(csv_bytes)}


def schedule(cluster, seed, outdir, span, tracer, checks):
    """``repro sched --cluster summit --policy health-aware --jobs 5000
    --arrival-per-hour 600 --report r.json --events e.jsonl``."""
    result = api.schedule(
        cluster=cluster,
        policy="health-aware",
        trace=api.TraceConfig(
            n_jobs=SCHED_JOBS,
            arrival_rate_per_hour=SCHED_ARRIVALS_PER_HOUR,
            seed=seed,
        ),
        profile_config=api.CampaignConfig(days=SCHED_PROFILE_DAYS),
        tracer=tracer,
    )
    report_path = outdir / "report.json"
    events_path = outdir / "events.jsonl"
    with span("sched.write_s"):
        result.report.write_json(report_path)
        api.write_event_log(result.outcome, events_path)
    with span("bench.check_s"):
        report_bytes = report_path.read_bytes()
        events_bytes = events_path.read_bytes()
        doc = json.loads(report_bytes)
        try:
            api.validate_scheduling_report(doc)
        except ReproError as exc:
            checks.append(f"scheduling report fails its schema: {exc}")
        n_jobs = doc["metrics"]["n_jobs"]
        n_events = events_bytes.count(b"\n")
        if n_jobs != SCHED_JOBS or n_events != 3 * SCHED_JOBS:
            checks.append(
                f"{n_jobs} jobs and {n_events} events; expected "
                f"{SCHED_JOBS} jobs, each submitted, started and finished"
            )
        digests = {
            "report_json": digest(report_bytes),
            "event_log": digest(events_bytes),
        }
    return digests, {}


VERBS = {"characterize-summit": characterize, "sched-summit-health": schedule}


def main(argv):
    workload, seed, mode, outdir, spawned = argv
    seed, traced, spawned = int(seed), mode == "traced", float(spawned)
    outdir = Path(outdir)
    cluster = api.load_preset(CLUSTER, seed=seed)
    built = time.perf_counter()
    setup = {"setup_s": built - spawned, "import_s": IMPORTED - spawned,
             "build_s": built - IMPORTED}
    if mode == "setup":
        print(json.dumps(setup, sort_keys=True))
        return 0
    ledger = tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if traced:
        import probes

        ledger = probes.Ledger()
        probes.install_verb_probes(ledger)
        tracer = api.Tracer()
        span = ledger.span
        built = time.perf_counter()
    checks: list[str] = []
    with HostSpeed() as host:
        started_cpu = time.process_time()
        digests, extra_counts = VERBS[workload](
            cluster, seed, outdir, span, tracer, checks
        )
        done = time.perf_counter()
        cpu_s = time.process_time() - started_cpu - host.overhead_s
    try:
        kernel_s = host.kernel_s()
    except RuntimeError as exc:
        checks.append(str(exc))
        kernel_s = None
    out = {
        **setup,
        "wall_s": done - built,
        "cpu_s": cpu_s,
        "kernel_s": kernel_s,
        "latency_s": done - spawned,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "digests": digests,
        "checks": checks,
    }
    if traced:
        snapshot = ledger.snapshot()
        snapshot["counts"].update(extra_counts)
        snapshot["counts"].update(tracer.deterministic_counters())
        out["ledger"] = snapshot
        out["probe_overhead_s"] = probes.probe_overhead_s(snapshot["calls"])
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
