"""End-to-end benchmark of the ``repro`` verbs, with a per-layer ledger.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, untraced

Workloads (see ``BENCHMARK.json`` for why each exists):

``characterize-summit``
    ``api.characterize`` on full Summit, sgemm, 3 days x 1 run, then the
    rendered report and the gzipped CSV (``repro characterize --csv``).
``sched-summit-health``
    ``api.schedule`` on full Summit under the health-aware policy (3-day
    monitored profile), 5,000 jobs at 600 jobs/h, then the report JSON and
    event log (``repro sched --report --events``).
``serve-longhorn-open``
    ``repro serve --workers 2`` under an open loop of 8 req/s mixing
    characterize, monitor and schedule on full Longhorn (``serve.py``).

Batch verbs run serially, one fresh interpreter per repetition
(``batch.py``), until ``--seconds`` have passed and at least two
repetitions are done; the seed is the cluster seed (and the trace seed).
The gated time of a run is ``cpu_ref_s``: the CPU time (user + system) of
the process doing the verb's work — the repetition's interpreter from the
verb call until its outputs are written and checked, or the server over
the open loop (``serve.py``) — rescaled to a reference host speed sampled
while the work runs (``hostspeed.py``).  On a 2-vCPU virtual machine
sharing its host with other tenants, ten runs of the same code spread by
26-42% in wall time (interquartile range over median), more than any
bound allows.  CPU time leaves out the time the process waited for a CPU,
inside the VM or stolen by the hypervisor; the rescaling takes out the
drift of the CPUs' own speed.  The measured ``cpu_s``, the host speed
``host.kernel_ms`` and the wall times a user waits (``wall_s`` and
``latency_p50_ms``) are printed by the untraced run, ungated; the traced
run keeps ``traced_wall_s``, ``host.kernel_ms`` and the service latencies
per layer.
Every output is checked.  A failed check, a crash, or a digest that differs
from another repetition, from ``reference.json``, or from an earlier run of
the same seed, seconds and ``src/`` source in this checkout
(``.perfbench/state.json``) counts as a failed operation.

With ``--trace 0`` the last line of stdout is the contract JSON with every
end-to-end metric; with ``--trace 1`` it has every per-layer metric, taken
by timing calls into each layer from outside the program (``probes.py``).
A traced run fails if its top layers leave more than ``MAX_UNTRACED`` of
the wall time uncovered or a layer the workload is known to use reads 0,
so that a probe a source change no longer reaches is caught.  Count
metrics must repeat exactly; a drift is a failure.  The lines above the
JSON repeat each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("characterize-summit", "sched-summit-health",
             "serve-longhorn-open")
#: Each batch repetition must end well inside the 180 s a run may take.
REP_TIMEOUT_S = 150.0
MIN_REPS = 2
#: Set-up-only interpreters per batch run, on top of each repetition's own
#: set-up, so that ``setup_s`` is a median of several samples.
SETUP_SPAWNS = 3

#: Layers that partition a batch repetition's verb wall time; what they
#: leave uncovered is ``untraced_s``.
TOP_LAYERS = {
    "characterize-summit": (
        "sim.campaign_s", "core.analyze_s", "core.render_s",
        "telemetry.csv_write_s", "bench.check_s",
    ),
    "sched-summit-health": (
        "sched.trace_s", "obs.monitor_campaign_s", "obs.health_s",
        "sched.run_schedule_s", "sched.report_s", "sched.write_s",
        "bench.check_s",
    ),
}
#: Largest share of a traced wall time the top layers may leave uncovered.
MAX_UNTRACED = 0.05
#: Per-layer metrics each workload's traced run must see fire.
REQUIRED_LAYERS = {
    "characterize-summit": (
        "sim.campaign_s", "sim.rows", "gpu.solves", "core.analyze_s",
        "core.variability_table_s", "core.correlation_s", "core.outliers_s",
        "core.worst_performers_s", "core.slow_assignment_s",
        "core.per_gpu_median_s", "core.render_s", "telemetry.csv_write_s",
    ),
    "sched-summit-health": (
        "sched.trace_s", "obs.monitor_campaign_s", "obs.health_s",
        "sched.run_schedule_s", "sim.job.price_s", "sched.price_batches",
        "sched.report_s", "gpu.solves",
    ),
    "serve-longhorn-open": (
        "api.decode_s", "api.digest_s", "service.encode_s",
        "api.execute_s.characterize", "api.execute_s.monitor",
        "api.execute_s.schedule", "cluster.build_s", "sim.campaign_s",
        "core.analyze_s", "telemetry.csv_write_s", "obs.monitor_campaign_s",
        "obs.health_s", "sched.run_schedule_s", "sim.job.price_s",
        "gpu.solves", "service.campaigns_executed", "service.cache_hits",
    ),
}
#: Tracer counters (``repro.obs.Tracer``) reported under another name.
TRACER_COUNTERS = {
    "gpu.solves": "solver.solves",
    "gpu.solve_batches": "solver.batches",
}
#: Counts that depend on timing: whether a duplicate request finds its
#: response cached or joins the execution still in flight, and how many
#: requests overlap.  Every other count must repeat exactly.
TIMING_DEPENDENT_COUNTS = ("service.cache_hits", "service.coalesced",
                           "loadgen.max_in_flight")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def median(values) -> float:
    return float(statistics.median(values))


class Checks:
    """Digests and counts this run must agree on, with every source."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload, self.seed = workload, str(seed)
        # Runs are compared only with runs of the same program source, so a
        # change that legitimately alters a work count is not a drift.
        source = hashlib.blake2b(digest_size=8)
        for path in sorted(SRC.rglob("*.py")):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            source.update(path.read_bytes())
        self.run_key = (f"seed={seed},seconds={seconds},"
                        f"src={source.hexdigest()}")
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.counts: dict[str, float] = {}
        reference = json.loads((HERE / "reference.json").read_text())
        self.reference = reference.get(workload, {}).get(self.seed, {})
        self.state_path = ROOT / ".perfbench" / "state.json"

    def digests_agree(self, digests: dict[str, str]) -> bool:
        ok = True
        for name, value in digests.items():
            first = self.digests.setdefault(name, value)
            if value != first:
                self.failures.append(f"{name} differs between repetitions")
                ok = False
            expected = self.reference.get(name)
            if expected is not None and value != expected:
                self.failures.append(
                    f"{name} digest {value} != reference {expected}")
                ok = False
        return ok

    def counts_agree(self, counts: dict[str, float]) -> None:
        for name, value in counts.items():
            first = self.counts.setdefault(name, value)
            if value != first:
                self.failures.append(
                    f"count {name} drifted between repetitions: "
                    f"{first} then {value}")

    def against_earlier_runs(self) -> None:
        """Compare with, then record into, this checkout's run state."""
        state = (json.loads(self.state_path.read_text())
                 if self.state_path.exists() else {})
        entry = state.setdefault(self.workload, {}).setdefault(
            self.run_key, {})
        for kind, mine in (("digests", self.digests),
                           ("counts", self.counts)):
            earlier = entry.setdefault(kind, {})
            for name, value in mine.items():
                if earlier.setdefault(name, value) != value:
                    self.failures.append(
                        f"{kind[:-1]} {name} drifted from an earlier run "
                        f"({self.run_key}): {earlier[name]} then {value}")
        if not self.failures:
            self.state_path.parent.mkdir(exist_ok=True)
            tmp = self.state_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
            tmp.replace(self.state_path)


def spawn(workload: str, seed: int, mode: str, env: dict, workdir: Path,
          timeout: float) -> tuple[dict | None, str]:
    """One ``batch.py`` interpreter; its JSON line, or why there is none."""
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "batch.py"), workload, str(seed),
             mode, str(workdir), repr(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} repetition timed out"
    error = (f"{mode} repetition exited {proc.returncode}: "
             f"{proc.stderr.strip()[-500:]}")
    if proc.returncode != 0:
        return None, error
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), error
    except (IndexError, json.JSONDecodeError):
        return None, error


def run_batch(workload: str, seed: int, seconds: int, traced: bool,
              env: dict, workdir: Path, checks: Checks) -> dict:
    reps, setups, failed = [], [], 0
    attempted = 0
    started = time.perf_counter()
    for _ in range(SETUP_SPAWNS):
        attempted += 1
        rep, error = spawn(workload, seed, "setup", env, workdir,
                           REP_TIMEOUT_S)
        if rep is None:
            failed += 1
            checks.failures.append(error)
        else:
            setups.append(rep["setup_s"])
    slowest = 0.0
    mode = "traced" if traced else "plain"
    while not failed:
        attempted += 1
        spawned = time.perf_counter()
        rep, error = spawn(workload, seed, mode, env, workdir,
                           REP_TIMEOUT_S - (spawned - started))
        slowest = max(slowest, time.perf_counter() - spawned)
        if rep is None:
            failed += 1
            checks.failures.append(error)
        elif rep["checks"] or not checks.digests_agree(rep["digests"]):
            failed += 1
            checks.failures.extend(rep["checks"])
        else:
            reps.append(rep)
            setups.append(rep["setup_s"])
        elapsed = time.perf_counter() - started
        if ((len(reps) >= MIN_REPS and elapsed >= seconds)
                or elapsed + slowest > REP_TIMEOUT_S):
            break
    result = {"attempted": attempted, "failed": failed}
    if reps and traced:
        result["layers"] = batch_layers(workload, reps, checks)
    elif reps:
        n = len(reps)
        result["metrics"] = {
            "cpu_ref_s": (median(r["cpu_s"] * REFERENCE_S / r["kernel_s"]
                                 for r in reps), n),
            "setup_s": (median(setups), len(setups)),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in reps), n),
        }
        result["ungated"] = {
            "cpu_s": (median(r["cpu_s"] for r in reps), n, "s"),
            "host.kernel_ms": (median(r["kernel_s"] * 1000.0 for r in reps),
                               n, "ms"),
            "wall_s": (median(r["wall_s"] for r in reps), n, "s"),
            "latency_p50_ms": (median(r["latency_s"] * 1000.0 for r in reps),
                               n, "ms"),
        }
    return result


def batch_layers(workload: str, reps: list, checks: Checks) -> dict:
    counts = reps[0]["ledger"]["counts"]
    for rep in reps:
        checks.counts_agree(rep["ledger"]["counts"])
    names = {name for rep in reps for name in rep["ledger"]["seconds"]}
    layers = {
        name: median(rep["ledger"]["seconds"].get(name, 0.0)
                     for rep in reps)
        for name in names
    }
    layers.update(counts)
    for layer, counter in TRACER_COUNTERS.items():
        layers[layer] = counts.get(counter, 0)
    layers["setup.import_s"] = median(r["import_s"] for r in reps)
    layers["cluster.build_s"] = median(r["build_s"] for r in reps)
    layers["untraced_s"] = median(
        rep["wall_s"] - sum(rep["ledger"]["seconds"].get(name, 0.0)
                            for name in TOP_LAYERS[workload])
        for rep in reps
    )
    layers["trace_overhead_s"] = median(r["probe_overhead_s"]
                                        for r in reps)
    layers["traced_wall_s"] = median(r["wall_s"] for r in reps)
    layers["host.kernel_ms"] = median(r["kernel_s"] * 1000.0 for r in reps)
    return layers


def run_serve(seed: int, seconds: int, traced: bool, env: dict,
              workdir: Path, checks: Checks) -> dict:
    sys.path.insert(0, str(SRC))
    import serve

    outcome = serve.run(ROOT, env, workdir, seed, seconds, traced)
    failures = outcome["failures"]
    checks.failures.extend(sorted(set(failures)))
    if not failures:
        checks.digests_agree(outcome["digests"])
    return {"attempted": outcome["attempted"], "failed": len(failures),
            "metrics": outcome["metrics"], "layers": outcome.get("layers"),
            "ungated": outcome["ungated"]}


def derive_layers(values: dict) -> dict:
    """Layer metrics computed from other layer metrics."""
    price_calls = values.get("sim.job.price_calls", 0)
    values["sched.dispatch_s"] = (values.get("sched.run_schedule_s", 0.0)
                                  - values.get("sim.job.price_s", 0.0))
    values["sched.jobs_per_price_batch"] = (
        values.get("sim.job.priced_jobs", 0) / price_calls
        if price_calls else 0.0)
    return values


def check_coverage(name: str, layers: dict, checks: Checks) -> None:
    """Fail a traced run whose probes no longer see the work they should."""
    if name in TOP_LAYERS and layers["untraced_s"] > (
            MAX_UNTRACED * layers["traced_wall_s"]):
        checks.failures.append(
            f"top layers leave {layers['untraced_s']:.3f} s of "
            f"{layers['traced_wall_s']:.3f} s uncovered "
            f"(more than {MAX_UNTRACED:.0%})")
    for layer in REQUIRED_LAYERS[name]:
        if not layers.get(layer):
            checks.failures.append(f"layer {layer} never fired")


def run_workload(name: str, seed: int, seconds: int, traced: bool,
                 spec: dict) -> tuple[dict, list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workdir = ROOT / ".perfbench" / name
    workdir.mkdir(parents=True, exist_ok=True)
    # Byte-compile once so no timed interpreter pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, capture_output=True)
    checks = Checks(name, seed, seconds)
    if name == "serve-longhorn-open":
        result = run_serve(seed, seconds, traced, env, workdir, checks)
    else:
        result = run_batch(name, seed, seconds, traced, env, workdir, checks)
    if traced:
        layers = derive_layers(result.get("layers") or {})
        if result.get("layers"):
            check_coverage(name, layers, checks)
        checks.counts_agree({
            m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]
            if m["unit"] in ("count", "bytes")
            and m["name"] not in TIMING_DEPENDENT_COUNTS
        })
        wanted = spec["per_layer"]
        metrics = {m["name"]: (layers.get(m["name"], 0), None)
                   for m in wanted}
    else:
        wanted = spec["end_to_end"]
        metrics = result.get("metrics", {})
    checks.against_earlier_runs()
    failed = result["failed"]
    if checks.failures and not failed:
        failed = 1
    report = {
        "correct": not checks.failures and bool(metrics),
        "attempted": max(1, result["attempted"]),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    lines = [f"{name} seed={seed} trace={int(traced)}: "
             f"{report['attempted']} attempted, {failed} failed"]
    for m in wanted:
        if m["name"] in metrics:
            value, n = metrics[m["name"]]
            samples = f"  n={n}" if n is not None else ""
            lines.append(f"  {m['name']:<32} {value:>14.6g} {m['unit']}"
                         f"{samples}")
    if not traced:
        for metric, (value, n, unit) in result.get("ungated", {}).items():
            lines.append(f"  {metric:<32} {value:>14.6g} {unit}  n={n}"
                         f"  (ungated)")
    lines.append(f"  {'error_rate':<32} {failed / report['attempted']:>14.6g}"
                 f" ratio  n={report['attempted']}")
    if traced and name in TOP_LAYERS and metrics["traced_wall_s"][0]:
        share = metrics["untraced_s"][0] / metrics["traced_wall_s"][0]
        lines.append(f"  layers cover {100 * (1 - share):.2f}% of the "
                     f"traced wall time")
    lines.extend(f"  FAILED: {msg}" for msg in checks.failures)
    return report, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report, lines = run_workload(name, args.seed, seconds,
                                     bool(args.trace), spec)
        print("\n".join(lines), flush=True)
        reports.append(report)
    if args.workload == "all":
        print(json.dumps({name: r for name, r in zip(names, reports)},
                         sort_keys=True))
    else:
        print(json.dumps(reports[0]))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
