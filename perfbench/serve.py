"""The ``serve-longhorn-open`` workload: an open loop against ``repro serve``.

Independent users send requests on their own schedule, so the load is an
open loop: request ``i`` is due at a seeded time in its ``1 / RATE_RPS``
slot and is sent then, whether or not earlier requests have returned.  Each latency is
timed from the request's due time, not from when it was sent, so a stalled
generator or server is charged to every request it delays; a request that
fails, is refused (429/503) or times out counts as ``TIMEOUT_S`` — above any
latency limit.  The generator reports its own lateness (``lag``) so a run
whose generator fell behind can be recognised.

``repro.loadgen`` is not reused for driving: its open loop starts the clock
at send time and leaves non-200 replies out of its percentiles.  Nor is
its plan: :func:`plan` stratifies the seeded draws so that every seed
offers the same mix and spacing, which keeps run-to-run spread down.  With three
quarters of the requests for the hot variant, the median request is a
cache hit and the 95th percentile a miss; at one half the median would sit
on the hit/miss boundary and jump between them from seed to seed.  The
distinct requests fit the server's 64-entry cache, so each runs exactly
once and the work counts repeat exactly.

The gated time of this workload, ``cpu_ref_s``, is the server's CPU time
(user + system, all threads) over the open loop: the work of every
request, hits and misses, rescaled by the host speed that this process
samples during the loop (``hostspeed.py``).  Misses make up most of it,
so a slower miss path shows there, and so does a costlier hit path.  The
span of the run would show neither: the arrival plan fixes it.  The
server's own busy time, the sum of its ``service_request_latency_s``
histogram on ``/metrics``, is reported as ``wall_s`` and the median
latency (a cache hit) as ``latency_p50_ms``; both are wall clock and
ungated, because on a shared host they spread with other tenants' load
(``run.py``).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import REFERENCE_S, HostSpeed

HOST = "127.0.0.1"
RATE_RPS = 8.0
MIX = ("characterize", "monitor", "schedule")
CLUSTER = "longhorn"
DAYS = 3
#: Share of requests for variant 0 of their kind (the hot, cached one).
DUPLICATE_FRACTION = 0.75
#: Variants per kind; variant ``v`` is cluster seed (and trace seed) ``v``.
DISTINCT = 64
SCHEDULE_JOBS = 20
SERVER_WORKERS = 2
#: Server boots per run; ``setup_s`` is their median.  The last one serves.
BOOTS = 5
BOOT_TIMEOUT_S = 60.0
TIMEOUT_S = 60.0
#: Distinct characterize responses re-computed offline per run.
CSV_SAMPLES = 2


def _serve_args() -> list[str]:
    return ["serve", "--host", HOST, "--port", "0",
            "--workers", str(SERVER_WORKERS)]


class Server:
    """One ``repro serve`` subprocess, from spawn to the listening line."""

    def __init__(self, root: Path, env: dict, log_path: Path,
                 ledger_path: Path | None = None) -> None:
        spawned = time.perf_counter()
        if ledger_path is None:
            cmd = [sys.executable, "-m", "repro", *_serve_args()]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "serve_traced.py"),
                   repr(spawned), str(ledger_path), *_serve_args()]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        try:
            self.port = self._await_listening(spawned + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - spawned

    def _await_listening(self, deadline: float) -> int:
        marker = b"listening on http://"
        line = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], deadline - time.perf_counter()
            )
            if not ready:
                break
            line = self.proc.stdout.readline()
            if not line:
                break
            if marker in line:
                return int(line.strip().rsplit(b":", 1)[1])
        raise RuntimeError(f"server did not report a port: {line!r}")

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server so far, all threads."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        utime, stime = stat.rsplit(")", 1)[1].split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for row in status.splitlines():
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) * 1024 / 1e6
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT, as a terminal user stops it; kill if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Outcome:
    __slots__ = ("request", "due", "sent", "done", "status", "headers",
                 "body", "error")

    def __init__(self, request, due: float) -> None:
        self.request = request
        self.due = due
        self.sent = self.done = due
        self.status = None
        self.headers: dict[str, str] = {}
        self.body = b""
        self.error: str | None = None


def _request(kind: str, variant: int):
    """The same request shapes as ``repro loadgen``, on full Longhorn."""
    import repro.api as api

    common = dict(cluster=CLUSTER, seed=variant, scale=1.0)
    if kind == "characterize":
        return api.CharacterizeRequest(days=DAYS, **common)
    if kind == "monitor":
        return api.MonitorRequest(days=DAYS, **common)
    return api.ScheduleRequest(n_jobs=SCHEDULE_JOBS, trace_seed=variant,
                               profile_days=1, **common)


def plan(seed: int, n: int) -> tuple[list, np.ndarray]:
    """Requests and due offsets (s) of one run, a pure function of the seed.

    Exactly ``DUPLICATE_FRACTION`` of the requests ask for variant 0 of
    their kind; the others ("fresh") ask for variants drawn without
    replacement and sit in every ``1 / (1 - DUPLICATE_FRACTION)``-th slot,
    so that two misses never queue behind each other and the 95th
    percentile measures a miss rather than how often the seeded arrivals
    happened to stack misses (which moved it by a quarter between seeds).
    Kinds come in equal shares among both groups, in seeded order, and one
    arrival falls uniformly at random inside each ``1 / RATE_RPS`` slot.
    """
    rng = np.random.default_rng([seed, 0x0BE7])
    n_fresh = n - round(n * DUPLICATE_FRACTION)
    stride = n / max(n_fresh, 1)
    fresh_slots = {int((i + 1) * stride) - 1 for i in range(n_fresh)}

    def balanced_kinds(count: int) -> list[str]:
        return [MIX[i] for i in rng.permutation(np.arange(count) % len(MIX))]

    hot_kinds = iter(balanced_kinds(n - n_fresh))
    fresh_kinds = iter(balanced_kinds(n_fresh))
    variants = {kind: iter(rng.permutation(np.arange(1, DISTINCT)).tolist()
                           * (n // (DISTINCT - 1) + 1))
                for kind in MIX}
    requests = []
    for slot in range(n):
        if slot in fresh_slots:
            kind = next(fresh_kinds)
            requests.append(_request(kind, next(variants[kind])))
        else:
            requests.append(_request(next(hot_kinds), 0))
    offsets = (np.arange(n) + rng.random(n)) / RATE_RPS
    return requests, offsets


async def _drive(port: int, requests: list, offsets: np.ndarray):
    from repro.errors import ServiceError
    from repro.loadgen.client import http_request

    start = time.perf_counter() + 0.05
    state = {"in_flight": 0, "max_in_flight": 0}

    async def one(request, offset: float) -> Outcome:
        outcome = Outcome(request, start + offset)
        delay = outcome.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome.sent = time.perf_counter()
        state["in_flight"] += 1
        state["max_in_flight"] = max(state["max_in_flight"],
                                     state["in_flight"])
        try:
            reply = await http_request(
                HOST, port, "POST", f"/v1/{request.kind}",
                request.to_json().encode("utf-8"), TIMEOUT_S,
            )
            outcome.status, outcome.headers = reply.status, reply.headers
            outcome.body = reply.body
        except ServiceError as exc:
            outcome.error = str(exc)
        outcome.done = time.perf_counter()
        state["in_flight"] -= 1
        return outcome

    outcomes = await asyncio.gather(
        *(one(req, float(off)) for req, off in zip(requests, offsets))
    )
    return list(outcomes), state["max_in_flight"]


async def _get(port: int, path: str) -> bytes:
    from repro.loadgen.client import http_request

    reply = await http_request(HOST, port, "GET", path, b"", TIMEOUT_S)
    if reply.status != 200:
        raise RuntimeError(f"GET {path} returned {reply.status}")
    return reply.body


def _prometheus_values(text: str) -> dict[str, float]:
    values = {}
    for row in text.splitlines():
        if row and not row.startswith("#") and "{" not in row:
            name, _, value = row.partition(" ")
            values[name] = float(value)
    return values


def _check(outcomes: list[Outcome]) -> list[str | None]:
    """One verdict per request: ``None`` if served and correct."""
    import repro.api as api
    from repro.errors import ReproError
    from repro.service.wire import decode_response, validate_response
    from repro.telemetry.io import dataset_to_csv_text

    digests = [api.request_digest(o.request) for o in outcomes]
    verdicts: list[str | None] = []
    body_by_digest: dict[str, bytes] = {}
    for outcome, digest in zip(outcomes, digests):
        if outcome.status != 200:
            verdicts.append(f"status {outcome.status}: {outcome.error}")
            continue
        request = outcome.request
        try:
            payload = decode_response(outcome.body)
            kind = validate_response(payload)
        except ReproError as exc:
            verdicts.append(f"invalid body: {exc}")
            continue
        if kind != request.kind or payload["request"] != request.to_dict():
            verdicts.append("body answers another request")
        elif outcome.headers.get("x-repro-digest") != digest:
            verdicts.append("digest header differs from request_digest")
        elif body_by_digest.setdefault(digest, outcome.body) != outcome.body:
            verdicts.append("bodies for one digest differ")
        else:
            verdicts.append(None)

    sampled = 0
    for outcome, digest, verdict in zip(outcomes, digests, list(verdicts)):
        request = outcome.request
        if (verdict is not None or request.kind != "characterize"
                or digest not in body_by_digest):
            continue
        payload = json.loads(body_by_digest.pop(digest))
        offline = api.characterize(request=request)
        if (payload["csv"] != dataset_to_csv_text(offline.dataset)
                or payload["report_text"] != offline.report.render()):
            for i, other in enumerate(digests):
                if other == digest:
                    verdicts[i] = "served characterize differs from offline"
        sampled += 1
        if sampled == CSV_SAMPLES:
            break
    return verdicts


def _p(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run(root: Path, env: dict, workdir: Path, seed: int, seconds: int,
        traced: bool) -> dict:
    """One run: boot, drive, check; returns metrics and per-layer values."""
    n_requests = max(1, round(RATE_RPS * seconds))
    requests, offsets = plan(seed, n_requests)

    log_path = workdir / "server.log"
    ledger_path = workdir / "ledger.json"
    boots = []
    for _ in range(BOOTS - 1):
        server = Server(root, env, log_path)
        boots.append(server.boot_s)
        server.stop()
    server = Server(root, env, log_path, ledger_path if traced else None)
    try:
        cpu_before = server.cpu_s()
        with HostSpeed() as host:
            outcomes, max_in_flight = asyncio.run(
                _drive(server.port, requests, offsets))
        cpu_s = server.cpu_s() - cpu_before
        prom = _prometheus_values(
            asyncio.run(_get(server.port, "/metrics")).decode("utf-8")
        )
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    if not traced:
        boots.append(server.boot_s)

    checked = time.perf_counter()
    verdicts = _check(outcomes)
    check_s = time.perf_counter() - checked
    latencies_ms = [
        (o.done - o.due) * 1000.0 if v is None else TIMEOUT_S * 1000.0
        for o, v in zip(outcomes, verdicts)
    ]
    failures = [v for v in verdicts if v is not None]
    server_s = prom.get("repro_service_request_latency_s_sum")
    served = prom.get("repro_service_request_latency_s_count")
    if server_s is None or served != n_requests:
        failures.append(f"/metrics timed {served} requests, not {n_requests}")
        server_s = 0.0
    result = {
        "attempted": n_requests,
        "failures": failures,
        "metrics": {
            "cpu_ref_s": (cpu_s * REFERENCE_S / host.kernel_s(), n_requests),
            "setup_s": (float(np.median(boots)), len(boots)),
            "peak_rss_mb": (peak_rss_mb, 1),
        },
        "ungated": {
            "cpu_s": (cpu_s, n_requests, "s"),
            "host.kernel_ms": (host.kernel_s() * 1000.0, len(host.samples),
                               "ms"),
            "wall_s": (server_s, n_requests, "s"),
            "latency_p50_ms": (_p(latencies_ms, 50), n_requests, "ms"),
        },
        "digests": {
            "bodies": hashlib.blake2b("".join(sorted(
                hashlib.blake2b(o.body, digest_size=16).hexdigest()
                for o in outcomes
            )).encode("ascii"), digest_size=16).hexdigest(),
        },
    }
    if not traced:
        return result

    ledger = json.loads(ledger_path.read_text())
    seconds_by, counts = ledger["seconds"], ledger["counts"]
    by_cache = {"hit": [], "miss": []}
    for o, v in zip(outcomes, verdicts):
        cache = o.headers.get("x-repro-cache")
        if v is None and cache in by_cache:
            by_cache[cache].append((o.done - o.due) * 1000.0)
    execute_s = sum(t for name, t in seconds_by.items()
                    if name.startswith("api.execute_s."))
    covered = (execute_s + seconds_by.get("api.decode_s", 0.0)
               + seconds_by.get("api.digest_s", 0.0)
               + seconds_by.get("service.encode_s", 0.0))
    requests_total = prom.get("repro_service_requests_total", 0.0)
    layers = dict(seconds_by)
    layers.update(counts)
    layers.update({
        "setup.import_s": ledger["import_s"],
        "service.boot_s": float(np.median(boots)),
        "service.response_bytes": sum(len(o.body) for o in outcomes),
        "service.hit_latency_p50_ms": (
            _p(by_cache["hit"], 50) if by_cache["hit"] else 0.0),
        "service.miss_latency_p50_ms": (
            _p(by_cache["miss"], 50) if by_cache["miss"] else 0.0),
        "service.latency_p50_ms": _p(latencies_ms, 50),
        "service.latency_p95_ms": _p(latencies_ms, 95),
        "service.queue_wait_s": server_s - execute_s,
        "service.campaigns_executed": prom.get(
            "repro_service_campaigns_executed", 0.0),
        "service.cache_hits": prom.get("repro_service_cache_hits", 0.0),
        "service.coalesced": prom.get(
            "repro_service_coalesced_requests", 0.0),
        "service.rejected": prom.get("repro_service_rejected_saturated", 0.0),
        "service.hit_ratio": (
            prom.get("repro_service_cache_hits", 0.0) / requests_total
            if requests_total else 0.0),
        "gpu.solves": prom.get("repro_solver_solves", 0.0),
        "gpu.solve_batches": prom.get("repro_solver_batches", 0.0),
        "sched.price_batches": prom.get("repro_sched_price_batches", 0.0),
        "sched.dispatch_attempts": prom.get(
            "repro_sched_dispatch_attempts", 0.0),
        "loadgen.lag_p95_ms": _p(
            [(o.sent - o.due) * 1000.0 for o in outcomes], 95),
        "loadgen.max_in_flight": max_in_flight,
        "bench.check_s": check_s,
        "traced_wall_s": server_s,
        "untraced_s": server_s - covered,
        "trace_overhead_s": ledger["probe_overhead_s"],
        "host.kernel_ms": host.kernel_s() * 1000.0,
    })
    result["layers"] = layers
    return result
