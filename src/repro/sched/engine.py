"""Deterministic discrete-event batch-queue engine.

One serial event loop drives a whole scheduling run: jobs are submitted
from a seeded trace, queued, placed by a pluggable policy over a
:class:`~repro.cluster.allocator.FreeListAllocator`, priced on their
granted GPUs by :func:`~repro.sim.job.sample_job_runtimes`
(bulk-synchronous gang semantics — the slowest member gates the job), and
their completions return capacity to the free list.

Determinism is structural, not incidental:

* the event queue orders by ``(time, kind, seq)`` with completions ahead
  of submissions at equal times, so processing order is a pure function of
  the trace;
* every random draw comes from a labeled :class:`~repro.rng.RngFactory`
  stream — one policy stream, one private stream *per job* keyed by job
  id, so a job's intrinsic draws are identical under every policy;
* the engine itself is serial.  The only parallelism in the stack (the
  profiling campaign feeding variability-aware placement) is already
  bit-identical across worker counts, so the same seed and policy yield a
  byte-identical event log no matter how the run was configured.

One dispatch path produces that log, near-linear in the trace length:
O(1) fit checks from the allocator's free-count buckets, static policy
orders resolved through :class:`~repro.sched.index.OrderedFreeIndex`
segment trees, random policy draws resolved with one vectorized scan, a
per-gang-size blocked-queue index instead of head rescans, and per-round
batched job pricing through :func:`~repro.sim.job.sample_job_runtimes`.
Policies declare their ranking via
:meth:`~repro.sched.policies.PlacementPolicy.ranking`.  The original
rank-every-node, head-rescan loop survives as the test oracle in
``tests/sched/reference_engine.py``; ``docs/SCHEDULING.md`` carries the
byte-stability argument.
"""

from __future__ import annotations

import contextlib
import heapq
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..cluster.allocator import FreeListAllocator, GangAllocation
from ..cluster.cluster import Cluster
from ..errors import SimulationError
from ..obs.timeline import active_recorder
from ..obs.tracer import active_tracer
from ..sim.job import (
    JobPricingRequest,
    reference_unit_times,
    sample_job_runtimes,
)
from ..workloads import get_workload
from .index import OrderedFreeIndex, SizeBucketQueue, resolve_with_ranking
from .policies import PlacementPolicy, StaticRankingSpec
from .trace import Job

__all__ = [
    "JobRecord",
    "ScheduleOutcome",
    "run_schedule",
    "event_log_lines",
    "SLOW_THRESHOLD",
    "FAST_PERCENTILE",
]

#: Fractional slowdown over the fast baseline that marks a GPU as slow —
#: the paper's "6-7% slower than the fastest GPUs".
SLOW_THRESHOLD = 0.06

#: Percentile of the fleet's reference times taken as the fast baseline.
FAST_PERCENTILE = 2.0

_EVT_FINISH = 0  # completions release capacity before equal-time arrivals
_EVT_SUBMIT = 1

#: Day length used to map simulated time onto facility days.
_SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class JobRecord:
    """Everything one job experienced, from submission to completion."""

    job_id: int
    workload_name: str
    n_gpus: int
    work_units: int
    submit_time_s: float
    start_time_s: float
    finish_time_s: float
    node_indices: tuple[int, ...]
    gpu_indices: tuple[int, ...]
    runtime_s: float
    energy_j: float
    gang_imbalance: float
    slow_assigned: bool

    @property
    def wait_time_s(self) -> float:
        """Time spent queued before the gang was granted."""
        return self.start_time_s - self.submit_time_s

    @property
    def jct_s(self) -> float:
        """Job completion time: submission to completion."""
        return self.finish_time_s - self.submit_time_s


@dataclass(frozen=True)
class ScheduleOutcome:
    """A completed scheduling run: per-job records plus the event log."""

    policy_name: str
    records: tuple[JobRecord, ...]
    events: tuple[dict[str, object], ...]

    @cached_property
    def makespan_s(self) -> float:
        """First submission to last completion (computed once, cached)."""
        if not self.records:
            return 0.0
        return max(r.finish_time_s for r in self.records) - min(
            r.submit_time_s for r in self.records
        )


def _round(value: float) -> float:
    """Canonical float rounding for byte-stable event logs."""
    return round(float(value), 6)


def event_log_lines(events: tuple[dict[str, object], ...]) -> list[str]:
    """Serialize events as canonical JSON Lines (sorted keys, no spaces)."""
    return [
        json.dumps(event, sort_keys=True, separators=(",", ":"))
        for event in events
    ]


def _validate_jobs(cluster: Cluster, jobs: tuple[Job, ...],
                   policy: PlacementPolicy) -> None:
    """Entry checks: widths fit the machine and the power budget."""
    if not jobs:
        raise SimulationError("a scheduling run needs at least one job")
    n_fleet = cluster.topology.n_gpus
    for job in jobs:
        if job.n_gpus > n_fleet:
            raise SimulationError(
                f"job {job.job_id} wants {job.n_gpus} GPUs but the "
                f"machine has {n_fleet}"
            )
    admission = policy.admission
    if admission is not None:
        admission.reset()
        widest = max(job.n_gpus for job in jobs)
        if not admission.can_admit(widest):
            raise SimulationError(
                f"a {widest}-GPU job can never start under a "
                f"{admission.budget_w:.0f} W budget at "
                f"{admission.gpu_reserve_w:.0f} W per GPU"
            )


def _workload_table(jobs: tuple[Job, ...]) -> dict[str, object]:
    return {
        name: get_workload(name)
        for name in sorted({job.workload_name for job in jobs})
    }


def _record_timeline(
    cluster: Cluster,
    policy: PlacementPolicy,
    jobs: tuple[Job, ...],
    outcome: ScheduleOutcome,
    recorder,
) -> None:
    """Append the run to the unified flight recorder.

    Recorded post-hoc from the outcome rather than inside the dispatch
    loop, so any outcome with the same event log — the test oracle's
    included — yields the same timeline.  Start events carry the
    *exact* (unrounded) record floats, letting a replayer rebuild every
    :class:`JobRecord` bit-for-bit and re-derive the scheduling-report
    digest from the timeline alone.
    """
    recorder.record(
        "sched",
        "sched_begin",
        cluster.name,
        policy=policy.name,
        backfill=policy.backfill,
        n_jobs=len(jobs),
        fleet_gpus=cluster.topology.n_gpus,
    )
    by_id = {record.job_id: record for record in outcome.records}
    for event in outcome.events:
        job_id = event["job"]
        record = by_id[job_id]
        entity = f"job-{job_id}"
        if event["event"] == "submit":
            recorder.record(
                "sched",
                "submit",
                entity,
                job=int(job_id),
                t=float(record.submit_time_s),
                workload=record.workload_name,
                n_gpus=int(record.n_gpus),
                work_units=int(record.work_units),
            )
        elif event["event"] == "start":
            recorder.record(
                "sched",
                "start",
                entity,
                job=int(job_id),
                t=float(record.start_time_s),
                nodes=[int(n) for n in record.node_indices],
                gpus=[int(g) for g in record.gpu_indices],
                backfilled=bool(event["backfilled"]),
                runtime_s=float(record.runtime_s),
                energy_j=float(record.energy_j),
                gang_imbalance=float(record.gang_imbalance),
                slow_assigned=bool(record.slow_assigned),
            )
        else:
            recorder.record(
                "sched",
                "finish",
                entity,
                job=int(job_id),
                t=float(record.finish_time_s),
            )


def run_schedule(
    cluster: Cluster,
    jobs: tuple[Job, ...],
    policy: PlacementPolicy,
) -> ScheduleOutcome:
    """Run the full trace through the queue under one placement policy.

    Parameters
    ----------
    cluster:
        The simulated machine (topology, physics, seeded streams).
    jobs:
        The offered load — typically :func:`~repro.sched.generate_trace`.
    policy:
        A constructed :class:`~repro.sched.PlacementPolicy`; its
        ``backfill`` flag selects the queue discipline.

    Returns the per-job records and the canonical event log.  Emits
    ``sched.*`` counters and a run span on the active tracer, and the
    dispatch sequence on the active timeline recorder, if any.

    Every decision equals the rank-every-node, head-rescan reference
    loop's:

    * fit checks come from the allocator's O(1) free-count buckets — the
      fit predicate ("any node with ≥k free" / "≥k free in total") never
      depends on the preference order, only the chosen nodes do;
    * static rankings resolve through one segment tree per distinct
      order, and futile attempts are skipped outright (static policies
      consume no randomness, so skipping leaves no stream trace);
    * random rankings are still drawn at every reference attempt point —
      stream parity — but each drawn order resolves in one vectorized
      scan;
    * placements of one dispatch round are priced in a single
      :func:`~repro.sim.job.sample_job_runtimes` batch.  Finish-event
      heap entries use sequence numbers reserved at placement time, and
      the heap orders by ``(time, kind, seq)``, so deferring the push to
      the end of the round cannot reorder anything.
    """
    _validate_jobs(cluster, jobs, policy)
    spec = policy.ranking(cluster.topology.n_nodes)
    allocator = FreeListAllocator(cluster.topology)
    policy_rng = cluster.rng_factory.child("sched-policy").generator(
        policy.name
    )
    workloads = _workload_table(jobs)
    admission = policy.admission
    per_node = allocator.topology.gpus_per_node
    counts_view = allocator.free_counts_view()
    reference_cache: dict[tuple[str, int], tuple[np.ndarray, float]] = {}

    def slow_reference(name: str, day: int) -> tuple[np.ndarray, float]:
        key = (name, day)
        if key not in reference_cache:
            ref = reference_unit_times(cluster, workloads[name], day=day)
            fast = float(np.percentile(ref, FAST_PERCENTILE))
            reference_cache[key] = (ref, fast * (1.0 + SLOW_THRESHOLD))
        return reference_cache[key]

    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for job in jobs:
        heapq.heappush(heap, (job.submit_time_s, _EVT_SUBMIT, seq, job.job_id))
        seq += 1

    by_id = {job.job_id: job for job in jobs}
    running: dict[int, GangAllocation] = {}
    records: list[JobRecord] = []
    events: list[dict[str, object]] = []
    tracer = active_tracer()

    static = isinstance(spec, StaticRankingSpec)
    if static:
        trees = [
            OrderedFreeIndex(order, allocator.free_counts())
            for order in spec.orders
        ]
        for tree in trees:
            allocator.add_listener(tree.update)
        order_cache: dict[tuple[str, int], int] = {}

        def tree_of(job: Job) -> OrderedFreeIndex:
            key = (job.workload_name, job.n_gpus)
            which = order_cache.get(key)
            if which is None:
                which = spec.order_index_of(
                    workloads[job.workload_name], job.n_gpus
                )
                order_cache[key] = which
            return trees[which]

    # Wait-queue representation: random rankings must walk every queued
    # job at reference draw points, so they keep the flat list; static
    # non-backfill only ever consults the head; static backfill uses the
    # per-gang-size index so a free event wakes only widths that now fit.
    use_buckets = static and policy.backfill
    bucket_queue = SizeBucketQueue() if use_buckets else None
    flat_queue: deque[int] | list[int] = deque() if static else []
    arrival = 0

    def capacity_fits(k: int) -> bool:
        if k <= per_node:
            return allocator.n_nodes_with_at_least(k) > 0
        return allocator.n_free >= k

    def fits(k: int) -> bool:
        if admission is not None and not admission.can_admit(k):
            return False
        return capacity_fits(k)

    def plan_static(job: Job) -> list[tuple[int, int]] | None:
        tree = tree_of(job)
        if job.n_gpus <= per_node:
            node = tree.first_at_least(job.n_gpus)
            if node < 0:
                return None
            return [(node, job.n_gpus)]
        return tree.take_prefix(job.n_gpus)

    # Placements of the current dispatch round, priced as one batch:
    # (job, allocation, backfilled, finish_seq, slow_assigned).
    round_placements: list[tuple[Job, GangAllocation, bool, int, bool]] = []

    def place(job: Job, requests: list[tuple[int, int]],
              backfilled: bool, now: float) -> None:
        nonlocal seq
        allocation = allocator.allocate(requests)
        running[job.job_id] = allocation
        if admission is not None:
            admission.commit(job.job_id, job.n_gpus)
        day = int(now // _SECONDS_PER_DAY)
        ref, threshold = slow_reference(job.workload_name, day)
        slow = bool(ref[allocation.gpu_indices].max() > threshold)
        round_placements.append((job, allocation, backfilled, seq, slow))
        seq += 1

    def dispatch_static(now: float) -> None:
        if not policy.backfill:
            while flat_queue:
                job = by_id[flat_queue[0]]
                if tracer is not None:
                    tracer.add("sched.dispatch_attempts")
                if admission is not None and not admission.can_admit(
                    job.n_gpus
                ):
                    return
                requests = plan_static(job)
                if requests is None:
                    return
                flat_queue.popleft()
                place(job, requests, False, now)
            return
        while True:
            if tracer is not None:
                tracer.add("sched.dispatch_attempts")
            entry = bucket_queue.earliest_fitting(fits)
            if entry is None:
                return
            entry_seq, job_id, size = entry
            backfilled = entry_seq != bucket_queue.head_seq()
            bucket_queue.pop(size)
            job = by_id[job_id]
            # fits() held, and the fit predicate is ranking-independent,
            # so the tree plan cannot miss.
            place(job, plan_static(job), backfilled, now)

    def dispatch_random(now: float) -> None:
        index = 0
        while index < len(flat_queue):
            job = by_id[flat_queue[index]]
            if tracer is not None:
                tracer.add("sched.dispatch_attempts")
            if admission is not None and not admission.can_admit(job.n_gpus):
                if not policy.backfill:
                    return
                index += 1
                continue
            # Reference draw point: the ranking is drawn before the fit
            # check, so the policy stream stays byte-compatible even for
            # attempts that cannot place.
            ranking = spec.draw(policy_rng)
            if not capacity_fits(job.n_gpus):
                if not policy.backfill:
                    return
                index += 1
                continue
            requests = resolve_with_ranking(
                ranking, counts_view, job.n_gpus, per_node
            )
            backfilled = index > 0
            flat_queue.pop(index)
            place(job, requests, backfilled, now)
            if not policy.backfill:
                index = 0

    dispatch = dispatch_static if static else dispatch_random

    def price_round(now: float) -> None:
        if not round_placements:
            return
        day = int(now // _SECONDS_PER_DAY)
        pricing = [
            JobPricingRequest(
                workload=workloads[job.workload_name],
                gpu_indices=allocation.gpu_indices,
                work_units=job.work_units,
                rng=cluster.rng_factory.child(
                    f"sched-job-{job.job_id}"
                ).generator("run"),
            )
            for job, allocation, _, _, _ in round_placements
        ]
        perfs = sample_job_runtimes(cluster, pricing, day=day)
        if tracer is not None:
            tracer.add("sched.price_batches")
        for (job, allocation, backfilled, finish_seq, slow), perf in zip(
            round_placements, perfs
        ):
            finish_t = now + perf.runtime_s
            record = JobRecord(
                job_id=job.job_id,
                workload_name=job.workload_name,
                n_gpus=job.n_gpus,
                work_units=job.work_units,
                submit_time_s=job.submit_time_s,
                start_time_s=now,
                finish_time_s=finish_t,
                node_indices=tuple(allocation.node_indices.tolist()),
                gpu_indices=tuple(allocation.gpu_indices.tolist()),
                runtime_s=perf.runtime_s,
                energy_j=perf.energy_j,
                gang_imbalance=perf.gang_imbalance,
                slow_assigned=slow,
            )
            records.append(record)
            events.append(
                {
                    "event": "start",
                    "t": _round(now),
                    "job": job.job_id,
                    "nodes": record.node_indices,
                    "gpus": record.gpu_indices,
                    "backfilled": backfilled,
                }
            )
            if tracer is not None:
                tracer.add("sched.placements")
                if backfilled:
                    tracer.add("sched.backfills")
                if slow:
                    tracer.add("sched.slow_assignments")
            heapq.heappush(
                heap, (finish_t, _EVT_FINISH, finish_seq, job.job_id)
            )
        round_placements.clear()

    span = (
        tracer.span(
            "schedule", category="sched", policy=policy.name,
            n_jobs=len(jobs),
        )
        if tracer is not None
        else contextlib.nullcontext()
    )
    with span:
        while heap:
            now, kind, _, job_id = heapq.heappop(heap)
            if kind == _EVT_SUBMIT:
                job = by_id[job_id]
                if use_buckets:
                    bucket_queue.push(job.n_gpus, arrival, job_id)
                    arrival += 1
                else:
                    flat_queue.append(job_id)
                events.append(
                    {
                        "event": "submit",
                        "t": _round(now),
                        "job": job_id,
                        "workload": job.workload_name,
                        "n_gpus": job.n_gpus,
                        "work_units": job.work_units,
                    }
                )
                if tracer is not None:
                    tracer.add("sched.submitted")
            else:
                allocation = running.pop(job_id)
                allocator.free(allocation)
                if admission is not None:
                    admission.release(job_id)
                events.append(
                    {"event": "finish", "t": _round(now), "job": job_id}
                )
                if tracer is not None:
                    tracer.add("sched.completed")
            dispatch(now)
            price_round(now)

    queued = len(bucket_queue) if use_buckets else len(flat_queue)
    if queued or running:
        raise SimulationError(
            f"scheduling run ended with {queued} queued and "
            f"{len(running)} running jobs"
        )
    records.sort(key=lambda r: r.job_id)
    outcome = ScheduleOutcome(
        policy_name=policy.name,
        records=tuple(records),
        events=tuple(events),
    )
    recorder = active_recorder()
    if recorder is not None:
        _record_timeline(cluster, policy, jobs, outcome, recorder)
    return outcome
