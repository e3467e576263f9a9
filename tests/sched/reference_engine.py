"""The original scheduler dispatch loop: the test oracle for the queue engine.

The production engine (:func:`repro.sched.engine.run_schedule`) reaches
every placement decision through incremental structures: free-count
buckets for fit checks, order-keyed segment trees for static rankings, a
per-gang-size blocked-queue index, and one batched pricing call per
dispatch round.  This oracle is the loop those structures replaced, kept
verbatim: it ranks every node at every attempt, rebuilds free counts,
rescans the wait queue from its head, and prices each placed job on its
own through :func:`~repro.sim.job.sample_job_runtime`.  It shares no
dispatch logic with the engine under test, so byte-equal event logs from
the two check the segment trees, the bucket queue and batched pricing.

A policy's ranking spec is resolved at each attempt by
:func:`attempt_ranking`: a static spec yields the job class's fixed
order, a random spec draws a fresh order from the policy stream.
"""

from __future__ import annotations

import contextlib
import heapq

import numpy as np

from repro.cluster.allocator import FreeListAllocator, GangAllocation
from repro.cluster.cluster import Cluster
from repro.errors import SimulationError
from repro.obs.tracer import active_tracer
from repro.sched.engine import (
    _EVT_FINISH,
    _EVT_SUBMIT,
    _SECONDS_PER_DAY,
    FAST_PERCENTILE,
    SLOW_THRESHOLD,
    JobRecord,
    ScheduleOutcome,
    _round,
    _validate_jobs,
    _workload_table,
)
from repro.sched.policies import PlacementPolicy, StaticRankingSpec
from repro.sched.trace import Job
from repro.sim.job import reference_unit_times, sample_job_runtime
from repro.workloads.base import Workload


def attempt_ranking(spec, workload: Workload, n_gpus: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Node indices in descending preference for one placement attempt.

    ``spec`` is the policy's :meth:`~repro.sched.PlacementPolicy.ranking`.
    A static spec consumes no randomness; a random spec draws exactly
    once from ``rng``.
    """
    if isinstance(spec, StaticRankingSpec):
        return spec.orders[spec.order_index_of(workload, n_gpus)]
    return spec.draw(rng)


def _plan_requests(
    job: Job,
    ranked: np.ndarray,
    allocator: FreeListAllocator,
) -> list[tuple[int, int]] | None:
    """Node requests satisfying the gang in policy preference order.

    Jobs that fit in one chassis require a single node (gang co-location);
    wider gangs greedily take capacity across the ranked nodes.  Returns
    ``None`` when the job cannot start now.
    """
    free = allocator.free_counts()
    if int(free.sum()) < job.n_gpus:
        return None
    per_node = allocator.topology.gpus_per_node
    if job.n_gpus <= per_node:
        for node in ranked.tolist():
            if int(free[node]) >= job.n_gpus:
                return [(int(node), job.n_gpus)]
        return None
    requests: list[tuple[int, int]] = []
    remaining = job.n_gpus
    for node in ranked.tolist():
        take = min(int(free[node]), remaining)
        if take > 0:
            requests.append((int(node), take))
            remaining -= take
        if remaining == 0:
            return requests
    return None


def run_reference(
    cluster: Cluster,
    jobs: tuple[Job, ...],
    policy: PlacementPolicy,
) -> ScheduleOutcome:
    """The original dispatch loop: rank-every-node, head-rescan wait queue.

    Same contract as :func:`~repro.sched.engine.run_schedule`: counters
    and the run span land on the active tracer.  No timeline is recorded.
    """
    _validate_jobs(cluster, jobs, policy)
    spec = policy.ranking(cluster.topology.n_nodes)
    allocator = FreeListAllocator(cluster.topology)
    policy_rng = cluster.rng_factory.child("sched-policy").generator(
        policy.name
    )
    workloads = _workload_table(jobs)
    admission = policy.admission
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
    queue: list[int] = []
    running: dict[int, GangAllocation] = {}
    records: list[JobRecord] = []
    events: list[dict[str, object]] = []
    tracer = active_tracer()

    def emit(event: dict[str, object]) -> None:
        events.append(event)

    def try_dispatch(now: float) -> None:
        nonlocal seq
        index = 0
        while index < len(queue):
            job = by_id[queue[index]]
            if tracer is not None:
                tracer.add("sched.dispatch_attempts")
            if admission is not None and not admission.can_admit(job.n_gpus):
                if not policy.backfill:
                    return
                index += 1
                continue
            workload = workloads[job.workload_name]
            ranked = attempt_ranking(spec, workload, job.n_gpus, policy_rng)
            requests = _plan_requests(job, ranked, allocator)
            if requests is None:
                if not policy.backfill:
                    return
                index += 1
                continue
            allocation = allocator.allocate(requests)
            running[job.job_id] = allocation
            if admission is not None:
                admission.commit(job.job_id, job.n_gpus)
            backfilled = index > 0
            queue.pop(index)
            day = int(now // _SECONDS_PER_DAY)
            job_rng = cluster.rng_factory.child(
                f"sched-job-{job.job_id}"
            ).generator("run")
            perf = sample_job_runtime(
                cluster,
                workload,
                allocation.gpu_indices,
                day=day,
                work_units=job.work_units,
                rng=job_rng,
            )
            ref, threshold = slow_reference(job.workload_name, day)
            slow = bool(ref[allocation.gpu_indices].max() > threshold)
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
            emit(
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
            heapq.heappush(heap, (finish_t, _EVT_FINISH, seq, job.job_id))
            seq += 1
            # restart the scan: freeing nothing, but the head may now be
            # deeper in the queue after the pop
            if not policy.backfill:
                index = 0

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
                queue.append(job_id)
                emit(
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
                emit({"event": "finish", "t": _round(now), "job": job_id})
                if tracer is not None:
                    tracer.add("sched.completed")
            try_dispatch(now)

    if queue or running:
        raise SimulationError(
            f"scheduling run ended with {len(queue)} queued and "
            f"{len(running)} running jobs"
        )
    records.sort(key=lambda r: r.job_id)
    return ScheduleOutcome(
        policy_name=policy.name,
        records=tuple(records),
        events=tuple(events),
    )
