"""Allocation indexes for the near-linear scheduler hot path.

Read literally, "where does this gang go?" means rebuilding the per-node
free-count array and scanning every node in policy-preference order —
O(n_nodes) Python work per placement attempt, which is what the test
oracle in ``tests/sched/reference_engine.py`` does.  This module holds
the structures that give the engine the same answers in O(log n) or
O(1):

* :class:`OrderedFreeIndex` — a segment tree over a *static* node
  preference order (variability scores, health grades, power scores are
  fixed for a whole trace) carrying per-position free counts with subtree
  sums and maxima.  ``first_at_least(k)`` finds the first node in
  preference order with ``k`` free GPUs in O(log n); ``take_prefix(k)``
  reproduces the engine's greedy multi-node gang plan by walking only the
  non-empty positions of the order prefix, O(g log n) for a gang that
  touches ``g`` nodes.  The tree subscribes to
  :meth:`~repro.cluster.allocator.FreeListAllocator.add_listener`, so it
  is maintained incrementally as grants and frees mutate the free list.
* :func:`resolve_with_ranking` — the vectorized one-shot equivalent for
  *random* preference orders (fifo's per-attempt permutation draw), where
  a tree cannot be reused across attempts: a NumPy scan over the drawn
  ranking replacing a Python loop over nodes.
* :class:`SizeBucketQueue` — the per-gang-size blocked-queue index: jobs
  waiting in FIFO order, bucketed by gang width, so a ``free`` event
  wakes only widths that can now fit instead of rescanning the queue
  head-first.

Every query is a pure function of (order, free state), so the engine's
placements are byte-identical to the literal scan — the equivalence
argument lives in ``docs/SCHEDULING.md``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["OrderedFreeIndex", "SizeBucketQueue", "resolve_with_ranking"]


class OrderedFreeIndex:
    """Segment tree over a static node order, keyed by free counts.

    Parameters
    ----------
    order:
        Node indices in descending preference (the output of a policy's
        static ranking); a permutation of ``range(n_nodes)``.
    counts:
        Current free-GPU count per node (ascending *node* index).
    """

    def __init__(self, order: np.ndarray, counts: np.ndarray) -> None:
        order = np.asarray(order, dtype=np.int64)
        n = int(order.shape[0])
        m = 1
        while m < n:
            m <<= 1
        self._n = n
        self._m = m
        self._order = order
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n, dtype=np.int64)
        self._pos_of_node = pos.tolist()
        vals = [0] * (2 * m)
        ordered = counts[order].tolist()
        vals[m : m + n] = ordered
        self._max = vals
        self._sum = list(vals)
        mx, sm = self._max, self._sum
        for i in range(m - 1, 0, -1):
            left, right = 2 * i, 2 * i + 1
            mx[i] = mx[left] if mx[left] >= mx[right] else mx[right]
            sm[i] = sm[left] + sm[right]

    def update(self, node: int, count: int) -> None:
        """Set ``node``'s free count; O(log n)."""
        i = self._pos_of_node[node] + self._m
        mx, sm = self._max, self._sum
        mx[i] = count
        sm[i] = count
        i >>= 1
        while i:
            left, right = 2 * i, 2 * i + 1
            mx[i] = mx[left] if mx[left] >= mx[right] else mx[right]
            sm[i] = sm[left] + sm[right]
            i >>= 1

    def first_at_least(self, k: int) -> int:
        """First node in preference order with ``>= k`` free, or -1."""
        mx = self._max
        if mx[1] < k:
            return -1
        i = 1
        m = self._m
        while i < m:
            left = 2 * i
            i = left if mx[left] >= k else left + 1
        return int(self._order[i - m])

    def take_prefix(self, k: int) -> list[tuple[int, int]] | None:
        """Greedy gang plan over the order prefix: ``[(node, take), ...]``.

        Walks non-empty positions in preference order, taking
        ``min(free, remaining)`` from each — exactly the reference
        engine's scan, skipping empty nodes through subtree sums.
        Returns ``None`` when fewer than ``k`` GPUs are free in total.
        """
        sm = self._sum
        if sm[1] < k:
            return None
        order = self._order
        m = self._m
        out: list[tuple[int, int]] = []
        remaining = k
        stack = [1]
        while stack:
            i = stack.pop()
            s = sm[i]
            if s == 0:
                continue
            if i >= m:
                take = s if s < remaining else remaining
                out.append((int(order[i - m]), take))
                remaining -= take
                if remaining == 0:
                    return out
                continue
            # right child is pushed first so the left (preferred) side is
            # popped and consumed first
            stack.append(2 * i + 1)
            stack.append(2 * i)
        return out if remaining == 0 else None


def resolve_with_ranking(
    ranking: np.ndarray,
    counts: np.ndarray,
    n_gpus: int,
    gpus_per_node: int,
) -> list[tuple[int, int]] | None:
    """Vectorized gang plan over a one-shot (random) preference order.

    The NumPy equivalent of a Python scan down the ranking: for
    single-chassis gangs, the first ranked node with enough free GPUs;
    for wider gangs, the greedy prefix of the ranking.  Returns ``None``
    when the gang cannot start now.
    """
    free = counts[ranking]
    if n_gpus <= gpus_per_node:
        hits = free >= n_gpus
        at = int(np.argmax(hits))
        if not hits[at]:
            return None
        return [(int(ranking[at]), n_gpus)]
    cum = np.cumsum(free)
    if int(cum[-1]) < n_gpus:
        return None
    stop = int(np.searchsorted(cum, n_gpus, side="left"))
    takes = free[: stop + 1].copy()
    takes[stop] = n_gpus - (int(cum[stop - 1]) if stop > 0 else 0)
    nodes = ranking[: stop + 1]
    return [
        (int(node), int(take))
        for node, take in zip(nodes.tolist(), takes.tolist())
        if take > 0
    ]


class SizeBucketQueue:
    """FIFO wait queue bucketed by gang width.

    A blocked queue under a backfilling, draw-free policy only needs to
    reconsider widths that the last ``free`` event made feasible; this
    index keeps one FIFO deque per distinct width so a dispatch round
    touches O(widths) state per placement instead of rescanning every
    queued job.  Entries are ``(seq, job_id)`` with ``seq`` the global
    submission order, so cross-bucket FIFO order is recoverable.
    """

    def __init__(self) -> None:
        self._buckets: dict[int, deque[tuple[int, int]]] = {}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def push(self, size: int, seq: int, job_id: int) -> None:
        """Append a job of gang width ``size`` in submission order."""
        bucket = self._buckets.get(size)
        if bucket is None:
            bucket = self._buckets[size] = deque()
        bucket.append((seq, job_id))
        self._len += 1

    def head_seq(self) -> int | None:
        """Global queue-head submission seq, or ``None`` when empty."""
        best: int | None = None
        for bucket in self._buckets.values():
            if bucket and (best is None or bucket[0][0] < best):
                best = bucket[0][0]
        return best

    def earliest_fitting(self, fits) -> tuple[int, int, int] | None:
        """Earliest queued ``(seq, job_id, size)`` whose width ``fits``.

        ``fits(size)`` is consulted once per *distinct* width — the
        per-gang-size wake check.
        """
        best: tuple[int, int, int] | None = None
        for size, bucket in self._buckets.items():
            if not bucket:
                continue
            if (best is None or bucket[0][0] < best[0]) and fits(size):
                best = (bucket[0][0], bucket[0][1], size)
        return best

    def pop(self, size: int) -> tuple[int, int]:
        """Remove and return the head entry of one width bucket."""
        entry = self._buckets[size].popleft()
        self._len -= 1
        return entry
