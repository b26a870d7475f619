"""Work splitting and fair cross-client chunk scheduling.

Submitted plans are divided into *chunks* — the unit the daemon hands to a
pool worker.  Splitting reuses :meth:`~repro.sim.engine.SimPlan.workload_groups`
so requests that replay the same traces stay together: a chunk resolves its
workload's trace artifacts once.  Groups larger than ``chunk_size`` are
sliced — the work-splitting heuristic from the
parallel-instantiation literature (Perri et al., arXiv:1110.1015): bound
each unit of work so one giant submission cannot monopolise a worker for
its whole duration.

The :class:`FairScheduler` then interleaves chunks *across clients* in
strict round-robin: under load, a client submitting two chunks gets one
turn, then every other backlogged client gets theirs, so small interactive
submissions are not starved behind a bulk sweep.  Like the singleflight
table it is pure and synchronous — no sockets, no clocks — and is
property-tested against an independent reference model.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence

from ..sim.engine import SimPlan, SimRequest

#: Default upper bound on requests per chunk.  A full figure-7 mode set for
#: one workload (~10 points) stays whole; figure-9-style sweeps split.
DEFAULT_CHUNK_SIZE = 16

_chunk_ids = itertools.count(1)


@dataclass
class Chunk:
    """One schedulable slice of a submission's unscheduled unique requests."""

    key: Hashable
    requests: list[SimRequest]
    id: int = field(default_factory=lambda: next(_chunk_ids))
    #: Execution attempts so far (bumped when a pool worker crashes).
    attempts: int = 0

    def __len__(self) -> int:
        return len(self.requests)


def split_requests(
    requests: Sequence[SimRequest],
    key: Hashable,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[Chunk]:
    """Split ``requests`` into chunks along workload-group boundaries.

    Each chunk holds requests of exactly one workload group (same built
    workload, same traces); groups above ``chunk_size`` are sliced into
    consecutive runs so the scheduler can interleave other clients between
    the slices.
    """

    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    chunks: list[Chunk] = []
    for group in SimPlan(requests).workload_groups().values():
        for start in range(0, len(group), chunk_size):
            chunks.append(Chunk(key=key, requests=list(group[start : start + chunk_size])))
    return chunks


class FairScheduler:
    """Round-robin chunk queue across fairness keys (one key per client)."""

    def __init__(self) -> None:
        self._queues: dict[Hashable, deque[Chunk]] = {}
        self._rotation: deque[Hashable] = deque()

    def add(self, chunk: Chunk, *, front: bool = False) -> None:
        """Queue ``chunk`` under its fairness key.

        ``front`` requeues a crash-recovered chunk at the head of its
        owner's queue so a retry is not penalised a full rotation.
        """

        queue = self._queues.get(chunk.key)
        if queue is None:
            queue = self._queues[chunk.key] = deque()
            self._rotation.append(chunk.key)
        if front:
            queue.appendleft(chunk)
        else:
            queue.append(chunk)

    def next(self) -> Optional[Chunk]:
        """Pop the next chunk, rotating fairness keys; ``None`` when empty.

        Chunks whose every request was cancelled while queued are skipped
        and dropped.
        """

        while self._rotation:
            key = self._rotation[0]
            queue = self._queues.get(key)
            if not queue:
                self._rotation.popleft()
                self._queues.pop(key, None)
                continue
            chunk = queue.popleft()
            self._rotation.rotate(-1)
            if chunk.requests:
                return chunk
        return None

    def discard_digests(self, digests: Iterable[str]) -> set[str]:
        """Remove the given digests from every *queued* chunk.

        Returns the digests actually found in a queue — the ones whose
        cancellation took effect here.  Digests already handed to a worker
        are not in any queue and are unaffected (their flights run on).
        """

        doomed = set(digests)
        if not doomed:
            return set()
        removed: set[str] = set()
        for queue in self._queues.values():
            for chunk in queue:
                kept = []
                for request in chunk.requests:
                    if request.digest in doomed:
                        removed.add(request.digest)
                    else:
                        kept.append(request)
                chunk.requests = kept
        return removed

    def __len__(self) -> int:
        """Queued chunks that still contain work."""

        return sum(
            1 for queue in self._queues.values() for chunk in queue if chunk.requests
        )

    def pending_digests(self) -> set[str]:
        return {
            request.digest
            for queue in self._queues.values()
            for chunk in queue
            for request in chunk.requests
        }
