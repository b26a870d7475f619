"""Property tests for the service's pure coordination structures.

The singleflight table and the fair scheduler are deliberately
synchronous, socket-free state machines, so they can be driven through
randomised interleavings of their whole operation alphabet and checked
against independent reference models:

* **Singleflight**: random join/leave/start/complete sequences never
  lose a waiter, never report creation twice, never allow a digest to be
  dispatched twice, and leave the table empty once every flight
  completes.
* **Scheduler**: a differential test against a list-based reference
  implementation, plus conservation — every queued request is popped
  exactly once or discarded exactly once, never both, never neither —
  and round-robin fairness across keys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.config import SystemConfig
from repro.errors import ServiceError
from repro.service import (
    Chunk,
    FairScheduler,
    SingleflightTable,
    split_requests,
)
from repro.service.scheduler import DEFAULT_CHUNK_SIZE
from repro.sim.engine import SimRequest

DIGESTS = [f"d{i}" for i in range(4)]
WAITERS = [f"w{i}" for i in range(4)]
KEYS = ["alpha", "beta", "gamma"]


# ------------------------------------------------------------ singleflight


class SingleflightMachine(RuleBasedStateMachine):
    """Drive the table through random interleavings vs a reference model."""

    def __init__(self) -> None:
        super().__init__()
        self.table = SingleflightTable()
        self.model: dict[str, dict] = {}
        self.notified: list[tuple[str, frozenset]] = []

    @rule(digest=st.sampled_from(DIGESTS), waiter=st.sampled_from(WAITERS))
    def join(self, digest: str, waiter: str) -> None:
        expected_created = digest not in self.model
        created = self.table.join(digest, waiter)
        assert created == expected_created
        if expected_created:
            self.model[digest] = {"waiters": {waiter}, "started": False}
        else:
            self.model[digest]["waiters"].add(waiter)

    @rule(digest=st.sampled_from(DIGESTS), waiter=st.sampled_from(WAITERS))
    def leave(self, digest: str, waiter: str) -> None:
        flight = self.model.get(digest)
        # A pending flight is cancelled when no waiters remain after this
        # leave: nobody wants that work.
        expected_cancelled = (
            flight is not None
            and not flight["started"]
            and not (flight["waiters"] - {waiter})
        )
        cancelled = self.table.leave(digest, waiter)
        assert cancelled == expected_cancelled
        if flight is not None:
            flight["waiters"].discard(waiter)
            if expected_cancelled:
                del self.model[digest]

    @rule(digest=st.sampled_from(DIGESTS))
    def start(self, digest: str) -> None:
        flight = self.model.get(digest)
        if flight is not None and flight["started"]:
            # Dispatching a running digest again is a dispatcher bug.
            with pytest.raises(ServiceError):
                self.table.start(digest)
            return
        started = self.table.start(digest)
        assert started == (flight is not None)
        if flight is not None:
            flight["started"] = True

    @rule(digest=st.sampled_from(DIGESTS))
    def complete(self, digest: str) -> None:
        flight = self.model.pop(digest, None)
        expected = frozenset(flight["waiters"]) if flight is not None else frozenset()
        waiters, _request = self.table.complete(digest)
        # Exactly the waiters that joined and did not leave are notified —
        # nobody is lost, nobody is invented.
        assert waiters == expected
        self.notified.append((digest, waiters))

    @invariant()
    def table_matches_model(self) -> None:
        assert set(self.table) == set(self.model)
        for digest, flight in self.model.items():
            assert self.table.waiters(digest) == frozenset(flight["waiters"])
            assert self.table.started(digest) == flight["started"]

    def teardown(self) -> None:
        # Completing everything still pending must empty the table: no
        # flight can outlive its completion (no deadlocked waiters).
        for digest in list(self.model):
            self.complete(digest)
        assert len(self.table) == 0


TestSingleflightMachine = SingleflightMachine.TestCase
TestSingleflightMachine.settings = settings(max_examples=60, deadline=None)


# --------------------------------------------------------------- scheduler


@dataclass(frozen=True)
class FakeRequest:
    """Stands in for a SimRequest: the scheduler only reads ``digest``."""

    digest: str


class ReferenceScheduler:
    """Independent list-based reimplementation of the rotation contract."""

    def __init__(self) -> None:
        self.queues: dict[str, list[Chunk]] = {}
        self.rotation: list[str] = []

    def add(self, chunk: Chunk) -> None:
        if chunk.key not in self.queues:
            self.queues[chunk.key] = []
            self.rotation.append(chunk.key)
        self.queues[chunk.key].append(chunk)

    def next(self):
        while self.rotation:
            key = self.rotation[0]
            queue = self.queues.get(key, [])
            if not queue:
                self.rotation.pop(0)
                self.queues.pop(key, None)
                continue
            chunk = queue.pop(0)
            self.rotation.append(self.rotation.pop(0))
            if chunk.requests:
                return chunk
        return None

    def discard(self, digests: set[str]) -> set[str]:
        removed: set[str] = set()
        for queue in self.queues.values():
            for chunk in queue:
                kept = []
                for request in chunk.requests:
                    if request.digest in digests:
                        removed.add(request.digest)
                    else:
                        kept.append(request)
                chunk.requests = kept
        return removed


scheduler_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(KEYS),
            st.integers(min_value=1, max_value=3),
        ),
        st.tuples(st.just("next")),
        st.tuples(st.just("discard"), st.integers(min_value=0, max_value=7)),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(ops=scheduler_ops)
def test_scheduler_matches_reference_and_conserves_requests(ops) -> None:
    real = FairScheduler()
    ref = ReferenceScheduler()
    counter = 0
    added: set[str] = set()
    popped: list[str] = []
    discarded: set[str] = set()

    for op in ops:
        if op[0] == "add":
            _, key, size = op
            digests = [f"r{counter + i}" for i in range(size)]
            counter += size
            added.update(digests)
            # Two independently-built equal chunks (ids may differ; compare
            # by request content).
            real.add(Chunk(key=key, requests=[FakeRequest(d) for d in digests]))
            ref.add(Chunk(key=key, requests=[FakeRequest(d) for d in digests]))
        elif op[0] == "next":
            real_chunk = real.next()
            ref_chunk = ref.next()
            real_digests = [r.digest for r in real_chunk.requests] if real_chunk else None
            ref_digests = [r.digest for r in ref_chunk.requests] if ref_chunk else None
            assert real_digests == ref_digests
            if real_chunk is not None:
                assert real_chunk.key == ref_chunk.key
                popped.extend(real_digests)
        else:
            _, pick = op
            pending = sorted(real.pending_digests())
            doomed = set(pending[pick::3]) if pending else set()
            removed_real = real.discard_digests(doomed)
            removed_ref = ref.discard(doomed)
            assert removed_real == removed_ref
            discarded.update(removed_real)

    # Drain both to the end; they must agree the whole way down.
    while True:
        real_chunk = real.next()
        ref_chunk = ref.next()
        if real_chunk is None:
            assert ref_chunk is None
            break
        assert [r.digest for r in real_chunk.requests] == [
            r.digest for r in ref_chunk.requests
        ]
        popped.extend(r.digest for r in real_chunk.requests)

    # Conservation: every added request was popped exactly once or
    # discarded exactly once — never both, never lost.
    assert set(popped) | discarded == added
    assert set(popped) & discarded == set()
    assert len(popped) == len(set(popped))


@settings(max_examples=40, deadline=None)
@given(
    backlog=st.lists(
        st.tuples(st.sampled_from(KEYS), st.integers(min_value=1, max_value=3)),
        min_size=2,
        max_size=9,
    )
)
def test_scheduler_round_robin_never_starves_a_key(backlog) -> None:
    """While every key has queued work, K consecutive pops hit K distinct keys."""

    scheduler = FairScheduler()
    queued: dict[str, int] = {}
    counter = 0
    for key, size in backlog:
        requests = [FakeRequest(f"r{counter + i}") for i in range(size)]
        counter += size
        scheduler.add(Chunk(key=key, requests=requests))
        queued[key] = queued.get(key, 0) + 1

    keys_with_work = set(queued)
    window: list[str] = []
    while len(window) < len(keys_with_work):
        chunk = scheduler.next()
        assert chunk is not None
        window.append(chunk.key)
    # The first K pops (K = number of distinct backlogged keys) visit every
    # key exactly once: no key waits behind another key's whole backlog.
    assert sorted(window) == sorted(keys_with_work)


# ----------------------------------------------------------- split helper


def test_split_requests_respects_groups_and_size() -> None:
    config = SystemConfig.scaled()
    requests = [
        SimRequest(workload=w, mode=m, scale="tiny", seed=s, config=config)
        for w in ("intsort", "randacc")
        for s in (1, 2)
        for m in ("none", "stride", "ghb-regular")
    ]
    chunks = split_requests(requests, key="client", chunk_size=2)

    # Conservation of digests.
    chunked = [r.digest for chunk in chunks for r in chunk.requests]
    assert sorted(chunked) == sorted(r.digest for r in requests)
    for chunk in chunks:
        # Size bound, and one workload group per chunk (same traces).
        assert 1 <= len(chunk.requests) <= 2
        assert len({r.workload_key for r in chunk.requests}) == 1
        assert chunk.key == "client"
    # 4 groups of 3 requests, sliced at 2 → 8 chunks.
    assert len(chunks) == 8


def test_split_requests_slices_one_group_at_the_default_chunk_size() -> None:
    """The daemon splits with the default: one group twice the size plus
    one becomes two full chunks and a remainder, in submission order."""

    base = SystemConfig.scaled()
    requests = [
        SimRequest(
            workload="intsort", mode="none", scale="tiny", seed=1,
            config=replace(base, prefetcher=replace(base.prefetcher, num_ppus=ppus)),
        )
        for ppus in range(1, 2 * DEFAULT_CHUNK_SIZE + 2)
    ]
    chunks = split_requests(requests, key="client")

    assert [len(chunk) for chunk in chunks] == [DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE, 1]
    assert [r.digest for chunk in chunks for r in chunk.requests] == [
        r.digest for r in requests
    ]
