"""Deduplicating simulation plans.

A :class:`SimPlan` is an insertion-ordered set of :class:`SimRequest`\\ s
keyed by content digest.  Adding the same point twice — the no-prefetch
baseline every figure needs, say — is free: the plan keeps one canonical
request and counts the duplicate, so the executor performs each unique
``(workload, mode, config)`` simulation exactly once.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .request import SimRequest


class SimPlan:
    """An ordered, digest-deduplicated collection of simulation requests."""

    def __init__(self, requests: Iterable[SimRequest] = ()) -> None:
        self._requests: dict[str, SimRequest] = {}
        self._submitted = 0
        self.add_all(requests)

    def add(self, request: SimRequest) -> SimRequest:
        """Add ``request``; return the canonical (first-added) equivalent."""

        self._submitted += 1
        return self._requests.setdefault(request.digest, request)

    def add_all(self, requests: Iterable[SimRequest]) -> list[SimRequest]:
        return [self.add(request) for request in requests]

    def merge(self, other: "SimPlan") -> "SimPlan":
        """Fold another plan's requests (and its submission count) into this one."""

        for request in other:
            self.add(request)
        # ``add`` counted each unique request once; account for the duplicates
        # the other plan had already absorbed.
        self._submitted += other.submitted - len(other)
        return self

    # ------------------------------------------------------------------ views

    @property
    def submitted(self) -> int:
        """Total requests submitted, including duplicates."""

        return self._submitted

    @property
    def deduplicated(self) -> int:
        """Submissions that were absorbed by an existing identical request."""

        return self._submitted - len(self._requests)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[SimRequest]:
        return iter(self._requests.values())

    def __contains__(self, request: SimRequest) -> bool:
        return request.digest in self._requests

    def items(self) -> Iterator[tuple[str, SimRequest]]:
        return iter(self._requests.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimPlan({len(self)} unique / {self.submitted} submitted)"
