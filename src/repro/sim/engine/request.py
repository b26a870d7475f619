"""Declarative simulation requests with stable content digests.

A :class:`SimRequest` names everything :func:`repro.sim.system.simulate`
needs — workload, scale, seed, prefetch mode, system configuration and
scheduling policy — as plain, hashable data.  Its :attr:`~SimRequest.digest`
is a SHA-256 over the canonical JSON encoding of those fields, which gives
the plan layer a deduplication key and the result cache a content address
that is stable across processes and sessions.

Scheduling policies are referred to by *name* (see :data:`POLICY_REGISTRY`)
rather than by object so that requests stay picklable for the
``multiprocessing`` runner and digestable for the cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Optional

from ...config import SystemConfig
from ...errors import ConfigurationError
from ...programmable.scheduler import (
    LowestFreeIdPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
)
from ..modes import PrefetchMode

#: Scheduling policies a request may name.  ``None`` (the default) lets the
#: prefetcher use its built-in lowest-free-ID policy.
POLICY_REGISTRY: dict[str, type[SchedulingPolicy]] = {
    "lowest-free-id": LowestFreeIdPolicy,
    "round-robin": RoundRobinPolicy,
}


def resolve_policy(name: Optional[str]) -> Optional[SchedulingPolicy]:
    """Instantiate the scheduling policy registered under ``name``."""

    if name is None:
        return None
    try:
        return POLICY_REGISTRY[name]()
    except KeyError as error:
        raise ConfigurationError(
            f"unknown scheduling policy {name!r}; available: {sorted(POLICY_REGISTRY)}"
        ) from error


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package sources.

    Folded into every request digest so a persistent :class:`ResultCache`
    can never replay results produced by different simulator code: any
    source change (conservatively, even a comment) invalidates the cache.
    """

    package_root = Path(__file__).resolve().parents[2]
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class SimRequest:
    """One declarative simulation point.

    Attributes:
        workload: Workload name as registered with
            :mod:`repro.workloads.registry` (runners rebuild the workload
            from the registry in whatever process executes the request).
        mode: Prefetch mode, stored as the :class:`PrefetchMode` *value*
            string so the request is trivially JSON-encodable; use
            :attr:`prefetch_mode` for the enum.
        scale: Workload scale name (``tiny`` .. ``large``).
        seed: Workload data-generation seed.
        config: Full system configuration for the run.
        policy: Scheduling-policy name from :data:`POLICY_REGISTRY`, or
            ``None`` for the prefetcher's built-in policy.
    """

    workload: str
    mode: str
    scale: str = "default"
    seed: int = 42
    config: SystemConfig = field(default_factory=SystemConfig.scaled)
    policy: Optional[str] = None

    def __post_init__(self) -> None:
        # Normalise enum inputs and fail fast on unknown modes/policies.
        if isinstance(self.mode, PrefetchMode):
            object.__setattr__(self, "mode", self.mode.value)
        PrefetchMode(self.mode)
        resolve_policy(self.policy)

    @property
    def prefetch_mode(self) -> PrefetchMode:
        return PrefetchMode(self.mode)

    @property
    def workload_key(self) -> tuple[str, str, int]:
        """Requests sharing this key reuse one built workload (same traces)."""

        return (self.workload, self.scale, self.seed)

    def describe(self) -> dict[str, Any]:
        """Canonical JSON-encodable description (the digest pre-image)."""

        return {
            "workload": self.workload,
            "mode": self.mode,
            "scale": self.scale,
            "seed": self.seed,
            "policy": self.policy,
            "config": asdict(self.config),
            "code": code_fingerprint(),
        }

    @cached_property
    def digest(self) -> str:
        """Stable SHA-256 content digest of the request."""

        payload = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
