"""Checkpointed, resumable plan execution: the run manifest.

A paper-scale sweep is hours of simulation; a ``kill -9`` (OOM reaper, lost
SSH session, preempted CI runner) used to restart it from zero.  The engine
now writes a **run manifest** as the plan executes: one JSON file per plan
(keyed by a fingerprint over the plan's request digests) in a checkpoint
directory, recording the outcome status of every resolved request.  The
manifest is rewritten atomically via :mod:`repro.atomicio` after each
completion batch, so a killed run always leaves a complete, parseable
manifest describing exactly what finished.

On ``--resume`` the engine replays the manifest **against the
:class:`~repro.sim.engine.cache.ResultCache`**: a digest the manifest marks
``ok`` is served from the cache (the cache entry, not the manifest, carries
the result — the manifest is an index, never a second copy of data);
``unavailable`` digests are skipped outright; ``failed`` digests are
retried (transient errors must not be sticky).  Everything else executes,
so an interrupted run re-invoked with ``--resume`` performs only the
missing simulations and produces bit-identical results to an uninterrupted
run.

Like the other on-disk tiers, manifests tolerate concurrency and crashes:
writes are write-then-rename with per-write-unique temp names, dead
writers' temp litter is swept on first write, and a corrupt or
foreign-fingerprint manifest reads as "no prior progress" rather than an
error.  ``tools/checkpoints.py`` provides ``ls``/``stat``/``prune``
maintenance over the directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from ...atomicio import atomic_write_bytes, sweep_dead_writer_tmp_files

#: Environment variable naming the checkpoint directory used when a driver
#: asks for checkpointing without an explicit ``--checkpoint DIR``.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"

#: File-name suffix of every run manifest (the artifact family the
#: dead-writer sweep and the maintenance CLI recognise).
MANIFEST_SUFFIX = ".manifest.json"

#: On-disk format version; a bump makes old manifests read as "no progress".
MANIFEST_VERSION = 1

#: Outcome statuses a manifest entry may carry.
VALID_STATUSES = frozenset({"ok", "unavailable", "failed"})


def default_checkpoint_dir() -> Path:
    """The per-user manifest directory (``REPRO_CHECKPOINT_DIR`` wins)."""

    value = os.environ.get(CHECKPOINT_DIR_ENV)
    if value:
        return Path(value)
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / "checkpoints"


def plan_fingerprint(digests: Iterable[str]) -> str:
    """Stable fingerprint of a plan: SHA-256 over its sorted request digests.

    Order-independent on purpose — two drivers declaring the same point set
    in different orders are the same sweep, and a resume must find the
    manifest the killed run left behind.
    """

    hasher = hashlib.sha256()
    for digest in sorted(set(digests)):
        hasher.update(digest.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass
class ManifestEntry:
    """One resolved request: its status and (for failures) the label."""

    status: str
    failure: Optional[str] = None


class RunManifest:
    """Durable per-plan progress record, written incrementally and atomically.

    One instance covers one ``SimEngine.run`` of one plan.  ``record_batch``
    is called as results land (per request, on either runner); each call
    rewrites the manifest file atomically, so
    the on-disk state is always a complete prefix of the run.  The file is
    created lazily on the first record — a fully-warm run that executes
    nothing writes nothing.
    """

    def __init__(
        self, directory: Union[str, Path], plan_digests: Sequence[str]
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.digests = list(dict.fromkeys(plan_digests))
        self.fingerprint = plan_fingerprint(self.digests)
        self.path = self.directory / f"{self.fingerprint}{MANIFEST_SUFFIX}"
        self.entries: dict[str, ManifestEntry] = {}
        self._created = time.time()
        self._swept = False

    # -------------------------------------------------------------- reading

    def load_prior(self) -> dict[str, ManifestEntry]:
        """Entries left by a previous (possibly killed) run of this plan.

        Anything unreadable — missing file, truncated JSON, a manifest of a
        different plan or format version, junk statuses — is "no prior
        progress": resume degrades to a fresh run, never to an error.
        """

        data = read_manifest(self.path)
        if data is None or data.get("plan") != self.fingerprint:
            return {}
        prior: dict[str, ManifestEntry] = {}
        for digest, entry in data.get("entries", {}).items():
            status = entry.get("status") if isinstance(entry, dict) else None
            if isinstance(digest, str) and status in VALID_STATUSES:
                failure = entry.get("failure")
                prior[digest] = ManifestEntry(
                    status, failure if isinstance(failure, str) else None
                )
        return prior

    # -------------------------------------------------------------- writing

    def record_batch(
        self, outcomes: Iterable[tuple[str, str, Optional[str]]]
    ) -> None:
        """Record ``(digest, status, failure)`` outcomes and flush once."""

        dirty = False
        for digest, status, failure in outcomes:
            if status not in VALID_STATUSES:
                raise ValueError(f"unknown manifest status {status!r}")
            self.entries[digest] = ManifestEntry(status, failure)
            dirty = True
        if dirty:
            self.flush()

    def flush(self) -> None:
        if not self._swept:
            self._swept = True
            sweep_dead_writer_tmp_files(self.directory)
        payload = {
            "version": MANIFEST_VERSION,
            "plan": self.fingerprint,
            "requests": len(self.digests),
            "created": self._created,
            "updated": time.time(),
            "entries": {
                digest: (
                    {"status": entry.status, "failure": entry.failure}
                    if entry.failure is not None
                    else {"status": entry.status}
                )
                for digest, entry in self.entries.items()
            },
        }
        data = json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")
        atomic_write_bytes(self.path, data)


# ------------------------------------------------------------- maintenance


def read_manifest(path: Union[str, Path]) -> Optional[dict]:
    """Parse one manifest file; ``None`` for anything unreadable or foreign."""

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(data, dict) or data.get("version") != MANIFEST_VERSION:
        return None
    if not isinstance(data.get("entries"), dict):
        return None
    return data


def manifest_paths(directory: Union[str, Path]) -> list[Path]:
    """Every manifest file in ``directory``, sorted by name."""

    return sorted(Path(directory).glob(f"*{MANIFEST_SUFFIX}"))
