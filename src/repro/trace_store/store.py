"""Digest-keyed on-disk store of trace artifacts, shared across runs and workers.

Emitting a dynamic trace is the expensive part of most simulations at scale:
the workload rebuilds its data structures and re-runs its algorithm in pure
Python just to produce the exact same op stream it produced last time.  The
:class:`TraceStore` makes that a once-per-machine cost: every
``(workload, variant, scale, seed)`` trace is stored under a content digest
that also folds in the trace-affecting source code and the on-disk format
version, so a warm store returns bit-identical traces and any change that
could alter emission silently invalidates every stale entry.

Properties (mirroring :class:`~repro.sim.engine.cache.ResultCache`):

* **atomic writes** — write-then-rename, with a sweep of ``*.tmp.<pid>``
  leftovers whose writer died, so concurrent runs and multiprocess workers
  can share one directory;
* **corruption-tolerant reads** — any malformed entry (truncated, bad
  checksum, foreign byte order) is a miss, never an error;
* **an environment switch** — ``REPRO_TRACE_STORE`` selects the directory,
  ``REPRO_TRACE_STORE=off`` disables the tier entirely, and the default is
  a per-user cache directory so every run on a machine shares one store.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from ..atomicio import atomic_write_bytes, sweep_dead_writer_tmp_files
from ..errors import TraceStoreError
from .artifact import TraceArtifact
from .format import (
    FORMAT_VERSION,
    decode_artifact,
    encode_artifact,
    read_header_from_file,
)

#: Environment variable controlling the store: unset → the per-user default
#: directory; a path → that directory; one of :data:`DISABLED_VALUES` → off.
TRACE_STORE_ENV = "REPRO_TRACE_STORE"

#: Values of :data:`TRACE_STORE_ENV` that disable the trace-artifact tier.
DISABLED_VALUES = frozenset({"off", "0", "none", "disabled"})


@dataclass
class TraceStoreStats:
    """What trace-artifact resolution did for one engine run.

    ``hits`` are traces warmed from the store; ``built`` are traces that had
    to be emitted by running the workload; ``stored`` are freshly-emitted
    traces persisted for the next run.
    """

    hits: int = 0
    built: int = 0
    stored: int = 0

    def merge(self, other: "TraceStoreStats") -> None:
        self.hits += other.hits
        self.built += other.built
        self.stored += other.stored


# ------------------------------------------------------------------ digests


@lru_cache(maxsize=1)
def trace_code_fingerprint() -> str:
    """SHA-256 over the sources that determine trace emission.

    Narrower than the engine's whole-package
    :func:`~repro.sim.engine.request.code_fingerprint`: a stored trace only
    depends on the workload implementations (data generation + emission),
    the trace representation, the address-space/layout code that assigns
    virtual addresses, and the constants in ``config.py``.  Engine, eval or
    docs changes therefore do *not* invalidate the store — that is what
    makes "emitted once per machine, ever" real — while any edit that could
    change a single emitted op does.
    """

    package_root = Path(__file__).resolve().parents[1]
    relevant = sorted(
        path
        for path in (
            list((package_root / "workloads").rglob("*.py"))
            + [
                package_root / "cpu" / "trace.py",
                package_root / "memory" / "address_space.py",
                package_root / "memory" / "layout.py",
                package_root / "config.py",
            ]
        )
        if path.is_file()
    )
    digest = hashlib.sha256()
    for path in relevant:
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def trace_digest(workload: str, variant: str, scale: str, seed: int) -> str:
    """Stable content digest keying one ``(workload, variant, scale, seed)`` trace."""

    payload = json.dumps(
        {
            "workload": workload,
            "variant": variant,
            "scale": scale,
            "seed": seed,
            "format": FORMAT_VERSION,
            "code": trace_code_fingerprint(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- store


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk artifact, as listed by the maintenance CLI."""

    digest: str
    path: Path
    size_bytes: int
    mtime: float
    header: Optional[dict] = None


class TraceStore:
    """Digest-keyed binary store of :class:`TraceArtifact` files."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._swept_orphans = False

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.trace"

    # ----------------------------------------------------------------- reads

    def get(self, digest: str) -> Optional[TraceArtifact]:
        """Return the decoded artifact for ``digest``, or ``None`` on a miss.

        Missing, truncated, checksum-failing or otherwise corrupt entries
        are treated as misses (and will be overwritten by the next store).
        """

        data = self.get_bytes(digest)
        if data is None:
            return None
        try:
            return decode_artifact(data)
        except TraceStoreError:
            return None

    def get_bytes(self, digest: str) -> Optional[bytes]:
        """Raw encoded bytes for ``digest``, unverified (:meth:`get` decodes
        them and treats corruption as a miss)."""

        try:
            return self._path(digest).read_bytes()
        except OSError:
            return None

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.trace"))

    # ---------------------------------------------------------------- writes

    def put(self, artifact: TraceArtifact) -> str:
        """Encode and persist ``artifact``; return its digest."""

        digest = trace_digest(
            artifact.workload, artifact.variant, artifact.scale, artifact.seed
        )
        self.put_bytes(digest, encode_artifact(artifact, digest=digest))
        return digest

    def put_bytes(self, digest: str, data: bytes) -> None:
        # Atomic write-then-rename with per-write temp names (see
        # :mod:`repro.atomicio`): readers never see a partial artifact, and
        # concurrent same-digest writers — parallel workers or the service
        # daemon within one process — never share a temp file.
        if not self._swept_orphans:
            self._swept_orphans = True
            sweep_dead_writer_tmp_files(self.directory)
        atomic_write_bytes(self._path(digest), data)

    # ----------------------------------------------------------- maintenance

    def entries(self, *, with_headers: bool = False) -> list[StoreEntry]:
        """List every artifact, oldest first (for the ``ls``/``prune`` CLI)."""

        found: list[StoreEntry] = []
        for path in self.directory.glob("*.trace"):
            try:
                stat = path.stat()
            except OSError:
                continue
            header = None
            if with_headers:
                try:
                    header = read_header_from_file(path)
                except (OSError, TraceStoreError):
                    header = None  # listed, but shown as unreadable
            found.append(
                StoreEntry(
                    digest=path.stem,
                    path=path,
                    size_bytes=stat.st_size,
                    mtime=stat.st_mtime,
                    header=header,
                )
            )
        return sorted(found, key=lambda entry: entry.mtime)

    def stat(self) -> dict[str, object]:
        """Aggregate store statistics (entry count, total bytes, per workload)."""

        entries = self.entries(with_headers=True)
        per_workload: dict[str, int] = {}
        unreadable = 0
        for entry in entries:
            if entry.header is None:
                unreadable += 1
            else:
                name = str(entry.header.get("workload", "?"))
                per_workload[name] = per_workload.get(name, 0) + 1
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(entry.size_bytes for entry in entries),
            "unreadable": unreadable,
            "per_workload": dict(sorted(per_workload.items())),
        }

    def prune(self, *, older_than_seconds: float, now: Optional[float] = None) -> int:
        """Delete artifacts not modified within the window; return the count."""

        cutoff = (now if now is not None else time.time()) - older_than_seconds
        removed = 0
        for entry in self.entries():
            if entry.mtime < cutoff:
                try:
                    entry.path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - concurrent prune
                    pass
        return removed

    def clear(self) -> int:
        """Delete every artifact; return how many were removed."""

        removed = 0
        for path in self.directory.glob("*.trace"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent clear
                pass
        return removed


# ------------------------------------------------------------- env plumbing


def default_trace_store_dir() -> Optional[Path]:
    """Resolve the store directory from ``REPRO_TRACE_STORE`` (``None`` = off)."""

    value = os.environ.get(TRACE_STORE_ENV)
    if value is not None:
        if value.strip().lower() in DISABLED_VALUES or not value.strip():
            return None
        return Path(value)
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / "trace_store"


def default_trace_store() -> Optional[TraceStore]:
    """The environment-selected shared store, or ``None`` when disabled.

    A directory that cannot be created (read-only home, sandboxed CI) also
    resolves to ``None``: the tier is an accelerator, never a requirement.
    """

    directory = default_trace_store_dir()
    if directory is None:
        return None
    try:
        return TraceStore(directory)
    except OSError:
        return None


def trace_store_from_spec(spec: Optional[str]) -> Optional[TraceStore]:
    """Resolve a ``--trace-store DIR|off`` style option to a store.

    The single normalisation shared by every driver flag: ``None`` defers
    to the environment (:func:`default_trace_store`), an empty/whitespace
    value or any of :data:`DISABLED_VALUES` disables the tier, anything
    else names the directory.
    """

    if spec is None:
        return default_trace_store()
    cleaned = spec.strip()
    if not cleaned or cleaned.lower() in DISABLED_VALUES:
        return None
    return TraceStore(cleaned)
