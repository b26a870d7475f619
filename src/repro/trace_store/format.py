"""Compact binary encoding of trace artifacts.

One artifact file is::

    magic  b"RTRC"                      (4 bytes)
    format version                      (u16, little-endian)
    reserved                            (u16, zero)
    header length                       (u32)
    header JSON                         (UTF-8; see below)
    5 column blobs, each: u64 length + raw ``array.tobytes()`` payload
        kinds ('b'), addrs ('q'), counts ('q'),
        dep_offsets ('q'), dep_values ('q')
    SHA-256 of every preceding byte     (32 bytes)

The header JSON records the artifact identity (workload, variant, scale,
seed), the workload-code digest the entry was keyed under, the op /
instruction / dependence counts (cross-checked against the blobs on
decode), the region table, the software-prefetch support flag and the
emitting machine's byte order (column payloads are native-endian; a
mismatch decodes as corruption, i.e. a store miss — the store is per
machine, not portable).

Every structural problem — bad magic, unknown version, truncated blobs,
checksum mismatch, inconsistent counts — raises
:class:`~repro.errors.TraceStoreError`; the store converts that into a
cache miss so a corrupt file can never poison a simulation.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array

from ..cpu.trace import COLUMN_TYPECODES, Trace
from ..errors import TraceStoreError
from .artifact import RegionSpec, TraceArtifact

#: File magic of trace artifacts.
MAGIC = b"RTRC"

#: On-disk format version; bump on any layout change (old entries then
#: simply read as misses and are re-emitted).
FORMAT_VERSION = 1

_PREAMBLE = struct.Struct("<4sHHI")
_BLOB_LEN = struct.Struct("<Q")
_CHECKSUM_BYTES = 32


def encode_artifact(artifact: TraceArtifact, *, digest: str = "") -> bytes:
    """Serialise ``artifact`` to the on-disk byte layout.

    ``digest`` (the store key) is recorded in the header so files are
    self-describing for the maintenance CLI; it does not participate in
    decoding.
    """

    trace = artifact.trace
    header = {
        "workload": artifact.workload,
        "variant": artifact.variant,
        "scale": artifact.scale,
        "seed": artifact.seed,
        "digest": digest,
        "supports_software": artifact.supports_software,
        "regions": [[r.name, r.base, r.size_bytes] for r in artifact.regions],
        "ops": len(trace),
        "instructions": trace.instruction_count(),
        "deps": len(trace.columns()[4]),
        "byteorder": sys.byteorder,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [_PREAMBLE.pack(MAGIC, FORMAT_VERSION, 0, len(header_bytes)), header_bytes]
    for column in trace.columns():
        blob = column.tobytes()
        parts.append(_BLOB_LEN.pack(len(blob)))
        parts.append(blob)
    payload = b"".join(parts)
    return payload + hashlib.sha256(payload).digest()


def decode_header(data) -> dict:
    """Parse and return only the header JSON (used by the maintenance CLI).

    Validates the preamble but not the column blobs or the checksum, so it
    stays cheap for ``ls`` over a large store.  ``data`` may be any
    bytes-like buffer (``bytes``, ``memoryview``, ...).
    """

    if len(data) < _PREAMBLE.size:
        raise TraceStoreError("artifact truncated before the preamble")
    magic, version, _reserved, header_len = _PREAMBLE.unpack_from(data)
    if magic != MAGIC:
        raise TraceStoreError(f"bad artifact magic {magic!r}")
    if version != FORMAT_VERSION:
        raise TraceStoreError(f"unsupported artifact format version {version}")
    end = _PREAMBLE.size + header_len
    if len(data) < end:
        raise TraceStoreError("artifact truncated inside the header")
    try:
        header = json.loads(bytes(data[_PREAMBLE.size : end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceStoreError(f"artifact header is not valid JSON: {error}") from error
    if not isinstance(header, dict):
        raise TraceStoreError("artifact header is not a JSON object")
    return header


def read_header_from_file(path) -> dict:
    """Read and parse only an artifact file's header (preamble + JSON).

    This is what keeps ``trace_store.py ls``/``stat`` cheap on stores
    holding large-scale traces: the column blobs (the bulk of the file)
    are never read.  The checksum is likewise not verified — corruption in
    the unread portion surfaces as a miss when the entry is actually used.
    """

    with open(path, "rb") as handle:
        preamble = handle.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise TraceStoreError("artifact truncated before the preamble")
        _magic, _version, _reserved, header_len = _PREAMBLE.unpack(preamble)
        if header_len > 1 << 24:
            raise TraceStoreError(f"unreasonable header length {header_len}")
        return decode_header(preamble + handle.read(header_len))


def decode_artifact(data) -> TraceArtifact:
    """Deserialise artifact bytes, verifying structure and checksum.

    ``data`` may be any bytes-like buffer (``bytes``, ``memoryview``, ...);
    only the column payloads are copied, once, into the ``array`` objects
    that own them.

    Raises:
        TraceStoreError: On any corruption — truncation, bad magic/version,
            checksum mismatch, count/length inconsistencies or a foreign
            byte order.
    """

    if len(data) < _PREAMBLE.size + _CHECKSUM_BYTES:
        raise TraceStoreError("artifact truncated")
    payload, checksum = data[:-_CHECKSUM_BYTES], data[-_CHECKSUM_BYTES:]
    if hashlib.sha256(payload).digest() != checksum:
        raise TraceStoreError("artifact checksum mismatch")
    header = decode_header(payload)
    try:
        if header["byteorder"] != sys.byteorder:
            raise TraceStoreError(
                f"artifact byte order {header['byteorder']!r} does not match this machine"
            )
        expected_ops = int(header["ops"])
        expected_deps = int(header["deps"])
        regions = tuple(
            RegionSpec(name=str(name), base=int(base), size_bytes=int(size))
            for name, base, size in header["regions"]
        )
        identity = {
            "workload": str(header["workload"]),
            "variant": str(header["variant"]),
            "scale": str(header["scale"]),
            "seed": int(header["seed"]),
            "supports_software": bool(header["supports_software"]),
        }
    except (KeyError, TypeError, ValueError) as error:
        raise TraceStoreError(f"artifact header is malformed: {error}") from error

    _magic, _version, _reserved, header_len = _PREAMBLE.unpack_from(payload)
    offset = _PREAMBLE.size + header_len

    columns: list[array] = []
    for typecode in COLUMN_TYPECODES:
        if offset + _BLOB_LEN.size > len(payload):
            raise TraceStoreError("artifact truncated inside a column length")
        (blob_len,) = _BLOB_LEN.unpack_from(payload, offset)
        offset += _BLOB_LEN.size
        if offset + blob_len > len(payload):
            raise TraceStoreError("artifact truncated inside a column blob")
        column = array(typecode)
        if blob_len % column.itemsize != 0:
            raise TraceStoreError(
                f"column blob of {blob_len} bytes is not a multiple of "
                f"itemsize {column.itemsize}"
            )
        column.frombytes(payload[offset : offset + blob_len])
        offset += blob_len
        columns.append(column)
    if offset != len(payload):
        raise TraceStoreError(f"{len(payload) - offset} trailing bytes after the columns")

    kinds, addrs, counts, dep_offsets, dep_values = columns
    if len(kinds) != expected_ops or len(dep_values) != expected_deps:
        raise TraceStoreError(
            f"column lengths ({len(kinds)} ops, {len(dep_values)} deps) do not "
            f"match the header ({expected_ops} ops, {expected_deps} deps)"
        )
    try:
        trace = Trace.from_columns(kinds, addrs, counts, dep_offsets, dep_values)
    except Exception as error:  # TraceError and friends → corruption
        raise TraceStoreError(f"artifact columns are inconsistent: {error}") from error
    if trace.instruction_count() != int(header["instructions"]):
        raise TraceStoreError("instruction count does not match the header")
    return TraceArtifact(
        workload=identity["workload"],
        variant=identity["variant"],
        scale=identity["scale"],
        seed=identity["seed"],
        supports_software=identity["supports_software"],
        regions=regions,
        trace=trace,
    )
