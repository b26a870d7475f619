"""Simulated virtual address space.

Workloads build their data structures (graphs, hash tables, sort buffers) in
an :class:`AddressSpace` so that the dynamic traces they emit contain real
virtual addresses, and so that the programmable prefetcher can read the
*values* of prefetched cache lines — which is what lets it chase indices and
pointers the way the paper's hardware does.

Storage is word-granular: every allocation is backed by a NumPy ``uint64``
buffer, and all reads/writes happen at 8-byte word granularity.  This matches
the paper's model (the PPUs "operate on the same word size as the main core"),
keeps the implementation simple, and is sufficient for every benchmark in the
evaluation — all of them index and point with 64-bit quantities.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..config import CACHE_LINE_BYTES, WORD_BYTES
from ..errors import AccessError, AllocationError
from .layout import WORDS_PER_LINE, align_up, line_address

#: Default base of the simulated heap.  Arbitrary but non-zero so that null
#: pointers (0) never alias a real allocation.
DEFAULT_HEAP_BASE = 0x1000_0000

_U64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Region:
    """A single mapped allocation."""

    name: str
    base: int
    size_bytes: int

    @property
    def end(self) -> int:
        """One past the last mapped byte."""

        return self.base + self.size_bytes

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class TypedArray:
    """A 64-bit-element array living in the simulated address space.

    The wrapper provides Pythonic indexing over the backing store while
    exposing the simulated base address, element size and bounds needed to
    configure the prefetcher's address filter.
    """

    def __init__(self, space: "AddressSpace", region: Region, length: int) -> None:
        self._space = space
        self._region = region
        self._length = length

    # ------------------------------------------------------------ properties

    @property
    def name(self) -> str:
        return self._region.name

    @property
    def base_addr(self) -> int:
        return self._region.base

    @property
    def end_addr(self) -> int:
        return self._region.base + self._length * WORD_BYTES

    @property
    def element_bytes(self) -> int:
        return WORD_BYTES

    def __len__(self) -> int:
        return self._length

    # -------------------------------------------------------------- accessors

    def addr_of(self, index: int) -> int:
        """Return the simulated address of element ``index``."""

        self._check_index(index)
        return self._region.base + index * WORD_BYTES

    def __getitem__(self, index: int) -> int:
        self._check_index(index)
        return self._space.read_word(self.addr_of(index))

    def __setitem__(self, index: int, value: int) -> None:
        self._check_index(index)
        self._space.write_word(self.addr_of(index), value)

    def fill(self, values: Iterable[int]) -> None:
        """Bulk-initialise the array from an iterable of integers."""

        data = np.asarray(list(values), dtype=np.int64).astype(np.uint64)
        if data.size > self._length:
            raise AllocationError(
                f"{self.name}: cannot fill {data.size} elements into length {self._length}"
            )
        self._space.write_words(self._region.base, data)

    def to_list(self) -> list[int]:
        """Return the array contents as a list of Python ints (signed 64-bit)."""

        words = self._space.read_words(self._region.base, self._length)
        return [int(w) for w in words.astype(np.int64)]

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._length:
            raise AccessError(
                f"{self.name}: index {index} out of bounds for length {self._length}"
            )


class AddressSpace:
    """A simple bump-allocated simulated virtual address space."""

    def __init__(self, heap_base: int = DEFAULT_HEAP_BASE) -> None:
        if heap_base <= 0:
            raise AllocationError("heap base must be positive")
        self._next_addr = align_up(heap_base, CACHE_LINE_BYTES)
        self._region_bases: list[int] = []
        self._regions: list[Region] = []
        self._buffers: list[np.ndarray] = []

    # ------------------------------------------------------------- allocation

    def allocate(self, name: str, size_bytes: int, alignment: int = CACHE_LINE_BYTES) -> Region:
        """Map a new region of ``size_bytes`` bytes and return it."""

        if size_bytes <= 0:
            raise AllocationError(f"{name}: allocation size must be positive")
        base = align_up(self._next_addr, alignment)
        padded = align_up(size_bytes, WORD_BYTES)
        region = Region(name=name, base=base, size_bytes=padded)
        self._next_addr = base + padded
        index = bisect.bisect_right(self._region_bases, base)
        self._region_bases.insert(index, base)
        self._regions.insert(index, region)
        self._buffers.insert(index, np.zeros(padded // WORD_BYTES, dtype=np.uint64))
        return region

    def allocate_array(
        self,
        name: str,
        length: int,
        values: Sequence[int] | None = None,
        alignment: int = CACHE_LINE_BYTES,
    ) -> TypedArray:
        """Allocate an array of ``length`` 64-bit elements, optionally initialised."""

        if length <= 0:
            raise AllocationError(f"{name}: array length must be positive")
        region = self.allocate(name, length * WORD_BYTES, alignment=alignment)
        array = TypedArray(self, region, length)
        if values is not None:
            array.fill(values)
        return array

    def map_region(self, name: str, base: int, size_bytes: int) -> Region:
        """Map a zero-filled region at an *explicit* base address.

        This is the trace-artifact replay path: a stored trace carries the
        region table of the address space it was emitted against, and a
        replay workload reconstructs an identically-shaped space from it —
        same bases, same extents — without re-running the workload's data
        build.  Values read as zero, which is sufficient for every
        non-programmable mode (the hierarchy only asks ``is_mapped`` for
        prefetch drops; only PPU kernels read line *contents*).

        Raises:
            AllocationError: On unaligned/overlapping placement or a
                non-positive size.
        """

        if base <= 0 or base % WORD_BYTES != 0:
            raise AllocationError(f"{name}: region base {base:#x} is not word aligned")
        if size_bytes <= 0 or size_bytes % WORD_BYTES != 0:
            raise AllocationError(
                f"{name}: region size {size_bytes} is not a positive word multiple"
            )
        region = Region(name=name, base=base, size_bytes=size_bytes)
        index = bisect.bisect_right(self._region_bases, base)
        before = self._regions[index - 1] if index > 0 else None
        after = self._regions[index] if index < len(self._regions) else None
        if (before is not None and before.end > base) or (
            after is not None and region.end > after.base
        ):
            raise AllocationError(f"{name}: region at {base:#x} overlaps an existing region")
        self._region_bases.insert(index, base)
        self._regions.insert(index, region)
        self._buffers.insert(index, np.zeros(size_bytes // WORD_BYTES, dtype=np.uint64))
        if region.end > self._next_addr:
            self._next_addr = region.end
        return region

    @property
    def regions(self) -> tuple[Region, ...]:
        return tuple(self._regions)

    @property
    def mapped_bytes(self) -> int:
        return sum(region.size_bytes for region in self._regions)

    # ----------------------------------------------------------------- access

    def _locate(self, addr: int) -> tuple[Region, np.ndarray]:
        index = bisect.bisect_right(self._region_bases, addr) - 1
        if index >= 0:
            region = self._regions[index]
            if region.contains(addr):
                return region, self._buffers[index]
        raise AccessError(f"address {addr:#x} is not mapped")

    def is_mapped(self, addr: int) -> bool:
        """Return True when ``addr`` falls inside an allocated region."""

        index = bisect.bisect_right(self._region_bases, addr) - 1
        if index < 0:
            return False
        # Region.contains, inlined (the prefetch path asks once per new
        # target address); bisect already guarantees base <= addr.
        region = self._regions[index]
        return addr < region.base + region.size_bytes

    def read_word(self, addr: int) -> int:
        """Read the signed 64-bit word at ``addr`` (must be word aligned)."""

        self._check_aligned(addr)
        region, buffer = self._locate(addr)
        return int(np.int64(buffer[(addr - region.base) // WORD_BYTES]))

    def write_word(self, addr: int, value: int) -> None:
        """Write a 64-bit word at ``addr`` (must be word aligned)."""

        self._check_aligned(addr)
        region, buffer = self._locate(addr)
        buffer[(addr - region.base) // WORD_BYTES] = value & _U64_MASK

    def read_words(self, addr: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive words starting at ``addr``."""

        self._check_aligned(addr)
        if count < 0:
            raise AccessError("word count must be non-negative")
        region, buffer = self._locate(addr)
        start = (addr - region.base) // WORD_BYTES
        if start + count > buffer.size:
            raise AccessError(
                f"read of {count} words at {addr:#x} crosses the end of region {region.name}"
            )
        return buffer[start : start + count].copy()

    def write_words(self, addr: int, values: np.ndarray) -> None:
        """Write consecutive words starting at ``addr``."""

        self._check_aligned(addr)
        region, buffer = self._locate(addr)
        start = (addr - region.base) // WORD_BYTES
        if start + values.size > buffer.size:
            raise AccessError(
                f"write of {values.size} words at {addr:#x} crosses the end of region {region.name}"
            )
        buffer[start : start + values.size] = values.astype(np.uint64)

    def read_line(self, addr: int) -> list[int]:
        """Return the 8 words of the cache line containing ``addr``.

        Words that fall outside any mapped region read as zero, mirroring how
        a real prefetcher would simply see whatever bytes the line contains.
        """

        base = line_address(addr)
        # Fast path (the prefetcher reads one line per observation/fill):
        # when the whole line sits inside a single region, slice its buffer
        # once instead of paying a bisect + bounds check per word.
        index = bisect.bisect_right(self._region_bases, base) - 1
        if index >= 0:
            region = self._regions[index]
            if base + WORDS_PER_LINE * WORD_BYTES <= region.end:
                start = (base - region.base) // WORD_BYTES
                return self._buffers[index][start : start + WORDS_PER_LINE].astype(
                    np.int64
                ).tolist()
        words: list[int] = []
        for offset in range(WORDS_PER_LINE):
            word_addr = base + offset * WORD_BYTES
            if self.is_mapped(word_addr):
                words.append(self.read_word(word_addr))
            else:
                words.append(0)
        return words

    @staticmethod
    def _check_aligned(addr: int) -> None:
        if addr % WORD_BYTES != 0:
            raise AccessError(f"address {addr:#x} is not word aligned")
