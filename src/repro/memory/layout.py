"""Line and alignment arithmetic for the address space.

Addresses in the simulator are plain Python integers (64-bit virtual
addresses).  The line size comes from :mod:`repro.config`.
"""

from __future__ import annotations

from ..config import CACHE_LINE_BYTES, WORD_BYTES

WORDS_PER_LINE = CACHE_LINE_BYTES // WORD_BYTES


def line_address(addr: int, line_bytes: int = CACHE_LINE_BYTES) -> int:
    """Return the base address of the cache line containing ``addr``."""

    return addr - (addr % line_bytes)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""

    if alignment <= 0:
        raise ValueError("alignment must be positive")
    remainder = value % alignment
    if remainder == 0:
        return value
    return value + alignment - remainder
