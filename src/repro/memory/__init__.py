"""Simulated memory substrate.

This subpackage provides everything below the core: a simulated virtual
address space holding the workloads' data structures, a two-level
set-associative cache hierarchy with MSHRs, a DDR3-like DRAM model, and a
two-level TLB.  The :class:`~repro.memory.hierarchy.MemoryHierarchy` class
assembles them and exposes the two entry points the rest of the simulator
uses: demand accesses from the core (``demand_access_time``) and prefetch
requests from a prefetcher (``prefetch_access``).  Cache lines are
``CACHE_LINE_BYTES`` (64) bytes throughout.
"""

from .address_space import AddressSpace, TypedArray
from .cache import Cache, CacheStats
from .dram import DRAMModel
from .hierarchy import MemoryHierarchy
from .layout import line_address
from .mshr import MSHRFile
from .tlb import TLB

__all__ = [
    "AddressSpace",
    "TypedArray",
    "Cache",
    "CacheStats",
    "DRAMModel",
    "MemoryHierarchy",
    "MSHRFile",
    "TLB",
    "line_address",
]
