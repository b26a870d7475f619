"""Baseline hardware prefetchers the paper compares against.

These implement the comparison points of Figure 7:

* :class:`~repro.prefetch.stride.StridePrefetcher` — a reference-prediction
  table stride prefetcher (Chen & Baer) with degree 8.
* :class:`~repro.prefetch.ghb.GHBPrefetcher` — a Markov global-history-buffer
  (G/AC) prefetcher (Nesbit & Smith), in "regular" (SRAM-sized) and "large"
  (1 GiB of state, zero-cost lookups) configurations.

Both derive from :class:`~repro.prefetch.base.HardwarePrefetcher`, which
attaches them to the hierarchy's demand snoop.  The no-prefetching baseline
attaches nothing.

Software prefetching is not a hardware unit; it is expressed directly in the
workload traces as :attr:`~repro.cpu.trace.OpKind.SOFTWARE_PREFETCH` ops plus
their address-generation instruction overhead.
"""

from .base import HardwarePrefetcher
from .ghb import GHBPrefetcher
from .stride import StridePrefetcher

__all__ = [
    "HardwarePrefetcher",
    "StridePrefetcher",
    "GHBPrefetcher",
]
