"""Reference values read off the paper's figures.

These are approximate (the paper publishes figures, not tables of numbers) and
are used only to report paper-vs-measured comparisons in EXPERIMENTS.md and to
sanity-check the *shape* of the reproduction — which schemes win, roughly by
how much, and where the outliers are.  They are not pass/fail thresholds for
absolute values.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

#: Figure 7 speedups over no prefetching (approximate, read off the figure).
FIGURE7_SPEEDUPS: dict[str, dict[str, float]] = {
    "g500-csr": {"stride": 1.1, "software": 1.2, "pragma": 1.5, "converted": 2.3, "manual": 2.5},
    "g500-list": {"stride": 1.0, "software": 1.1, "pragma": 1.1, "converted": 1.1, "manual": 1.7},
    "hj2": {"stride": 1.1, "software": 1.4, "pragma": 3.7, "converted": 3.8, "manual": 3.9},
    "hj8": {"stride": 1.0, "software": 1.1, "pragma": 1.3, "converted": 3.3, "manual": 3.8},
    "pagerank": {"stride": 1.2, "pragma": 2.2, "manual": 2.4},
    "randacc": {"stride": 1.1, "software": 2.2, "pragma": 2.3, "converted": 2.9, "manual": 3.0},
    "intsort": {"stride": 1.4, "software": 2.0, "pragma": 2.6, "converted": 2.7, "manual": 2.8},
    "conjgrad": {"stride": 1.3, "software": 1.5, "pragma": 2.4, "converted": 2.5, "manual": 2.7},
}

#: Geometric-mean speedups quoted in the paper's text.
PAPER_GEOMEAN = {"manual": 3.0, "converted": 2.5, "pragma": 1.9}

#: Figure 8(a): proportion of prefetches used before L1 eviction (approximate).
FIGURE8A_UTILISATION: dict[str, float] = {
    "g500-csr": 0.80,
    "g500-list": 0.30,
    "hj2": 0.95,
    "hj8": 0.90,
    "pagerank": 0.90,
    "randacc": 0.95,
    "intsort": 0.95,
    "conjgrad": 0.90,
}

#: Figure 8(b): L1 read hit rate without / with the programmable prefetcher.
FIGURE8B_HIT_RATES: dict[str, tuple[float, float]] = {
    "g500-csr": (0.55, 0.85),
    "g500-list": (0.34, 0.42),
    "hj2": (0.35, 0.90),
    "hj8": (0.45, 0.90),
    "pagerank": (0.50, 0.85),
    "randacc": (0.25, 0.90),
    "intsort": (0.45, 0.90),
    "conjgrad": (0.60, 0.90),
}

#: Section 7.1: dynamic instruction overhead of software prefetching.
SOFTWARE_PREFETCH_OVERHEAD = {"intsort": 1.13, "randacc": 0.83, "hj2": 0.56}

#: Section 7.2: extra memory accesses of the programmable prefetcher.
EXTRA_MEMORY_ACCESSES = {"g500-list": 0.40, "g500-csr": 0.16}

#: Figure 11: manual (event-triggered) speedups survive; blocking collapses
#: the benefit for every pattern that needs chained intermediate loads.
FIGURE11_BLOCKED_SPEEDUPS: dict[str, float] = {
    "g500-csr": 1.2,
    "g500-list": 1.1,
    "hj2": 2.2,
    "hj8": 1.2,
    "pagerank": 2.0,
    "randacc": 2.4,
    "intsort": 2.3,
    "conjgrad": 2.2,
}


def paper_error(pairs: Iterable[tuple[Optional[float], Optional[float]]]) -> Optional[float]:
    """Mean |ln(measured ÷ paper)| over the ``(measured, paper)`` pairs that
    have both values; ``None`` when none has.

    Over the Figure 7 bars this is perfbench's ``paper_err``.
    """

    errors = [
        abs(math.log(measured / paper))
        for measured, paper in pairs
        if measured is not None and paper is not None
    ]
    return sum(errors) / len(errors) if errors else None
