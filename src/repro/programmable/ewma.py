"""Exponentially-weighted moving average (EWMA) calculators.

Section 4.5 of the paper: the prefetcher measures, in hardware, (a) the time
between successive observed reads to a configured data structure (the loop
iteration time) and (b) the time a chain of prefetches takes to complete, and
sets the look-ahead distance to their ratio — i.e. it tries to prefetch "the
element which will be accessed immediately after the prefetch is complete".

Both measurements are smoothed with EWMAs so a single slow DRAM access or an
unusually cheap iteration does not swing the distance around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigurationError

#: Bounds on the dynamic look-ahead distance, in elements.  The lower bound
#: keeps the prefetcher at least one element ahead; the upper bound models the
#: finite reach a hardware implementation would allow and prevents the
#: distance from running away when iterations are extremely cheap.
MIN_LOOKAHEAD = 1
MAX_LOOKAHEAD = 64


@dataclass
class EWMA:
    """A single exponentially-weighted moving average."""

    alpha: float = 0.25
    _value: Optional[float] = field(default=None, repr=False)
    samples: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("EWMA alpha must be in (0, 1]")

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the average and return the new value."""

        if sample < 0:
            raise ConfigurationError("EWMA samples must be non-negative")
        if self._value is None:
            self._value = float(sample)
        else:
            self._value = self.alpha * float(sample) + (1.0 - self.alpha) * self._value
        self.samples += 1
        return self._value

    @property
    def value(self) -> Optional[float]:
        return self._value


@dataclass
class LookaheadCalculator:
    """Pairs an iteration-time EWMA with a chain-latency EWMA for one stream.

    ``lookahead()`` returns the number of loop iterations (elements) the
    prefetch kernels should run ahead: the chain latency divided by the
    iteration time, clamped to ``[MIN_LOOKAHEAD, MAX_LOOKAHEAD]``.  Until both
    EWMAs have at least one sample, a configurable default distance is used,
    mirroring the warm-up behaviour of the hardware.

    The iteration-time input is smoothed over a small window of observations
    before entering the EWMA.  An out-of-order core issues the independent
    strided loads of several iterations back-to-back and then stalls while the
    window drains, so raw inter-observation deltas alternate between "almost
    zero" and "one full window"; averaging over ``iteration_window``
    observations recovers the true per-iteration rate, which is what the
    hardware's interval timer would measure.
    """

    alpha: float = 0.25
    default_distance: int = 4
    #: Number of observations folded into one iteration-time sample.
    iteration_window: int = 8
    iteration_time: EWMA = field(init=False)
    chain_latency: EWMA = field(init=False)
    _window_start_time: Optional[float] = field(default=None, repr=False)
    _window_count: int = field(default=0, repr=False)
    #: Memoised result of :meth:`lookahead`; kernels query the distance once
    #: per GET_LOOKAHEAD while the EWMAs change far less often, so the
    #: clamp/divide is recomputed only after a new sample arrives.
    _cached_distance: Optional[int] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.iteration_time = EWMA(self.alpha)
        self.chain_latency = EWMA(self.alpha)
        if self.iteration_window < 1:
            raise ConfigurationError("iteration_window must be at least 1")

    # ----------------------------------------------------------------- inputs

    def observe_iteration(self, time: float) -> None:
        """Record an observed read to the stream's trigger structure."""

        if self._window_start_time is None:
            self._window_start_time = time
            self._window_count = 0
            return
        self._window_count += 1
        if self._window_count >= self.iteration_window:
            delta = time - self._window_start_time
            if delta > 0:
                self.iteration_time.update(delta / self._window_count)
                self._cached_distance = None
            self._window_start_time = time
            self._window_count = 0

    def observe_chain(self, start_time: float, end_time: float) -> None:
        """Record the completion of a prefetch chain started at ``start_time``."""

        if end_time >= start_time:
            self.chain_latency.update(end_time - start_time)
            self._cached_distance = None

    # ---------------------------------------------------------------- outputs

    def lookahead(self) -> int:
        cached = self._cached_distance
        if cached is not None:
            return cached
        iteration = self.iteration_time.value
        latency = self.chain_latency.value
        if not iteration or latency is None:
            distance = self.default_distance
        else:
            distance = -(-int(latency) // max(1, int(iteration))) + 1
            distance = max(MIN_LOOKAHEAD, min(MAX_LOOKAHEAD, distance))
        self._cached_distance = distance
        return distance
