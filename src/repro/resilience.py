"""The deadline primitive of the execution stack.

:class:`Deadline` is a monotonic-clock budget threaded through runs,
requests and chunks: :class:`~repro.sim.engine.SimEngine` starts one per
run and both runners stop executing once it has expired.  The clock is
injectable, so deadline logic is unit tested without sleeping.  See
``docs/resilience.md`` for how the layers compose.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Union

__all__ = ["Deadline", "DeadlineLike"]


#: Anything accepted where a deadline is expected: a budget in seconds, an
#: existing :class:`Deadline`, or ``None`` for "unbounded".
DeadlineLike = Union["Deadline", float, int, None]


class Deadline:
    """A monotonic point in time after which work should stop.

    Created from a budget in seconds; share one instance across layers so
    nested waits (a run's deadline bounding each chunk's pool wait, say)
    consume a single budget instead of restarting it.  ``clock`` is
    injectable for tests.
    """

    __slots__ = ("seconds", "expires_at", "_clock")

    def __init__(
        self, seconds: float, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if seconds < 0:
            raise ValueError("deadline budget must be non-negative")
        self.seconds = float(seconds)
        self._clock = clock
        self.expires_at = clock() + self.seconds

    @classmethod
    def after(
        cls, value: DeadlineLike, *, clock: Callable[[], float] = time.monotonic
    ) -> Optional["Deadline"]:
        """Normalise a seconds-or-deadline-or-``None`` argument.

        The single conversion every deadline-accepting API uses: ``None``
        stays ``None`` (no deadline), an existing deadline passes through
        (shared budget), a number starts a fresh budget.
        """

        if value is None or isinstance(value, Deadline):
            return value
        return cls(float(value), clock=clock)

    def remaining(self) -> float:
        """Seconds left, clamped to zero."""

        return max(0.0, self.expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline({self.seconds:g}s, {self.remaining():.3f}s remaining)"
