"""The run governor: budgets, memory watchdog, graceful interruption.

Long co-analysis runs fail by *exhaustion*, not by exception: a frontier
that outgrows RAM, a deadline blown by path explosion, an operator's
Ctrl-C or a batch scheduler's SIGTERM.  The governor turns every one of
those endings into a first-class outcome -- the kernel checks it
cooperatively at segment/wave boundaries, and when a budget trips (or a
signal arrives) the run flushes a final checkpoint and returns a
:class:`~repro.coanalysis.results.PartialResult` with a machine-readable
``stop_reason`` instead of dying mid-flight.  ``--resume`` then picks up
exactly where the governed stop left off.

Three pieces:

* :class:`RunBudget` -- the declarative limits (wall-clock deadline, RSS
  ceiling sampled via :func:`resource.getrusage`, max frontier size,
  max total segments);
* :class:`RunGovernor` -- evaluates the budget at each boundary and
  carries the cooperative stop flag;
* signal handling -- ``governed()`` installs SIGINT/SIGTERM handlers
  that *request* a stop rather than killing the process, and restores
  the previous handlers on exit (nested/foreign handlers survive).
"""

from __future__ import annotations

import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

#: machine-readable stop reasons a governed run can end with (open set)
STOP_REASONS = ("deadline", "memory", "frontier", "segments",
                "interrupted")


def current_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; platforms
    without :mod:`resource` (Windows) report 0.0, disabling the memory
    watchdog rather than crashing the run.
    """
    try:
        import resource
    except ImportError:          # pragma: no cover - non-POSIX
        return 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":     # pragma: no cover - platform dependent
        return usage / (1024.0 * 1024.0)
    return usage / 1024.0


@dataclass(frozen=True)
class StopRequest:
    """Why the governor wants the run to end, and how to describe it."""

    reason: str          # one of STOP_REASONS
    detail: str = ""


@dataclass
class RunBudget:
    """Declarative resource envelope for one exploration run.

    Every limit is optional; ``None`` disables that check.  The budget
    is evaluated cooperatively at segment/wave boundaries, so a single
    very long segment can overshoot -- budgets bound the *run*; the
    per-path cycle budget bounds segments.
    """

    deadline_seconds: Optional[float] = None
    max_rss_mb: Optional[float] = None
    max_frontier: Optional[int] = None
    max_segments: Optional[int] = None

    @property
    def unlimited(self) -> bool:
        return (self.deadline_seconds is None and self.max_rss_mb is None
                and self.max_frontier is None
                and self.max_segments is None)


class RunGovernor:
    """Evaluates a :class:`RunBudget` and carries the stop flag.

    Args:
        budget: limits to enforce (``None`` = only signal handling).
        clock: monotonic time source (injectable for tests).
        rss_mb: RSS sampler (injectable for tests).
    """

    def __init__(self, budget: Optional[RunBudget] = None,
                 clock: Callable[[], float] = time.monotonic,
                 rss_mb: Callable[[], float] = current_rss_mb):
        self.budget = budget or RunBudget()
        self.clock = clock
        self.rss_mb = rss_mb
        self._t0: Optional[float] = None
        self._stop: Optional[StopRequest] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Mark the run's start (deadline epoch); idempotent."""
        if self._t0 is None:
            self._t0 = self.clock()

    @property
    def elapsed(self) -> float:
        return 0.0 if self._t0 is None else self.clock() - self._t0

    # -- cooperative stop ----------------------------------------------------
    def request_stop(self, reason: str, detail: str = "") -> None:
        """Ask the run to end at the next boundary (first request wins)."""
        if self._stop is None:
            self._stop = StopRequest(reason, detail)

    @property
    def stop_requested(self) -> Optional[StopRequest]:
        return self._stop

    def check(self, frontier: int = 0,
              segments: int = 0) -> Optional[StopRequest]:
        """Evaluate the budget at a boundary; returns the (sticky) stop
        request, or ``None`` to continue."""
        if self._stop is not None:
            return self._stop
        self.start()
        b = self.budget
        if b.deadline_seconds is not None and \
                self.elapsed >= b.deadline_seconds:
            self.request_stop(
                "deadline",
                f"wall-clock deadline of {b.deadline_seconds:.1f}s "
                f"reached after {self.elapsed:.1f}s")
        elif b.max_rss_mb is not None:
            rss = self.rss_mb()
            if rss >= b.max_rss_mb:
                self.request_stop(
                    "memory",
                    f"RSS {rss:.1f} MiB is over the "
                    f"{b.max_rss_mb:.1f} MiB ceiling")
        if self._stop is None and b.max_frontier is not None and \
                frontier > b.max_frontier:
            self.request_stop(
                "frontier",
                f"frontier holds {frontier} pending paths "
                f"(limit {b.max_frontier})")
        if self._stop is None and b.max_segments is not None and \
                segments >= b.max_segments:
            self.request_stop(
                "segments",
                f"{segments} segments explored "
                f"(limit {b.max_segments})")
        return self._stop

    # -- signal handling -----------------------------------------------------
    @contextmanager
    def governed(self, signals=(signal.SIGINT,
                                signal.SIGTERM)) -> Iterator["RunGovernor"]:
        """Install handlers turning ``signals`` into cooperative stop
        requests; previous handlers are restored on exit.

        Outside the main thread (where CPython forbids installing
        handlers) the governor still enforces budgets -- signals just
        keep their previous behavior.
        """
        self.start()
        previous = {}
        try:
            for signum in signals:
                try:
                    previous[signum] = signal.signal(signum, self._on_signal)
                except ValueError:    # not the main thread
                    break
            yield self
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _on_signal(self, signum, frame) -> None:
        try:
            name = signal.Signals(signum).name
        except ValueError:            # pragma: no cover - exotic signum
            name = str(signum)
        self.request_stop(
            "interrupted",
            f"{name} received; stopping at the next segment boundary")


#: map a stop reason to the trace-event kind that narrates it
TRACE_KIND_FOR_REASON = {
    "deadline": "deadline",
    "memory": "mem_pressure",
    "frontier": "mem_pressure",
    "segments": "deadline",
    "interrupted": "interrupted",
}


def as_governor(value) -> Optional[RunGovernor]:
    """Coerce an engine's ``budget=`` argument: a :class:`RunBudget`
    becomes a governor, a governor passes through, ``None`` stays
    ``None``."""
    if value is None or isinstance(value, RunGovernor):
        return value
    if isinstance(value, RunBudget):
        return RunGovernor(value)
    raise TypeError(f"budget must be a RunBudget or RunGovernor, "
                    f"not {type(value).__name__}")
