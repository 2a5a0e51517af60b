"""Event scheduler with the paper's event regions (Figure 2).

iverilog executes each time step as a sequence of event regions.  The
paper's key simulator change is a **new region, "Symbolic events",
executed after all others**, so that monitoring control-flow signals,
halting, and state save/restore observe a fully-settled time step.  This
module reproduces that scheduler: four standard regions (Active,
Inactive, NBA, Postponed) plus the Symbolic region appended at the end.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple


class Region(enum.IntEnum):
    """Event regions, in intra-time-step execution order."""

    ACTIVE = 0
    INACTIVE = 1
    NBA = 2
    POSTPONED = 3
    SYMBOLIC = 4          # the paper's added region -- always last


Event = Callable[[], None]


class HaltSimulation(Exception):
    """Raised by a symbolic-region task to stop the simulation.

    Carries a ``reason`` (e.g. ``"monitor_x"``) so callers can distinguish
    control-flow halts from normal termination.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class EventScheduler:
    """Time-wheel scheduler over the five regions."""

    def __init__(self):
        self.time = 0
        self._current: List[Deque[Event]] = [deque() for _ in Region]
        self._future: Dict[int, List[Deque[Event]]] = {}
        self._future_heap: List[int] = []
        self.events_executed = 0
        #: trace of (time, region) for executed events; enabled by tests
        self.trace: Optional[List[Tuple[int, int]]] = None

    # -- scheduling -----------------------------------------------------------
    def schedule(self, region: Region, fn: Event, delay: int = 0) -> None:
        """Queue ``fn`` in ``region``, ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if delay == 0:
            self._current[region].append(fn)
            return
        when = self.time + delay
        slot = self._future.get(when)
        if slot is None:
            slot = [deque() for _ in Region]
            self._future[when] = slot
            heapq.heappush(self._future_heap, when)
        slot[region].append(fn)

    # -- execution ---------------------------------------------------------
    def run_time_step(self) -> None:
        """Drain the current time step region by region.

        Events executed in an earlier region may schedule into later (or
        the same) regions of the same step; regions are revisited until
        the whole step is quiescent, with the Symbolic region always
        receiving a settled view (it only runs when ACTIVE..POSTPONED are
        empty).
        """
        while True:
            ran = False
            for region in (Region.ACTIVE, Region.INACTIVE, Region.NBA,
                           Region.POSTPONED):
                queue = self._current[region]
                while queue:
                    fn = queue.popleft()
                    self.events_executed += 1
                    if self.trace is not None:
                        self.trace.append((self.time, int(region)))
                    fn()
                    ran = True
                    if self._current[Region.ACTIVE] and \
                            region is not Region.ACTIVE:
                        break  # fall back to Active first
                if self._current[Region.ACTIVE] and \
                        region is not Region.ACTIVE:
                    break
            if ran:
                continue
            sym = self._current[Region.SYMBOLIC]
            if sym:
                fn = sym.popleft()
                self.events_executed += 1
                if self.trace is not None:
                    self.trace.append((self.time, int(Region.SYMBOLIC)))
                fn()  # may raise HaltSimulation
                continue
            break

    def advance(self) -> bool:
        """Move to the next scheduled time; False when nothing is left."""
        while self._future_heap:
            when = heapq.heappop(self._future_heap)
            slot = self._future.pop(when)
            if any(slot):
                self.time = when
                self._current = slot
                return True
        return False

    def run(self) -> None:
        """Run until the event queue empties."""
        self.run_time_step()
        while self.advance():
            self.run_time_step()

    def clear(self) -> None:
        self._current = [deque() for _ in Region]
        self._future.clear()
        self._future_heap = []
