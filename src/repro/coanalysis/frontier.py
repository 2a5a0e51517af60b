"""Frontier scheduling for Algorithm 1's pending-path set.

The paper's tool explores its stack ``U`` depth-first, but the order in
which pending paths are simulated is a *policy*, not part of the
algorithm's soundness argument: any order converges to the same
exercisable-gate dichotomy once the CSM's repository saturates (only
path/merge counts shift).

Two orders ship:

* :class:`DepthFirstFrontier` -- the paper's LIFO stack (the default);
* :class:`BreadthFirstFrontier` -- FIFO, the batch engine's natural
  order (whole frontier packed into lanes per wave).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from .kernel import PendingPath


class FrontierStrategy:
    """Ordering policy over the set of unexplored paths.

    Subclasses own the container; the kernel only pushes forked paths,
    pops batches, and (for checkpointing) round-trips the entries --
    ``entries()`` must list paths in an order such that re-``push()``-ing
    them into a fresh instance reproduces the schedule.
    """

    name = "base"

    def push(self, path: PendingPath) -> None:
        raise NotImplementedError

    def pop_batch(self, limit: Optional[int]) -> List[PendingPath]:
        """Remove and return up to ``limit`` paths (``None`` = all)."""
        raise NotImplementedError

    def requeue(self, batch: List[PendingPath]) -> None:
        """Return an un-simulated batch to the head of the schedule
        (interrupt handling): the next ``pop_batch`` must yield these
        paths again, in the same order."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def entries(self) -> List[PendingPath]:
        """Checkpoint view: every pending path, in re-push order."""
        raise NotImplementedError


class DepthFirstFrontier(FrontierStrategy):
    """LIFO stack -- Algorithm 1's ``U`` exactly as the serial engine
    has always walked it."""

    name = "dfs"

    def __init__(self):
        self._stack: List[PendingPath] = []

    def push(self, path: PendingPath) -> None:
        self._stack.append(path)

    def pop_batch(self, limit: Optional[int]) -> List[PendingPath]:
        if limit is None or limit >= len(self._stack):
            batch = self._stack[::-1]
            self._stack.clear()
            return batch
        batch = [self._stack.pop() for _ in range(limit)]
        return batch

    def requeue(self, batch: List[PendingPath]) -> None:
        self._stack.extend(reversed(batch))

    def __len__(self) -> int:
        return len(self._stack)

    def entries(self) -> List[PendingPath]:
        return list(self._stack)


class BreadthFirstFrontier(FrontierStrategy):
    """FIFO queue: explore shallow forks first (wave order)."""

    name = "bfs"

    def __init__(self):
        self._queue = deque()

    def push(self, path: PendingPath) -> None:
        self._queue.append(path)

    def pop_batch(self, limit: Optional[int]) -> List[PendingPath]:
        if limit is None or limit >= len(self._queue):
            batch = list(self._queue)
            self._queue.clear()
            return batch
        return [self._queue.popleft() for _ in range(limit)]

    def requeue(self, batch: List[PendingPath]) -> None:
        self._queue.extendleft(reversed(batch))

    def __len__(self) -> int:
        return len(self._queue)

    def entries(self) -> List[PendingPath]:
        return list(self._queue)


FRONTIER_STRATEGIES = {
    DepthFirstFrontier.name: DepthFirstFrontier,
    BreadthFirstFrontier.name: BreadthFirstFrontier,
}


def make_frontier(strategy: Optional[str]) -> FrontierStrategy:
    """A fresh frontier for a strategy name; ``None`` gives the DFS
    default."""
    if strategy is None:
        return DepthFirstFrontier()
    try:
        return FRONTIER_STRATEGIES[strategy]()
    except KeyError:
        raise ValueError(
            f"unknown frontier strategy {strategy!r}; "
            f"known: {sorted(FRONTIER_STRATEGIES)}") from None
