"""Pluggable frontier scheduling for Algorithm 1's pending-path set.

The paper's tool explores its stack ``U`` depth-first, but the order in
which pending paths are simulated is a *policy*, not part of the
algorithm's soundness argument: any order converges to the same
exercisable-gate dichotomy once the CSM's repository saturates (only
path/merge counts shift).  Symbolic engines in the KLEE lineage make the
same split -- one exploration core, interchangeable "searchers" -- and
that separation is what lets scaling strategies compose.

Three strategies ship:

* :class:`DepthFirstFrontier` -- the paper's LIFO stack (serial default);
* :class:`BreadthFirstFrontier` -- FIFO, the batch engine's natural
  order (whole frontier packed into lanes per wave);
* :class:`NoveltyFrontier` -- prefers paths forked at rarely-seen halt
  PCs, steering simulation toward unexplored program regions first.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

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

    def observe_halt(self, pc: int) -> None:
        """Feedback hook: a path halted at ``pc`` (novelty bookkeeping)."""

    def snapshot_meta(self) -> dict:
        """Strategy-private state worth checkpointing (may be empty)."""
        return {}

    def restore_meta(self, meta: dict) -> None:
        pass


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
        from collections import deque
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


class NoveltyFrontier(FrontierStrategy):
    """Priority schedule by estimated novelty of each path's fork site.

    A path forked at a halt PC the run has seen few times is likely to
    reach program regions (and therefore gates) no other path has
    exercised yet, so it is scheduled first; among equally novel paths
    the shallower one wins, then insertion order (deterministic).  This
    front-loads coverage growth -- useful with tight cycle budgets or
    time-sliced (``stop_after_waves``) exploration.
    """

    name = "novelty"

    def __init__(self):
        self._heap: List[tuple] = []
        self._seen: Dict[int, int] = {}       # halt pc -> observations
        self._counter = 0

    def _priority(self, path: PendingPath) -> tuple:
        seen = self._seen.get(path.origin_pc, 0) \
            if path.origin_pc is not None else 0
        return (seen, path.depth)

    def push(self, path: PendingPath) -> None:
        heapq.heappush(self._heap,
                       (*self._priority(path), self._counter, path))
        self._counter += 1

    def pop_batch(self, limit: Optional[int]) -> List[PendingPath]:
        if limit is None:
            limit = len(self._heap)
        batch = []
        while self._heap and len(batch) < limit:
            batch.append(heapq.heappop(self._heap)[-1])
        return batch

    def requeue(self, batch: List[PendingPath]) -> None:
        # negative insertion order keeps requeued paths ahead of
        # same-priority peers, preserving the interrupted schedule
        for offset, path in enumerate(batch):
            heapq.heappush(
                self._heap,
                (*self._priority(path), -(len(batch) - offset), path))

    def __len__(self) -> int:
        return len(self._heap)

    def entries(self) -> List[PendingPath]:
        return [item[-1] for item in sorted(self._heap)]

    def observe_halt(self, pc: int) -> None:
        self._seen[pc] = self._seen.get(pc, 0) + 1

    def snapshot_meta(self) -> dict:
        return {"seen": dict(self._seen)}

    def restore_meta(self, meta: dict) -> None:
        self._seen = dict(meta.get("seen", {}))


FRONTIER_STRATEGIES = {
    DepthFirstFrontier.name: DepthFirstFrontier,
    BreadthFirstFrontier.name: BreadthFirstFrontier,
    NoveltyFrontier.name: NoveltyFrontier,
}


def make_frontier(strategy) -> FrontierStrategy:
    """Coerce a strategy argument: a name looks up the registry, an
    instance passes through, ``None`` gives the DFS default."""
    if strategy is None:
        return DepthFirstFrontier()
    if isinstance(strategy, FrontierStrategy):
        return strategy
    try:
        return FRONTIER_STRATEGIES[strategy]()
    except KeyError:
        raise ValueError(
            f"unknown frontier strategy {strategy!r}; "
            f"known: {sorted(FRONTIER_STRATEGIES)}") from None
