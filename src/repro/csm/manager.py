"""The Conservative State Manager (paper section 3.3).

The CSM "maintains a repository of previously-simulated states",
indexed by the PC of the PC-changing instruction at which each state was
observed.  When the simulator halts and hands it a state, the CSM:

1. checks whether the state is a strict subset of what has already been
   simulated for that PC -- if so, the path is discarded ("skipped");
2. otherwise forms a more conservative state covering both (per the
   configured :class:`~repro.csm.strategies.MergeStrategy`), optionally
   applies designer constraints, stores it, and returns it so the engine
   can set the control-flow signals and continue down each execution path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.state import SimState
from .constraints import ConstraintSet
from .strategies import MergeStrategy, UberConservative


@dataclass
class CSMDecision:
    """Outcome of presenting one halted state to the CSM."""

    pc: int
    covered: bool                       # True -> discard this path
    resume_state: Optional[SimState]    # state to fork from when not covered


@dataclass
class CSMStats:
    observed: int = 0
    skipped: int = 0
    expanded: int = 0
    per_pc_observations: Dict[int, int] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, int]:
        return {
            "observed": self.observed,
            "skipped": self.skipped,
            "expanded": self.expanded,
            "distinct_pcs": len(self.per_pc_observations),
        }


class ConservativeStateManager:
    """PC-indexed repository of conservative simulation states."""

    def __init__(self, strategy: Optional[MergeStrategy] = None,
                 constraints: Optional[ConstraintSet] = None):
        self.strategy = strategy or UberConservative()
        self.constraints = constraints
        self.repository: Dict[int, List[SimState]] = {}
        self.stats = CSMStats()
        self._expanded: Dict[int, set] = {}

    def observe(self, pc: int, state: SimState) -> CSMDecision:
        """Present a halted simulation state observed at ``pc``."""
        self.stats.observed += 1
        self.stats.per_pc_observations[pc] = \
            self.stats.per_pc_observations.get(pc, 0) + 1
        entries = self.repository.setdefault(pc, [])
        covered, resume = self.strategy.observe(entries, state)
        if covered:
            self.stats.skipped += 1
            return CSMDecision(pc, True, None)
        if self.constraints is not None and resume is not None:
            resume = self.constraints.apply(resume)
        # Expansion memo: if this exact resume state was already pushed for
        # this PC, its successors have been explored -- treat as covered.
        # (Essential with constraints: a constrained super-state may not
        # strictly cover every raw observation, and without the memo the
        # same expansion would be re-issued forever.)
        memo = self._expanded.setdefault(pc, set())
        fp = resume.fingerprint()
        if fp in memo:
            self.stats.skipped += 1
            return CSMDecision(pc, True, None)
        memo.add(fp)
        self.stats.expanded += 1
        return CSMDecision(pc, False, resume)

    # -- snapshot / restore (checkpointing) --------------------------------
    #: bump when the snapshot layout changes
    SNAPSHOT_VERSION = 1

    def snapshot_state(self) -> dict:
        """Full picklable snapshot of the manager: repository, expansion
        memo, and statistics.  Used by the resilience layer to journal
        Algorithm 1 runs; pair with :meth:`restore_state`."""
        import copy
        return {
            "version": self.SNAPSHOT_VERSION,
            "strategy": self.strategy.name,
            "repository": {pc: [s.copy() for s in states]
                           for pc, states in self.repository.items()},
            "expanded": {pc: set(memo)
                         for pc, memo in self._expanded.items()},
            "stats": copy.deepcopy(self.stats),
        }

    def restore_state(self, blob: dict) -> None:
        """Restore a snapshot taken by :meth:`snapshot_state` in place.

        The configured merge strategy must match the one the snapshot
        was taken under -- resuming with a different strategy would
        silently change coverage decisions.
        """
        version = blob.get("version")
        if version != self.SNAPSHOT_VERSION:
            raise ValueError(f"CSM snapshot v{version} is not supported "
                             f"(this build reads v{self.SNAPSHOT_VERSION})")
        if blob["strategy"] != self.strategy.name:
            raise ValueError(
                f"CSM snapshot was taken with strategy "
                f"{blob['strategy']!r}, not {self.strategy.name!r}")
        self.repository = blob["repository"]
        self._expanded = blob["expanded"]
        self.stats = blob["stats"]

    # -- introspection ---------------------------------------------------
    def states_for(self, pc: int) -> List[SimState]:
        return list(self.repository.get(pc, []))

    def pcs(self) -> List[int]:
        return sorted(self.repository)

    def total_states(self) -> int:
        return sum(len(v) for v in self.repository.values())

    def conservatism(self) -> int:
        """Total X bits across the repository -- a coarse measure of how
        much over-approximation the strategy has introduced."""
        return sum(s.count_x() for states in self.repository.values()
                   for s in states)
