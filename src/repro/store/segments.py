"""Memoized segment results: replay settled segments instead of
re-simulating them.

A segment's outcome is a pure function of (run configuration, entry
state, forced branch decision): the engines are deterministic, so a
re-run with an identical :class:`~repro.store.fingerprint.RunFingerprint`
will pop the same pending paths and simulate the same segments.
:class:`SegmentResultCache` keys each settled segment on the run digest
plus the entry-state content and serves the recorded
:class:`~repro.coanalysis.kernel.SegmentResult` -- outcome, end PC,
cycle count, end state, and the per-segment activity planes the kernel
folds into the toggle profile -- turning the second submission of the
same (binary, netlist, CSM) into near-free cache hits.

Records are content-addressed blobs in a :class:`ContentStore`; the
key->digest index is one JSON manifest per run fingerprint, flushed at
checkpoint boundaries and at run end.  A crash between flushes leaves
orphan blobs (reclaimed by ``repro store gc``), never a torn index, and
a corrupt record is treated as a miss and dropped -- the cache
self-heals by re-simulating.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from typing import Dict, Optional

from .content import ContentStore, StoreError

#: the segment outcomes a backend reports; a stored record naming any
#: other outcome is unreplayable
_CACHEABLE = ("done", "halt", "budget")


class SegmentResultCache:
    """Digest-keyed memo of settled segments for one run fingerprint."""

    def __init__(self, store: ContentStore, run_digest: str):
        self._store = store
        self.run_digest = run_digest
        self.manifest_name = f"segments-{run_digest}"
        self.hits = 0
        self.misses = 0
        try:
            manifest = store.get_manifest(self.manifest_name)
        except StoreError:
            manifest = None     # corrupt index: start fresh, re-simulate
        segments = (manifest or {}).get("segments", {})
        self._index: Dict[str, str] = dict(segments) \
            if isinstance(segments, dict) else {}
        self._dirty = False

    def __len__(self) -> int:
        return len(self._index)

    # -- keying -------------------------------------------------------------
    def key(self, state, forced_decision: Optional[int]) -> str:
        """Content key of one pending path under this run fingerprint."""
        h = hashlib.sha256()
        h.update(self.run_digest.encode("ascii"))
        h.update(struct.pack("<qq", state.cycle,
                             -1 if state.pc is None else state.pc))
        h.update(b"f" if forced_decision is None
                 else str(forced_decision).encode("ascii"))
        h.update(state.fingerprint())
        return h.hexdigest()

    # -- lookup / store -----------------------------------------------------
    def lookup(self, key: str):
        """Return the memoized SegmentResult for ``key``, or ``None``.

        Any decode or integrity failure counts as a miss and evicts the
        entry, so one corrupt blob costs one re-simulation, not a crash.
        """
        from ..coanalysis.kernel import SegmentResult
        from ..sim.state import SimState
        digest = self._index.get(key)
        if digest is None:
            self.misses += 1
            return None
        try:
            record = pickle.loads(self._store.get_bytes(digest))
            outcome, end_pc, cycles, state_bytes, exercised, activity = \
                record
            if outcome not in _CACHEABLE or activity is None:
                raise ValueError(f"unreplayable record ({outcome})")
            end_state = SimState.from_bytes(state_bytes) \
                if state_bytes is not None else None
        except Exception:
            del self._index[key]
            self._dirty = True
            self.misses += 1
            return None
        self.hits += 1
        return SegmentResult(outcome, end_pc, cycles, end_state,
                             exercised, activity)

    def store(self, key: str, segment) -> bool:
        """Memoize one settled segment; returns True when recorded."""
        if segment.outcome not in _CACHEABLE or segment.activity is None:
            return False
        record = (segment.outcome, segment.end_pc, segment.cycles,
                  segment.end_state.to_bytes()
                  if segment.end_state is not None else None,
                  segment.exercised, segment.activity)
        digest = self.store_blob(pickle.dumps(
            record, protocol=pickle.HIGHEST_PROTOCOL))
        self._index[key] = digest
        self._dirty = True
        return True

    def store_blob(self, blob: bytes) -> str:
        return self._store.put_bytes(blob)

    # -- persistence --------------------------------------------------------
    def flush(self) -> None:
        """Write the key->blob index as one atomic manifest."""
        if not self._dirty:
            return
        self._store.put_manifest(self.manifest_name, {
            "kind": "segments",
            "run": self.run_digest,
            "segments": dict(self._index),
        })
        self._dirty = False
