"""Canonical content fingerprints for the core domain objects.

Every artifact-producing layer used to invent its own cache keying: the
reporting grid pickled results under name-string paths guarded by a
hand-bumped version constant, compile caching keyed on object
identity.  This module gives the four domain objects one stable digest
each, so caches built on them *self-invalidate* the moment the
underlying content actually changes -- no constant to remember to bump:

* :func:`fingerprint_netlist` -- the circuit's structure (named nets,
  cell kinds, connections), independent of construction order and of
  instance names;
* :func:`fingerprint_csm` -- the Conservative State Manager
  configuration (merge strategy + parameters + constraint set);
* :func:`fingerprint_workload` -- the application binary as assembled
  (program words, data image, symbolic input ranges);
* :func:`run_fingerprint` -- the whole run configuration, combining the
  three above with the engine kind, frontier strategy, cycle budgets and
  :data:`ENGINE_SEMANTICS_VERSION`.

Digests are hex sha256 over length-prefixed canonical encodings, so no
concatenation ambiguity exists and equal digests mean equal content.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Optional

#: bump when the *meaning* of a simulated segment changes (halting
#: policy, activity recording, forced-branch semantics, state layout):
#: memoized segment results and cached runs from older semantics must
#: not be replayed into a run with newer ones.  This is the one version
#: constant left, and it guards semantics -- content changes (netlist,
#: CSM config, binary) invalidate through their own digests.
#:
#: v2: the SimBackend unification (one shared segment loop for serial /
#: event / pool) and streaming lane compaction in the batch engine; the
#: batch engine's lane capacity joined the fingerprint (``lanes``).
ENGINE_SEMANTICS_VERSION = 2


def digest_parts(*parts) -> str:
    """sha256 over length-prefixed parts (no concatenation ambiguity)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        h.update(struct.pack("<Q", len(part)))
        h.update(part)
    return h.hexdigest()


def fingerprint_netlist(netlist) -> str:
    """Structural digest of a netlist.

    Canonicalizes to sorted, name-based lines (see
    :meth:`~repro.netlist.netlist.Netlist.structural_lines`), so the
    digest survives re-parsing, Verilog round-trips, and construction in
    a different order -- and changes on any cell or connection edit.
    """
    return digest_parts("netlist/v1", "\n".join(netlist.structural_lines()))


def fingerprint_csm(strategy=None, constraints=None) -> str:
    """Digest of a CSM configuration: merge strategy + constraint set.

    Strategy parameters are taken from the instance's primitive
    attributes (e.g. ``Clustered.k``), so ``clustered2`` and
    ``clustered4`` fingerprint differently without the strategy class
    having to know about caching.
    """
    parts = ["csm/v1"]
    if strategy is None:
        parts.append("strategy=none")
    else:
        parts.append(f"strategy={strategy.name}")
        for key in sorted(vars(strategy)):
            value = vars(strategy)[key]
            if isinstance(value, (bool, int, float, str)):
                parts.append(f"param:{key}={value!r}")
    if constraints is None:
        parts.append("constraints=none")
    else:
        parts.extend(constraints.canonical_lines())
    return digest_parts(*parts)


def fingerprint_workload(design: str, program, data_init=None,
                         symbolic_ranges=None) -> str:
    """Digest of an application binary as the core will execute it.

    Covers the assembled program words (not the assembly text -- a
    comment edit must not invalidate), the initial data image, and the
    symbolic input ranges that define what the co-analysis treats as
    unknown.
    """
    parts = ["workload/v1", f"design={design}",
             f"word_width={program.word_width}",
             ",".join(str(w) for w in program.words)]
    for addr in sorted(data_init or {}):
        parts.append(f"data:{addr}={data_init[addr]}")
    for start, end in sorted(symbolic_ranges or []):
        parts.append(f"symbolic:{start}:{end}")
    return digest_parts(*parts)


@dataclass(frozen=True)
class RunFingerprint:
    """A run-configuration digest plus its per-component breakdown.

    ``components`` goes into run manifests verbatim, so ``repro store
    ls`` can show *which* ingredient changed between two runs that
    failed to share a cache.
    """

    digest: str
    components: Dict[str, object]

    def __str__(self) -> str:
        return self.digest


def run_fingerprint(*, netlist, strategy=None, constraints=None,
                    design: str = "?", application: str = "?",
                    program=None, data_init=None, symbolic_ranges=None,
                    engine: str = "serial", frontier: str = "dfs",
                    max_cycles_per_path: int = 20000,
                    max_total_cycles: Optional[int] = 2_000_000,
                    ) -> RunFingerprint:
    """Fingerprint one full co-analysis configuration.

    Two runs with equal digests simulate the same binary on the same
    netlist under the same CSM, engine, frontier and budgets -- their
    segment results are interchangeable and their
    :class:`~repro.coanalysis.results.CoAnalysisResult` is reusable.
    """
    from ..sim.planes import LANE_CAPACITY
    from ..sim.state import STATE_FORMAT_VERSION
    components: Dict[str, object] = {
        "design": design,
        "application": application,
        "netlist": fingerprint_netlist(netlist),
        "csm": fingerprint_csm(strategy, constraints),
        "workload": (fingerprint_workload(design, program, data_init,
                                          symbolic_ranges)
                     if program is not None else "none"),
        "engine": engine,
        # the batch engine's plane width (None on every other engine);
        # runs recorded while the width was a run option stored these
        # same values, so their digests still match
        "lanes": LANE_CAPACITY if engine == "batch" else None,
        "frontier": frontier,
        "max_cycles_per_path": max_cycles_per_path,
        "max_total_cycles": max_total_cycles,
        "semantics": ENGINE_SEMANTICS_VERSION,
        "state_format": STATE_FORMAT_VERSION,
    }
    digest = digest_parts(
        "run/v1", *(f"{key}={components[key]}"
                    for key in sorted(components)))
    return RunFingerprint(digest, components)
