"""Bespoke-netlist validation (paper section 5.0.1).

Three validation modes (``mode=`` argument):

* ``"sim"`` -- the paper's spot-check: simulate the application with
  fixed known inputs on both netlists and verify the observable
  behaviour (PC trace, store stream, final data memory) is identical,
  plus the **subset property**: the set of nets exercised by any
  fixed-input run must be a subset of the exercisable set reported by
  symbolic co-analysis (otherwise the analysis missed behaviour and
  pruning would be unsound).
* ``"sat"`` -- the formal check: a SAT miter
  (:mod:`repro.equiv.miter`) proves the two netlists agree on *every*
  input/state the co-analysis assumptions permit, not just the sampled
  cases; a SAT answer is replayed through ``CycleSim``
  (:mod:`repro.equiv.cex`) before it is reported as a real divergence.
* ``"both"`` -- run both; ``ok`` requires both to pass.

A fourth property, **non-interference** (simulator enhancements must not
change event streams for non-symbolic runs), is tested in the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..coanalysis.concrete import ConcreteRun, run_concrete
from ..coanalysis.results import CoAnalysisResult
from ..coanalysis.target import SymbolicTarget

VALIDATION_MODES = ("sim", "sat", "both")
#: data-memory words (from address 0) a spot-check compares after a run
DMEM_COMPARE_WORDS = 128


@dataclass
class ValidationReport:
    """Outcome of validating one bespoke netlist."""

    cases_run: int = 0
    behaviour_match: bool = True
    subset_ok: bool = True
    all_finished: bool = True
    original_gates: int = 0
    bespoke_gates: int = 0
    mismatches: List[str] = field(default_factory=list)
    mode: str = "sim"
    #: formal result (mode "sat"/"both"): UNSAT / SAT / UNKNOWN / ""
    equiv_status: str = ""
    #: the full :class:`repro.equiv.miter.EquivOutcome` summary dict
    equiv: Dict[str, object] = field(default_factory=dict)
    #: replay verdict for a SAT witness (see :mod:`repro.equiv.cex`)
    equiv_replay: Dict[str, object] = field(default_factory=dict)

    @property
    def sim_ok(self) -> bool:
        return (self.behaviour_match and self.subset_ok
                and self.all_finished and self.cases_run > 0)

    @property
    def equiv_ok(self) -> bool:
        return self.equiv_status == "UNSAT"

    @property
    def ok(self) -> bool:
        if self.mode == "sat":
            return self.equiv_ok
        if self.mode == "both":
            return self.sim_ok and self.equiv_ok
        return self.sim_ok


def _observable(run: ConcreteRun) -> Dict[str, object]:
    mem = run.final_sim.memories["dmem"]
    words = []
    for addr in range(DMEM_COMPARE_WORDS):
        w = mem.read_concrete(addr)
        words.append(w.to_int() if w.is_known else str(w))
    return {
        "pc_trace": run.pc_trace,
        "writes": run.write_trace,
        "dmem": words,
        "finished": run.finished,
    }


def validate_bespoke(original: SymbolicTarget, bespoke: SymbolicTarget,
                     analysis: CoAnalysisResult,
                     cases: Sequence[Dict[int, int]],
                     max_cycles: int = 20000,
                     mode: str = "sim",
                     unroll: int = 1,
                     max_conflicts: Optional[int] = None,
                     csm_states=None,
                     tracer=None) -> ValidationReport:
    """Validate a bespoke netlist against its original.

    ``mode`` selects simulation spot-checks (``"sim"``), the formal SAT
    miter (``"sat"``), or both.  ``unroll``/``max_conflicts``/
    ``csm_states`` (CSM ``SimState`` objects restricting frame-0 state)
    parameterize the formal check (see
    :func:`repro.equiv.miter.check_equivalence`); ``tracer`` receives
    the typed equivalence events.
    """
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}; "
                         f"known: {', '.join(VALIDATION_MODES)}")
    report = ValidationReport(
        original_gates=original.netlist.gate_count(),
        bespoke_gates=bespoke.netlist.gate_count(),
        mode=mode)
    if mode in ("sat", "both"):
        _validate_formal(report, original, bespoke, analysis,
                         unroll=unroll, max_conflicts=max_conflicts,
                         csm_states=csm_states, tracer=tracer)
    if mode == "sat":
        return report
    exercisable = analysis.profile.exercised_nets()

    for i, case in enumerate(cases):
        run_orig = run_concrete(original, case, max_cycles=max_cycles)
        run_besp = run_concrete(bespoke, case, max_cycles=max_cycles)
        report.cases_run += 1
        if not (run_orig.finished and run_besp.finished):
            report.all_finished = False
            report.mismatches.append(
                f"case {i}: original finished={run_orig.finished}, "
                f"bespoke finished={run_besp.finished}")
            continue
        obs_o = _observable(run_orig)
        obs_b = _observable(run_besp)
        if obs_o != obs_b:
            report.behaviour_match = False
            for key in obs_o:
                if obs_o[key] != obs_b[key]:
                    report.mismatches.append(
                        f"case {i}: {key} differs "
                        f"(original {_clip(obs_o[key])} vs bespoke "
                        f"{_clip(obs_b[key])})")
        # subset property on the original netlist's activity
        extra = run_orig.exercised_nets & ~exercisable
        if extra.any():
            report.subset_ok = False
            names = [original.netlist.net_name(j)
                     for j in np.flatnonzero(extra)[:5]]
            report.mismatches.append(
                f"case {i}: {int(extra.sum())} nets exercised concretely "
                f"but not reported exercisable, e.g. {names}")
    return report


def _validate_formal(report: ValidationReport, original: SymbolicTarget,
                     bespoke: SymbolicTarget, analysis: CoAnalysisResult,
                     unroll: int, max_conflicts: Optional[int],
                     csm_states, tracer) -> None:
    """The SAT leg: miter check plus counterexample replay."""
    from ..equiv import (DEFAULT_MAX_CONFLICTS, check_equivalence,
                         replay_witness)
    outcome = check_equivalence(
        original.netlist, bespoke.netlist, profile=analysis.profile,
        unroll=unroll,
        max_conflicts=max_conflicts or DEFAULT_MAX_CONFLICTS,
        csm_states=csm_states,
        state_positions=original.state_net_positions()
        if csm_states is not None else None,
        design=analysis.design, tracer=tracer)
    report.equiv_status = outcome.status
    report.equiv = outcome.summary()
    if outcome.status == "SAT":
        replay = replay_witness(original.netlist, bespoke.netlist,
                                outcome.witness, unroll=unroll)
        report.equiv_replay = replay.summary()
        verdict = "confirmed by CycleSim replay" if replay.confirmed \
            else "NOT reproduced in simulation (assumption gap or " \
                 "encoder bug)"
        report.mismatches.append(
            f"formal: miter SAT at {outcome.diff_point}; {verdict}")
    elif outcome.status == "UNKNOWN":
        report.mismatches.append(
            f"formal: {outcome.detail or 'solver budget exhausted'}")


def _clip(value, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."
