"""Miter construction and equivalence checking (original vs bespoke).

The paper's bespoke flow replaces gates proven unexercisable by symbolic
co-analysis with constant ties and re-synthesizes the survivor logic.
Equivalence between the original and the bespoke netlist therefore only
holds *under the co-analysis assumptions*: the unexercisable nets carry
their observed constants on every reachable cycle.  This module
discharges exactly that obligation with SAT:

* :func:`build_miter` encodes both netlists over one shared
  :class:`~repro.equiv.cnf.StructuralEncoder` -- primary inputs and
  matched flop outputs share variables, the profile's
  unexercisable-constant facts are injected as encode-time constants on
  the original's cut nets and *checked* against the bespoke tie values,
  and every primary-output / next-state pair contributes one XOR to the
  miter.  Structural hashing collapses the (large) identical remainder
  of the two designs, so the CDCL solver only ever sees real
  differences.

* Bounded sequential unrolling: ``unroll=k`` chains ``k`` copies of the
  transition function with fresh primary inputs per frame, comparing
  outputs at every frame and matched next-state at the last.

* Reachable-super-state injection: the CSM's merged states can be
  turned into assumption cubes (:func:`csm_state_cubes`) and checked
  one by one through the solver's assumption interface -- one CNF, many
  initial-state hypotheses.

SAT means the two designs *can* disagree somewhere inside the assumed
cube; the witness is handed to :mod:`repro.equiv.cex` for replay
through :class:`~repro.sim.cycle_sim.CycleSim`.  UNSAT is the proof the
pruning preserved behaviour; UNKNOWN reports a blown conflict budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.netlist import Netlist
from ..sim.activity import ToggleProfile
from .cnf import FALSE_LIT, TRUE_LIT, StructuralEncoder
from .solver import SAT, UNKNOWN, UNSAT, Solver

#: default conflict budget for one equivalence query
DEFAULT_MAX_CONFLICTS = 200_000


class MiterError(Exception):
    """The two netlists cannot be mitered (interface mismatch, ...)."""


@dataclass
class ComparePoint:
    """One output pair the miter compares."""

    kind: str            # "po" | "state"
    name: str            # net name (in the original netlist)
    frame: int
    xor_lit: int         # literal that is true iff the pair differs
    #: True when structural hashing already proved the pair equal
    proved_structurally: bool = False


@dataclass
class Miter:
    """An encoded miter, ready to solve (possibly several times)."""

    original: Netlist
    bespoke: Netlist
    unroll: int
    solver: Solver
    compare_points: List[ComparePoint]
    #: per-frame map: original net index -> literal (frame-0 cut +
    #: everything derived); used for witness extraction
    frame_lits: List[Dict[int, int]]
    #: same for the bespoke netlist
    frame_lits_bespoke: List[Dict[int, int]]
    #: frame-0 cut: original net index -> literal (PIs + flop outputs)
    cut_lits: Dict[int, int]
    #: net indices (original) whose frame-0 value was assumed constant
    assumed_consts: Dict[int, bool]
    n_vars: int = 0
    n_clauses: int = 0
    #: miter disjunction literals actually handed to the solver
    open_points: List[ComparePoint] = field(default_factory=list)

    @property
    def proved_structurally(self) -> int:
        return sum(1 for p in self.compare_points if p.proved_structurally)


@dataclass
class EquivOutcome:
    """Result of one equivalence check."""

    status: str                       # UNSAT / SAT / UNKNOWN
    design: str = ""
    unroll: int = 1
    n_vars: int = 0
    n_clauses: int = 0
    compare_points: int = 0
    proved_structurally: int = 0
    conflicts: int = 0
    decisions: int = 0
    restarts: int = 0
    wall_seconds: float = 0.0
    assumptions_injected: int = 0
    csm_cubes_checked: int = 0
    #: for SAT: the first differing compare point
    diff_point: Optional[str] = None
    #: for SAT: witness values, see :mod:`repro.equiv.cex`
    witness: Optional[dict] = None
    detail: str = ""

    @property
    def equivalent(self) -> bool:
        return self.status == UNSAT

    def summary(self) -> Dict[str, object]:
        out = {
            "status": self.status,
            "design": self.design,
            "unroll": self.unroll,
            "vars": self.n_vars,
            "clauses": self.n_clauses,
            "compare_points": self.compare_points,
            "proved_structurally": self.proved_structurally,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "restarts": self.restarts,
            "assumptions": self.assumptions_injected,
            "csm_cubes": self.csm_cubes_checked,
            "wall_seconds": round(self.wall_seconds, 4),
        }
        if self.diff_point:
            out["diff_point"] = self.diff_point
        if self.detail:
            out["detail"] = self.detail
        return out


def _match_by_name(original: Netlist, bespoke: Netlist,
                   indices: Sequence[int]) -> List[Tuple[int, Optional[int]]]:
    """Map original net indices to bespoke net indices by name."""
    out = []
    for idx in indices:
        name = original.net_name(idx)
        out.append((idx, bespoke.net_index(name)
                    if bespoke.has_net(name) else None))
    return out


def _flop_outputs(netlist: Netlist) -> Dict[str, object]:
    """Flop-output name -> gate, for sequential cells."""
    return {netlist.net_name(g.output): g for g in netlist.seq_gates}


def profile_assumptions(original: Netlist,
                        profile: ToggleProfile) -> Dict[int, bool]:
    """The co-analysis unexercisable-constant facts as net -> value.

    Only *cut* nets (primary inputs and flop outputs) need explicit
    constants -- internal combinational constants then fall out of the
    encoding where they are implied, and are additionally forced for the
    nets the pruner actually tied (so the check mirrors exactly the
    facts the bespoke flow consumed).
    """
    exercised = profile.exercised_nets()
    consts: Dict[int, bool] = {}
    state_nets = set(original.inputs)
    for gate in original.seq_gates:
        state_nets.add(gate.output)
    for net in range(len(original.nets)):
        if exercised[net] or not profile.const_known[net]:
            continue
        consts[net] = bool(profile.const_val[net])
    # restrict to nets that exist (all do) -- keep every constant: the
    # pruning consumed exactly this plane, so the equivalence obligation
    # is stated under the same facts
    return consts


def build_miter(original: Netlist, bespoke: Netlist,
                profile: Optional[ToggleProfile] = None,
                unroll: int = 1) -> Miter:
    """Encode the miter of ``original`` vs ``bespoke``.

    ``profile`` supplies the unexercisable-constant assumptions (pass
    None for an assumption-free miter, e.g. for pure re-synthesis
    checks).  ``unroll`` chains that many transition-function frames.
    """
    if unroll < 1:
        raise MiterError("unroll must be >= 1")
    enc = StructuralEncoder()
    builder = enc.builder

    consts: Dict[int, bool] = {}
    if profile is not None:
        consts.update(profile_assumptions(original, profile))

    orig_flops = _flop_outputs(original)
    besp_flops = _flop_outputs(bespoke)

    # -- frame-0 cut -------------------------------------------------------
    cut_orig: Dict[int, int] = {}
    cut_besp: Dict[int, int] = {}
    # primary inputs: shared variables, matched by name
    po_pairs = _match_by_name(original, bespoke, original.outputs)
    pi_pairs = _match_by_name(original, bespoke, original.inputs)
    for oi, bi in pi_pairs:
        name = original.net_name(oi)
        if oi in consts:
            lit = TRUE_LIT if consts[oi] else FALSE_LIT
        else:
            lit = builder.new_var(f"pi:{name}")
        cut_orig[oi] = lit
        if bi is not None:
            cut_besp[bi] = lit
    # bespoke-only inputs would be an interface break
    besp_input_names = {bespoke.net_name(i) for i in bespoke.inputs}
    orig_input_names = {original.net_name(i) for i in original.inputs}
    extra = besp_input_names - orig_input_names
    if extra:
        raise MiterError(f"bespoke netlist adds primary inputs {sorted(extra)[:4]}")

    # flop outputs: matched flops share a state variable; original-only
    # flops (pruned to ties or swept) take their assumed constant, or a
    # free variable if the profile does not constrain them
    matched_flops: List[Tuple[object, object]] = []
    for name, og in orig_flops.items():
        bg = besp_flops.get(name)
        onet = og.output
        if bg is not None:
            lit = (TRUE_LIT if consts[onet] else FALSE_LIT) \
                if onet in consts else builder.new_var(f"state:{name}")
            cut_orig[onet] = lit
            cut_besp[bg.output] = lit
            matched_flops.append((og, bg))
        else:
            if onet in consts:
                cut_orig[onet] = TRUE_LIT if consts[onet] else FALSE_LIT
            else:
                cut_orig[onet] = builder.new_var(f"state:{name}")
    if set(besp_flops) - set(orig_flops):
        raise MiterError("bespoke netlist adds flops not in the original")

    # internal combinational constants (pruned gates): injected on the
    # original side so its cone folds exactly like the pruner folded the
    # bespoke side.  Cut nets already handled above.
    comb_consts: Dict[int, bool] = {
        net: val for net, val in consts.items() if net not in cut_orig}

    compare_points: List[ComparePoint] = []
    frame_lits: List[Dict[int, int]] = []
    frame_lits_besp: List[Dict[int, int]] = []

    state_o = dict(cut_orig)
    state_b = dict(cut_besp)
    for frame in range(unroll):
        if frame > 0:
            # fresh primary inputs per frame (shared across netlists)
            for oi, bi in pi_pairs:
                name = original.net_name(oi)
                if oi in consts:
                    lit = TRUE_LIT if consts[oi] else FALSE_LIT
                else:
                    lit = builder.new_var(f"pi{frame}:{name}")
                state_o[oi] = lit
                if bi is not None:
                    state_b[bi] = lit
        # the co-analysis facts on internal nets are seeded into the cut
        # *before* encoding, so every reader folds through the assumed
        # constant exactly like the pruner folded the bespoke side; the
        # claim "constant on every reachable cycle" applies per frame
        cut_o = dict(state_o)
        for net, val in comb_consts.items():
            cut_o[net] = TRUE_LIT if val else FALSE_LIT
        lits_o = enc.encode_comb(original, cut_o)
        lits_b = enc.encode_comb(bespoke, state_b)
        frame_lits.append(lits_o)
        frame_lits_besp.append(lits_b)

        # compare primary outputs this frame
        for oi, bi in po_pairs:
            name = original.net_name(oi)
            if bi is None:
                raise MiterError(
                    f"primary output {name!r} missing from bespoke netlist")
            x = enc.xor2(lits_o[oi], lits_b[bi])
            compare_points.append(ComparePoint(
                "po", name, frame, x, proved_structurally=(x == FALSE_LIT)))

        # advance matched state (and compare next-state on the last frame)
        next_o: Dict[int, int] = {}
        next_b: Dict[int, int] = {}
        for og, bg in matched_flops:
            name = original.net_name(og.output)
            no = enc.flop_next_lit(
                og.kind, lits_o[og.output],
                [lits_o[n] for n in og.inputs])
            nb = enc.flop_next_lit(
                bg.kind, lits_b[bg.output],
                [lits_b[n] for n in bg.inputs])
            if frame == unroll - 1:
                x = enc.xor2(no, nb)
                compare_points.append(ComparePoint(
                    "state", name, frame, x,
                    proved_structurally=(x == FALSE_LIT)))
            next_o[og.output] = no
            next_b[bg.output] = nb
        if frame < unroll - 1:
            # original-only flops advance too (their cones may feed the
            # miter in later frames through assumed-free nets)
            for name, og in orig_flops.items():
                if og.output in next_o:
                    continue
                if og.output in comb_consts or og.output in consts:
                    nxt = TRUE_LIT if consts.get(
                        og.output, comb_consts.get(og.output)) else FALSE_LIT
                else:
                    nxt = enc.flop_next_lit(
                        og.kind, lits_o[og.output],
                        [lits_o[n] for n in og.inputs])
                next_o[og.output] = nxt
            state_o = dict(state_o)
            state_o.update(next_o)
            state_b = dict(state_b)
            state_b.update(next_b)

    open_points = [p for p in compare_points if p.xor_lit != FALSE_LIT]
    # a compare point whose XOR folded to constant TRUE is an immediate
    # structural inequivalence; keep it -- the unit clause makes the
    # formula trivially SAT and the witness extraction still works
    miter_clause = [p.xor_lit for p in open_points]
    solver = Solver(builder.n_vars, builder.clauses)
    if miter_clause:
        solver.add_clause(miter_clause)

    return Miter(
        original=original, bespoke=bespoke, unroll=unroll, solver=solver,
        compare_points=compare_points, frame_lits=frame_lits,
        frame_lits_bespoke=frame_lits_besp, cut_lits=cut_orig,
        assumed_consts=consts,
        n_vars=builder.n_vars, n_clauses=builder.n_clauses,
        open_points=open_points)


def csm_state_cubes(miter: Miter, states,
                    state_positions: Dict[str, int]) -> List[List[int]]:
    """Turn CSM super-states into assumption cubes over frame-0 state.

    ``states`` is an iterable of :class:`~repro.sim.state.SimState`
    (the CSM repository's merged states); ``state_positions`` maps state
    net names to bitplane positions (from
    :meth:`~repro.coanalysis.target.SymbolicTarget.state_net_positions`).
    Known bits become literals; ``X`` (merged) bits stay free.  Constant
    (assumed) nets are skipped -- they are already encode-time facts.
    """
    by_pos: Dict[int, int] = {}
    for name, pos in state_positions.items():
        if miter.original.has_net(name):
            net = miter.original.net_index(name)
            lit = miter.cut_lits.get(net)
            if lit is not None and abs(lit) != 1:
                by_pos[pos] = lit
    cubes: List[List[int]] = []
    for state in states:
        cube: List[int] = []
        for pos, lit in by_pos.items():
            if bool(state.net_known[pos]):
                cube.append(lit if bool(state.net_val[pos]) else -lit)
        cubes.append(cube)
    return cubes


def check_equivalence(original: Netlist, bespoke: Netlist,
                      profile: Optional[ToggleProfile] = None,
                      unroll: int = 1,
                      max_conflicts: int = DEFAULT_MAX_CONFLICTS,
                      csm_cubes: Optional[Sequence[Sequence[int]]] = None,
                      csm_states=None,
                      state_positions: Optional[Dict[str, int]] = None,
                      miter: Optional[Miter] = None,
                      design: str = "",
                      tracer=None) -> EquivOutcome:
    """Build (or reuse) a miter and decide equivalence.

    With ``csm_cubes`` (literal cubes over an existing ``miter``) or
    ``csm_states`` + ``state_positions`` (CSM ``SimState`` objects,
    translated against the miter built here) the check runs once per
    cube -- the reachable super-state hypotheses -- through the
    solver's assumption interface and reports SAT as soon as any cube
    admits a divergence; otherwise one unconstrained solve.  ``tracer``
    (a :class:`~repro.coanalysis.trace.Tracer`) receives typed
    ``equiv_start`` / ``equiv_outcome`` events.
    """
    t0 = time.perf_counter()
    if miter is None:
        miter = build_miter(original, bespoke, profile=profile,
                            unroll=unroll)
    if csm_states is not None:
        if state_positions is None:
            raise MiterError("csm_states requires state_positions")
        csm_cubes = csm_state_cubes(miter, csm_states, state_positions)
    if tracer is not None:
        tracer.emit("equiv_start", detail=design or original.name,
                    data={"unroll": miter.unroll, "vars": miter.n_vars,
                          "clauses": miter.n_clauses,
                          "compare_points": len(miter.compare_points)})
    if profile is not None:
        # phase priming: prefer the last settled values, so witnesses
        # stay close to states the co-analysis explored
        phases = {}
        for net, lit in miter.cut_lits.items():
            if abs(lit) != 1 and profile.const_known[net]:
                var = abs(lit)
                val = bool(profile.const_val[net])
                phases[var] = val if lit > 0 else not val
        miter.solver.prime_phases(phases)

    outcome = EquivOutcome(
        status=UNSAT, design=design or original.name, unroll=miter.unroll,
        n_vars=miter.n_vars, n_clauses=miter.n_clauses,
        compare_points=len(miter.compare_points),
        proved_structurally=miter.proved_structurally,
        assumptions_injected=len(miter.assumed_consts))

    if not miter.open_points:
        # every compare point collapsed structurally: equivalence holds
        # by construction, no search needed
        outcome.detail = "all compare points proved structurally"
    else:
        cubes = list(csm_cubes) if csm_cubes else [[]]
        status = UNSAT
        for cube in cubes:
            res = miter.solver.solve(cube, max_conflicts=max_conflicts)
            outcome.conflicts += res.conflicts
            outcome.decisions += res.decisions
            outcome.restarts += res.restarts
            outcome.csm_cubes_checked += 1
            if res.status == SAT:
                status = SAT
                outcome.witness = _extract_witness(miter, res)
                outcome.diff_point = _first_diff_point(miter, res)
                break
            if res.status == UNKNOWN:
                status = UNKNOWN
                outcome.detail = (f"conflict budget ({max_conflicts}) "
                                  f"exhausted")
                break
        outcome.status = status
    outcome.wall_seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.emit("equiv_outcome", outcome=outcome.status,
                    detail=outcome.diff_point or outcome.detail,
                    data={"conflicts": outcome.conflicts,
                          "wall_seconds": round(outcome.wall_seconds, 6),
                          "proved_structurally":
                              outcome.proved_structurally})
    return outcome


def _extract_witness(miter: Miter, res) -> dict:
    """Project a SAT model onto the miter's input space.

    Returns ``{"inputs": [frame -> {net name: bit}], "state": {net
    name: bit}}`` over the *original* netlist's name space; assumed
    constants are included so the replay can start from a complete
    state.
    """
    nl = miter.original
    state: Dict[str, int] = {}
    seq_outputs = {g.output for g in nl.seq_gates}
    for net, lit in miter.cut_lits.items():
        if net in nl.inputs and net not in seq_outputs:
            continue
        state[nl.net_name(net)] = _lit_value(res, lit)
    inputs: List[Dict[str, int]] = []
    for frame in range(miter.unroll):
        vals: Dict[str, int] = {}
        for net in nl.inputs:
            lit = miter.frame_lits[frame].get(net)
            if lit is None:
                lit = miter.cut_lits[net]
            vals[nl.net_name(net)] = _lit_value(res, lit)
        inputs.append(vals)
    return {"state": state, "inputs": inputs}


def _lit_value(res, lit: int) -> int:
    if lit == TRUE_LIT:
        return 1
    if lit == FALSE_LIT:
        return 0
    v = res.value(lit)
    return int(bool(v))


def _first_diff_point(miter: Miter, res) -> Optional[str]:
    for p in miter.compare_points:
        if p.xor_lit == FALSE_LIT:
            continue
        if p.xor_lit == TRUE_LIT or res.value(p.xor_lit):
            return f"{p.kind}:{p.name}@frame{p.frame}"
    return None


__all__ = [
    "Miter", "MiterError", "ComparePoint", "EquivOutcome",
    "build_miter", "check_equivalence", "csm_state_cubes",
    "profile_assumptions", "DEFAULT_MAX_CONFLICTS",
]
