"""Counterexample replay: confirm SAT witnesses in concrete simulation.

A SAT answer from :func:`~repro.equiv.miter.check_equivalence` claims the
two netlists can disagree.  The claim rests on the encoding being right
*and* on the injected co-analysis assumptions -- either could be wrong,
and a formal tool that reports phantom divergences is worse than none.
So every witness is driven through :class:`~repro.sim.cycle_sim.CycleSim`
(the reference cycle-accurate engine, which shares no code with the CNF
encoder) on both netlists:

* both simulators start from the witness's frame-0 state (flop outputs,
  including the assumed constants the model was built under);
* each frame drives the witness's primary-input values, settles, and
  compares primary outputs; the last frame also clocks both designs and
  compares the matched next-state;
* a reproduced difference is a **confirmed** counterexample -- the
  bespoke netlist really diverges from the original in a state the
  assumptions permit;
* a witness that does *not* replay is flagged: either the co-analysis
  assumptions exclude the witness state in a way the miter could not see
  (an assumption gap worth reporting) or the encoder/solver has a bug.

Memories are outside the netlist (accessed through port primary inputs),
so the replay needs no memory model: the witness already fixes what every
"read" returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..logic.value import Logic
from ..netlist.netlist import Netlist
from ..sim.cycle_sim import CycleSim, compile_netlist
from .miter import Miter


@dataclass
class Divergence:
    """One observed original-vs-bespoke difference during replay."""

    kind: str      # "po" | "state"
    name: str
    frame: int
    original: str  # "0" / "1" / "X"
    bespoke: str

    def __str__(self) -> str:
        return (f"{self.kind}:{self.name}@frame{self.frame} "
                f"original={self.original} bespoke={self.bespoke}")


@dataclass
class ReplayResult:
    """Outcome of replaying one witness through :class:`CycleSim`."""

    confirmed: bool                 # the simulators really diverged
    frames: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    note: str = ""

    @property
    def first(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None

    def summary(self) -> Dict[str, object]:
        return {
            "confirmed": self.confirmed,
            "frames": self.frames,
            "divergences": [str(d) for d in self.divergences[:8]],
            "note": self.note,
        }


def _logic(bit: int) -> Logic:
    return Logic.L1 if bit else Logic.L0


def _fmt(value: Logic) -> str:
    if value is Logic.X:
        return "X"
    return "1" if value is Logic.L1 else "0"


def _load_state(sim: CycleSim, netlist: Netlist,
                state: Dict[str, int]) -> None:
    for name, bit in state.items():
        if netlist.has_net(name):
            sim.set_net(netlist.net_index(name), _logic(bit))


def _drive_inputs(sim: CycleSim, netlist: Netlist,
                  inputs: Dict[str, int]) -> None:
    for name, bit in inputs.items():
        if netlist.has_net(name):
            idx = netlist.net_index(name)
            if idx in netlist.inputs:
                sim.set_net(idx, _logic(bit))


def replay_witness(original: Netlist, bespoke: Netlist,
                   witness: Dict[str, object],
                   unroll: int = 1) -> ReplayResult:
    """Replay a miter witness through both netlists, cycle by cycle.

    ``witness`` is the payload produced by the miter's extraction:
    ``{"state": {net: bit}, "inputs": [{net: bit}, ...]}`` over the
    original netlist's names.  Returns a :class:`ReplayResult` whose
    ``confirmed`` says whether concrete simulation reproduced *any*
    divergence the SAT model promised.
    """
    sim_o = CycleSim(compile_netlist(original))
    sim_b = CycleSim(compile_netlist(bespoke))

    state = dict(witness.get("state", {}))
    frames: List[Dict[str, int]] = list(witness.get("inputs", []))
    if not frames:
        frames = [{}]
    frames = frames[:unroll] if unroll else frames

    _load_state(sim_o, original, state)
    _load_state(sim_b, bespoke, state)

    result = ReplayResult(confirmed=False, frames=len(frames))
    matched_flops = [original.net_name(g.output)
                     for g in original.seq_gates
                     if bespoke.has_net(original.net_name(g.output))
                     and any(bg.output ==
                             bespoke.net_index(original.net_name(g.output))
                             for bg in bespoke.seq_gates)]

    for frame, pi_vals in enumerate(frames):
        _drive_inputs(sim_o, original, pi_vals)
        _drive_inputs(sim_b, bespoke, pi_vals)
        sim_o.settle()
        sim_b.settle()
        for oi in original.outputs:
            name = original.net_name(oi)
            if not bespoke.has_net(name):
                continue
            vo = sim_o.get_net(oi)
            vb = sim_b.get_net(bespoke.net_index(name))
            if vo is not vb:
                result.divergences.append(Divergence(
                    "po", name, frame, _fmt(vo), _fmt(vb)))
        sim_o.clock_edge()
        sim_b.clock_edge()
        if frame == len(frames) - 1:
            for name in matched_flops:
                vo = sim_o.get_net(original.net_index(name))
                vb = sim_b.get_net(bespoke.net_index(name))
                if vo is not vb:
                    result.divergences.append(Divergence(
                        "state", name, frame, _fmt(vo), _fmt(vb)))

    result.confirmed = bool(result.divergences)
    if result.confirmed:
        result.note = (f"witness reproduced: {len(result.divergences)} "
                       f"differing observation(s), first {result.first}")
    else:
        result.note = ("witness did NOT replay to a concrete divergence: "
                       "either a co-analysis assumption excludes this "
                       "state in a way the miter cannot express, or the "
                       "CNF encoding/solver has a bug -- investigate")
    return result


def confirm_counterexample(miter: Miter,
                           witness: Dict[str, object]) -> ReplayResult:
    """Replay a witness against the netlists a miter was built from."""
    return replay_witness(miter.original, miter.bespoke, witness,
                          unroll=miter.unroll)


__all__ = ["Divergence", "ReplayResult", "replay_witness",
           "confirm_counterexample"]
