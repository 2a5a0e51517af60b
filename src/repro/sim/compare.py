"""Lockstep engine comparison.

When porting a design into this tool (or after modifying an engine), the
first question is "do both simulators agree, and if not, where first?".
:func:`lockstep_compare` runs two engines side by side over a stimulus
sequence and reports the first divergence with full context -- the
debugging utility behind the paper's "event list matches the baseline"
validation.

By default the two legs are the event kernel and the vectorized cycle
engine.  ``engines`` swaps either leg: a name (``"event"``,
``"cycle"``, ``"batch"``) builds a fresh simulator -- ``"batch"``
allocates one lane of a :class:`~repro.sim.batch_sim.BatchCycleSim`
and drives its :class:`~repro.sim.batch_sim.LaneView` -- or pass an
already-built CycleSim-compatible object (a ``LaneView`` of a wider
sim, an :class:`~repro.coanalysis.executors.EventSimBridge`, ...)
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from ..logic.value import Logic
from ..netlist.netlist import Netlist
from .cycle_sim import CycleSim, compile_netlist
from .event_sim import EventSim


@dataclass
class Divergence:
    """First point where the two engines disagreed.

    ``event_value``/``cycle_value`` keep their historical names: they
    are the first (reference) and second (candidate) leg's values,
    whatever engines those legs run.
    """

    cycle: int
    net: int
    net_name: str
    event_value: Logic
    cycle_value: Logic

    def __str__(self) -> str:
        return (f"cycle {self.cycle}: net {self.net_name!r} -- "
                f"reference engine {self.event_value}, "
                f"candidate engine {self.cycle_value}")


@dataclass
class CompareResult:
    cycles_run: int
    divergence: Optional[Divergence] = None

    @property
    def equivalent(self) -> bool:
        return self.divergence is None


class _Leg:
    """One comparison leg: an engine plus its stimulus/step dialect."""

    def __init__(self, engine: Union[str, object], netlist: Netlist,
                 compiled):
        if engine == "event":
            engine = EventSim(netlist)
        elif engine == "cycle":
            engine = CycleSim(compiled)
        elif engine == "batch":
            from .batch_sim import BatchCycleSim
            batch = BatchCycleSim(compiled)
            engine = batch.lane_view(batch.alloc_lane())
        elif isinstance(engine, str):
            raise ValueError(f"unknown engine {engine!r}; known: "
                             f"'event', 'cycle', 'batch' (or pass a "
                             f"CycleSim-compatible object)")
        self.sim = engine
        self.event_style = isinstance(engine, EventSim)

    def apply(self, inputs: Dict[str, Logic]) -> None:
        if self.event_style:
            for name, value in inputs.items():
                self.sim.poke_by_name(name, value)
        else:
            for name, value in inputs.items():
                self.sim.set_input(name, value)

    def step(self) -> None:
        if self.event_style:
            self.sim.tick()
            self.sim.settle()
        else:
            self.sim.settle()
            self.sim.clock_edge()
            self.sim.settle()

    def get(self, net: int) -> Logic:
        if self.event_style:
            return self.sim.get_logic(net)
        return self.sim.get_net(net)


def lockstep_compare(netlist: Netlist,
                     stimulus: Sequence[Dict[str, Logic]],
                     engines: Tuple[Union[str, object],
                                    Union[str, object]] = ("event",
                                                           "cycle"),
                     ) -> CompareResult:
    """Run both engines over ``stimulus`` (one dict of input-name ->
    value per cycle) and compare every net every cycle.

    ``engines`` names (or provides) the reference and candidate legs;
    the default pair reproduces the historical event-vs-cycle check.
    """
    nets = range(len(netlist.nets))
    compiled = compile_netlist(netlist)
    ref = _Leg(engines[0], netlist, compiled)
    cand = _Leg(engines[1], netlist, compiled)
    for cycle, inputs in enumerate(stimulus):
        ref.apply(inputs)
        cand.apply(inputs)
        ref.step()
        cand.step()
        for net in nets:
            rv = ref.get(net)
            cv = cand.get(net)
            if rv is not cv:
                return CompareResult(
                    cycles_run=cycle + 1,
                    divergence=Divergence(cycle, net,
                                          netlist.net_name(net), rv, cv))
    return CompareResult(cycles_run=len(stimulus))
