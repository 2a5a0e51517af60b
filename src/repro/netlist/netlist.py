"""Gate-level netlist intermediate representation.

Every tool in this package -- both simulation engines, the co-analysis
engine, the bespoke pruner/re-synthesizer, and the Verilog reader/writer --
operates on :class:`Netlist`.  It is a flat, single-clock-domain gate
network:

* **Nets** are integer-indexed and named.  Each net has at most one driver
  (a gate output or a primary input).
* **Gates** are instances of primitive :mod:`~repro.netlist.cells` kinds.
* Primary inputs/outputs are ordered lists of net indices.

The IR is deliberately flat: the paper's flow simulates *placed-and-routed
gate-level netlists*, which are flat by construction.  Hierarchical designs
are flattened during RTL elaboration (:mod:`repro.rtl.elaborate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .cells import SEQ_KINDS, CellKind, kind as cell_kind


class NetlistError(Exception):
    """Structural problem in a netlist (multiple drivers, comb loop, ...)."""


@dataclass
class Gate:
    """A primitive cell instance.

    Attributes:
        index:  position in :attr:`Netlist.gates`.
        name:   unique instance name.
        kind:   cell kind name (key into the cell library).
        inputs: driven-by net indices, in the kind's pin order.
        output: net index this gate drives.
    """

    index: int
    name: str
    kind: str
    inputs: Tuple[int, ...]
    output: int

    @property
    def is_sequential(self) -> bool:
        return self.kind in SEQ_KINDS

    @property
    def cell(self) -> CellKind:
        return cell_kind(self.kind)


@dataclass
class Net:
    """A single-bit wire."""

    index: int
    name: str
    driver: Optional[int] = None        # gate index, None for PI / floating
    fanout: List[int] = field(default_factory=list)  # gate indices


class Netlist:
    """A flat gate-level design."""

    def __init__(self, name: str):
        self.name = name
        self.nets: List[Net] = []
        self.gates: List[Gate] = []
        self.inputs: List[int] = []      # primary input net indices
        self.outputs: List[int] = []     # primary output net indices
        self._net_by_name: Dict[str, int] = {}
        self._gate_by_name: Dict[str, int] = {}
        self._levels: Optional[List[int]] = None  # cached comb levelization
        #: bumped on every structural edit; compiled-netlist caches key
        #: on (identity, version) so post-compile edits force a recompile
        self._mutation_version = 0

    # -- construction -----------------------------------------------------
    def add_net(self, name: str) -> int:
        """Create a net, returning its index.  Names must be unique."""
        if name in self._net_by_name:
            raise NetlistError(f"duplicate net name {name!r}")
        idx = len(self.nets)
        self.nets.append(Net(idx, name))
        self._net_by_name[name] = idx
        self._levels = None
        self._mutation_version += 1
        return idx

    def get_or_add_net(self, name: str) -> int:
        existing = self._net_by_name.get(name)
        if existing is not None:
            return existing
        return self.add_net(name)

    def add_gate(self, name: str, kind_name: str,
                 inputs: Sequence[int], output: int) -> int:
        """Instantiate a primitive cell.  Returns the gate index."""
        ck = cell_kind(kind_name)
        if len(inputs) != ck.arity:
            raise NetlistError(
                f"gate {name!r}: kind {kind_name} takes {ck.arity} inputs, "
                f"got {len(inputs)}")
        if name in self._gate_by_name:
            raise NetlistError(f"duplicate gate name {name!r}")
        out_net = self.nets[output]
        if out_net.driver is not None:
            raise NetlistError(
                f"net {out_net.name!r} already driven by gate "
                f"{self.gates[out_net.driver].name!r}")
        if output in self.inputs:
            raise NetlistError(
                f"net {out_net.name!r} is a primary input; cannot drive it")
        idx = len(self.gates)
        gate = Gate(idx, name, kind_name, tuple(inputs), output)
        self.gates.append(gate)
        self._gate_by_name[name] = idx
        out_net.driver = idx
        for i in inputs:
            self.nets[i].fanout.append(idx)
        self._levels = None
        self._mutation_version += 1
        return idx

    def mark_input(self, net: int) -> None:
        if self.nets[net].driver is not None:
            raise NetlistError(
                f"net {self.nets[net].name!r} is driven; cannot be an input")
        self.inputs.append(net)
        self._mutation_version += 1

    def mark_output(self, net: int) -> None:
        self.outputs.append(net)
        self._mutation_version += 1

    # -- lookup ------------------------------------------------------------
    def net_index(self, name: str) -> int:
        try:
            return self._net_by_name[name]
        except KeyError:
            raise NetlistError(f"no net named {name!r}") from None

    def net_name(self, index: int) -> str:
        return self.nets[index].name

    def has_net(self, name: str) -> bool:
        return name in self._net_by_name

    def gate_index(self, name: str) -> int:
        try:
            return self._gate_by_name[name]
        except KeyError:
            raise NetlistError(f"no gate named {name!r}") from None

    def find_nets(self, prefix: str) -> List[int]:
        """All net indices whose name starts with ``prefix``, sorted by any
        trailing ``[i]`` bit index then name."""
        hits = [(n.name, n.index) for n in self.nets
                if n.name.startswith(prefix)]

        def sort_key(item: Tuple[str, int]):
            name, _ = item
            tail = name[len(prefix):].lstrip("[")
            if tail.endswith("]") and tail[:-1].isdigit():
                return (0, int(tail[:-1]), name)
            return (1, 0, name)

        return [idx for _, idx in sorted(hits, key=sort_key)]

    def bus(self, prefix: str, width: int) -> List[int]:
        """Net indices ``prefix[0] .. prefix[width-1]``."""
        return [self.net_index(f"{prefix}[{i}]") for i in range(width)]

    # -- derived views -----------------------------------------------------
    @property
    def seq_gates(self) -> List[Gate]:
        return [g for g in self.gates if g.is_sequential]

    def gate_count(self) -> int:
        return len(self.gates)

    def area(self) -> float:
        return sum(g.cell.area for g in self.gates)

    def stats(self) -> Dict[str, float]:
        by_kind: Dict[str, int] = {}
        for g in self.gates:
            by_kind[g.kind] = by_kind.get(g.kind, 0) + 1
        return {
            "gates": len(self.gates),
            "nets": len(self.nets),
            "flops": len(self.seq_gates),
            "area": round(self.area(), 2),
            **{f"kind:{k}": v for k, v in sorted(by_kind.items())},
        }

    # -- levelization --------------------------------------------------------
    def levelize(self) -> List[int]:
        """Topological level per gate.

        Sequential gates and ties are level 0 (their outputs are sources for
        the combinational phase); a combinational gate's level is one more
        than the max level of its driving gates.  Raises
        :class:`NetlistError` on a combinational cycle.
        """
        if self._levels is not None:
            return self._levels
        levels = [0] * len(self.gates)
        # Kahn's algorithm over combinational edges only.
        indeg = [0] * len(self.gates)
        comb = [not g.is_sequential and g.kind not in ("TIE0", "TIE1")
                for g in self.gates]
        for g in self.gates:
            if not comb[g.index]:
                continue
            for net in g.inputs:
                drv = self.nets[net].driver
                if drv is not None and comb[drv]:
                    indeg[g.index] += 1
        queue = [g.index for g in self.gates
                 if comb[g.index] and indeg[g.index] == 0]
        seen = len(queue)
        head = 0
        while head < len(queue):
            gi = queue[head]
            head += 1
            out_net = self.gates[gi].output
            for succ in self.nets[out_net].fanout:
                if not comb[succ]:
                    continue
                if levels[succ] < levels[gi] + 1:
                    levels[succ] = levels[gi] + 1
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    queue.append(succ)
                    seen += 1
        total_comb = sum(comb)
        if seen != total_comb:
            stuck = [self.gates[i].name for i in range(len(self.gates))
                     if comb[i] and indeg[i] > 0][:5]
            raise NetlistError(
                f"combinational cycle involving gates {stuck} "
                f"({total_comb - seen} gates unresolved)")
        self._levels = levels
        return levels

    def validate(self) -> None:
        """Check structural invariants; raises :class:`NetlistError`."""
        self.levelize()
        for net in self.nets:
            if net.driver is None and net.index not in self.inputs:
                if net.fanout or net.index in self.outputs:
                    raise NetlistError(
                        f"net {net.name!r} is used but has no driver and is "
                        f"not a primary input")

    # -- canonical structure -------------------------------------------------
    def structural_lines(self) -> List[str]:
        """Canonical name-based description of the circuit's structure.

        One sorted line per primary input, primary output, and gate
        (``kind(in_names)->out_name``).  Net and gate *indices*, net
        declaration order, gate instance names, and internal dict
        insertion order do not appear, so two netlists describing the
        same circuit -- built in a different order, re-parsed from
        Verilog, or cloned -- produce identical lines, while any cell or
        connection change produces different ones.  This is the input to
        :func:`repro.store.fingerprint.fingerprint_netlist`.
        """
        lines = sorted(f"input {self.net_name(i)}" for i in set(self.inputs))
        lines += sorted(f"output {self.net_name(i)}"
                        for i in set(self.outputs))
        lines += sorted(
            f"{g.kind}({','.join(self.net_name(i) for i in g.inputs)})"
            f"->{self.net_name(g.output)}"
            for g in self.gates)
        return lines

    # -- rebuilding ----------------------------------------------------------
    def clone(self) -> "Netlist":
        """Deep structural copy."""
        dup = Netlist(self.name)
        for net in self.nets:
            dup.add_net(net.name)
        for net_idx in self.inputs:
            dup.mark_input(net_idx)
        for g in self.gates:
            dup.add_gate(g.name, g.kind, g.inputs, g.output)
        for net_idx in self.outputs:
            dup.mark_output(net_idx)
        return dup
