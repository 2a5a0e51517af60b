"""Netlist reporting: composition, fanout, and per-block breakdowns.

Synthesis-style reports a user expects from a netlist tool: cell-kind
histograms, area by functional block (inferred from instance-name
prefixes), and fanout distribution.  Used by the examples and handy when
inspecting what bespoke pruning actually removed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .netlist import Netlist

_PREFIX_RE = re.compile(r"^([A-Za-z]+(?:_[A-Za-z]+)*?)_?\d")


def block_of(instance_name: str) -> str:
    """Functional-block key for an instance (name prefix heuristic)."""
    m = _PREFIX_RE.match(instance_name)
    return m.group(1) if m else instance_name


@dataclass
class NetlistReport:
    """Structured composition report for one netlist."""

    name: str
    gates: int
    flops: int
    nets: int
    area: float
    by_kind: Dict[str, int]
    by_block: Dict[str, Tuple[int, float]]      # block -> (gates, area)
    max_fanout: int
    avg_fanout: float

    def render(self) -> str:
        lines = [f"Netlist report: {self.name}",
                 f"  gates {self.gates} (flops {self.flops}), "
                 f"nets {self.nets}, area {self.area:.1f}",
                 f"  fanout: max {self.max_fanout}, "
                 f"avg {self.avg_fanout:.2f}",
                 "  cells:"]
        for kind, count in sorted(self.by_kind.items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"    {kind:<6} {count}")
        lines.append(f"  top blocks by area:")
        ranked = sorted(self.by_block.items(), key=lambda kv: -kv[1][1])
        for block, (count, area) in ranked[:12]:
            lines.append(f"    {block:<14} {count:>5} gates  "
                         f"{area:>9.1f} area")
        return "\n".join(lines)


def report(netlist: Netlist) -> NetlistReport:
    by_kind: Dict[str, int] = {}
    by_block: Dict[str, List[float]] = {}
    for gate in netlist.gates:
        by_kind[gate.kind] = by_kind.get(gate.kind, 0) + 1
        slot = by_block.setdefault(block_of(gate.name), [0, 0.0])
        slot[0] += 1
        slot[1] += gate.cell.area
    fanouts = [len(n.fanout) for n in netlist.nets]
    return NetlistReport(
        name=netlist.name,
        gates=netlist.gate_count(),
        flops=len(netlist.seq_gates),
        nets=len(netlist.nets),
        area=netlist.area(),
        by_kind=by_kind,
        by_block={k: (int(v[0]), v[1]) for k, v in by_block.items()},
        max_fanout=max(fanouts, default=0),
        avg_fanout=(sum(fanouts) / len(fanouts)) if fanouts else 0.0,
    )


def diff_blocks(before: Netlist, after: Netlist) -> List[Tuple[str, int,
                                                               int]]:
    """Per-block gate counts before vs after (what pruning removed)."""
    rb = report(before).by_block
    ra = report(after).by_block
    out = []
    for block in sorted(set(rb) | set(ra)):
        out.append((block, rb.get(block, (0, 0.0))[0],
                    ra.get(block, (0, 0.0))[0]))
    return out


def diff_kinds(before: Netlist,
               after: Netlist) -> List[Tuple[str, int, int, int]]:
    """Per-cell-kind gate counts before vs after pruning.

    Returns ``(kind, before, after, removed)`` rows, biggest removal
    first.  ``removed`` can be negative: re-synthesis introduces tie
    cells that did not exist in the original.
    """
    rb = report(before).by_kind
    ra = report(after).by_kind
    rows = []
    for kind in set(rb) | set(ra):
        b, a = rb.get(kind, 0), ra.get(kind, 0)
        rows.append((kind, b, a, b - a))
    rows.sort(key=lambda row: (-row[3], row[0]))
    return rows


def pruned_breakdown(before: Netlist, after: Netlist) -> str:
    """Render the per-kind pruning breakdown for the bespoke report."""
    lines = [f"  {'cell':<6} {'before':>7} {'after':>7} {'removed':>8}"]
    for kind, b, a, removed in diff_kinds(before, after):
        lines.append(f"  {kind:<6} {b:>7} {a:>7} {removed:>8}")
    total_b = before.gate_count()
    total_a = after.gate_count()
    lines.append(f"  {'total':<6} {total_b:>7} {total_a:>7} "
                 f"{total_b - total_a:>8}")
    return "\n".join(lines)
