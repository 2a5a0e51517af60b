"""Re-synthesis after pruning: constant folding, buffer sweep, dead-logic
removal.

This stands in for the Design Compiler re-synthesis step of the paper's
flow: once pruned gates are tied to their observed constants, those
constants propagate through the surviving fanout, collapsing gates with
controlling inputs, then unreferenced logic is swept away.  The passes are
run to a fixpoint by :func:`resynthesize`.

The transformation is purely structural and behaviour-preserving on the
exercisable cone (validated end-to-end by
:mod:`repro.bespoke.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..netlist.netlist import Netlist


@dataclass
class _G:
    """Mutable gate record used during rewriting (names, not indices)."""

    name: str
    kind: str
    ins: List[str]
    out: str


def _explode(netlist: Netlist) -> Tuple[List[_G], List[str], List[str]]:
    gates = [_G(g.name, g.kind,
                [netlist.net_name(i) for i in g.inputs],
                netlist.net_name(g.output))
             for g in netlist.gates]
    inputs = [netlist.net_name(i) for i in netlist.inputs]
    outputs = [netlist.net_name(i) for i in netlist.outputs]
    return gates, inputs, outputs


def _rebuild(name: str, gates: List[_G], inputs: List[str],
             outputs: List[str]) -> Netlist:
    out = Netlist(name)
    for n in inputs:
        out.mark_input(out.get_or_add_net(n))
    for g in gates:
        for n in g.ins:
            out.get_or_add_net(n)
        out.get_or_add_net(g.out)
    for g in gates:
        out.add_gate(g.name, g.kind, [out.net_index(n) for n in g.ins],
                     out.net_index(g.out))
    for n in outputs:
        out.mark_output(out.net_index(n))
    return out


_SEQ = {"DFF", "DFFR", "DFFE", "DFFER"}


def _fold_pass(gates: List[_G]) -> bool:
    """One constant-folding sweep; True when anything changed."""
    const: Dict[str, int] = {}
    for g in gates:
        if g.kind == "TIE0":
            const[g.out] = 0
        elif g.kind == "TIE1":
            const[g.out] = 1
    changed = False

    def tie(g: _G, value: int) -> None:
        nonlocal changed
        g.kind = "TIE1" if value else "TIE0"
        g.ins = []
        changed = True

    def unary(g: _G, kind: str, src: str) -> None:
        nonlocal changed
        g.kind = kind
        g.ins = [src]
        changed = True

    for g in gates:
        if g.kind in _SEQ or g.kind in ("TIE0", "TIE1"):
            continue
        cv = [const.get(n) for n in g.ins]
        if g.kind == "BUF":
            if cv[0] is not None:
                tie(g, cv[0])
        elif g.kind == "NOT":
            if cv[0] is not None:
                tie(g, 1 - cv[0])
        elif g.kind in ("AND", "NAND"):
            inv = g.kind == "NAND"
            if 0 in cv:
                tie(g, 1 if inv else 0)
            elif cv[0] == 1 and cv[1] == 1:
                tie(g, 0 if inv else 1)
            elif cv[0] == 1:
                unary(g, "NOT" if inv else "BUF", g.ins[1])
            elif cv[1] == 1:
                unary(g, "NOT" if inv else "BUF", g.ins[0])
            elif g.ins[0] == g.ins[1]:
                unary(g, "NOT" if inv else "BUF", g.ins[0])
        elif g.kind in ("OR", "NOR"):
            inv = g.kind == "NOR"
            if 1 in cv:
                tie(g, 0 if inv else 1)
            elif cv[0] == 0 and cv[1] == 0:
                tie(g, 1 if inv else 0)
            elif cv[0] == 0:
                unary(g, "NOT" if inv else "BUF", g.ins[1])
            elif cv[1] == 0:
                unary(g, "NOT" if inv else "BUF", g.ins[0])
            elif g.ins[0] == g.ins[1]:
                unary(g, "NOT" if inv else "BUF", g.ins[0])
        elif g.kind in ("XOR", "XNOR"):
            inv = g.kind == "XNOR"
            if cv[0] is not None and cv[1] is not None:
                tie(g, (cv[0] ^ cv[1]) ^ (1 if inv else 0))
            elif cv[0] is not None:
                want_not = (cv[0] == 1) != inv
                unary(g, "NOT" if want_not else "BUF", g.ins[1])
            elif cv[1] is not None:
                want_not = (cv[1] == 1) != inv
                unary(g, "NOT" if want_not else "BUF", g.ins[0])
            elif g.ins[0] == g.ins[1]:
                tie(g, 1 if inv else 0)
        elif g.kind == "MUX2":
            d0, d1, s = g.ins
            if const.get(s) == 0:
                unary(g, "BUF", d0)
            elif const.get(s) == 1:
                unary(g, "BUF", d1)
            elif d0 == d1:
                unary(g, "BUF", d0)
            elif const.get(d0) is not None and const.get(d0) == const.get(d1):
                tie(g, const[d0])
    return changed


def _buffer_sweep(gates: List[_G], inputs: List[str],
                  outputs: List[str]) -> bool:
    """Rewire through BUFs and drop buffers not driving primary outputs."""
    out_set = set(outputs)
    alias: Dict[str, str] = {}
    for g in gates:
        if g.kind == "BUF" and g.out not in out_set:
            alias[g.out] = g.ins[0]

    def root(n: str) -> str:
        seen = []
        while n in alias:
            seen.append(n)
            n = alias[n]
        for s in seen:
            alias[s] = n
        return n

    changed = False
    for g in gates:
        new_ins = [root(n) for n in g.ins]
        if new_ins != g.ins:
            g.ins = new_ins
            changed = True
    before = len(gates)
    gates[:] = [g for g in gates
                if not (g.kind == "BUF" and g.out in alias)]
    return changed or len(gates) != before


def _dead_sweep(gates: List[_G], outputs: List[str]) -> bool:
    """Remove gates not in the transitive fanin of any primary output."""
    driver: Dict[str, _G] = {g.out: g for g in gates}
    live: Set[str] = set()
    work = list(outputs)
    while work:
        net = work.pop()
        if net in live:
            continue
        live.add(net)
        g = driver.get(net)
        if g is not None:
            work.extend(g.ins)
    before = len(gates)
    gates[:] = [g for g in gates if g.out in live]
    return len(gates) != before


def _dedup_ties(gates: List[_G]) -> bool:
    """Collapse all TIE0s (and TIE1s) into one instance each."""
    first: Dict[str, str] = {}
    alias: Dict[str, str] = {}
    for g in gates:
        if g.kind in ("TIE0", "TIE1"):
            if g.kind in first:
                alias[g.out] = first[g.kind]
            else:
                first[g.kind] = g.out
    if not alias:
        return False
    rewired = False
    for g in gates:
        new_ins = [alias.get(n, n) for n in g.ins]
        if new_ins != g.ins:
            g.ins = new_ins
            rewired = True
    return rewired


def resynthesize(netlist: Netlist) -> Netlist:
    """Run folding / buffer sweep / dead-logic removal to a fixpoint."""
    gates, inputs, outputs = _explode(netlist)
    for _ in range(200):
        changed = _fold_pass(gates)
        changed |= _buffer_sweep(gates, inputs, outputs)
        changed |= _dedup_ties(gates)
        changed |= _dead_sweep(gates, outputs)
        if not changed:
            break
    else:  # pragma: no cover - defensive
        raise RuntimeError("resynthesis did not converge in 200 passes")
    return _rebuild(netlist.name, gates, inputs, outputs)


def area_report(before: Netlist, after: Netlist) -> Dict[str, float]:
    from ..netlist.stats import diff_kinds
    return {
        "gates_before": before.gate_count(),
        "gates_after": after.gate_count(),
        "gate_reduction_percent": round(
            100.0 * (1 - after.gate_count() / max(1, before.gate_count())),
            2),
        "area_before": round(before.area(), 2),
        "area_after": round(after.area(), 2),
        "area_reduction_percent": round(
            100.0 * (1 - after.area() / max(1e-9, before.area())), 2),
        # per-cell-kind breakdown of what pruning/re-synthesis removed,
        # so equivalence results can be read next to what changed
        "pruned_by_kind": {kind: removed
                           for kind, _, _, removed in diff_kinds(before,
                                                                 after)
                           if removed},
    }
