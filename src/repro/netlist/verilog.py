"""Structural Verilog emission and parsing.

The paper's tool consumes placed-and-routed gate-level netlists in Verilog.
We support the matching subset here: one flat module, ``wire``
declarations, and primitive cell instances with named port connections::

    module top (a, b, y);
      input a;
      input b;
      output y;
      wire n1;
      NAND u0 (.A(a), .B(b), .Y(n1));
      NOT  u1 (.A(n1), .Y(y));
    endmodule

Bit-indexed net names like ``pc[3]`` are emitted as Verilog escaped
identifiers (``\\pc[3]``) so netlists round-trip losslessly.
"""

from __future__ import annotations

import re
from typing import Dict, List

from .cells import LIBRARY
from .netlist import Netlist, NetlistError

_PLAIN_ID = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")


def _emit_name(name: str) -> str:
    if _PLAIN_ID.match(name):
        return name
    return "\\" + name + " "


def write_verilog(netlist: Netlist) -> str:
    """Serialize a netlist to structural Verilog text."""
    in_names = [netlist.net_name(i) for i in netlist.inputs]
    out_names = [netlist.net_name(i) for i in netlist.outputs]
    ports = in_names + [n for n in out_names if n not in set(in_names)]
    lines: List[str] = []
    lines.append(f"module {_emit_name(netlist.name)} (")
    lines.append("  " + ",\n  ".join(_emit_name(p) for p in ports))
    lines.append(");")
    for n in in_names:
        lines.append(f"  input {_emit_name(n)};")
    for n in out_names:
        lines.append(f"  output {_emit_name(n)};")
    port_set = set(ports)
    for net in netlist.nets:
        if net.name not in port_set:
            lines.append(f"  wire {_emit_name(net.name)};")
    for gate in netlist.gates:
        cell = LIBRARY[gate.kind]
        conns = [f".{pin}({_emit_name(netlist.net_name(net))})"
                 for pin, net in zip(cell.inputs, gate.inputs)]
        conns.append(f".Y({_emit_name(netlist.net_name(gate.output))})")
        lines.append(
            f"  {gate.kind} {_emit_name(gate.name)} ({', '.join(conns)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


_TOKEN = re.compile(
    r"""\\(?P<esc>[^\s]+)\s      # escaped identifier
      | (?P<id>[A-Za-z_][A-Za-z0-9_$\[\]]*)
      | (?P<punct>[().,;])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[str]:
    text = re.sub(r"//[^\n]*", " ", text)
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise NetlistError(f"verilog parse error near {text[pos:pos+20]!r}")
        tokens.append(m.group("esc") or m.group("id") or m.group("punct"))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise NetlistError(f"expected {token!r}, got {got!r}")


def parse_verilog(text: str) -> Netlist:
    """Parse the structural subset emitted by :func:`write_verilog`."""
    p = _Parser(_tokenize(text))
    p.expect("module")
    netlist = Netlist(p.next())
    p.expect("(")
    while p.peek() != ")":
        p.next()  # port names re-declared below; skip
        if p.peek() == ",":
            p.next()
    p.expect(")")
    p.expect(";")

    pending_inputs: List[str] = []
    pending_outputs: List[str] = []
    instances: List[Dict] = []
    while p.peek() != "endmodule":
        head = p.next()
        if head in ("input", "output", "wire"):
            names = [p.next()]
            while p.peek() == ",":
                p.next()
                names.append(p.next())
            p.expect(";")
            for name in names:
                netlist.get_or_add_net(name)
                if head == "input":
                    pending_inputs.append(name)
                elif head == "output":
                    pending_outputs.append(name)
        elif head in LIBRARY:
            inst_name = p.next()
            p.expect("(")
            conns: Dict[str, str] = {}
            while p.peek() != ")":
                dot = p.next()
                if dot != ".":
                    raise NetlistError(
                        f"instance {inst_name!r}: positional connections "
                        f"are not supported (got {dot!r})")
                pin = p.next()
                p.expect("(")
                conns[pin] = p.next()
                p.expect(")")
                if p.peek() == ",":
                    p.next()
            p.expect(")")
            p.expect(";")
            instances.append(
                {"kind": head, "name": inst_name, "conns": conns})
        else:
            raise NetlistError(f"unexpected token {head!r}")

    for name in pending_inputs:
        netlist.mark_input(netlist.net_index(name))
    for inst in instances:
        cell = LIBRARY[inst["kind"]]
        conns = inst["conns"]
        try:
            out_net = netlist.get_or_add_net(conns["Y"])
        except KeyError:
            raise NetlistError(
                f"instance {inst['name']!r} missing output pin Y") from None
        ins = []
        for pin in cell.inputs:
            if pin not in conns:
                raise NetlistError(
                    f"instance {inst['name']!r} missing pin {pin}")
            ins.append(netlist.get_or_add_net(conns[pin]))
        netlist.add_gate(inst["name"], inst["kind"], ins, out_net)
    for name in pending_outputs:
        netlist.mark_output(netlist.net_index(name))
    return netlist
