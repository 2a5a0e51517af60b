"""A tiny structural-RTL construction kit.

The paper analyzes third-party processor RTL that has been synthesized to a
gate-level netlist.  Since neither the vendors' RTL nor a synthesis tool is
available offline, cores in this repo are authored directly against this
kit, which plays the role of RTL + logic synthesis: every operator call
("add", "mux", "xor") immediately elaborates into primitive gates of the
cell library, yielding the same kind of flat gate-level
:class:`~repro.netlist.netlist.Netlist` the paper's tool consumes.

Usage sketch::

    d = Design("counter")
    en = d.input("en")
    cnt = d.reg(8, "cnt", reset=True)
    cnt.drive(cnt.q.add(d.const(1, 8))[0], enable=en)
    d.output("count", cnt.q)
    netlist = d.finalize()
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..netlist.netlist import Netlist, NetlistError


class Sig:
    """A bundle of nets (LSB first) owned by a :class:`Design`.

    Operators elaborate gates into the owning design's netlist and return
    new signals.  Signals are cheap, immutable views.
    """

    __slots__ = ("design", "nets")

    def __init__(self, design: "Design", nets: Sequence[int]):
        self.design = design
        self.nets: Tuple[int, ...] = tuple(nets)

    @property
    def width(self) -> int:
        return len(self.nets)

    def _req(self, other: "Sig") -> None:
        if self.design is not other.design:
            raise NetlistError("signals belong to different designs")
        if self.width != other.width:
            raise NetlistError(
                f"width mismatch: {self.width} vs {other.width}")

    # -- structure ---------------------------------------------------------
    def __getitem__(self, idx: Union[int, slice]) -> "Sig":
        if isinstance(idx, slice):
            return Sig(self.design, self.nets[idx])
        return Sig(self.design, (self.nets[idx],))

    def cat(self, *highs: "Sig") -> "Sig":
        """Concatenate, ``self`` in the low bits."""
        nets = list(self.nets)
        for h in highs:
            if h.design is not self.design:
                raise NetlistError("signals belong to different designs")
            nets.extend(h.nets)
        return Sig(self.design, nets)

    def zext(self, width: int) -> "Sig":
        if width < self.width:
            raise NetlistError("zext narrower than signal")
        return self.cat(self.design.const(0, width - self.width)) \
            if width > self.width else self

    def sext(self, width: int) -> "Sig":
        if width < self.width:
            raise NetlistError("sext narrower than signal")
        if width == self.width:
            return self
        msb = self[self.width - 1]
        return self.cat(msb.repl(width - self.width))

    def repl(self, count: int) -> "Sig":
        if self.width != 1:
            raise NetlistError("repl expects a 1-bit signal")
        return Sig(self.design, self.nets * count)

    # -- bitwise -------------------------------------------------------------
    def _bitwise(self, other: "Sig", kind: str) -> "Sig":
        self._req(other)
        d = self.design
        out = [d._gate(kind, (a, b)) for a, b in zip(self.nets, other.nets)]
        return Sig(d, out)

    def __and__(self, other: "Sig") -> "Sig":
        return self._bitwise(other, "AND")

    def __or__(self, other: "Sig") -> "Sig":
        return self._bitwise(other, "OR")

    def __xor__(self, other: "Sig") -> "Sig":
        return self._bitwise(other, "XOR")

    def __invert__(self) -> "Sig":
        d = self.design
        return Sig(d, [d._gate("NOT", (a,)) for a in self.nets])

    # -- reductions ------------------------------------------------------------
    def _reduce(self, kind: str) -> "Sig":
        d = self.design
        nets = list(self.nets)
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(d._gate(kind, (nets[i], nets[i + 1])))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return Sig(d, nets)

    def any(self) -> "Sig":
        """OR-reduce to one bit."""
        return self._reduce("OR")

    def all(self) -> "Sig":
        """AND-reduce to one bit."""
        return self._reduce("AND")

    def parity(self) -> "Sig":
        return self._reduce("XOR")

    def none(self) -> "Sig":
        """1 when every bit is 0 (NOR-reduce)."""
        d = self.design
        return Sig(d, [d._gate("NOT", (self.any().nets[0],))])

    # -- arithmetic ---------------------------------------------------------
    def add(self, other: "Sig",
            carry_in: Optional["Sig"] = None) -> Tuple["Sig", "Sig"]:
        """Ripple-carry add; returns ``(sum, carry_out)``."""
        self._req(other)
        d = self.design
        carry = carry_in.nets[0] if carry_in is not None else \
            d.const(0, 1).nets[0]
        sums: List[int] = []
        for a, b in zip(self.nets, other.nets):
            axb = d._gate("XOR", (a, b))
            sums.append(d._gate("XOR", (axb, carry)))
            carry = d._gate("OR", (d._gate("AND", (a, b)),
                                   d._gate("AND", (carry, axb))))
        return Sig(d, sums), Sig(d, (carry,))

    def sub(self, other: "Sig") -> Tuple["Sig", "Sig"]:
        """Two's-complement subtract; returns ``(diff, not_borrow)``.

        ``not_borrow`` is the adder carry-out, i.e. 1 when
        ``self >= other`` (unsigned).
        """
        d = self.design
        return self.add(~other, carry_in=d.const(1, 1))

    def eq(self, other: "Sig") -> "Sig":
        self._req(other)
        return (self ^ other).none()

    def ult(self, other: "Sig") -> "Sig":
        _, not_borrow = self.sub(other)
        return ~not_borrow

    def uge(self, other: "Sig") -> "Sig":
        _, not_borrow = self.sub(other)
        return not_borrow

    def slt(self, other: "Sig") -> "Sig":
        """Signed less-than."""
        diff, _ = self.sub(other)
        a_msb, b_msb = self[self.width - 1], other[self.width - 1]
        d_msb = diff[diff.width - 1]
        # overflow = a.msb != b.msb and diff.msb != a.msb
        ovf = (a_msb ^ b_msb) & (d_msb ^ a_msb)
        return d_msb ^ ovf

    # -- shifting ------------------------------------------------------------
    def shl_const(self, amount: int) -> "Sig":
        d = self.design
        amount = min(amount, self.width)
        return Sig(d, d.const(0, amount).nets + self.nets[:self.width - amount])

    def shr_const(self, amount: int) -> "Sig":
        d = self.design
        amount = min(amount, self.width)
        return Sig(d, self.nets[amount:] + d.const(0, amount).nets)

    def sar_const(self, amount: int) -> "Sig":
        amount = min(amount, self.width)
        msb = Sig(self.design, (self.nets[-1],) * amount)
        return Sig(self.design, self.nets[amount:] + msb.nets)

    def shl(self, amount: "Sig") -> "Sig":
        """Barrel left shift by a variable amount."""
        out = self
        for stage in range(amount.width):
            shifted = out.shl_const(1 << stage)
            out = mux(amount[stage], out, shifted)
        return out

    def shr(self, amount: "Sig") -> "Sig":
        out = self
        for stage in range(amount.width):
            shifted = out.shr_const(1 << stage)
            out = mux(amount[stage], out, shifted)
        return out

    def sar(self, amount: "Sig") -> "Sig":
        out = self
        for stage in range(amount.width):
            shifted = out.sar_const(1 << stage)
            out = mux(amount[stage], out, shifted)
        return out


def mux(sel: Sig, when0: Sig, when1: Sig) -> Sig:
    """Bitwise 2:1 mux: ``sel ? when1 : when0``."""
    when0._req(when1)
    if sel.width != 1:
        raise NetlistError("mux select must be 1 bit")
    d = sel.design
    out = [d._gate("MUX2", (a, b, sel.nets[0]))
           for a, b in zip(when0.nets, when1.nets)]
    return Sig(d, out)


def mux_tree(sel: Sig, options: Sequence[Sig]) -> Sig:
    """N-way mux: ``options[sel]``; options padded with the last entry."""
    n = 1 << sel.width
    opts = list(options)
    if len(opts) > n:
        raise NetlistError(f"{len(opts)} options exceed select space {n}")
    while len(opts) < n:
        opts.append(opts[-1])
    layer = opts
    for bit in range(sel.width):
        layer = [mux(sel[bit], layer[i], layer[i + 1])
                 for i in range(0, len(layer), 2)]
    return layer[0]


def onehot_mux(selects: Sequence[Sig], options: Sequence[Sig]) -> Sig:
    """AND-OR mux over one-hot selects (priority-free)."""
    if len(selects) != len(options):
        raise NetlistError("onehot_mux: selects/options length mismatch")
    acc = None
    for sel, opt in zip(selects, options):
        masked = opt & sel.repl(opt.width)
        acc = masked if acc is None else (acc | masked)
    if acc is None:
        raise NetlistError("onehot_mux: empty option list")
    return acc


class Reg:
    """A register declared up-front and driven later (enables feedback).

    ``reset_value`` bits that are 1 are implemented by storing the
    complement in the flop and inverting at both D and Q -- the standard
    synthesis trick for reset-to-1 bits with reset-to-0 flops.
    """

    def __init__(self, design: "Design", width: int, name: str,
                 reset: bool, reset_value: int = 0):
        self.design = design
        self.name = name
        self.has_reset = reset
        self.reset_value = reset_value & ((1 << width) - 1)
        if not reset and reset_value:
            raise NetlistError(
                f"register {name!r}: reset_value needs reset=True")
        self._driven = False
        q_nets = [design._netlist.add_net(f"{name}[{i}]" if width > 1
                                          else name)
                  for i in range(width)]
        self.q = Sig(design, q_nets)

    def drive(self, data: Sig, enable: Optional[Sig] = None) -> None:
        """Connect the register's D input (exactly once)."""
        if self._driven:
            raise NetlistError(f"register {self.name!r} driven twice")
        if data.width != self.q.width:
            raise NetlistError(
                f"register {self.name!r}: data width {data.width} != "
                f"{self.q.width}")
        d = self.design
        self._driven = True
        for i, (data_net, q_net) in enumerate(zip(data.nets, self.q.nets)):
            invert = (self.reset_value >> i) & 1
            if invert:
                data_net = d._gate("NOT", (data_net,))
            pins: List[int] = [data_net]
            if enable is not None and self.has_reset:
                kind = "DFFER"
                pins += [enable.nets[0], d._reset_net()]
            elif enable is not None:
                kind = "DFFE"
                pins.append(enable.nets[0])
            elif self.has_reset:
                kind = "DFFR"
                pins.append(d._reset_net())
            else:
                kind = "DFF"
            if invert:
                raw = d._fresh_net()
                d._netlist.add_gate(f"{self.name}_ff{i}", kind,
                                    tuple(pins), raw)
                d._netlist.add_gate(f"{self.name}_qinv{i}", "NOT", (raw,),
                                    q_net)
            else:
                d._netlist.add_gate(f"{self.name}_ff{i}", kind,
                                    tuple(pins), q_net)

    @property
    def driven(self) -> bool:
        return self._driven


class Design:
    """Builder that elaborates RTL-style operations straight to gates."""

    def __init__(self, name: str):
        self._netlist = Netlist(name)
        self._auto = 0
        self._const_cache = {}
        self._regs: List[Reg] = []
        self._reset: Optional[int] = None

    # -- internal helpers ---------------------------------------------------
    def _fresh_net(self) -> int:
        idx = self._netlist.add_net(f"n{self._auto}")
        self._auto += 1
        return idx

    def _gate(self, kind: str, inputs: Tuple[int, ...]) -> int:
        out = self._fresh_net()
        self._netlist.add_gate(f"u{self._auto}", kind, inputs, out)
        self._auto += 1
        return out

    def _reset_net(self) -> int:
        if self._reset is None:
            self._reset = self._netlist.add_net("rst")
            self._netlist.mark_input(self._reset)
        return self._reset

    # -- public API -----------------------------------------------------------
    @property
    def netlist(self) -> Netlist:
        return self._netlist

    def input(self, name: str, width: int = 1) -> Sig:
        nets = []
        for i in range(width):
            net = self._netlist.add_net(f"{name}[{i}]" if width > 1
                                        else name)
            self._netlist.mark_input(net)
            nets.append(net)
        return Sig(self, nets)

    def output(self, name: str, sig: Sig) -> Sig:
        """Publish ``sig`` as primary output bus ``name`` (via BUFs so the
        output nets carry the requested names)."""
        nets = []
        for i, src in enumerate(sig.nets):
            net = self._netlist.add_net(f"{name}[{i}]" if sig.width > 1
                                        else name)
            self._netlist.add_gate(f"{name}_obuf{i}", "BUF", (src,), net)
            self._netlist.mark_output(net)
            nets.append(net)
        return Sig(self, nets)

    def const(self, value: int, width: int) -> Sig:
        nets = []
        for i in range(width):
            bit = (value >> i) & 1
            cached = self._const_cache.get(bit)
            if cached is None:
                cached = self._gate("TIE1" if bit else "TIE0", ())
                self._const_cache[bit] = cached
            nets.append(cached)
        return Sig(self, nets)

    def reg(self, width: int, name: str, reset: bool = True,
            reset_value: int = 0) -> Reg:
        r = Reg(self, width, name, reset, reset_value)
        self._regs.append(r)
        return r

    def name_sig(self, name: str, sig: Sig) -> Sig:
        """Give internal nets stable, findable names (via BUFs)."""
        nets = []
        for i, src in enumerate(sig.nets):
            net = self._netlist.add_net(f"{name}[{i}]" if sig.width > 1
                                        else name)
            self._netlist.add_gate(f"{name}_nbuf{i}", "BUF", (src,), net)
            nets.append(net)
        return Sig(self, nets)

    def finalize(self) -> Netlist:
        """Validate and return the elaborated netlist."""
        for r in self._regs:
            if not r.driven:
                raise NetlistError(f"register {r.name!r} was never driven")
        self._netlist.validate()
        return self._netlist
