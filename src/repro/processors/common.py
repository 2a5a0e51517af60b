"""Shared datapath building blocks for the three processor models.

Everything here elaborates to primitive gates through the RTL kit, so the
resulting cores are genuine gate-level netlists -- the object the paper's
tool analyzes -- not behavioural models.
"""

from __future__ import annotations

from typing import List, Tuple

from ..rtl.module import Design, Reg, Sig, mux, mux_tree


class RegisterFile:
    """A flop-based register file with decoded write enables.

    Registers are *not* reset: they power up as ``X``, exactly matching
    the paper's testbench requirement that processor registers start
    symbolic (Listing 1, step 3).  ``r0_is_zero`` hard-wires register 0
    to constant zero (MIPS/RISC-V convention).
    """

    def __init__(self, d: Design, nregs: int, width: int,
                 name: str = "rf", r0_is_zero: bool = False):
        if nregs & (nregs - 1):
            raise ValueError("nregs must be a power of two")
        self.d = d
        self.nregs = nregs
        self.width = width
        self.r0_is_zero = r0_is_zero
        self.regs: List[Reg] = [
            d.reg(width, f"{name}{i}", reset=False)
            for i in range(nregs)]

    def connect_write(self, waddr: Sig, wdata: Sig, wen: Sig) -> None:
        """Wire the single write port (call exactly once).

        Reads may happen before or after this call -- registers are
        declared up-front, so read muxes see the flop outputs either way.
        """
        start = 1 if self.r0_is_zero else 0
        for i in range(start, self.nregs):
            sel = _addr_match(self.d, waddr, i)
            self.regs[i].drive(wdata, enable=sel & wen)
        if self.r0_is_zero:
            self.regs[0].drive(self.d.const(0, self.width))

    def read(self, raddr: Sig) -> Sig:
        """Combinational read port (any number of calls)."""
        vals = [reg.q for reg in self.regs]
        if self.r0_is_zero:
            vals[0] = self.d.const(0, self.width)
        return mux_tree(raddr, vals)


def _addr_match(d: Design, addr: Sig, index: int) -> Sig:
    """1 when ``addr`` equals the constant ``index``."""
    bits = []
    for b in range(addr.width):
        bit = addr[b]
        bits.append(bit if (index >> b) & 1 else ~bit)
    acc = bits[0]
    for bit in bits[1:]:
        acc = acc & bit
    return acc


def alu_adder(d: Design, a: Sig, b: Sig, sub: Sig) -> Tuple[Sig, Sig, Sig]:
    """Shared add/sub unit: returns ``(result, carry_out, overflow)``.

    ``sub`` selects subtraction (b inverted, carry-in 1).
    """
    b_eff = mux(sub, b, ~b)
    result, carry = a.add(b_eff, carry_in=sub)
    a_msb = a[a.width - 1]
    b_msb = b_eff[b_eff.width - 1]
    r_msb = result[result.width - 1]
    overflow = (a_msb & b_msb & ~r_msb) | (~a_msb & ~b_msb & r_msb)
    return result, carry, overflow


def array_multiplier(d: Design, a: Sig, b: Sig) -> Sig:
    """Unsigned array multiplier: returns the ``a.width + b.width``-bit
    product (partial products + ripple accumulation, as synthesized)."""
    total = a.width + b.width
    acc = d.const(0, total)
    for i in range(b.width):
        pp = a & b[i].repl(a.width)
        shifted = d.const(0, i).cat(pp, d.const(0, total - i - a.width)) \
            if i > 0 else pp.cat(d.const(0, total - a.width))
        acc, _ = acc.add(shifted)
    return acc


def is_const_eq(d: Design, sig: Sig, value: int) -> Sig:
    """1 when ``sig`` equals constant ``value``."""
    return _addr_match(d, sig, value)
