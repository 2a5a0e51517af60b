"""Lane level tables: the batched engine's settle, one level at a time.

The batched engine settles the same per-level tables the serial engine
does (:attr:`CompiledNetlist.levels <repro.sim.cycle_sim.CompiledNetlist>`),
but on bit-packed lane planes, so it cannot look gates up in a table by
their input code.  It evaluates every gate kind as one Kleene mux
instead, in *dual-rail* form:

* a net is a ``(zero, one)`` rail pair -- ``(1, 0)`` is 0, ``(0, 1)``
  is 1 and ``(0, 0)`` is X.  Because ``val`` is a subset of ``known``
  in every live lane, the one-rail is ``val`` and the zero-rail is
  ``known ^ val``;
* every comb kind is a mux ``s ? d1 : d0`` (:data:`MUX_LEGS`) whose data
  legs are a net, its complement (the two rails swapped) or a constant
  (one of two reserved rows);
* per rail ``r``: ``out_r = (s_zero & d0_r) | (s_one & d1_r) |
  (d0_r & d1_r)``.  The last, consensus term gives an X select with
  agreeing data legs that value; a valid input pair always yields a
  valid output pair.

A level is then two gathers from a flat rails buffer -- the left and
the right operand of every gate's three product terms, per rail -- one
AND and two ORs over ``uint64`` words (one bit per lane), and one
scatter: the same few bulk operations for 1 lane or 64, on operands of
one shape.  :func:`batch_kernels_for` builds the flat rail positions
once per compiled netlist and caches them, with the same positions
packed as one int32 row per gate (:attr:`BatchKernels.lane_rows`) for
the compiled level kernel (:mod:`repro.sim.native`), which evaluates
the same mux per gate in C.

:func:`reference_sweep` keeps the older formulation -- generated Python
source, one fused ``& | ^ ~`` expression block per ``(level, kind)``
group -- as an independent bitwise reference for tests and benchmarks;
no engine calls it.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Tuple

import numpy as np

from . import native
from .cycle_sim import _SLOT, TABLE_KINDS, CompiledNetlist

#: the constant legs of :data:`MUX_LEGS`, numbered after the three ports
ZERO, ONE = 3, 4
#: every kind of :data:`~repro.sim.cycle_sim.TABLE_KINDS` as a Kleene mux
#: ``(select; d0, d1)``: a leg is an input port (0-2), ``~port`` for its
#: complement, or the constant :data:`ZERO` / :data:`ONE`
MUX_LEGS = {
    "BUF": (0, ZERO, ONE),
    "NOT": (0, ONE, ZERO),
    "AND": (0, ZERO, 1),
    "NAND": (0, ONE, ~1),
    "OR": (0, 1, ONE),
    "NOR": (0, ~1, ZERO),
    "XOR": (0, 1, ~1),
    "XNOR": (0, ~1, 1),
    "MUX2": (2, 0, 1),          # pins (d0, d1, s)
}


def _leg_columns() -> Tuple[np.ndarray, np.ndarray]:
    """``(port, swap)``, each ``(3, slots)``: per table slot, the port row
    each of select / d0 / d1 reads and whether its rails swap."""
    legs = np.array([MUX_LEGS[kind] for kind in TABLE_KINDS]).T
    swap = legs < 0
    return np.where(swap, ~legs, legs), swap


_LEG_PORT, _LEG_SWAP = _leg_columns()


class BatchKernels:
    """The lane level tables of one :class:`CompiledNetlist`.

    The rails buffer is a flat ``(2, rows)`` uint64 array: rail 0 is
    the zero-rail, rail 1 the one-rail, and ``rows`` is ``n_nets + 2``
    -- the nets, then a constant-0 and a constant-1 row.
    """

    __slots__ = ("rows", "tables", "lane_rows")

    def __init__(self, compiled: CompiledNetlist):
        n = compiled.n_nets
        #: rows of the rails buffer: every net plus the two constants
        self.rows = rows = n + 2
        #: ``(level, left, right, scatter)`` per logic level: ``left``
        #: and ``right`` are ``(3, 2, m)`` rail positions of the
        #: operands of the product terms ``s_zero & d0``,
        #: ``s_one & d1`` and ``d0 & d1``, each per (zero, one) rail,
        #: and ``scatter`` the ``(2, m)`` rail positions of the level's
        #: outputs.  All are C-contiguous: a gather's output takes its
        #: index's memory layout, and the bitwise ops run ~2x slower on
        #: a strided one.
        self.tables: List[Tuple[int, np.ndarray, np.ndarray,
                                np.ndarray]] = []
        for lvl, ins, offset, out in compiled.levels:
            m = len(out)
            slot = offset // _SLOT
            ports = np.empty((5, m), dtype=np.intp)
            ports[:3] = ins
            ports[ZERO] = n
            ports[ONE] = n + 1
            row = ports[_LEG_PORT[:, slot], np.arange(m)]     # (3, m)
            swap = _LEG_SWAP[:, slot]
            # (zero, one) rail positions of select, d0 and d1
            s, d0, d1 = np.stack([row + rows * swap, row + rows * ~swap], 1)
            self.tables.append((
                lvl,
                np.ascontiguousarray([s[[0, 0]], s[[1, 1]], d0]),
                np.ascontiguousarray([d0, d1, d1]),
                np.ascontiguousarray([out, out + rows], dtype=np.intp)))
        #: the same tables packed, and bounds-checked, for the compiled
        #: level kernel (:func:`repro.sim.native.pack_lanes`)
        self.lane_rows = native.pack_lanes(self.tables, rows, n)


#: per-process table cache keyed by compiled-netlist identity; a
#: CompiledNetlist is immutable, so identity is a sound cache key
_KERNEL_CACHE: "weakref.WeakKeyDictionary[CompiledNetlist, BatchKernels]" \
    = weakref.WeakKeyDictionary()


def batch_kernels_for(compiled: CompiledNetlist,
                      words: int = 1) -> BatchKernels:
    """Lane level tables for ``compiled``, built once and cached.

    ``words`` is the plane's word count per net; the lane planes are
    one 64-lane word, so only 1 is accepted.
    """
    if words != 1:
        raise ValueError(f"lane planes are one 64-lane word per net, "
                         f"not {words}")
    kernels = _KERNEL_CACHE.get(compiled)
    if kernels is None:
        kernels = _KERNEL_CACHE[compiled] = BatchKernels(compiled)
    return kernels


# -- the fused reference sweep ---------------------------------------------
def _group_lines(gid: int, kind: str) -> List[str]:
    """Emit the bitwise body computing ``vv``/``kk`` for one group.

    Reads ``val``/``known`` through the index arrays ``i{gid}_{port}``
    bound in the exec namespace.  Kleene X encoding: a bit is X when
    its ``known`` bit is clear; ``vv`` is always masked by ``kk``.
    """
    a = f"i{gid}_0"
    b = f"i{gid}_1"
    s = f"i{gid}_2"
    if kind == "BUF":
        return [f"vv = val[{a}]",
                f"kk = known[{a}]"]
    if kind == "NOT":
        return [f"kk = known[{a}]",
                f"vv = ~val[{a}] & kk"]
    if kind in ("AND", "NAND"):
        return [f"va = val[{a}]; ka = known[{a}]",
                f"vb = val[{b}]; kb = known[{b}]",
                "one = va & ka & vb & kb",
                "zero = (ka & ~va) | (kb & ~vb)",
                "kk = one | zero",
                "vv = one" if kind == "AND" else "vv = zero"]
    if kind in ("OR", "NOR"):
        return [f"va = val[{a}]; ka = known[{a}]",
                f"vb = val[{b}]; kb = known[{b}]",
                "one = (va & ka) | (vb & kb)",
                "zero = (ka & ~va) & (kb & ~vb)",
                "kk = one | zero",
                "vv = one" if kind == "OR" else "vv = zero"]
    if kind in ("XOR", "XNOR"):
        inv = "" if kind == "XOR" else "~"
        return [f"kk = known[{a}] & known[{b}]",
                f"vv = {inv}(val[{a}] ^ val[{b}]) & kk"]
    if kind == "MUX2":
        # ins = (d0, d1, sel); an X select with agreeing known data
        # legs still yields that value (the Kleene mux)
        return [f"vs = val[{s}]; ks = known[{s}]",
                f"v0 = val[{a}]; k0 = known[{a}]",
                f"v1 = val[{b}]; k1 = known[{b}]",
                "s1 = ks & vs",
                "s0 = ks & ~vs",
                "agree = k0 & k1 & ~(v0 ^ v1)",
                "kk = (s0 & k0) | (s1 & k1) | (~ks & agree)",
                "vv = ((s0 & v0) | (s1 & v1) | (~ks & agree & v0)) & kk"]
    raise KeyError(f"no batch kernel generator for gate kind {kind!r}")


def reference_sweep(compiled: CompiledNetlist) -> Callable:
    """``sweep(val, known)``: the whole comb schedule as one generated
    function of fused per-group bitwise blocks, storing in place.

    The algebra is width-independent -- nets index axis 0 and the ops
    are elementwise -- so it settles the batched engine's uint64 planes
    and bool planes alike.  Built
    fresh on every call: it is a reference, not an engine path.
    """
    ns: dict = {}
    body: List[str] = []
    for gi, grp in enumerate(compiled.schedule):
        for port, arr in enumerate(grp.ins):
            ns[f"i{gi}_{port}"] = arr
        ns[f"o{gi}"] = grp.out
        body += _group_lines(gi, grp.kind) + [f"val[o{gi}] = vv",
                                              f"known[o{gi}] = kk"]
    source = "\n    ".join(["def sweep(val, known):"] + (body or ["pass"]))
    exec(compile(source, "<reference-sweep>", "exec"), ns)
    return ns["sweep"]
