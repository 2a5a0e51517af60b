"""Fused numpy kernels compiled from a :class:`CompiledNetlist` schedule.

The batched engine evaluates the levelized ``(level, kind)`` schedule
on bit-packed lane planes.  Interpreting it -- one Python-level
dispatch per group, the gate semantics chosen by a chain of ``if kind
== ...`` tests on every settle -- would make that dispatch the
bottleneck: the arrays are small (one word per net) and the work per
numpy op is tiny.  (The serial engine does not interpret groups either:
it evaluates one gate table lookup per level, see
:mod:`repro.sim.cycle_sim`.)

This module removes the interpreter: it *generates Python source* for
the whole schedule once per compiled netlist and ``exec``\\ s it with the
group index arrays bound in the namespace, yielding

* ``sweep(val, known)`` -- the entire combinational schedule as one
  fused function (the no-forces full-settle fast path);
* ``levels`` -- ``[(level, fn), ...]`` with one fused function per
  topological level (the full-settle path when forces must be
  re-asserted between levels);
* ``groups`` -- one function per schedule group returning fresh
  ``(val, known)`` planes for its outputs without storing (the
  incremental dirty-cone path needs the old planes for change
  detection).

Every generated expression is *pure bitwise algebra* -- ``& | ^ ~`` only,
never ``==`` or boolean ``where`` -- so the same kernels evaluate both
one-state bool planes and the batched engine's bit-packed ``uint64``
planes (one bit per lane, 64 independent simulations per word).  The reference semantics are :data:`repro.logic.tables.COMB_EVAL`;
equivalence with the serial engine, whose gate table is generated from
them, is pinned by the batch/serial parity tests.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Tuple

from .cycle_sim import TABLE_KINDS, CompiledNetlist

#: gate kinds the generator knows: those of the serial gate table
SUPPORTED_KINDS = TABLE_KINDS


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


def _stored_lines(gid: int, kind: str) -> List[str]:
    return _group_lines(gid, kind) + [f"val[o{gid}] = vv",
                                      f"known[o{gid}] = kk"]


class BatchKernels:
    """The compiled kernel set for one :class:`CompiledNetlist`."""

    __slots__ = ("sweep", "levels", "groups", "source")

    def __init__(self, sweep: Callable, levels: List[Tuple[int, Callable]],
                 groups: List[Callable], source: str):
        #: fused function evaluating the whole comb schedule in order
        self.sweep = sweep
        #: ``(level, fn)`` pairs, one fused function per topological level
        self.levels = levels
        #: per-group functions returning ``(vv, kk)`` without storing,
        #: aligned with ``compiled.schedule``
        self.groups = groups
        #: the generated source, kept for debuggability
        self.source = source


def build_kernels(compiled: CompiledNetlist,
                  n_words: int = 1) -> BatchKernels:
    """Generate and compile the fused kernel set for ``compiled``.

    ``n_words`` is the batched engine's plane width in uint64 words
    (lanes / 64); the serial bool planes are ``n_words=1``.  The emitted
    algebra is width-independent -- nets index axis 0 and the ops
    broadcast over the word axis -- but each width gets its own compile
    unit (and cache slot) so a 256-lane run can never alias a 64-lane
    kernel's code object in tracebacks or profiles.
    """
    ns: dict = {}
    for gi, grp in enumerate(compiled.schedule):
        for port, arr in enumerate(grp.ins):
            ns[f"i{gi}_{port}"] = arr
        ns[f"o{gi}"] = grp.out

    lines: List[str] = []

    def emit(header: str, body: List[str]) -> None:
        lines.append(header)
        for stmt in (body or ["pass"]):
            lines.append("    " + stmt)

    for gi, grp in enumerate(compiled.schedule):
        emit(f"def group{gi}(val, known):",
             _group_lines(gi, grp.kind) + ["return vv, kk"])

    by_level: dict = {}
    for gi, grp in enumerate(compiled.schedule):
        by_level.setdefault(grp.level, []).append(gi)
    for lvl in sorted(by_level):
        body: List[str] = []
        for gi in by_level[lvl]:
            body.extend(_stored_lines(gi, compiled.schedule[gi].kind))
        emit(f"def level{lvl}(val, known):", body)

    sweep_body: List[str] = []
    for gi, grp in enumerate(compiled.schedule):
        sweep_body.extend(_stored_lines(gi, grp.kind))
    emit("def sweep(val, known):", sweep_body)

    source = "\n".join(lines)
    exec(compile(source, f"<batch-kernels-w{n_words}>", "exec"), ns)
    return BatchKernels(
        sweep=ns["sweep"],
        levels=[(lvl, ns[f"level{lvl}"]) for lvl in sorted(by_level)],
        groups=[ns[f"group{gi}"] for gi in range(len(compiled.schedule))],
        source=source)


#: per-process kernel cache keyed by compiled-netlist identity and
#: plane word count; a CompiledNetlist is immutable, so identity is a
#: sound cache key
_KERNEL_CACHE: "weakref.WeakKeyDictionary[CompiledNetlist, dict]" \
    = weakref.WeakKeyDictionary()


def batch_kernels_for(compiled: CompiledNetlist,
                      n_words: int = 1) -> BatchKernels:
    """Kernel set for ``(compiled, n_words)``, generated once and cached."""
    by_width = _KERNEL_CACHE.get(compiled)
    if by_width is None:
        by_width = _KERNEL_CACHE[compiled] = {}
    kernels = by_width.get(n_words)
    if kernels is None:
        kernels = by_width[n_words] = build_kernels(compiled, n_words)
    return kernels
