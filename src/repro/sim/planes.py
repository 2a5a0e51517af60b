"""Shared state-plane storage for the serial and batched engines.

Both engines keep a simulation's per-net state in the same six planes:

* ``val`` / ``known`` -- the Kleene X encoding (a net is X when its
  ``known`` bit is clear; ``val`` is always masked by ``known``);
* ``toggled`` / ``ever_x`` -- the activity record Algorithm 1 merges
  into the toggle profile;
* ``prev_val`` / ``prev_known`` -- the armed-activity reference frame.

The *storage* differs only in width:

* :class:`BoolPlanes` -- one bool per net, one simulation state: the
  serial :class:`~repro.sim.cycle_sim.CycleSim` layout.  ``val`` and
  ``known`` are the two columns of one ``(n_nets, 2)`` bool array, so
  each net is also one 2-byte *code* (``val | known << 8``:
  :data:`CODE_X`, :data:`CODE_0`, :data:`CODE_1`) that the serial
  engine gathers, compares and scatters in one operation.
* :class:`LanePlanes` -- one ``uint64`` word per net, **one bit per
  lane**: bit ``b`` of net ``i``'s word is net ``i`` in lane ``b``, so
  a plane holds :data:`LANE_CAPACITY` (64) simulation states.  Bitwise
  ``& | ^ ~`` over the words advances every lane at once; the lane
  level tables (:mod:`repro.sim.batch_kernels`) settle them.

Lane *bookkeeping* masks (active lanes, armed lanes, per-lane force
masks) stay Python ints, one bit per lane, and become a ``uint64``
scalar at the numpy boundary.

Everything outside settle -- the testbench's memory ports, the PC and
``$monitor_x`` observers -- trades net codes too: :func:`to_codes` /
:func:`to_lvec` convert at the :class:`~repro.logic.vector.LVec`
boundary, and :func:`codes_window` decodes an LSB-first code array to
integers without a per-bit Python loop.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..logic.value import Logic
from ..logic.vector import LVec

#: all bits of one plane word
M64 = (1 << 64) - 1
#: lanes packed into a :class:`LanePlanes` (one uint64 word per net)
LANE_CAPACITY = 64

#: the six plane names, in the order ``arrays()`` yields them
PLANE_NAMES = ("val", "known", "toggled", "ever_x",
               "prev_val", "prev_known")

#: a :class:`BoolPlanes` net as one little-endian 2-byte word: ``val``
#: is the low byte, ``known`` the high byte
CODE_DTYPE = np.dtype("<u2")
CODE_X = 0x000
CODE_0 = 0x100
CODE_1 = 0x101

#: net code of each level, indexed by ``Logic`` (``Z`` reads as ``X``)
LEVEL_CODE = (CODE_0, CODE_1, CODE_X, CODE_X)
#: level of each net code; codes with ``known`` clear read as ``X``
CODE_LEVEL = tuple(Logic.L0 if c == CODE_0 else
                   Logic.L1 if c == CODE_1 else Logic.X
                   for c in range(CODE_1 + 1))
#: each code as its canonical form (``val`` masked by ``known``)
CANONICAL = np.array([LEVEL_CODE[level] for level in CODE_LEVEL],
                     dtype=CODE_DTYPE)
#: a code byte (0 or 1) as its ASCII digit, for ``int(..., 2)``
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def to_codes(vec: LVec) -> np.ndarray:
    """An :class:`LVec` as its LSB-first net codes."""
    return np.fromiter(map(LEVEL_CODE.__getitem__, vec.bits),
                       dtype=CODE_DTYPE, count=vec.width)


def to_lvec(codes: np.ndarray) -> LVec:
    """LSB-first net codes as an :class:`LVec`."""
    return LVec([CODE_LEVEL[c] for c in codes.tolist()])


def codes_window(codes: np.ndarray) -> Tuple[int, int]:
    """``(lo, hi)``: the unsigned value of LSB-first net ``codes`` with
    every X bit read as 0 and as 1 (``lo == hi`` when all are known)."""
    raw = codes.tobytes()
    val = int(raw[-2::-2].translate(_DIGITS), 2)
    known = int(raw[-1::-2].translate(_DIGITS), 2)
    lo = val & known
    return lo, lo | (known ^ ((1 << len(codes)) - 1))


def column_bits(arr: np.ndarray, lane: int) -> np.ndarray:
    """One lane's bit column of a :class:`LanePlanes` plane as bools."""
    return ((arr >> np.uint64(lane)) & np.uint64(1)).astype(bool)


class BoolPlanes:
    """One simulation state: ``(n_nets,)`` bool planes (serial engine).

    ``val``/``known`` are column views of one ``(n_nets, 2)`` array and
    :attr:`code` is its ``(n_nets,)`` :data:`CODE_DTYPE` view;
    ``prev_val``/``prev_known``/:attr:`prev_code` pair the same way.
    """

    __slots__ = ("n_nets", "val", "known", "code", "toggled", "ever_x",
                 "prev_val", "prev_known", "prev_code")

    def __init__(self, n_nets: int):
        self.n_nets = n_nets
        self.val, self.known, self.code = paired(n_nets)  # all X
        self.toggled = np.zeros(n_nets, dtype=bool)
        self.ever_x = np.zeros(n_nets, dtype=bool)
        self.prev_val, self.prev_known, self.prev_code = paired(n_nets)

    def arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.val, self.known, self.toggled, self.ever_x,
                self.prev_val, self.prev_known)


def paired(shape: Union[int, Tuple[int, ...]]
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(val, known, code)`` views of one zeroed ``shape + (2,)`` bool
    array: ``code`` has ``shape`` and :data:`CODE_DTYPE`."""
    pair = np.zeros(np.append(shape, 2), dtype=bool)
    return pair[..., 0], pair[..., 1], pair.view(CODE_DTYPE)[..., 0]


class LanePlanes:
    """:data:`LANE_CAPACITY` simulation states: ``(n_nets,)`` uint64
    planes, one bit per lane."""

    __slots__ = ("n_nets", "val", "known", "toggled", "ever_x",
                 "prev_val", "prev_known")

    def __init__(self, n_nets: int):
        self.n_nets = n_nets
        self.val = np.zeros(n_nets, dtype=np.uint64)
        self.known = np.zeros(n_nets, dtype=np.uint64)
        self.toggled = np.zeros(n_nets, dtype=np.uint64)
        self.ever_x = np.zeros(n_nets, dtype=np.uint64)
        self.prev_val = np.zeros(n_nets, dtype=np.uint64)
        self.prev_known = np.zeros(n_nets, dtype=np.uint64)

    def arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.val, self.known, self.toggled, self.ever_x,
                self.prev_val, self.prev_known)

    def clear_lane(self, lane: int) -> None:
        """Zero one lane's bit column in every plane."""
        inv = np.uint64(~(1 << lane) & M64)
        for arr in self.arrays():
            arr &= inv

    def copy_lane(self, src: int, dst: int) -> None:
        """Copy lane ``src``'s bit column into lane ``dst`` (every plane)."""
        sh_src, sh_dst = np.uint64(src), np.uint64(dst)
        inv = np.uint64(~(1 << dst) & M64)
        one = np.uint64(1)
        for arr in self.arrays():
            column = (arr >> sh_src) & one
            arr &= inv
            arr |= column << sh_dst
