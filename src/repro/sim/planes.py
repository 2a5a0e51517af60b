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
* :class:`LanePlanes` -- ``(n_nets, n_words)`` uint64, **one bit per
  lane**: bit ``b`` of word ``w`` is lane ``w * 64 + b``.  Bitwise
  ``& | ^ ~`` over the words advances every lane at once, and widening
  a plane from 64 to N x 64 lanes is just ``n_words = N`` -- the lane
  level tables (:mod:`repro.sim.batch_kernels`) address each net's
  words as one contiguous run.

Lane *bookkeeping* masks (active lanes, armed lanes, per-lane force
masks) stay arbitrary-precision Python ints -- one bit per lane, however
many words the planes span -- and :func:`mask_to_words` converts them
to per-word uint64 rows at the numpy boundary.

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
#: lanes packed into one uint64 plane word
LANE_WORD = 64

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


def lane_word_bit(lane: int) -> Tuple[int, int]:
    """``lane`` -> ``(word, bit-within-word)``."""
    return divmod(lane, LANE_WORD)


def mask_to_words(mask: int, n_words: int) -> np.ndarray:
    """A Python-int lane mask as a ``(n_words,)`` uint64 row."""
    return np.fromiter(((mask >> (LANE_WORD * w)) & M64
                        for w in range(n_words)),
                       dtype=np.uint64, count=n_words)


def column_bits(arr: np.ndarray, lane: int) -> np.ndarray:
    """One lane's bit column of a ``(n_nets, n_words)`` plane as bools."""
    w, b = lane_word_bit(lane)
    return ((arr[:, w] >> np.uint64(b)) & np.uint64(1)).astype(bool)


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
    """``lanes`` simulation states: ``(n_nets, n_words)`` uint64 planes."""

    __slots__ = ("n_nets", "lanes", "n_words", "full_mask",
                 "val", "known", "toggled", "ever_x",
                 "prev_val", "prev_known")

    def __init__(self, n_nets: int, lanes: int):
        if lanes <= 0 or lanes % LANE_WORD:
            raise ValueError(
                f"lane capacity must be a positive multiple of "
                f"{LANE_WORD}, got {lanes}")
        self.n_nets = n_nets
        self.lanes = lanes
        self.n_words = lanes // LANE_WORD
        #: every lane bit set (Python int; the mask-space complement base)
        self.full_mask = (1 << lanes) - 1
        shape = (n_nets, self.n_words)
        self.val = np.zeros(shape, dtype=np.uint64)
        self.known = np.zeros(shape, dtype=np.uint64)
        self.toggled = np.zeros(shape, dtype=np.uint64)
        self.ever_x = np.zeros(shape, dtype=np.uint64)
        self.prev_val = np.zeros(shape, dtype=np.uint64)
        self.prev_known = np.zeros(shape, dtype=np.uint64)

    def arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.val, self.known, self.toggled, self.ever_x,
                self.prev_val, self.prev_known)

    def mask_words(self, mask: int) -> np.ndarray:
        """A lane-mask int as a ``(n_words,)`` row (broadcasts over nets)."""
        return mask_to_words(mask, self.n_words)

    def lane_mask_words(self, lane: int) -> np.ndarray:
        """A single lane's mask as a ``(n_words,)`` row."""
        return mask_to_words(1 << lane, self.n_words)

    def clear_lane(self, lane: int) -> None:
        """Zero one lane's bit column in every plane."""
        w, b = lane_word_bit(lane)
        inv = np.uint64(~(1 << b) & M64)
        for arr in self.arrays():
            arr[:, w] &= inv

    def copy_lane(self, src: int, dst: int) -> None:
        """Copy lane ``src``'s bit column into lane ``dst`` (every plane)."""
        ws, bs = lane_word_bit(src)
        wd, bd = lane_word_bit(dst)
        sh_src, sh_dst = np.uint64(bs), np.uint64(bd)
        inv = np.uint64(~(1 << bd) & M64)
        one = np.uint64(1)
        for arr in self.arrays():
            column = (arr[:, ws] >> sh_src) & one
            arr[:, wd] &= inv
            arr[:, wd] |= column << sh_dst
