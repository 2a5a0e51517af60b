"""Symbolic (X-capable) memory models.

The paper's testbench declares program/data memories as ``reg`` arrays and
initializes input-dependent regions to ``X`` (Listing 1).  :class:`XMemory`
is that array: every word is a pair of numpy bitplanes ``(val, known)``
with ``known == 0`` meaning the bit is symbolic.

Writes honour four-valued control:

* write-enable ``X``: the write *may* happen, so each written word becomes
  the merge of its old and new contents;
* any address bit ``X``: the write could land anywhere in the addressable
  window, so every word merges with the data (sound, maximally
  conservative).  A counter records how often this fallback fired so
  benchmarks can report it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..logic.value import Logic
from ..logic.vector import LVec


class XMemory:
    """A word-addressed four-valued memory."""

    def __init__(self, words: int, width: int, name: str = "mem"):
        if words <= 0 or width <= 0:
            raise ValueError("words and width must be positive")
        self.name = name
        self.words = words
        self.width = width
        self.val = np.zeros((words, width), dtype=bool)
        self.known = np.ones((words, width), dtype=bool)
        self.x_addr_writes = 0
        self.x_en_writes = 0

    # -- scalar helpers ----------------------------------------------------
    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.words:
            raise IndexError(
                f"{self.name}: address {addr} out of range [0, {self.words})")

    def load_word(self, addr: int, value: int) -> None:
        """Concretely initialize one word (program load, constants)."""
        self._check_addr(addr)
        bits = [(value >> i) & 1 for i in range(self.width)]
        self.val[addr] = np.array(bits, dtype=bool)
        self.known[addr] = True

    def load_words(self, base: int, values) -> None:
        for offset, value in enumerate(values):
            self.load_word(base + offset, value)

    def set_unknown(self, addr: int) -> None:
        """Mark one word as symbolic application input."""
        self._check_addr(addr)
        self.val[addr] = False
        self.known[addr] = False

    def set_unknown_range(self, start: int, end: int) -> None:
        """Mark ``[start, end)`` as symbolic (Listing 1's input region)."""
        for addr in range(start, end):
            self.set_unknown(addr)

    def fill_unknown(self) -> None:
        self.val[:] = False
        self.known[:] = False

    # -- four-valued access ---------------------------------------------------
    def read(self, addr: LVec) -> LVec:
        """Read under a possibly-symbolic address.

        A fully known address reads one word; an address with ``X`` bits
        returns the merge of every word it could select (conservative).
        An address past the last word reads all-X, so a window reaching
        past it does too.
        """
        if addr.is_known:
            a = addr.to_int()
            if a >= self.words:
                return LVec.unknown(self.width)
            return self._word(a)
        lo, hi = self._addr_window(addr)
        if hi > self.words:
            return LVec.unknown(self.width)
        val = self.val[lo]
        known = (self.known[lo:hi] & (self.val[lo:hi] == val)).all(axis=0)
        return _to_lvec(val & known, known)

    def read_concrete(self, addr: int) -> LVec:
        self._check_addr(addr)
        return self._word(addr)

    def write(self, addr: LVec, data: LVec, enable: Logic = Logic.L1) -> None:
        """Write under four-valued enable/address semantics."""
        if enable is Logic.L0:
            return
        dval, dknown = _from_lvec(data)
        if not addr.is_known:
            self.x_addr_writes += 1
            lo, hi = self._addr_window(addr)
            for w in range(lo, min(hi, self.words)):
                self._merge_word(w, dval, dknown)
            return
        a = addr.to_int()
        if a >= self.words:
            return
        if enable is Logic.L1:
            self.val[a] = dval
            self.known[a] = dknown
        else:  # enable X/Z: write may or may not occur
            self.x_en_writes += 1
            self._merge_word(a, dval, dknown)

    # -- internals -----------------------------------------------------------
    def _word(self, addr: int) -> LVec:
        return _to_lvec(self.val[addr], self.known[addr])

    def _merge_word(self, addr: int, dval, dknown) -> None:
        known = self.known[addr] & dknown & (self.val[addr] == dval)
        self.val[addr] &= known
        self.known[addr] = known

    def _addr_window(self, addr: LVec) -> Tuple[int, int]:
        """Smallest concrete address interval ``[lo, hi)`` covering a
        symbolic address; ``hi`` may exceed :attr:`words`."""
        lo = hi = 0
        for i in reversed(range(addr.width)):
            bit = addr[i]
            lo <<= 1
            hi <<= 1
            if bit is Logic.L1:
                lo |= 1
                hi |= 1
            elif bit is not Logic.L0:
                hi |= 1
        return lo, hi + 1

    # -- state management -------------------------------------------------------
    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.val.copy(), self.known.copy()

    def restore(self, snap: Tuple[np.ndarray, np.ndarray]) -> None:
        val, known = snap
        self.val[:] = val
        self.known[:] = known

    def covers(self, other: "XMemory") -> bool:
        """True when this memory's contents subsume ``other``'s."""
        ok = ~self.known | (other.known & (self.val == other.val))
        return bool(ok.all())

    def merge_from(self, other: "XMemory") -> None:
        known = self.known & other.known & (self.val == other.val)
        self.val &= known
        self.known = known

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, XMemory)
                and self.width == other.width
                and self.words == other.words
                and bool((self.known == other.known).all())
                and bool(((self.val & self.known)
                          == (other.val & other.known)).all()))

    def __hash__(self):  # pragma: no cover - mutable container
        raise TypeError("XMemory is unhashable")


def _to_lvec(val: np.ndarray, known: np.ndarray) -> LVec:
    bits = []
    for v, k in zip(val.tolist(), known.tolist()):
        bits.append((Logic.L1 if v else Logic.L0) if k else Logic.X)
    return LVec(bits)


def _from_lvec(vec: LVec) -> Tuple[np.ndarray, np.ndarray]:
    val = np.array([b is Logic.L1 for b in vec.bits], dtype=bool)
    known = np.array([b.is_known for b in vec.bits], dtype=bool)
    return val, known
