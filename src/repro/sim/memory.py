"""Symbolic (X-capable) memory models.

The paper's testbench declares program/data memories as ``reg`` arrays and
initializes input-dependent regions to ``X`` (Listing 1).  :class:`XMemory`
is that array: every word is a pair of numpy bitplanes ``(val, known)``
with ``known == 0`` meaning the bit is symbolic.

The planes pair the way :class:`~repro.sim.planes.BoolPlanes` pairs a
simulator's nets: ``val`` and ``known`` are the two columns of one
``(words, width, 2)`` bool array, so :attr:`XMemory.code` is the same
storage as a ``(words, width)`` *code plane* of 2-byte net codes.  The
harness services its ports on codes end to end -- it gathers an
address's codes from the simulator, :meth:`XMemory.read` returns the
word's codes, and the simulator scatters them onto the data bus -- so a
port access builds no per-bit :class:`~repro.logic.vector.LVec`.  An
``LVec`` argument still works: it is converted at entry.

Reads and writes honour four-valued control:

* a known address reads one row of the code plane (all-X past the end);
* an address with ``X`` bits could select any word of its window
  ``[lo, hi]``: a read returns the merge of those rows (one reduction,
  all-X when the window reaches past the last word), and a write merges
  the data into every row of the window (sound, maximally
  conservative).  A counter records how often this fallback fired so
  benchmarks can report it;
* write-enable ``X``: the write *may* happen, so the written word becomes
  the merge of its old and new contents.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..logic.value import Logic
from ..logic.vector import LVec
from .planes import (CANONICAL, CODE_DTYPE, codes_window, paired, to_codes,
                     to_lvec)

#: an address or data word: LSB-first net codes, or an :class:`LVec`
Word = Union[np.ndarray, LVec]


class XMemory:
    """A word-addressed four-valued memory."""

    def __init__(self, words: int, width: int, name: str = "mem"):
        if words <= 0 or width <= 0:
            raise ValueError("words and width must be positive")
        self.name = name
        self.words = words
        self.width = width
        self.val, self.known, self.code = paired((words, width))
        self.known[:] = True
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
    def read(self, addr: Word) -> Word:
        """Read under a possibly-symbolic address.

        ``addr`` is LSB-first net codes; the word comes back as
        canonical codes (``val`` inside ``known``).  A fully known
        address reads one word; an address with ``X`` bits returns the
        merge of every word it could select (conservative).  An address
        past the last word reads all-X, so a window reaching past it
        does too.  An :class:`LVec` address reads an :class:`LVec`.
        """
        if isinstance(addr, LVec):
            return to_lvec(self._read(to_codes(addr)))
        return self._read(addr)

    def _read(self, addr: np.ndarray) -> np.ndarray:
        lo, hi = codes_window(addr)
        if hi >= self.words:
            return np.zeros(self.width, dtype=CODE_DTYPE)      # all X
        if lo == hi:
            return CANONICAL.take(self.code[lo])
        rows = self.code[lo:hi + 1]
        first = rows[0]
        # a column stays known where every word agrees with a known first
        return first * ((rows == first).all(axis=0) & self.known[lo])

    def read_concrete(self, addr: int) -> LVec:
        self._check_addr(addr)
        return to_lvec(self.code[addr])

    def write(self, addr: Word, data: Word,
              enable: Logic = Logic.L1) -> None:
        """Write under four-valued enable/address semantics."""
        if enable is Logic.L0:
            return
        if isinstance(addr, LVec):
            addr = to_codes(addr)
        if isinstance(data, LVec):
            data = to_codes(data)
        data = CANONICAL.take(data)
        lo, hi = codes_window(addr)
        if lo != hi:
            self.x_addr_writes += 1
            _merge(self.code[lo:hi + 1], data)    # the slice clips the end
            return
        if lo >= self.words:
            return
        if enable is Logic.L1:
            self.code[lo] = data
        else:  # enable X/Z: write may or may not occur
            self.x_en_writes += 1
            _merge(self.code[lo], data)

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
        # in place: ``val``, ``known`` and ``code`` share one array
        keep = self.known & (self.code == other.code)
        self.val &= keep
        self.known &= keep

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, XMemory)
                and self.width == other.width
                and self.words == other.words
                and bool((self.known == other.known).all())
                and bool(((self.val & self.known)
                          == (other.val & other.known)).all()))

    def __hash__(self):  # pragma: no cover - mutable container
        raise TypeError("XMemory is unhashable")


def _merge(rows: np.ndarray, data: np.ndarray) -> None:
    """Merge canonical ``data`` into code ``rows`` in place: a bit stays
    known only where the row already holds the same known value."""
    rows *= rows == data
