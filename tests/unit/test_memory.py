"""Unit tests for the symbolic memory model."""

import numpy as np
import pytest

from repro.logic import Logic, LVec
from repro.sim import XMemory


def lv(text):
    return LVec.from_str(text)


def _loop_read(m, text):
    """Reference symbolic read: merge the window ``[lo, hi)`` of the
    MSB-first address ``text`` word by word; all-X past the end."""
    lo = int(text.replace("x", "0"), 2)
    hi = int(text.replace("x", "1"), 2) + 1
    if hi > m.words:
        return LVec.unknown(m.width)
    val = m.val[lo]
    known = m.known[lo].copy()
    for w in range(lo + 1, hi):
        known &= m.known[w] & (m.val[w] == val)
    return LVec([(Logic.L1 if v else Logic.L0) if k else Logic.X
                 for v, k in zip(val.tolist(), known.tolist())])


class TestBasics:
    def test_load_and_read(self):
        m = XMemory(16, 8)
        m.load_word(3, 0xAB)
        assert m.read_concrete(3).to_int() == 0xAB

    def test_initial_contents_known_zero(self):
        m = XMemory(4, 8)
        assert m.read_concrete(0).to_int() == 0

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            XMemory(0, 8)
        with pytest.raises(ValueError):
            XMemory(8, 0)

    def test_address_bounds(self):
        m = XMemory(4, 8)
        with pytest.raises(IndexError):
            m.load_word(4, 0)

    def test_set_unknown_range(self):
        m = XMemory(16, 8)
        m.set_unknown_range(4, 8)
        assert m.read_concrete(4).has_x
        assert m.read_concrete(7).has_x
        assert not m.read_concrete(8).has_x

    def test_fill_unknown(self):
        m = XMemory(4, 8)
        m.fill_unknown()
        assert all(m.read_concrete(a).has_x for a in range(4))


class TestSymbolicRead:
    def test_known_address(self):
        m = XMemory(8, 8)
        m.load_word(5, 77)
        assert m.read(LVec.from_int(5, 3)).to_int() == 77

    def test_oob_known_address_reads_x(self):
        m = XMemory(4, 8)
        assert m.read(LVec.from_int(7, 3)).has_x

    def test_x_address_merges_window(self):
        m = XMemory(8, 8)
        m.load_word(2, 0b1010)
        m.load_word(3, 0b1000)
        # address 01x selects {2, 3}
        addr = lv("01x")
        out = m.read(addr)
        assert out[3] is Logic.L1
        assert out[0] is Logic.L0
        assert out[1] is Logic.X  # differs between the two words

    def test_x_address_agreeing_words_stay_known(self):
        m = XMemory(4, 8)
        m.load_word(0, 9)
        m.load_word(1, 9)
        assert m.read(lv("0x")).to_int() == 9

    @pytest.mark.parametrize("text", ["x11", "1x1"])
    def test_x_address_reaching_past_the_end_reads_x(self, text):
        """Addresses 7 and 5 read all-X, so a symbolic address that can
        take them must too."""
        m = XMemory(4, 8)
        assert m.read(lv(text)).count_x() == 8

    def test_window_merge_matches_word_loop(self):
        rng = np.random.default_rng(20240613)
        for _ in range(300):
            words = int(rng.integers(1, 65))
            width = int(rng.integers(1, 17))
            m = XMemory(words, width)
            m.val[:] = rng.random((words, width)) < 0.5
            m.known[:] = rng.random((words, width)) < 0.8
            addr_width = max(1, (words - 1).bit_length()
                             + int(rng.integers(0, 2)))
            text = "".join(rng.choice(list("01x"), addr_width))
            if "x" not in text:
                text = "x" + text[1:]
            assert m.read(lv(text)) == _loop_read(m, text), (words, text)


class TestWrites:
    def test_plain_write(self):
        m = XMemory(8, 8)
        m.write(LVec.from_int(2, 3), LVec.from_int(0x5A, 8))
        assert m.read_concrete(2).to_int() == 0x5A

    def test_write_disabled(self):
        m = XMemory(8, 8)
        m.write(LVec.from_int(2, 3), LVec.from_int(1, 8),
                enable=Logic.L0)
        assert m.read_concrete(2).to_int() == 0

    def test_x_enable_merges(self):
        m = XMemory(8, 8)
        m.load_word(2, 0b0011)
        m.write(LVec.from_int(2, 3), LVec.from_int(0b0101, 8),
                enable=Logic.X)
        out = m.read_concrete(2)
        assert out[0] is Logic.L1          # both agree
        assert out[1] is Logic.X           # differ
        assert out[2] is Logic.X
        assert m.x_en_writes == 1

    def test_x_address_write_merges_window(self):
        m = XMemory(8, 8)
        m.load_word(0, 0xFF)
        m.load_word(4, 0xFF)
        m.write(lv("0xx"), LVec.from_int(0xFF, 8))  # window 0..3
        assert m.read_concrete(0).to_int() == 0xFF   # agreeing write
        assert m.read_concrete(1).has_x              # 0 merged with 0xFF
        assert m.read_concrete(4).to_int() == 0xFF   # outside window
        assert m.x_addr_writes == 1

    def test_oob_write_ignored(self):
        m = XMemory(4, 8)
        m.write(LVec.from_int(7, 3), LVec.from_int(1, 8))
        assert all(m.read_concrete(a).to_int() == 0 for a in range(4))

    def test_x_address_write_past_the_end_ignored(self):
        m = XMemory(4, 8)
        m.write(lv("1x1"), LVec.from_int(1, 8))     # can hit 5 or 7 only
        assert all(m.read_concrete(a).to_int() == 0 for a in range(4))
        assert m.x_addr_writes == 1


class TestStateOps:
    def test_snapshot_restore(self):
        m = XMemory(4, 8)
        m.load_word(1, 11)
        snap = m.snapshot()
        m.load_word(1, 22)
        m.restore(snap)
        assert m.read_concrete(1).to_int() == 11

    def test_covers(self):
        a = XMemory(4, 4)
        b = XMemory(4, 4)
        a.set_unknown(2)
        b.load_word(2, 7)
        assert a.covers(b)
        assert not b.covers(a)

    def test_merge_from(self):
        a = XMemory(2, 4)
        b = XMemory(2, 4)
        a.load_word(0, 0b0101)
        b.load_word(0, 0b0110)
        a.merge_from(b)
        out = a.read_concrete(0)
        # 0101 merged with 0110: bits 0 and 1 differ -> X
        assert str(out) == "01xx"

    def test_equality(self):
        a = XMemory(2, 4)
        b = XMemory(2, 4)
        assert a == b
        b.load_word(1, 3)
        assert a != b
        c = XMemory(2, 4)
        c.set_unknown(0)
        d = XMemory(2, 4)
        d.set_unknown(0)
        assert c == d
