"""Unit tests for the symbolic memory model."""

import itertools

import numpy as np
import pytest

from repro.logic import Logic, LVec
from repro.sim import XMemory

LEVELS = (Logic.L0, Logic.L1, Logic.X)
#: the net code of each address/data character
CODE_OF = {"0": 0x100, "1": 0x101, "x": 0x000}


def lv(text):
    return LVec.from_str(text)


def codes(text):
    """The MSB-first literal ``text`` as LSB-first net codes."""
    return np.array([CODE_OF[ch] for ch in reversed(text)], dtype="<u2")


def _level(m, w, i):
    return (Logic.L1 if m.val[w, i] else Logic.L0) if m.known[w, i] \
        else Logic.X


def _loop_read(m, text):
    """Reference read: merge the window ``[lo, hi)`` of the MSB-first
    address ``text`` word by word and bit by bit; a known address
    reads its one word, and a window reaching past the end reads
    all-X."""
    lo = int(text.replace("x", "0"), 2)
    hi = int(text.replace("x", "1"), 2) + 1
    if hi > m.words:
        return LVec.unknown(m.width)
    bits = []
    for i in range(m.width):
        first = _level(m, lo, i)
        same = all(_level(m, w, i) is first for w in range(lo, hi))
        bits.append(first if same else Logic.X)
    return LVec(bits)


def _loop_write(m, text, data, enable):
    """Reference write, the twin of :func:`_loop_read`: the four-valued
    enable/address rules applied word by word and bit by bit."""
    if enable is Logic.L0:
        return
    lo = int(text.replace("x", "0"), 2)
    hi = int(text.replace("x", "1"), 2) + 1
    if "x" in text:
        m.x_addr_writes += 1
        targets, merge = range(lo, min(hi, m.words)), True
    elif lo >= m.words:
        return
    elif enable is Logic.L1:
        targets, merge = [lo], False
    else:
        m.x_en_writes += 1
        targets, merge = [lo], True
    for w in targets:
        for i, bit in enumerate(data.bits):
            if merge and bit is not _level(m, w, i):
                bit = Logic.X
            m.val[w, i] = bit is Logic.L1
            m.known[w, i] = bit.is_known


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

    def test_read_returns_canonical_codes_from_raw_planes(self):
        """Planes built as above hold ``val`` bits without ``known``;
        a code read still returns ``val`` inside ``known``."""
        rng = np.random.default_rng(7)
        m = XMemory(16, 12)
        m.val[:] = rng.random((16, 12)) < 0.5
        m.known[:] = rng.random((16, 12)) < 0.5
        for chars in itertools.product("01x", repeat=4):
            text = "".join(chars)
            out = m.read(codes(text))
            assert out.dtype == np.dtype("<u2")
            assert ((out & 0xFF) <= (out >> 8)).all(), text
            assert LVec([{0x100: Logic.L0, 0x101: Logic.L1}.get(
                c, Logic.X) for c in out.tolist()]) == \
                _loop_read(m, text), text


class TestCodesMatchLVecReference:
    def test_seeded_reads_and_writes(self):
        """Code-array reads and writes against the per-bit reference:
        X-laden contents, addresses with 0-3 X bits (windows inside,
        reaching past and starting past the last word) and enables
        0 / 1 / X."""
        rng = np.random.default_rng(20261017)
        for _ in range(150):
            words = int(rng.integers(1, 40))
            width = int(rng.integers(1, 17))
            m = XMemory(words, width)
            known = rng.random((words, width)) < 0.7
            m.known[:] = known
            m.val[:] = (rng.random((words, width)) < 0.5) & known
            ref = XMemory(words, width)
            ref.restore(m.snapshot())
            addr_width = (words - 1).bit_length() + int(rng.integers(0, 2))
            addr_width = max(addr_width, 3)
            for _ in range(8):
                chars = ["01"[b] for b in rng.integers(0, 2, addr_width)]
                n_x = int(rng.integers(0, 4))
                for pos in rng.choice(addr_width, n_x, replace=False):
                    chars[pos] = "x"
                text = "".join(chars)
                out = m.read(codes(text))
                want = _loop_read(ref, text)
                assert out.tolist() == [CODE_OF[str(b)] for b in
                                        want.bits], (words, text)
                data = LVec([LEVELS[i] for i in rng.integers(0, 3, width)])
                enable = LEVELS[int(rng.integers(0, 3))]
                m.write(codes(text), codes(str(data)), enable=enable)
                _loop_write(ref, text, data, enable)
                assert m.code.tolist() == ref.code.tolist(), \
                    (words, text, str(data), enable)
                assert (m.x_addr_writes, m.x_en_writes) == \
                    (ref.x_addr_writes, ref.x_en_writes)


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

    def test_merge_from_keeps_the_code_plane_paired(self):
        """``val``, ``known`` and ``code`` share one array: a merge that
        rebinds ``known`` would leave ``code`` stale."""
        a = XMemory(4, 8)
        b = XMemory(4, 8)
        a.load_word(0, 0b0101)
        b.load_word(0, 0b0110)
        b.set_unknown(2)
        a.merge_from(b)
        paired = a.val.astype("<u2") | a.known.astype("<u2") << 8
        assert (a.code == paired).all()
        assert str(a.read(LVec.from_int(0, 2))) == "000001xx"
        assert a.read(LVec.from_int(2, 2)).count_x() == 8

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
