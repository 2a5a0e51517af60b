"""Unit tests for the content-addressed artifact store (repro.store)."""

import json
import pickle

import numpy as np
import pytest

from repro.csm.constraints import (ConstraintSet, NetConstraint,
                                   parse_constraints)
from repro.csm.strategies import Clustered, ExactSet, UberConservative
from repro.netlist import Netlist, parse_verilog, write_verilog
from repro.store import (ContentStore, SegmentResultCache, StoreCorrupt,
                         StoreError, digest_parts, fingerprint_csm,
                         fingerprint_netlist, fingerprint_workload,
                         run_fingerprint)


def small_netlist(name="t", swap=False):
    """A tiny two-gate circuit; ``swap`` reverses construction order."""
    nl = Netlist(name)
    a = nl.add_net("a")
    b = nl.add_net("b")
    nl.mark_input(a)
    nl.mark_input(b)
    x = nl.add_net("x")
    y = nl.add_net("y")
    if swap:
        nl.add_gate("g_not", "NOT", [x], y)
        # NOT's input has no driver yet: add AND after; x gets its
        # driver from the AND below, so declare gates in swapped order
    nl.add_gate("g_and", "AND", [a, b], x)
    if not swap:
        nl.add_gate("g_not", "NOT", [x], y)
    nl.mark_output(y)
    return nl


class TestDigestParts:
    def test_deterministic(self):
        assert digest_parts("a", "b") == digest_parts("a", "b")

    def test_no_concatenation_ambiguity(self):
        assert digest_parts("ab", "c") != digest_parts("a", "bc")

    def test_bytes_and_str_equivalent(self):
        assert digest_parts("ab") == digest_parts(b"ab")


class TestNetlistFingerprint:
    def test_stable_across_identical_builds(self):
        assert fingerprint_netlist(small_netlist()) == \
            fingerprint_netlist(small_netlist())

    def test_construction_order_independent(self):
        # different gate/net declaration order, same circuit
        assert fingerprint_netlist(small_netlist()) == \
            fingerprint_netlist(small_netlist(swap=True))

    def test_clone_preserves_fingerprint(self):
        nl = small_netlist()
        assert fingerprint_netlist(nl) == fingerprint_netlist(nl.clone())

    def test_verilog_round_trip_preserves_fingerprint(self):
        nl = small_netlist()
        back = parse_verilog(write_verilog(nl))
        assert fingerprint_netlist(nl) == fingerprint_netlist(back)

    def test_gate_instance_names_do_not_matter(self):
        nl = small_netlist()
        renamed = Netlist("t")
        for net in nl.nets:
            renamed.add_net(net.name)
        for idx in nl.inputs:
            renamed.mark_input(idx)
        for g in nl.gates:
            renamed.add_gate(f"u{g.index}", g.kind, g.inputs, g.output)
        for idx in nl.outputs:
            renamed.mark_output(idx)
        assert fingerprint_netlist(nl) == fingerprint_netlist(renamed)

    def test_kind_change_changes_fingerprint(self):
        nl = small_netlist()
        mutated = Netlist("t")
        for net in nl.nets:
            mutated.add_net(net.name)
        for idx in nl.inputs:
            mutated.mark_input(idx)
        for g in nl.gates:
            kind = "OR" if g.kind == "AND" else g.kind
            mutated.add_gate(g.name, kind, g.inputs, g.output)
        for idx in nl.outputs:
            mutated.mark_output(idx)
        assert fingerprint_netlist(nl) != fingerprint_netlist(mutated)

    def test_connection_change_changes_fingerprint(self):
        nl = small_netlist()
        mutated = Netlist("t")
        for net in nl.nets:
            mutated.add_net(net.name)
        for idx in nl.inputs:
            mutated.mark_input(idx)
        for g in nl.gates:
            inputs = g.inputs
            if g.kind == "AND":
                inputs = (inputs[0], inputs[0])     # rewire b -> a
            mutated.add_gate(g.name, g.kind, inputs, g.output)
        for idx in nl.outputs:
            mutated.mark_output(idx)
        assert fingerprint_netlist(nl) != fingerprint_netlist(mutated)

    def test_added_gate_changes_fingerprint(self):
        nl = small_netlist()
        grown = small_netlist()
        z = grown.add_net("z")
        grown.add_gate("g_extra", "NOT", [grown.net_index("y")], z)
        grown.mark_output(z)
        assert fingerprint_netlist(nl) != fingerprint_netlist(grown)

    def test_io_marking_changes_fingerprint(self):
        nl = small_netlist()
        other = small_netlist()
        other.mark_output(other.net_index("x"))     # expose an internal net
        assert fingerprint_netlist(nl) != fingerprint_netlist(other)


class TestCsmFingerprint:
    def test_none_is_stable(self):
        assert fingerprint_csm() == fingerprint_csm(None, None)

    def test_strategy_parameters_distinguish(self):
        assert fingerprint_csm(Clustered(k=2)) != \
            fingerprint_csm(Clustered(k=4))
        assert fingerprint_csm(UberConservative()) != \
            fingerprint_csm(ExactSet())

    def test_constraints_distinguish(self):
        positions = {"mode": 3}
        empty = ConstraintSet([], positions)
        pinned = ConstraintSet([NetConstraint("mode", 0)], positions)
        base = fingerprint_csm(UberConservative(), empty)
        assert base != fingerprint_csm(UberConservative(), pinned)

    def test_constraint_text_order_does_not_matter(self):
        positions = {"a": 0, "b": 1}
        ab = ConstraintSet(parse_constraints("net a 1\nnet b 0"),
                           positions)
        ba = ConstraintSet(parse_constraints("net b 0\nnet a 1"),
                           positions)
        assert fingerprint_csm(UberConservative(), ab) == \
            fingerprint_csm(UberConservative(), ba)


class TestWorkloadFingerprint:
    class FakeProgram:
        def __init__(self, words, word_width=16):
            self.words = list(words)
            self.word_width = word_width

    def test_words_matter(self):
        a = fingerprint_workload("d", self.FakeProgram([1, 2, 3]))
        b = fingerprint_workload("d", self.FakeProgram([1, 2, 4]))
        assert a != b

    def test_data_init_dict_order_does_not_matter(self):
        p = self.FakeProgram([1])
        a = fingerprint_workload("d", p, data_init={1: 9, 2: 8})
        b = fingerprint_workload("d", p, data_init={2: 8, 1: 9})
        assert a == b

    def test_symbolic_ranges_matter(self):
        p = self.FakeProgram([1])
        assert fingerprint_workload("d", p, symbolic_ranges=[(0, 4)]) != \
            fingerprint_workload("d", p, symbolic_ranges=[(0, 8)])


class TestRunFingerprint:
    def test_component_breakdown_and_sensitivity(self):
        nl = small_netlist()
        fp = run_fingerprint(netlist=nl, strategy=UberConservative(),
                             design="d", application="app")
        assert fp.components["netlist"] == fingerprint_netlist(nl)
        assert str(fp) == fp.digest
        fp2 = run_fingerprint(netlist=nl, strategy=UberConservative(),
                              design="d", application="app",
                              engine="batch")
        assert fp.digest != fp2.digest
        fp3 = run_fingerprint(netlist=nl, strategy=Clustered(k=2),
                              design="d", application="app")
        assert fp.digest != fp3.digest


class TestContentStore:
    def test_put_get_roundtrip_and_dedupe(self, tmp_path):
        store = ContentStore(tmp_path)
        d1 = store.put_bytes(b"hello")
        d2 = store.put_bytes(b"hello")
        assert d1 == d2
        assert store.has(d1)
        assert store.get_bytes(d1) == b"hello"

    def test_get_missing_raises(self, tmp_path):
        store = ContentStore(tmp_path)
        with pytest.raises(StoreError):
            store.get_bytes("0" * 64)

    def test_corrupt_blob_detected(self, tmp_path):
        store = ContentStore(tmp_path)
        digest = store.put_bytes(b"payload")
        store.object_path(digest).write_bytes(b"tampered")
        with pytest.raises(StoreCorrupt):
            store.get_bytes(digest)

    def test_put_repairs_corrupt_blob(self, tmp_path):
        # re-putting identical content over a bit-rotted object must
        # rewrite it, or evict-and-rerun healing never converges
        store = ContentStore(tmp_path)
        digest = store.put_bytes(b"payload")
        store.object_path(digest).write_bytes(b"tampered")
        assert store.put_bytes(b"payload") == digest
        assert store.get_bytes(digest) == b"payload"
        assert store.verify()["ok"]

    def test_bad_manifest_names_rejected(self, tmp_path):
        store = ContentStore(tmp_path)
        for bad in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(StoreError):
                store.manifest_path(bad)

    def test_manifest_roundtrip(self, tmp_path):
        store = ContentStore(tmp_path)
        store.put_manifest("run-x", {"kind": "run", "n": 1})
        assert store.get_manifest("run-x") == {"kind": "run", "n": 1}
        assert store.get_manifest("absent") is None
        assert store.manifest_names() == ["run-x"]

    def test_corrupt_manifest_raises(self, tmp_path):
        store = ContentStore(tmp_path)
        store.put_manifest("bad", {"kind": "x"})
        store.manifest_path("bad").write_text("{truncated")
        with pytest.raises(StoreCorrupt):
            store.get_manifest("bad")

    def test_gc_keeps_referenced_blobs(self, tmp_path):
        store = ContentStore(tmp_path)
        live = store.put_bytes(b"live")
        store.put_bytes(b"orphan")
        store.put_manifest("m", {"kind": "t", "blob": live})
        report = store.gc()
        assert report == {"kept": 1, "removed": 1,
                          "freed_bytes": len(b"orphan")}
        assert store.has(live)

    def test_verify_flags_problems(self, tmp_path):
        store = ContentStore(tmp_path)
        good = store.put_bytes(b"good")
        store.put_manifest("m", {"kind": "t", "blob": good})
        assert store.verify()["ok"]
        bad = store.put_bytes(b"soon-corrupt")
        store.object_path(bad).write_bytes(b"flip")
        store.put_manifest("dangling", {"kind": "t", "blob": "1" * 64})
        report = store.verify()
        assert not report["ok"]
        assert bad in report["corrupt_objects"]
        assert any("dangling" in item for item in report["missing_blobs"])

    def test_verify_ignores_fingerprint_cross_references(self, tmp_path):
        store = ContentStore(tmp_path)
        fp = "a" * 64
        store.put_manifest(f"run-{fp}", {
            "kind": "run", "fingerprint": fp,
            "components": {"netlist": "b" * 64},
            "run": fp})
        assert store.verify()["ok"]

    def test_stats(self, tmp_path):
        store = ContentStore(tmp_path)
        store.put_bytes(b"x" * 10)
        store.put_manifest("m1", {"kind": "run"})
        store.put_manifest("m2", {"kind": "segments"})
        stats = store.stats()
        assert stats["objects"] == 1
        assert stats["object_bytes"] == 10
        assert stats["manifest_kinds"] == {"run": 1, "segments": 1}


def fake_segment(outcome="done", cycles=3, activity=True):
    from repro.coanalysis.kernel import SegmentResult
    planes = None
    if activity:
        planes = (np.zeros(4, dtype=bool), np.ones(4, dtype=bool),
                  np.zeros(4, dtype=bool), np.ones(4, dtype=bool))
    return SegmentResult(outcome, 7, cycles, None, planes)


def fake_state(cycle=0, pc=7):
    from repro.sim.state import SimState
    return SimState(net_val=np.zeros(4, dtype=bool),
                    net_known=np.ones(4, dtype=bool),
                    memories={}, cycle=cycle, pc=pc)


class TestSegmentResultCache:
    def test_roundtrip(self, tmp_path):
        store = ContentStore(tmp_path)
        cache = SegmentResultCache(store, "f" * 64)
        key = cache.key(fake_state(), None)
        assert cache.lookup(key) is None
        assert cache.store(key, fake_segment())
        cache.flush()

        fresh = SegmentResultCache(store, "f" * 64)
        hit = fresh.lookup(key)
        assert hit is not None
        assert hit.outcome == "done"
        assert hit.cycles == 3

    def test_key_depends_on_state_and_decision(self, tmp_path):
        cache = SegmentResultCache(ContentStore(tmp_path), "f" * 64)
        base = cache.key(fake_state(), None)
        assert cache.key(fake_state(), 1) != base
        assert cache.key(fake_state(cycle=5), None) != base
        other = SegmentResultCache(ContentStore(tmp_path), "e" * 64)
        assert other.key(fake_state(), None) != base

    def test_uncacheable_outcomes_rejected(self, tmp_path):
        cache = SegmentResultCache(ContentStore(tmp_path), "f" * 64)
        key = cache.key(fake_state(), None)
        assert not cache.store(key, fake_segment(outcome="skipped"))
        assert not cache.store(key, fake_segment(activity=False))

    def test_corrupt_record_self_heals(self, tmp_path):
        store = ContentStore(tmp_path)
        cache = SegmentResultCache(store, "f" * 64)
        key = cache.key(fake_state(), None)
        cache.store(key, fake_segment())
        cache.flush()
        digest = cache._index[key]
        store.object_path(digest).write_bytes(b"garbage")

        fresh = SegmentResultCache(store, "f" * 64)
        assert fresh.lookup(key) is None       # corrupt -> miss + evict
        fresh.flush()
        healed = SegmentResultCache(store, "f" * 64)
        assert len(healed) == 0

    def test_corrupt_manifest_starts_fresh(self, tmp_path):
        store = ContentStore(tmp_path)
        cache = SegmentResultCache(store, "f" * 64)
        cache.store(cache.key(fake_state(), None), fake_segment())
        cache.flush()
        store.manifest_path(cache.manifest_name).write_text("{nope")
        fresh = SegmentResultCache(store, "f" * 64)
        assert len(fresh) == 0

    def test_flush_only_when_dirty(self, tmp_path):
        store = ContentStore(tmp_path)
        cache = SegmentResultCache(store, "f" * 64)
        cache.flush()
        assert store.get_manifest(cache.manifest_name) is None
        cache.store(cache.key(fake_state(), None), fake_segment())
        cache.flush()
        manifest = store.get_manifest(cache.manifest_name)
        assert manifest["kind"] == "segments"
        assert len(manifest["segments"]) == 1
