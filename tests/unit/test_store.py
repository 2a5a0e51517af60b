"""Unit tests for the content-addressed artifact store (repro.store)."""

import pytest

from repro.csm.constraints import (ConstraintSet, NetConstraint,
                                   parse_constraints)
from repro.csm.strategies import Clustered, ExactSet, UberConservative
from repro.netlist import Netlist, parse_verilog, write_verilog
from repro.reporting.runner import pair_fingerprint
from repro.store import (ContentStore, StoreCorrupt, StoreError,
                         digest_parts, fingerprint_csm,
                         fingerprint_netlist, fingerprint_workload,
                         run_fingerprint)
from repro.workloads import built_core


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


# -- run fingerprints of the built cores: the job service dedupes on them --


def test_netlist_mutation_changes_run_fingerprint():
    """A structurally different netlist must produce a different run
    fingerprint -- no stale dedup, no version constant required."""
    nl, _ = built_core("dr5")
    base = run_fingerprint(netlist=nl, strategy=UberConservative(),
                           design="dr5", application="mult")
    mutated = nl.clone()
    extra = mutated.add_net("__fp_probe")
    mutated.add_gate("__fp_probe_g", "NOT", [mutated.outputs[0]], extra)
    mutated.mark_output(extra)
    changed = run_fingerprint(netlist=mutated,
                              strategy=UberConservative(),
                              design="dr5", application="mult")
    assert base.digest != changed.digest
    assert base.components["netlist"] != changed.components["netlist"]


def test_csm_mutation_changes_run_fingerprint():
    nl, _ = built_core("dr5")
    a = run_fingerprint(netlist=nl, strategy=UberConservative(),
                        design="dr5", application="mult")
    b = run_fingerprint(netlist=nl, strategy=Clustered(k=2),
                        design="dr5", application="mult")
    assert a.digest != b.digest
    assert a.components["csm"] != b.components["csm"]
    # but the netlist component is untouched
    assert a.components["netlist"] == b.components["netlist"]


#: ``pair_fingerprint`` digests recorded while the batch engine's lane
#: width was a run option: job manifests stored with them must still
#: dedup against new submissions
PINNED_DIGESTS = {
    ("dr5", "binSearch", "batch", "bfs"):
    "39782fb064f2df81e35b5e148dceddb315a643d071708e85b8352a595132fac6",
    ("bm32", "Div", "serial", "dfs"):
    "23ff623716947d3057f1c69531de1e2aeff94dbbf8cdce1d731dee9f41bf621b",
    ("omsp430", "tHold", "event", "dfs"):
    "e70413e1072454d8218153ef8929b20f40ae2ff49b0d61c51ad29fcf88f8f980",
}


@pytest.mark.parametrize("pair", sorted(PINNED_DIGESTS), ids="-".join)
def test_pair_fingerprints_are_stable(pair):
    """The batch engine fingerprints ``"lanes": 64`` and every other
    engine ``"lanes": None``, so the digests do not move."""
    design, bench, engine, frontier = pair
    fp = pair_fingerprint(design, bench, engine=engine, frontier=frontier)
    assert fp.components["lanes"] == (64 if engine == "batch" else None)
    assert fp.digest == PINNED_DIGESTS[pair]
