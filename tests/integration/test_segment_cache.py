"""Warm-run memoization through the content-addressed segment cache.

The acceptance bar for the store subsystem: re-running an identical
co-analysis through ``run_one(..., cache=dir)`` must replay >= 90% of
its segments from the cache and produce a bit-identical
:class:`CoAnalysisResult` -- on the serial AND the batched engine --
while any change to the netlist or CSM configuration must change the
run fingerprint and miss the cache entirely.
"""

import numpy as np
import pytest

from repro.coanalysis.results import CoAnalysisResult
from repro.csm.strategies import Clustered, UberConservative
from repro.reporting.runner import run_one
from repro.store import ContentStore, SegmentResultCache, run_fingerprint
from repro.workloads import built_core

ENGINES = ["serial", "batch"]


def assert_identical(cold: CoAnalysisResult, warm: CoAnalysisResult):
    """Bit-identical analysis output (cache counters excluded)."""
    assert (warm.profile.toggled == cold.profile.toggled).all()
    assert (warm.profile.ever_x == cold.profile.ever_x).all()
    assert (warm.profile.const_val == cold.profile.const_val).all()
    assert (warm.profile.const_known == cold.profile.const_known).all()
    assert warm.paths_created == cold.paths_created
    assert warm.paths_skipped == cold.paths_skipped
    assert warm.splits == cold.splits
    assert warm.simulated_cycles == cold.simulated_cycles
    assert warm.exercisable_gate_count == cold.exercisable_gate_count
    assert len(warm.path_records) == len(cold.path_records)


@pytest.mark.parametrize("engine", ENGINES)
def test_warm_run_hits_and_is_bit_identical(engine, tmp_path):
    cache = tmp_path / "store"
    cold = run_one("dr5", "mult", engine=engine, cache=cache)
    assert cold.segment_cache_hits == 0
    assert cold.segment_cache_misses > 0

    warm = run_one("dr5", "mult", engine=engine, cache=cache)
    total = warm.segment_cache_hits + warm.segment_cache_misses
    assert total > 0
    assert warm.segment_cache_hits / total >= 0.9, (
        f"{engine}: only {warm.segment_cache_hits}/{total} segments "
        f"replayed from cache")
    assert_identical(cold, warm)


@pytest.mark.parametrize("engine", ENGINES)
def test_caching_does_not_change_the_answer(engine, tmp_path):
    """A cold cached run must match an uncached run bit for bit: the
    capture-and-replay plumbing itself must be invisible."""
    uncached = run_one("dr5", "mult", engine=engine)
    cached = run_one("dr5", "mult", engine=engine,
                     cache=tmp_path / "store")
    assert_identical(uncached, cached)


@pytest.mark.parametrize("engine", ENGINES)
def test_governed_resume_with_cache_is_bit_identical(engine, tmp_path):
    """Resuming a governed stop under a segment cache must not lose the
    pre-stop activity: capture mode routes per-segment planes through
    the kernel, so the checkpoint's restored union has to be folded
    into the profile explicitly (regression -- it used to be dropped,
    and every resumed cached run under-reported exercised gates)."""
    from repro.resilience.governor import RunBudget
    direct = run_one("dr5", "mult", engine=engine)
    ck, cache = tmp_path / "ck.journal", tmp_path / "store"
    partial = run_one("dr5", "mult", engine=engine, cache=cache,
                      checkpoint=str(ck),
                      budget=RunBudget(max_segments=3))
    assert not partial.complete
    final = run_one("dr5", "mult", engine=engine, cache=cache,
                    checkpoint=str(ck), resume=True)
    assert final.complete
    assert_identical(direct, final)


def test_netlist_mutation_invalidates_cache(tmp_path):
    """A structurally different netlist must produce a different run
    fingerprint -- no stale replay, no version constant required."""
    nl, app = built_core("dr5")
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

    store = ContentStore(tmp_path / "store")
    warm = SegmentResultCache(store, base.digest)
    warm_other = SegmentResultCache(store, changed.digest)
    # identical (cycle, pc, state) under different run digests must key
    # to different cache entries
    from repro.sim.state import SimState
    state = SimState(net_val=np.zeros(4, dtype=bool),
                     net_known=np.ones(4, dtype=bool),
                     memories={}, cycle=0, pc=0)
    assert warm.key(state, None) != warm_other.key(state, None)


#: ``pair_fingerprint`` digests recorded while the batch engine's lane
#: width was a run option: warm segment caches and run manifests from
#: those runs must still hit
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
    from repro.reporting.runner import pair_fingerprint
    design, bench, engine, frontier = pair
    fp = pair_fingerprint(design, bench, engine=engine, frontier=frontier)
    assert fp.components["lanes"] == (64 if engine == "batch" else None)
    assert fp.digest == PINNED_DIGESTS[pair]


def test_csm_mutation_invalidates_cache():
    nl, _ = built_core("dr5")
    a = run_fingerprint(netlist=nl, strategy=UberConservative(),
                        design="dr5", application="mult")
    b = run_fingerprint(netlist=nl, strategy=Clustered(k=2),
                        design="dr5", application="mult")
    assert a.digest != b.digest
    assert a.components["csm"] != b.components["csm"]
    # but the netlist component is untouched
    assert a.components["netlist"] == b.components["netlist"]


def test_cache_survives_gc(tmp_path):
    """gc must keep every blob the segment manifest references: a warm
    run after gc still replays from cache."""
    cache = tmp_path / "store"
    run_one("dr5", "mult", cache=cache)
    store = ContentStore(cache)
    report = store.gc()
    assert report["removed"] == 0          # everything recorded is live
    warm = run_one("dr5", "mult", cache=cache)
    assert warm.segment_cache_hits > 0
    assert warm.segment_cache_misses == 0
    assert store.verify()["ok"]
