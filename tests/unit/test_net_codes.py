"""Net-code access: the testbench's per-cycle path.

Every sim facade -- the serial :class:`CycleSim`, a :class:`LaneView`
of the batched engine and the event kernel's :class:`EventSimBridge`
-- reads and writes buses as 2-byte net codes (``get_codes`` /
``set_codes``).  On X-laden states of all three cores the codes must
agree with the :class:`LVec` accessors, forced nets must be left alone,
an identical rewrite must change nothing, and the PC / ``$monitor_x``
observers must equal their ``LVec`` definitions.
"""

import numpy as np
import pytest

from repro.coanalysis.executors import EventSimBridge
from repro.logic import Logic
from repro.sim import LANE_CAPACITY, BatchCycleSim, CycleSim
from repro.workloads import WORKLOADS, build_target

DESIGNS = ("bm32", "omsp430", "dr5")
FACADES = ("cycle", "lane", "event")
CODES = np.array([0x000, 0x100, 0x101], dtype="<u2")
#: X -> 0 -> 1 -> X, indexed by code
NEXT_CODE = np.zeros(0x102, dtype="<u2")
NEXT_CODE[[0x000, 0x100, 0x101]] = [0x100, 0x101, 0x000]
#: the lowest and the highest lane of the plane word
LANES = (0, LANE_CAPACITY - 1)
_TARGETS = {}


def target_for(design):
    if design not in _TARGETS:
        _TARGETS[design] = build_target(design, WORKLOADS["Div"])
    return _TARGETS[design]


def level_code(level):
    return {Logic.L0: 0x100, Logic.L1: 0x101}.get(level, 0x000)


def random_sims(design, facade, rng, p_x=0.3):
    """``facade`` sims of ``design`` in random X-laden states."""
    target = target_for(design)
    compiled = target.compiled
    n = compiled.n_nets

    def state(*lanes):
        known = rng.random((n,) + lanes) >= p_x
        return (rng.random(known.shape) < 0.5) & known, known

    if facade == "cycle":
        sim = target.prepare_sim(CycleSim(compiled))
        sim.val[:], sim.known[:] = state()
        sim.mark_all_dirty()
        return [sim]
    if facade == "event":
        sim = target.prepare_sim(EventSimBridge(target.netlist, compiled))
        sim.load_value_planes(*state())
        return [sim]
    batch = BatchCycleSim(compiled)
    for _ in range(LANE_CAPACITY):
        batch.alloc_lane()
    for plane, bits in zip((batch.val, batch.known), state(LANE_CAPACITY)):
        plane[...] = np.packbits(bits, axis=1,
                                 bitorder="little").view(np.uint64)[:, 0]
    batch.mark_all_dirty()
    return [target.prepare_sim(batch.lane_view(lane)) for lane in LANES]


def observed_buses(target, rng):
    """The harness's port buses, the PC, the monitored nets and a
    random scatter of nets."""
    n = target.compiled.n_nets
    return [target._pmem_addr, target._pmem_data, target._dmem_addr,
            target._dmem_rdata, target._dmem_wdata, target.pc_nets,
            target.monitored_nets,
            np.sort(rng.choice(n, 40, replace=False))]


@pytest.mark.parametrize("facade", FACADES)
@pytest.mark.parametrize("design", DESIGNS)
class TestCodeAccessors:
    def test_get_codes_are_the_codes_of_get_bus(self, design, facade):
        rng = np.random.default_rng(11)
        target = target_for(design)
        for sim in random_sims(design, facade, rng):
            for nets in observed_buses(target, rng):
                codes = sim.get_codes(nets)
                assert codes.dtype == np.dtype("<u2")
                assert codes.tolist() == [level_code(level) for level
                                          in sim.get_bus(nets).bits]

    def test_set_codes_leaves_a_forced_net_alone(self, design, facade):
        rng = np.random.default_rng(12)
        target = target_for(design)
        nets = target._pmem_data
        for sim in random_sims(design, facade, rng):
            sim.force(int(nets[3]), Logic.L1)
            before = sim.get_codes(nets)
            new = NEXT_CODE.take(before)       # every net changes
            sim.set_codes(nets, new)
            after = sim.get_codes(nets)
            assert after[3] == before[3]
            assert np.delete(after, 3).tolist() == \
                np.delete(new, 3).tolist()
            sim.release()

    def test_identical_rewrite_keeps_the_next_settle_a_noop(
            self, design, facade):
        rng = np.random.default_rng(13)
        target = target_for(design)
        nets = target._dmem_rdata
        for sim in random_sims(design, facade, rng):
            codes = rng.choice(CODES, len(nets))
            sim.set_codes(nets, codes)
            sim.settle()
            work = _settle_work(sim)
            sim.set_codes(nets, sim.get_codes(nets))
            sim.settle()
            assert _settle_work(sim) == work
            assert sim.get_codes(nets).tolist() == codes.tolist()

    def test_width_mismatch_rejected(self, design, facade):
        target = target_for(design)
        sim = random_sims(design, facade, np.random.default_rng(14))[0]
        with pytest.raises(ValueError):
            sim.set_codes(target._pmem_data, CODES)


def _settle_work(sim):
    """A counter that moves only when a settle evaluates gates."""
    if isinstance(sim, EventSimBridge):
        return sim.es.scheduler.events_executed
    return getattr(sim, "b", sim).full_settles


@pytest.mark.parametrize("facade", FACADES)
@pytest.mark.parametrize("design", DESIGNS)
def test_observers_match_their_lvec_definitions(design, facade):
    """``current_pc`` and ``monitored_has_x`` on random states, from
    all-known to mostly-X PCs."""
    rng = np.random.default_rng(15)
    target = target_for(design)
    seen = set()
    for p_x in (0.0, 0.02, 0.1, 0.5):
        for sim in random_sims(design, facade, rng, p_x=p_x):
            pc = target.current_pc(sim)
            assert pc == sim.get_bus(target.pc_nets).to_int_or(None)
            has_x = target.monitored_has_x(sim)
            assert has_x == any(not sim.get_net(n).is_known
                                for n in target.monitored_nets)
            seen.add((pc is None, has_x))
    assert (True, True) in seen and (False, False) in seen
