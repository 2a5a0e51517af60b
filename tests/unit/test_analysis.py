"""Unit tests for the power / peak-power analyses."""

import numpy as np
import pytest

from repro.analysis import (PowerMeter, analyze_coverage,
                            analyze_peak_power, compare_power,
                            concrete_peak, isa_usage, leakage_power,
                            measure_concrete_run)
from repro.analysis.power import SWITCH_ENERGY
from repro.bespoke import generate_bespoke
from repro.coanalysis.concrete import run_concrete
from repro.isa.disasm import mnemonic_of
from repro.logic import Logic
from repro.netlist.cells import LIBRARY
from repro.rtl import Design
from repro.sim import CompiledNetlist, CycleSim
from repro.workloads import WORKLOADS, build_target


def counter_netlist(width=4):
    d = Design("cnt")
    en = d.input("en")
    r = d.reg(width, "c", reset=True)
    s, _ = r.q.add(d.const(1, width))
    r.drive(s, enable=en)
    d.output("y", r.q)
    return d.finalize()


class TestPowerMeter:
    def test_every_cell_kind_has_energy(self):
        assert set(SWITCH_ENERGY) == set(LIBRARY)

    def test_idle_circuit_no_dynamic_energy(self):
        nl = counter_netlist()
        sim = CycleSim(CompiledNetlist(nl))
        sim.set_input("rst", Logic.L1)
        sim.set_input("en", Logic.L0)
        sim.step()
        sim.set_input("rst", Logic.L0)
        sim.settle()
        meter = PowerMeter(nl)
        for _ in range(5):
            sim.step()
            sim.settle()
            meter.observe(sim)
        assert meter.dynamic_energy() == 0.0
        assert meter.total_toggles == 0
        report = meter.report("cnt")
        assert report.clock_energy > 0         # clock always burns
        assert report.leakage_energy > 0

    def test_active_circuit_burns_energy(self):
        nl = counter_netlist()
        sim = CycleSim(CompiledNetlist(nl))
        sim.set_input("rst", Logic.L1)
        sim.set_input("en", Logic.L1)
        sim.step()
        sim.set_input("rst", Logic.L0)
        sim.settle()
        meter = PowerMeter(nl)
        for _ in range(8):
            sim.step()
            sim.settle()
            meter.observe(sim)
        assert meter.dynamic_energy() > 0
        assert meter.cycles == 7

    def test_leakage_scales_with_area(self):
        small = counter_netlist(2)
        big = counter_netlist(8)
        assert leakage_power(big) > leakage_power(small)

    def test_report_totals_consistent(self):
        nl = counter_netlist()
        meter = PowerMeter(nl)
        report = meter.report("x")
        assert report.total_energy == pytest.approx(
            report.dynamic_energy + report.clock_energy
            + report.leakage_energy)


class TestConcreteMeasurement:
    @pytest.fixture(scope="class")
    def target(self):
        return build_target("dr5", WORKLOADS["mult"])

    def test_measure_concrete_run(self, target):
        report = measure_concrete_run(target, WORKLOADS["mult"].cases[0])
        assert report.cycles > 0
        assert report.toggles > 0
        assert report.average_power > 0

    def test_observer_sees_every_cycle_through_done(self, target):
        seen = []
        run = run_concrete(target, WORKLOADS["mult"].cases[0],
                           cycle_observer=lambda sim, pid, cyc:
                           seen.append((pid, cyc)))
        assert run.finished
        assert seen == [(0, cycle) for cycle in range(run.cycles + 1)]

    def test_meter_counts_every_clock_edge(self, target):
        """The meter's toggles are the switching of all ``run.cycles``
        edges, the last one into the done cycle included."""
        case = WORKLOADS["mult"].cases[0]
        planes = []
        run = run_concrete(target, case,
                           cycle_observer=lambda sim, pid, cyc:
                           planes.append((sim.val.copy(),
                                          sim.known.copy())))
        switched = sum(int(((val != prev_val) | (known != prev_known))
                           .sum())
                       for (prev_val, prev_known), (val, known)
                       in zip(planes, planes[1:]))
        report = measure_concrete_run(target, case)
        assert report.cycles == run.cycles == len(planes) - 1
        assert report.toggles == switched

    def test_bespoke_saves_power(self, target):
        from repro.reporting.runner import run_one
        result = run_one("dr5", "mult")
        bespoke_nl = generate_bespoke(target.netlist, result.profile)
        bespoke = build_target("dr5", WORKLOADS["mult"],
                               netlist=bespoke_nl)
        savings = compare_power(target, bespoke,
                                WORKLOADS["mult"].cases[0])
        assert savings.leakage_saving_percent > 0
        assert savings.energy_saving_percent > 0


class TestPeakPower:
    @pytest.fixture(scope="class")
    def peak(self):
        target = build_target("omsp430", WORKLOADS["mult"])
        return target, analyze_peak_power(target, application="mult")

    def test_peak_is_positive(self, peak):
        _, result = peak
        assert result.peak_bound > 0
        assert result.peak_cycle >= 0

    def test_concrete_never_exceeds_bound(self, peak):
        """The soundness property of the peak bound (prior work [5])."""
        target, result = peak
        for case in WORKLOADS["mult"].cases:
            measured = concrete_peak(target, case)
            assert measured <= result.peak_bound + 1e-9

    def test_per_path_peaks_recorded(self, peak):
        _, result = peak
        assert result.per_path_peaks
        assert max(result.per_path_peaks.values()) == \
            pytest.approx(result.peak_bound)

    def test_analysis_attached(self, peak):
        _, result = peak
        assert result.analysis is not None
        assert result.analysis.paths_created >= 1


class TestBoundaryCycles:
    """Observers see each path's boundary cycle, the done cycle
    included, on every engine."""

    @pytest.mark.parametrize("design,bench", [
        ("bm32", "mult"), ("omsp430", "tHold"), ("dr5", "tea8")])
    def test_halt_loop_is_covered(self, design, bench):
        target = build_target(design, WORKLOADS[bench])
        report = analyze_coverage(target, application=bench)
        assert report.dead == []
        halt = target.program.label("_halt")
        jump = mnemonic_of(design, target.program.words[halt])
        assert jump in isa_usage(report, design)

    @pytest.mark.parametrize("design,bench,engines", [
        ("omsp430", "binSearch", ("serial", "event", "batch")),
        ("bm32", "binSearch", ("serial", "batch"))])
    def test_peak_bound_is_engine_invariant(self, design, bench,
                                            engines):
        bounds = {}
        for engine in engines:
            target = build_target(design, WORKLOADS[bench])
            bounds[engine] = analyze_peak_power(
                target, application=bench, backend=engine,
                frontier="bfs" if engine == "batch" else "dfs").peak_bound
        assert len(set(bounds.values())) == 1, bounds
