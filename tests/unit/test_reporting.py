"""Unit tests for table/figure renderers and the grid runner."""

from pathlib import Path

import numpy as np
import pytest

from repro.coanalysis.results import CoAnalysisResult
from repro.netlist import Netlist
from repro.reporting import (figure5, figure6, render_table, results_csv,
                             table1, table2, table3, table4)
from repro.sim.activity import ToggleProfile


def tiny_netlist(gates=4):
    nl = Netlist("t")
    a = nl.add_net("a")
    nl.mark_input(a)
    prev = a
    for i in range(gates):
        out = nl.add_net(f"n{i}")
        nl.add_gate(f"g{i}", "NOT", [prev], out)
        prev = out
    nl.mark_output(prev)
    return nl


def fake_result(design, bench, exercisable, paths, skipped, cycles,
                gates=4):
    nl = tiny_netlist(gates)
    profile = ToggleProfile.empty(nl)
    # mark the first `exercisable` gate outputs as toggled
    for g in nl.gates[:exercisable]:
        profile.toggled[g.output] = True
    profile.const_known[:] = True
    return CoAnalysisResult(design=design, application=bench,
                            profile=profile, paths_created=paths,
                            paths_skipped=skipped,
                            simulated_cycles=cycles)


@pytest.fixture
def grid():
    designs = ["bm32", "omsp430"]
    benches = ["Div", "mult"]
    out = {}
    for d in designs:
        out[d] = {}
        for i, b in enumerate(benches):
            out[d][b] = fake_result(d, b, exercisable=2 + i,
                                    paths=3 + i, skipped=i, cycles=10 * (i + 1))
    return out


class TestRenderTable:
    def test_grid_shape(self):
        text = render_table(["A", "B"], [[1, "xy"], [22, "z"]])
        lines = text.splitlines()
        assert lines[1].count("|") == 3
        assert "xy" in text and "22" in text

    def test_column_widths_expand(self):
        text = render_table(["H"], [["longer-cell"]])
        assert "longer-cell" in text

    def test_empty_rows(self):
        text = render_table(["A"], [])
        assert "A" in text


class TestPaperTables:
    def test_table1_lists_workloads(self):
        from repro.workloads import WORKLOADS, WORKLOAD_ORDER
        text = table1([WORKLOADS[w] for w in WORKLOAD_ORDER])
        for w in WORKLOAD_ORDER:
            assert w in text

    def test_table2_lists_metas(self):
        from repro.workloads import built_core
        metas = [built_core(d)[1] for d in ("omsp430", "dr5")]
        text = table2(metas)
        assert "MSP430" in text and "RV32e" in text

    def test_table3_contents(self, grid):
        text = table3(grid, ["Div", "mult"], ["bm32", "omsp430"])
        assert "tgc 4" in text
        assert "% reduction" in text
        assert "Div" in text

    def test_table4_contents(self, grid):
        text = table4(grid, ["Div", "mult"], ["bm32", "omsp430"])
        assert "created" in text and "cycles" in text

    def test_results_csv(self, grid):
        text = results_csv(grid, ["Div", "mult"], ["bm32", "omsp430"])
        lines = text.splitlines()
        assert lines[0].startswith("design,benchmark")
        assert len(lines) == 5
        assert lines[1].startswith("bm32,Div,4,")


class TestFigures:
    def test_figure5_has_bars(self, grid):
        text = figure5(grid, ["Div", "mult"], ["bm32", "omsp430"])
        assert "Figure 5" in text
        assert "%" in text
        assert "#" in text

    def test_figure6_log_scale_handles_one_path(self, grid):
        text = figure6(grid, ["Div", "mult"], ["bm32", "omsp430"])
        assert "Figure 6" in text
        # counts are printed verbatim
        assert " 3" in text


class TestRunnerCache:
    def test_no_cache_dir_reruns(self, monkeypatch):
        """The grid keeps no results: every call runs all 18 pairs."""
        from repro.reporting import runner
        from repro.workloads import WORKLOAD_ORDER
        calls = []

        def counting_run_one(design, bench, **kw):
            assert not kw               # run_one's own defaults
            calls.append((design, bench))
            return fake_result(design, bench, 1, 1, 0, 1)

        monkeypatch.setattr(runner, "run_one", counting_run_one)
        pairs = [(d, b) for d in runner.DESIGN_ORDER
                 for b in WORKLOAD_ORDER]
        assert len(pairs) == 18
        for _ in range(2):
            calls.clear()
            grid = runner.run_grid()
            assert calls == pairs
            assert [(d, b) for d in grid for b in grid[d]] == pairs


class TestDefaultCacheDir:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        from repro.resilience.artifacts import default_cache_dir
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_not_inside_the_package_tree(self, monkeypatch):
        import repro
        from repro.resilience.artifacts import default_cache_dir
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        pkg = Path(repro.__file__).resolve().parent
        resolved = default_cache_dir().resolve()
        assert pkg not in resolved.parents and resolved != pkg

    def test_xdg_cache_home_honored(self, tmp_path, monkeypatch):
        from repro.resilience.artifacts import default_cache_dir
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro"
