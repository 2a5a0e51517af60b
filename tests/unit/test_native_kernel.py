"""The compiled level kernel (:mod:`repro.sim.native`) against the numpy
level tables.

The numpy tables are the reference: on random X-laden planes with
random forces, the compiled serial settle and edge must leave the same
codes, and the compiled lane settle and edge the same words, as the
numpy paths -- dirty flags, dead lanes and partial lane forces
included.  When the kernel cannot be built or loaded, the simulators
fall back to the numpy tables with one warning and the same answers.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.coanalysis.trace import read_trace
from repro.logic import Logic
from repro.netlist import Netlist
from repro.reporting.runner import run_one
from repro.sim import (LANE_CAPACITY, BatchCycleSim, CycleSim,
                       batch_kernels_for, compile_netlist, native)
from repro.sim.cycle_sim import FLOP_KINDS, FLOP_TABLE, GATE_TABLE, \
    _FLOP_SLOT
from repro.sim.planes import CODE_0, CODE_1, CODE_X
from repro.workloads import built_core

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
LEVELS = (Logic.L0, Logic.L1, Logic.X)
#: lanes left dead (dropped) in the lane parity tests
DEAD_LANES = (3, 17, 40, 63)

requires_kernel = pytest.mark.skipif(
    native.load_kernel() is None,
    reason="the compiled level kernel did not build here")


def flop_ring_netlist(n_per_kind: int = 3) -> Netlist:
    """Flops of every kind whose D, E and R pins read other flops' Q
    directly, so an edge that wrote a Q before computing every next
    state would feed the new value forward."""
    nl = Netlist("ring")
    kinds = [k for k in FLOP_KINDS for _ in range(n_per_kind)]
    qs = [nl.add_net(f"q{i}") for i in range(len(kinds))]
    for i, (kind, q) in enumerate(zip(kinds, qs)):
        pins = [qs[(i + step) % len(qs)] for step in (1, 2, 3)]
        arity = {"DFF": 1, "DFFE": 2, "DFFR": 2, "DFFER": 3}[kind]
        nl.add_gate(f"f{i}", kind, pins[:arity], q)
        nl.mark_output(q)
    return nl


def compiled_design(design):
    if design == "ring":
        return compile_netlist(flop_ring_netlist())
    return compile_netlist(built_core(design)[0])


DESIGNS = ["bm32", "omsp430", "dr5", "ring"]


def twins(cls, compiled, monkeypatch):
    """One simulator on the compiled kernel, one on the numpy tables."""
    compiled_sim = cls(compiled)
    with monkeypatch.context() as patch:
        patch.setattr(native, "load_kernel", lambda: None)
        numpy_sim = cls(compiled)
    assert (compiled_sim.kernel, numpy_sim.kernel) == ("c", "numpy")
    return compiled_sim, numpy_sim


def force_targets(compiled, rng, per_class: int = 6):
    """Random nets to force: primary inputs, flop outputs, comb nets."""
    classes = [np.asarray(compiled.netlist.inputs, dtype=np.intp),
               compiled.flop_ports[0],
               np.concatenate([out for *_, out in compiled.levels])
               if compiled.levels else np.zeros(0, dtype=np.intp)]
    nets = []
    for pool in classes:
        if len(pool):
            nets += rng.choice(pool, min(per_class, len(pool)),
                               replace=False).tolist()
    return nets


def settle_counts(sim):
    return sim.full_settles, sim.noop_settles


@requires_kernel
class TestSerialParity:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_settle_and_edge_match_numpy(self, design, monkeypatch):
        compiled = compiled_design(design)
        fast, ref = twins(CycleSim, compiled, monkeypatch)
        rng = np.random.default_rng(7)
        for _ in range(3):
            codes = rng.choice(np.array([CODE_X, CODE_0, CODE_1],
                                        dtype=np.uint16), compiled.n_nets)
            forces = {net: LEVELS[rng.integers(3)]
                      for net in force_targets(compiled, rng)}
            for sim in (fast, ref):
                sim.release()
                sim.code[:] = codes
                for net, value in forces.items():
                    sim.force(net, value)
                sim.mark_all_dirty()
                sim.settle()
            assert (fast.code == ref.code).all()
            for _ in range(2):
                for sim in (fast, ref):
                    sim.clock_edge()
                    sim.settle()
                assert (fast.code == ref.code).all()
                assert settle_counts(fast) == settle_counts(ref)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_edges_from_the_all_x_state_match_numpy(self, design,
                                                    monkeypatch):
        fast, ref = twins(CycleSim, compiled_design(design), monkeypatch)
        for _ in range(6):
            for sim in (fast, ref):
                sim.settle()
                sim.clock_edge()
            assert (fast.code == ref.code).all()
            assert settle_counts(fast) == settle_counts(ref)

    def test_unchanged_edge_leaves_the_sim_clean(self, monkeypatch):
        """The ring's all-X state holds across an edge: no Q changes,
        so the next settle is a no-op on both paths."""
        fast, ref = twins(CycleSim, compiled_design("ring"), monkeypatch)
        for sim in (fast, ref):
            sim.settle()
            sim.clock_edge()
            sim.settle()
        assert (fast.code == ref.code).all()
        assert settle_counts(fast) == settle_counts(ref) == (1, 1)


@requires_kernel
class TestLaneParity:
    @staticmethod
    def _lanes(compiled, monkeypatch):
        fast, ref = twins(BatchCycleSim, compiled, monkeypatch)
        for sim in (fast, ref):
            for _ in range(LANE_CAPACITY):
                sim.alloc_lane()
            for lane in DEAD_LANES:
                sim.drop_lane(lane)
        return fast, ref

    @pytest.mark.parametrize("design", DESIGNS)
    def test_settle_and_edge_match_numpy(self, design, monkeypatch):
        compiled = compiled_design(design)
        fast, ref = self._lanes(compiled, monkeypatch)
        live = [lane for lane in range(LANE_CAPACITY)
                if lane not in DEAD_LANES]
        live_bits = np.uint64(sum(1 << lane for lane in live))
        rng = np.random.default_rng(11)
        shape = (compiled.n_nets,)
        for _ in range(3):
            known = rng.integers(0, 2**64, shape, dtype=np.uint64)
            val = rng.integers(0, 2**64, shape, dtype=np.uint64)
            # live lanes keep val inside known; dead lanes hold garbage
            val &= known | ~live_bits
            forces = [(net, int(rng.choice(live)), LEVELS[rng.integers(3)])
                      for net in force_targets(compiled, rng)
                      for _ in range(2)]
            for sim in (fast, ref):
                for lane in live:
                    sim.lane_release(lane)
                sim.val[:] = val
                sim.known[:] = known
                for net, lane, value in forces:
                    sim.lane_force(lane, net, value)
                sim.mark_all_dirty()
                sim.settle()
            assert (fast.val == ref.val).all()
            assert (fast.known == ref.known).all()
            for _ in range(2):
                for sim in (fast, ref):
                    sim.clock_edge()
                    sim.settle()
                assert (fast.val == ref.val).all()
                assert (fast.known == ref.known).all()
                assert settle_counts(fast) == settle_counts(ref)
        assert fast.lane_cycle == ref.lane_cycle

    def test_dead_lane_changes_leave_the_sim_clean(self, monkeypatch):
        """The ring's live lanes, all X, hold across an edge while the
        dead lanes' garbage moves: neither path marks the planes
        dirty."""
        compiled = compiled_design("ring")
        fast, ref = self._lanes(compiled, monkeypatch)
        rng = np.random.default_rng(5)
        dead = np.uint64(sum(1 << lane for lane in DEAD_LANES))
        garbage = rng.integers(0, 2**64, (2, compiled.n_nets),
                               dtype=np.uint64) & dead
        for sim in (fast, ref):
            sim.settle()
            sim.val |= garbage[0]
            sim.known |= garbage[1]
            sim.clock_edge()
            sim.settle()
        assert (fast.val == ref.val).all()
        assert (fast.known == ref.known).all()
        assert settle_counts(fast) == settle_counts(ref) == (1, 1)


class TestValidation:
    """A table with an index outside its buffer is rejected while
    packing, before any pointer reaches C."""

    def test_gate_net_out_of_range(self):
        compiled = compiled_design("dr5")
        levels = [(lvl, ins.copy(), off, out.copy())
                  for lvl, ins, off, out in compiled.levels]
        levels[-1][3][0] = compiled.n_nets
        with pytest.raises(ValueError, match="gate nets"):
            native.pack_gates(levels, compiled.n_nets, GATE_TABLE)
        levels[-1][3][0] = 0
        levels[0][1][2, 0] = -1
        with pytest.raises(ValueError, match="gate nets"):
            native.pack_gates(levels, compiled.n_nets, GATE_TABLE)

    def test_gate_offset_past_the_table(self):
        compiled = compiled_design("dr5")
        levels = [(lvl, ins, off.copy(), out)
                  for lvl, ins, off, out in compiled.levels]
        levels[0][2][0] = len(GATE_TABLE) - 1
        with pytest.raises(ValueError, match="gate offsets"):
            native.pack_gates(levels, compiled.n_nets, GATE_TABLE)

    def test_flop_port_out_of_range(self):
        compiled = compiled_design("ring")
        ports = compiled.flop_ports.copy()
        ports[1, 0] = compiled.n_nets
        with pytest.raises(ValueError, match="flop nets"):
            native.pack_flops(ports, compiled.flop_offset, compiled.n_nets,
                              FLOP_TABLE, _FLOP_SLOT)

    def test_lane_rail_out_of_range(self):
        compiled = compiled_design("dr5")
        kernels = batch_kernels_for(compiled)
        tables = [(lvl, left.copy(), right, scatter)
                  for lvl, left, right, scatter in kernels.tables]
        tables[0][1][0, 0, 0] = 2 * kernels.rows
        with pytest.raises(ValueError, match="rail positions"):
            native.pack_lanes(tables, kernels.rows, compiled.n_nets)

    def test_lane_output_must_be_a_net(self):
        compiled = compiled_design("dr5")
        kernels = batch_kernels_for(compiled)
        tables = [(lvl, left, right, scatter.copy())
                  for lvl, left, right, scatter in kernels.tables]
        tables[0][3][0, 0] = compiled.n_nets        # the constant-0 row
        with pytest.raises(ValueError, match="lane outputs"):
            native.pack_lanes(tables, kernels.rows, compiled.n_nets)

    def test_too_many_nets_for_int32(self):
        with pytest.raises(ValueError, match="int32"):
            native.pack_gates([], 2**31, GATE_TABLE)

    def test_index_that_would_wrap_in_int32(self):
        """2**32 + 5 casts to 5, a valid net: it is rejected first."""
        compiled = compiled_design("dr5")
        levels = [(lvl, ins, off, out.copy())
                  for lvl, ins, off, out in compiled.levels]
        levels[0][3][0] = 2**32 + 5
        with pytest.raises(ValueError, match="gate nets"):
            native.pack_gates(levels, compiled.n_nets, GATE_TABLE)

    @requires_kernel
    def test_forced_net_outside_the_plane(self):
        """numpy would wrap a negative index; C must never see one."""
        compiled = compiled_design("ring")
        sim = CycleSim(compiled)
        sim.force(-1, Logic.L1)
        with pytest.raises(IndexError):
            sim.settle()
        batch = BatchCycleSim(compiled)
        batch.lane_force(batch.alloc_lane(), -1, Logic.L1)
        with pytest.raises(IndexError):
            batch.settle()


def _summary_and_gates(result):
    return result.summary(), sorted(result.profile.exercisable_gates())


def _fake_compiler(tmp_path, body: str):
    script = tmp_path / "fake_cc.py"
    script.write_text(textwrap.dedent(body))
    return [sys.executable, str(script)]


FALLBACKS = {
    "missing compiler": lambda tmp: [str(tmp / "no-such-cc")],
    "failing compile": lambda tmp: _fake_compiler(tmp, """
        import sys
        sys.exit("error: cannot compile")
        """),
    "unloadable library": lambda tmp: _fake_compiler(tmp, """
        import sys
        out = sys.argv[sys.argv.index("-o") + 1]
        open(out, "w").write("not a shared object")
        """),
}


@requires_kernel
class TestFallback:
    @pytest.mark.parametrize("why", sorted(FALLBACKS))
    def test_same_answers_and_one_warning(self, why, tmp_path,
                                          monkeypatch):
        reference = {engine: _summary_and_gates(
            run_one("dr5", "mult", engine=engine))
            for engine in ("serial", "batch")}
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        loader = native.KernelLoader(compiler=FALLBACKS[why](tmp_path))
        monkeypatch.setattr(native, "_LOADER", loader)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = {engine: _summary_and_gates(
                run_one("dr5", "mult", engine=engine))
                for engine in ("serial", "batch")}
        assert got == reference
        fallback = [w for w in caught if w.category is RuntimeWarning]
        assert len(fallback) == 1, [str(w.message) for w in caught]
        assert "numpy level tables" in str(fallback[0].message)
        assert loader.reason is not None
        assert not list((tmp_path / "cache").rglob("*.tmp"))

    def test_threads_racing_the_first_load_all_get_the_kernel(
            self, tmp_path, monkeypatch):
        """Threads that ask while the first build is still running wait
        for it instead of seeing a half-finished attempt (None)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        loader = native.KernelLoader()
        got = []
        threads = [threading.Thread(target=lambda: got.append(
            loader.kernel())) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 8 and got[0] is not None
        assert all(kernel is got[0] for kernel in got)

    def test_unwritable_cache_dir_builds_for_the_process(self, tmp_path,
                                                         monkeypatch):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        loader = native.KernelLoader()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert loader.kernel() is not None
        assert loader.reason is None


class TestTraceNamesTheKernel:
    @pytest.mark.parametrize("engine", ["serial", "batch"])
    def test_run_start_names_the_kernel(self, engine, tmp_path,
                                        monkeypatch):
        path = tmp_path / "compiled.jsonl"
        run_one("dr5", "mult", engine=engine, trace=path)
        expected = "c" if native.load_kernel() is not None else "numpy"
        assert read_trace(path)[0].data["kernel"] == expected

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "_LOADER", native.KernelLoader(
            compiler=[str(tmp_path / "no-such-cc")]))
        path = tmp_path / "fallback.jsonl"
        with pytest.warns(RuntimeWarning, match="numpy level tables"):
            run_one("dr5", "mult", engine=engine, trace=path)
        start = read_trace(path)[0]
        assert start.kind == "run_start"
        assert start.data["kernel"] == "numpy"

    def test_event_engine_names_no_kernel(self, tmp_path):
        path = tmp_path / "event.jsonl"
        run_one("dr5", "mult", engine="event", trace=path)
        assert "kernel" not in read_trace(path)[0].data


#: a child process: load the kernel from REPRO_CACHE_DIR, settle a
#: random dr5 plane, and print the kernel and a digest of the codes
CHILD = """
import hashlib, json, warnings
import numpy as np
from repro.sim import CycleSim, compile_netlist
from repro.workloads import built_core
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    sim = CycleSim(compile_netlist(built_core("dr5")[0]))
rng = np.random.default_rng(3)
sim.code[:] = rng.choice(np.array([0, 0x100, 0x101], dtype=np.uint16),
                         len(sim.code))
sim.mark_all_dirty()
sim.settle()
sim.clock_edge()
sim.settle()
print(json.dumps({"kernel": sim.kernel,
                  "digest": hashlib.sha256(sim.code.tobytes()).hexdigest(),
                  "warnings": [str(w.message) for w in caught]}))
"""


def _spawn(cache: Path) -> subprocess.Popen:
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache),
               PYTHONPATH=os.pathsep.join(
                   [str(REPO_SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen([sys.executable, "-c", CHILD], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _finish(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


@requires_kernel
class TestInstall:
    def test_racing_builds_both_load(self, tmp_path):
        cache = tmp_path / "cache"
        procs = [_spawn(cache), _spawn(cache)]
        runs = [_finish(proc) for proc in procs]
        assert [run["kernel"] for run in runs] == ["c", "c"]
        assert runs[0]["digest"] == runs[1]["digest"]
        assert runs[0]["warnings"] == runs[1]["warnings"] == []
        built = list((cache / "native").iterdir())
        assert [path.suffix for path in built] == [".so"]

    def test_truncated_library_is_rebuilt(self, tmp_path):
        cache = tmp_path / "cache"
        first = _finish(_spawn(cache))
        (library,) = (cache / "native").iterdir()
        size = library.stat().st_size
        with open(library, "r+b") as fh:
            fh.truncate(size // 3)
        again = _finish(_spawn(cache))
        assert again == first
        assert library.stat().st_size == size

