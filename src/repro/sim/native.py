"""The compiled level kernel: one C file, built once per host, loaded by
``ctypes``.

:class:`~repro.sim.cycle_sim.CycleSim` and
:class:`~repro.sim.batch_sim.BatchCycleSim` settle a cycle by walking
their level tables.  In numpy that costs a few microseconds of dispatch
per logic level, and the paper's cores have 89-110 levels.
``level_kernel.c`` walks the same tables in one loop per call: serial
settle and edge on 2-byte net codes, lane settle and edge on 64-lane
dual-rail words.  It holds nothing netlist-specific -- every table is an
argument -- and computes bit for bit what the numpy level tables
compute; those stay as the fallback and as the reference the tests
compare against.

Building and loading happen at the first simulator construction, never
at import:

* the source is compiled with the compiler Python was built with
  (``sysconfig``'s ``CC``, else ``cc``) and ``-O2 -shared -fPIC`` into
  ``default_cache_dir()/native/<key>.so``, where the key is the SHA-256
  of the source, the compiler command, the flags and the machine;
* the build goes to a temporary file in that directory, which
  ``os.replace`` installs, so processes racing to build each load a
  whole file; an unwritable cache directory builds into a per-process
  temporary directory instead;
* the installed file ends in a seal, the SHA-256 of the library before
  it: ``dlopen`` of a truncated library can die of ``SIGBUS`` instead
  of failing, so a cached file is loaded only when its seal matches,
  and rebuilt otherwise (as is one that still does not load).

When no compiler runs, the compile fails or the library does not load,
the simulators run the numpy level tables, and one ``RuntimeWarning``
per process names the reason.

``ctypes`` calls take raw buffer addresses.  The ``pack_*`` functions
turn the level tables into int32 rows, once per compiled netlist, and
check every index against the buffer it addresses before any pointer
is passed: an out-of-range index in C corrupts memory instead of
raising ``IndexError``.  The callers keep a reference to every buffer
whose address they cache, and never rebind those buffers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: the kernel's C source, shipped as package data
SOURCE = Path(__file__).with_name("level_kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 120

#: the seal's tag; the SHA-256 of everything before the tag follows it
_SEAL = b"\0repro level kernel sha256\0"

#: the largest operand sum a net code index adds to a gate or flop
#: table offset: ``1+2+4`` (gates) or ``1+2+4+8`` (flops) times the
#: largest masked code, ``0x101``
_GATE_SPAN = 7 * 0x101
_FLOP_SPAN = 15 * 0x101

_PTR, _N = ctypes.c_void_p, ctypes.c_int64
#: ``name -> (restype, argtypes)`` of the four entry points
_SIGNATURES = {
    "repro_serial_settle": (None, [_PTR, _PTR, _PTR, _N,
                                   _PTR, _PTR, _N, _PTR]),
    "repro_serial_edge": (ctypes.c_int, [_PTR, _PTR, _PTR, _N, _PTR]),
    "repro_lane_settle": (None, [_PTR, _PTR, _PTR, _N, _N, _PTR, _N,
                                 _PTR, _PTR, _PTR, _PTR, _N, _PTR]),
    "repro_lane_edge": (ctypes.c_int, [_PTR, _PTR, _PTR, _N, _PTR,
                                       ctypes.c_uint64]),
}


class KernelUnavailable(Exception):
    """The kernel could not be built."""


class NativeKernel:
    """The four entry points of one loaded kernel library, each with
    its ``argtypes`` and ``restype`` declared."""

    __slots__ = ("lib", "serial_settle", "serial_edge", "lane_settle",
                 "lane_edge")

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
            setattr(self, name[len("repro_"):], fn)


def _python_compiler() -> List[str]:
    """The compiler command Python was built with, else ``cc``."""
    return (sysconfig.get_config_var("CC") or "cc").split()


class KernelLoader:
    """Builds the kernel once per host and loads it once per process.

    ``compiler`` is the compiler command; ``None`` is the one Python
    was built with.  Tests pass a broken one to exercise the fallback.
    """

    def __init__(self, compiler: Optional[Sequence[str]] = None):
        self.compiler = list(compiler) if compiler is not None else None
        #: held while the first caller loads, so no thread sees a
        #: half-finished attempt
        self._lock = threading.Lock()
        self._tried = False
        self._kernel: Optional[NativeKernel] = None
        #: why the numpy level tables run (None once the kernel loaded)
        self.reason: Optional[str] = None

    def kernel(self) -> Optional[NativeKernel]:
        """The loaded kernel, or None when the numpy path must run."""
        with self._lock:
            if not self._tried:
                self._tried = True
                try:
                    self._kernel = NativeKernel(self._load())
                except (KernelUnavailable, OSError) as exc:
                    self.reason = f"{type(exc).__name__}: {exc}"
                    warnings.warn(
                        f"compiled level kernel unavailable "
                        f"({self.reason}); settling with the numpy level "
                        f"tables", RuntimeWarning, stacklevel=3)
        return self._kernel

    def _load(self) -> ctypes.CDLL:
        # resilience's package init imports the co-analysis engine,
        # which imports this package: import the leaf module late
        from ..resilience.artifacts import default_cache_dir
        cmd = self.compiler if self.compiler is not None \
            else _python_compiler()
        key = hashlib.sha256(b"\0".join([
            SOURCE.read_bytes(), " ".join(cmd).encode(),
            " ".join(FLAGS).encode(), platform.machine().encode()
        ])).hexdigest()
        path = default_cache_dir() / "native" / f"{key}.so"
        if _sealed(path):
            try:
                return ctypes.CDLL(str(path))
            except OSError:
                pass                    # foreign: build it anew
        try:
            _install(cmd, path)
        except OSError:
            # the cache directory is not writable: build for this
            # process only (a loaded library outlives its file)
            tmp = tempfile.mkdtemp(prefix="repro-native-")
            try:
                path = Path(tmp) / path.name
                _install(cmd, path)
                return ctypes.CDLL(str(path))
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        return ctypes.CDLL(str(path))


def _install(cmd: List[str], path: Path) -> None:
    """Compile :data:`SOURCE` into a temporary file beside ``path``,
    seal it, then ``os.replace`` it over ``path``: a reader sees no
    file or a whole one."""
    import subprocess
    from ..resilience.artifacts import fsync_dir
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        try:
            subprocess.run([*cmd, *FLAGS, "-o", tmp, str(SOURCE)],
                           check=True, capture_output=True,
                           timeout=BUILD_TIMEOUT_S)
        except FileNotFoundError as exc:
            raise KernelUnavailable(f"no compiler {cmd[0]!r}") from exc
        except subprocess.CalledProcessError as exc:
            err = exc.stderr.decode(errors="replace").strip()
            raise KernelUnavailable(
                f"{' '.join(cmd)} exited {exc.returncode}: "
                f"{err[-300:]}") from exc
        except subprocess.TimeoutExpired as exc:
            raise KernelUnavailable(
                f"{' '.join(cmd)} ran past {BUILD_TIMEOUT_S} s") from exc
        with open(tmp, "r+b") as fh:
            fh.write(_SEAL + hashlib.sha256(fh.read()).digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


def _sealed(path: Path) -> bool:
    """Whether ``path`` is a whole library as :func:`_install` wrote
    it: its seal matches the bytes before it."""
    try:
        blob = path.read_bytes()
    except OSError:
        return False
    body, seal = blob[:-32 - len(_SEAL)], blob[-32 - len(_SEAL):]
    return seal == _SEAL + hashlib.sha256(body).digest()


_LOADER = KernelLoader()


def load_kernel() -> Optional[NativeKernel]:
    """This process's compiled kernel (built or loaded on the first
    call), or None: the simulators then settle in numpy."""
    return _LOADER.kernel()


# -- table packing ---------------------------------------------------------
def _int32_rows(rows: np.ndarray, *bounds: Tuple[Sequence[int], int, str]
                ) -> np.ndarray:
    """``rows`` as C-contiguous int32, rejected unless, for each ``(cols,
    limit, what)`` of ``bounds``, every entry of ``cols`` lies in ``[0,
    limit)`` -- checked before the cast, which would wrap."""
    for cols, limit, what in bounds:
        if not 0 <= limit < 2**31:
            raise ValueError(f"{what}: {limit} does not fit int32 indices")
        picked = rows[:, cols]
        if picked.size and (picked.min() < 0 or picked.max() >= limit):
            raise ValueError(f"{what}: index outside [0, {limit})")
    return np.ascontiguousarray(rows, dtype=np.int32)


def pack_gates(levels, n_nets: int, gate_table: np.ndarray) -> np.ndarray:
    """The serial level tables as ``(n_gates, 5)`` int32 rows ``(in0,
    in1, in2, offset, out)`` in level order."""
    rows = np.zeros((sum(len(out) for *_, out in levels), 5),
                    dtype=np.int64)
    if levels:
        rows[:, :3] = np.concatenate([ins for _, ins, _, _ in levels],
                                     axis=1).T
        rows[:, 3] = np.concatenate([off for _, _, off, _ in levels])
        rows[:, 4] = np.concatenate([out for *_, out in levels])
    return _int32_rows(rows, ([0, 1, 2, 4], n_nets, "gate nets"),
                       ([3], len(gate_table) - _GATE_SPAN, "gate offsets"))


def pack_flops(ports: np.ndarray, offset: np.ndarray, n_nets: int,
               flop_table: np.ndarray, flop_slot: int) -> np.ndarray:
    """The flops' ``(4, n_flops)`` port nets and table offsets as
    ``(n_flops, 6)`` int32 rows ``(q, d, e, r, offset, kind)``, where
    ``kind`` is the offset's slot (bit 0: an enable pin, bit 1: a reset
    pin)."""
    rows = np.zeros((ports.shape[1], 6), dtype=np.int64)
    rows[:, :4] = ports.T
    rows[:, 4] = offset
    rows[:, 5] = offset // flop_slot
    return _int32_rows(rows, ([0, 1, 2, 3], n_nets, "flop nets"),
                       ([4], len(flop_table) - _FLOP_SPAN, "flop offsets"))


def pack_lanes(tables, rows: int, n_nets: int) -> np.ndarray:
    """The lane level ``tables`` of a ``rows``-row rails buffer as
    ``(n_gates, 8)`` int32 rows of rail positions ``(s_zero, s_one,
    d0_zero, d0_one, d1_zero, d1_one, out_zero, out_one)`` in level
    order; ``out_zero`` is the output net itself."""
    packed = np.zeros((sum(scatter.shape[1] for *_, scatter in tables), 8),
                      dtype=np.int64)
    if tables:
        left, right, scatter = (
            np.concatenate([table[i] for table in tables], axis=-1)
            for i in (1, 2, 3))
        packed[:, 0] = left[0, 0]           # s_zero
        packed[:, 1] = left[1, 0]           # s_one
        packed[:, 2:4] = right[0].T         # d0 rails
        packed[:, 4:6] = right[1].T         # d1 rails
        packed[:, 6:] = scatter.T           # output rails
    return _int32_rows(packed, ([0, 1, 2, 3, 4, 5, 7], 2 * rows,
                                "lane rail positions"),
                       ([6], n_nets, "lane outputs"))

