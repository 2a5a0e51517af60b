"""The service-resubmit workload: a live ``repro serve`` driven over HTTP.

One round launches ``repro serve --workers 2`` on a fresh store and
runs three passes with two closed-loop clients (each sends its next
job only after seeing the previous one terminal); every pass starts
only after the previous one has fully finished:

1. ``cold``: submit the omsp430 benchmarks;
2. ``dedup``: resubmit them -- served from the store by dedup;
3. ``replay``: resubmit with ``"dedup": false`` -- executed again, the
   workers replaying settled segments from the segment cache.

Standard library only: the benchmark talks to the service the way any
client would, and reads the store's statistics through the CLI.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import (SERVICE_DESIGN, SERVICE_PASSES, client_orders,
                       label)

TERMINAL = ("DONE", "FAILED", "CANCELLED", "PARTIAL")
#: client poll period while a job runs (the scheduler itself notices a
#: finished worker within its own 50 ms loop period)
POLL_S = 0.02
#: give up on one job after this long (a hung job is a failed op)
JOB_TIMEOUT_S = 120.0


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` (read from /proc)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _env(root: Path) -> Dict[str, str]:
    """The environment a ``python -m repro`` child needs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


class Server:
    """One ``repro serve`` process on its own fresh store."""

    def __init__(self, root: Path, work: Path, workers: int = 2):
        self.store = work / "store"
        self.log = work / "serve.log"
        work.mkdir(parents=True, exist_ok=True)
        env = _env(root)
        self.launched = time.time()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--cache", str(self.store), "--port", "0",
                 "--workers", str(workers)],
                stdout=subprocess.DEVNULL, stderr=log, env=env,
                cwd=str(root))
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until ``/healthz`` answers; returns seconds since
        launch."""
        deadline = time.monotonic() + timeout
        marker = "job service on http://"
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start: "
                                   + self.log.read_text()[-2000:])
            text = self.log.read_text(errors="replace")
            if marker in text:
                addr = text.split(marker, 1)[1].split()[0]
                host, port = addr.rsplit(":", 1)
                self.host, self.port = host, int(port)
            else:
                time.sleep(0.005)
        while True:
            client = Client(self)
            try:
                client.get("/healthz")
                return time.time() - self.launched
            except OSError:
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
            finally:
                client.close()

    def stop(self, timeout: float = 30.0) -> float:
        """SIGINT (a graceful drain), then reap; returns the peak RSS in
        MB of the server and of every worker it waited for (0.0 when the
        server had to be killed or was already reaped)."""
        if self.proc.returncode is not None:
            self.kill()
            return 0.0
        self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return usage.ru_maxrss / 1024.0
            time.sleep(0.01)
        self.kill()
        return 0.0

    def kill(self) -> None:
        """Last resort: SIGKILL the server and anything it started."""
        for pid in [self.proc.pid] + descendants(self.proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()


class Client:
    """A keep-alive JSON client for one closed-loop user."""

    def __init__(self, server: Server):
        self.conn = http.client.HTTPConnection(server.host, server.port,
                                               timeout=60)

    def _call(self, method: str, path: str, body=None) -> Dict:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        resp = self.conn.getresponse()
        payload = json.loads(resp.read())
        if resp.status >= 400:
            raise RuntimeError(f"HTTP {resp.status} on {path}: "
                               f"{payload.get('error', '')}")
        return payload

    def get(self, path: str) -> Dict:
        return self._call("GET", path)

    def post(self, path: str, body) -> Dict:
        return self._call("POST", path, body)

    def close(self) -> None:
        self.conn.close()


def _client_loop(server: Server, benches: List[str], dedup: bool,
                 t0: float, deadline: float, out: List[Dict]) -> None:
    client = Client(server)
    try:
        for bench in benches:
            op = {"label": label((SERVICE_DESIGN, bench))}
            start = time.perf_counter()
            try:
                view = client.post("/jobs", {
                    "design": SERVICE_DESIGN, "benchmark": bench,
                    "dedup": dedup, "submitter": "bench"})
                op["submit_s"] = time.perf_counter() - start
                give_up = min(time.monotonic() + JOB_TIMEOUT_S, deadline)
                while view.get("state") not in TERMINAL:
                    if time.monotonic() > give_up:
                        raise TimeoutError(f"job {view.get('job')} still "
                                           f"{view.get('state')}")
                    time.sleep(POLL_S)
                    view = client.get(f"/jobs/{view['job']}")
            except Exception as exc:      # noqa: BLE001 -- a failed op
                op["error"] = f"{type(exc).__name__}: {exc}"
                view = None
            op["start"] = start - t0
            op["end"] = time.perf_counter() - t0
            op["view"] = view
            out.append(op)
    finally:
        client.close()


def run_round(root: Path, work: Path, seed: int, round_index: int,
              deadline: float, traced: bool) -> Dict:
    """One full round; returns set-up, per-job records and, when
    ``traced``, the outside views of each layer.  No job is waited for
    past ``deadline`` (a ``time.monotonic()`` value)."""
    server = Server(root, work)
    doc: Dict = {"passes": []}
    try:
        doc["setup_s"] = server.wait_ready()
        orders = client_orders(seed, round_index)
        t0 = time.perf_counter()
        for name, dedup in SERVICE_PASSES:
            results: List[List[Dict]] = [[] for _ in orders]
            threads = [threading.Thread(
                target=_client_loop,
                args=(server, benches, dedup, t0, deadline, results[i]))
                for i, benches in enumerate(orders)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            doc["passes"].append({"name": name,
                                  "ops": [op for ops in results
                                          for op in ops]})
        ops = [op for p in doc["passes"] for op in p["ops"]]
        doc["wall_s"] = max(op["end"] for op in ops) - \
            min(op["start"] for op in ops)
        if traced:
            client = Client(server)
            try:
                doc["metrics"] = client.get("/metrics")
            finally:
                client.close()
    finally:
        doc["peak_rss_mb"] = server.stop()
    if traced:
        doc["store"] = store_stats(root, server.store)
        doc["trace_files"] = [_trace_file(p) for p in
                              sorted(server.store.rglob("*.jsonl"))]
    return doc


def _trace_file(path: Path) -> Dict:
    with open(path, "rb") as fh:
        events = sum(1 for _ in fh)
    return {"bytes": path.stat().st_size, "events": events}


def setup_probe(root: Path, work: Path) -> float:
    """Launch a server on a fresh store, time it to ``/healthz``, stop."""
    server = Server(root, work)
    try:
        return server.wait_ready()
    finally:
        server.stop()


def store_stats(root: Path, store: Path) -> Dict:
    """``repro store stats --json`` for ``store``."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "store", "stats", "--cache",
         str(store), "--json"], capture_output=True, text=True,
        env=_env(root), cwd=str(root), timeout=120, check=True)
    return json.loads(out.stdout)
