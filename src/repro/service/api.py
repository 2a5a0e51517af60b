"""The dependency-free HTTP face of the job service.

:class:`ServiceAPI` wraps a :class:`~repro.service.scheduler.Scheduler`
in a :class:`http.server.ThreadingHTTPServer` -- stdlib only, one
thread per connection, which is plenty for a control plane whose hot
path (a duplicate submission) is a manifest write.  Routes::

    GET  /healthz                  liveness probe
    GET  /metrics                  queue depth, utilization, dedup ratio
    GET  /jobs                     all jobs (most recent last)
    POST /jobs                     submit a JobSpec (JSON body)
    GET  /jobs/<id>                one job's manifest
    POST /jobs/<id>/cancel         cancel (SIGTERM if running)
    GET  /jobs/<id>/artifacts      artifact digests + result summary
    GET  /jobs/<id>/trace          the JSONL trace, streamed as written

:class:`ServiceClient` is the matching urllib client the CLI uses, so
``repro submit`` works against any reachable service with no extra
installs on either side.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, List, Optional

from .jobs import JobSpecError, JobStateError, UnknownJob
from .scheduler import Scheduler

#: default TCP port for ``repro serve``
DEFAULT_PORT = 8351


class ServiceError(RuntimeError):
    """A client-side request failed; carries the HTTP status."""

    def __init__(self, message: str, status: int = 0):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.scheduler``."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: A003 -- quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    @property
    def scheduler(self) -> Scheduler:
        return self.server.scheduler

    def _send_json(self, payload, status: int = 200) -> None:
        blob = json.dumps(payload, indent=2, default=str).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(blob)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> Dict:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = None
        if length is None or length <= 0:
            # a body that follows is unread and cannot be framed: answer,
            # then close, so it is never parsed as the next request
            self.close_connection = True
            raise JobSpecError(
                f"Content-Length is not an integer: {header!r}"
                if length is None
                else "empty request body; expected a JSON spec")
        try:
            payload = json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError) as exc:
            raise JobSpecError(f"request body is not JSON: {exc}")
        return payload

    # -- routing -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        try:
            self._route_get()
        except UnknownJob as exc:
            self._send_error_json(404, f"unknown job: {exc}")
        except BrokenPipeError:
            pass
        except Exception as exc:      # noqa: BLE001 -- API boundary
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._route_post()
        except JobSpecError as exc:
            self._send_error_json(400, str(exc))
        except UnknownJob as exc:
            self._send_error_json(404, f"unknown job: {exc}")
        except JobStateError as exc:
            self._send_error_json(409, str(exc))
        except BrokenPipeError:
            pass
        except Exception as exc:      # noqa: BLE001
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def _route_get(self) -> None:
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["healthz"]:
            self._send_json({"ok": True})
        elif parts == ["metrics"]:
            self._send_json(self.scheduler.metrics())
        elif parts == ["jobs"]:
            self._send_json({"jobs": [job.to_manifest() for job
                                      in self.scheduler.list_jobs()]})
        elif len(parts) == 2 and parts[0] == "jobs":
            self._send_json(self.scheduler.get(parts[1]).to_manifest())
        elif len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "artifacts":
            self._get_artifacts(parts[1])
        elif len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "trace":
            self._get_trace(parts[1])
        else:
            self._send_error_json(404, f"no route for {self.path}")

    def _route_post(self) -> None:
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["jobs"]:
            job = self.scheduler.submit(self._read_body())
            self._send_json(job.to_manifest(), status=202)
        elif len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "cancel":
            self._send_json(self.scheduler.cancel(parts[1]).to_manifest())
        else:
            self._send_error_json(404, f"no route for {self.path}")

    # -- artifact / trace routes ---------------------------------------------
    def _get_artifacts(self, job_id: str) -> None:
        job = self.scheduler.get(job_id)
        self._send_json({
            "job": job.job_id,
            "state": job.state,
            "result": job.result_digest,
            "artifacts": dict(job.artifacts),
            "summary": dict(job.summary),
            "metrics": dict(job.metrics),
        })

    def _get_trace(self, job_id: str) -> None:
        """Stream the job's JSONL trace, chunked, following a live file
        until the job settles (so a client can tail a running job)."""
        job = self.scheduler.get(job_id)
        path = self.scheduler.job_store.trace_path(job.job_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for chunk in self._follow(job_id, path):
                self.wfile.write(b"%x\r\n" % len(chunk))
                self.wfile.write(chunk)
                self.wfile.write(b"\r\n")
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _follow(self, job_id: str, path) -> Iterator[bytes]:
        """Yield complete trace lines; keep following while the job is
        live, stop once it is terminal and the file is drained."""
        offset = 0
        pending = b""
        while True:
            terminal = self.scheduler.get(job_id).terminal
            try:
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    data = fh.read()
            except OSError:
                data = b""
            if data:
                offset += len(data)
                pending += data
                head, sep, tail = pending.rpartition(b"\n")
                if sep:
                    yield head + sep
                    pending = tail
            elif terminal:
                if pending:
                    yield pending     # unterminated final line, if any
                return
            else:
                time.sleep(0.1)


class ServiceAPI:
    """Owns the HTTP server; pair with a started scheduler."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, verbose: bool = False):
        self.scheduler = scheduler
        self.server = ThreadingHTTPServer((host, port), _Handler)
        self.server.scheduler = scheduler
        self.server.verbose = verbose
        self.server.daemon_threads = True
        self.host, self.port = self.server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceAPI":
        """Serve in a background thread (tests, embedded use)."""
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        name="repro-api", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (``repro serve``)."""
        self.server.serve_forever()

    def shutdown(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None

    def __enter__(self) -> "ServiceAPI":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()


class ServiceClient:
    """Thin urllib client for the routes above (what the CLI speaks)."""

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------------
    def _request(self, path: str, body: Optional[Dict] = None) -> Dict:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(self.url + path, data=data,
                                     headers=headers,
                                     method="POST" if body is not None
                                     else "GET")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read()).get("error", "")
            except Exception:          # noqa: BLE001 -- best-effort detail
                detail = ""
            raise ServiceError(detail or f"HTTP {exc.code} on {path}",
                               status=exc.code) from None
        except (urllib.error.URLError, socket.timeout, OSError) as exc:
            raise ServiceError(f"service unreachable at {self.url}: "
                               f"{exc}") from None

    # -- routes --------------------------------------------------------------
    def healthz(self) -> Dict:
        return self._request("/healthz")

    def metrics(self) -> Dict:
        return self._request("/metrics")

    def submit(self, spec: Dict) -> Dict:
        """POST a spec; an empty-POST body error comes back as 400."""
        return self._request("/jobs", body=dict(spec))

    def job(self, job_id: str) -> Dict:
        return self._request(f"/jobs/{job_id}")

    def jobs(self) -> List[Dict]:
        return list(self._request("/jobs").get("jobs", []))

    def cancel(self, job_id: str) -> Dict:
        return self._request(f"/jobs/{job_id}/cancel", body={})

    def artifacts(self, job_id: str) -> Dict:
        return self._request(f"/jobs/{job_id}/artifacts")

    def trace_lines(self, job_id: str) -> Iterator[Dict]:
        """Stream ``/jobs/<id>/trace``, yielding one parsed event per
        line as the service writes them."""
        req = urllib.request.Request(self.url + f"/jobs/{job_id}/trace")
        try:
            with urllib.request.urlopen(req,
                                        timeout=self.timeout) as resp:
                for raw in resp:
                    line = raw.strip()
                    if line:
                        yield json.loads(line)
        except urllib.error.HTTPError as exc:
            raise ServiceError(f"HTTP {exc.code} on trace",
                               status=exc.code) from None
        except (urllib.error.URLError, socket.timeout, OSError) as exc:
            raise ServiceError(f"service unreachable at {self.url}: "
                               f"{exc}") from None

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        """Poll every 0.2 s until the job is terminal; returns its final
        manifest."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view.get("state") in ("DONE", "FAILED", "CANCELLED",
                                     "PARTIAL"):
                return view
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(f"job {job_id} still "
                                   f"{view.get('state')} after {timeout}s")
            time.sleep(0.2)
