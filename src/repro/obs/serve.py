"""The telemetry plane's HTTP admin server — stdlib only.

Every metric in this repo used to leave the process as a file; this
module is the live path.  :class:`AdminServer` wraps a
``ThreadingHTTPServer`` (zero dependencies, daemon threads) around a
set of injected providers so any metric source — a wall-clock-driven
:class:`~repro.runtime.farm.Farm`, a single instrumented
:class:`~repro.runtime.program.Program`, or a cross-shard
:class:`~repro.obs.federate.Federator` — can answer scrapers:

=============  ========================================================
``/metrics``    Prometheus text exposition 0.0.4
                (:func:`~repro.obs.prom.render_prom` over
                ``snapshot_fn()``, plus the server's own request
                metrics)
``/healthz``    liveness from the farm watchdog: 200 unless any
                instance is *stuck* (owes work at the current virtual
                time); body carries the full verdicts
``/readyz``     readiness: 200 once the source reports ready and the
                server is not draining (503 during graceful shutdown,
                so load balancers stop routing before the process
                exits)
``/snapshot``   the full JSON fleet snapshot — what
                :mod:`~repro.obs.federate` scrapes and ``repro top``
                renders
``/events``     chunked live tail of the shared JSONL telemetry
                stream, via a :class:`~repro.obs.stream.LineTee`
                (``?last=N`` ring catch-up, ``?max=N`` to bound,
                ``?timeout_s=S`` to cut a poll short)
``/flamegraph`` collapsed stacks (``trigger;trail;kind:line count``)
                from a shared :class:`~repro.obs.profile.Profiler` —
                pipe straight into ``flamegraph.pl`` / speedscope
``/checkpoint`` **POST** — serialize one instance at its current
                reaction boundary via the injected ``checkpoint_fn``
                (``?instance=N``, default 0); the body is whatever the
                provider returns (typically the checkpoint's describe
                line and the path it was saved to)
``/postmortems``index of captured black-box bundles from the injected
                ``postmortems_fn`` (manifests, as
                :func:`repro.runtime.checkpoint.list_postmortems`
                returns them)
``/``           a plain-text index of the above
=============  ========================================================

Overhead discipline (the type-state paper's near-zero-cost
instrumentation budget, enforced by ``repro bench --serve``): the
server touches the farm **only inside a request**, under the driver's
lock, at reaction boundaries.  No request → no work on the reaction
path; the ≤5 % attached-vs-detached budget is pinned in
``benchmarks/BENCH_serve.json``.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Sequence
from urllib.parse import parse_qs, urlparse

from .fleet import FleetRegistry
from .metrics import FINE_LATENCY_BUCKETS
from .prom import PROM_CONTENT_TYPE, render_prom


class AdminServer:
    """Serve one telemetry source over HTTP (see module docstring).

    ``snapshot_fn`` is the only required provider; the rest degrade to
    404/501-style answers when absent.  ``lock`` (typically the
    :class:`~repro.runtime.wallclock.WallClockDriver`'s) is held around
    every provider call so concurrent handler threads observe reaction
    boundaries only.

    >>> server = AdminServer(driver.snapshot, lock=driver.lock,
    ...                      health_fn=farm.watchdog, events=tee)
    >>> server.start()
    >>> server.address
    'http://127.0.0.1:9464'
    """

    def __init__(self, snapshot_fn: Callable[[], dict], *,
                 health_fn: Optional[Callable[[], dict]] = None,
                 ready_fn: Optional[Callable[[], bool]] = None,
                 events=None,
                 flamegraph_fn: Optional[Callable[[], Sequence[str]]] = None,
                 metrics_fn: Optional[Callable[[], str]] = None,
                 checkpoint_fn: Optional[Callable[[int], dict]] = None,
                 postmortems_fn: Optional[Callable[[], list]] = None,
                 lock=None, host: str = "127.0.0.1", port: int = 0,
                 prefix: str = "repro_"):
        self.snapshot_fn = snapshot_fn
        self.metrics_fn = metrics_fn
        self.health_fn = health_fn
        self.ready_fn = ready_fn
        self.events = events
        self.flamegraph_fn = flamegraph_fn
        self.checkpoint_fn = checkpoint_fn
        self.postmortems_fn = postmortems_fn
        self.lock = lock if lock is not None else threading.RLock()
        self.prefix = prefix
        self.draining = threading.Event()
        self._meter_lock = threading.Lock()
        self.registry = FleetRegistry()
        self._requests = self.registry.counter_family(
            "telemetry_requests_total", ("endpoint", "code"))
        self._latency = self.registry.histogram_family(
            "telemetry_request_latency_us", ("endpoint",),
            FINE_LATENCY_BUCKETS)
        self._bytes = self.registry.counter_family(
            "telemetry_response_bytes_total", ("endpoint",))
        # /events backpressure drops, mirrored from the tee's cumulative
        # count at scrape time (satellite of the checkpoint plane)
        self._events_dropped = None if events is None else \
            self.registry.labels(self.registry.counter_family(
                "telemetry_events_dropped_total"))
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.admin = self
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    # ----------------------------------------------------------- lifecycle
    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "AdminServer":
        """Serve on a daemon thread; returns self (port is bound)."""
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="repro-admin",
                                        kwargs={"poll_interval": 0.1},
                                        daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Drain: flip readiness, stop accepting, join the acceptor."""
        self.draining.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    # ------------------------------------------------------------ metering
    def _observe(self, endpoint: str, code: int, us: int,
                 nbytes: int) -> None:
        with self._meter_lock:
            self.registry.labels(self._requests, endpoint, code).inc()
            self.registry.labels(self._latency, endpoint).record(us)
            self.registry.labels(self._bytes, endpoint).inc(nbytes)

    def _self_metrics(self) -> str:
        with self._meter_lock:
            if self._events_dropped is not None:
                self._events_dropped.value = self.events.total_dropped
            snap = self.registry.snapshot()
        return render_prom(snap, prefix=self.prefix) if snap else ""

    # ----------------------------------------------------------- renderers
    def render_metrics(self) -> str:
        with self.lock:
            if self.metrics_fn is not None:
                text = self.metrics_fn()
            else:
                text = render_prom(self.snapshot_fn(), prefix=self.prefix)
        return text + self._self_metrics()

    def render_snapshot(self) -> str:
        with self.lock:
            snap = self.snapshot_fn()
        return json.dumps(snap, indent=2, sort_keys=True,
                          default=repr) + "\n"

    def health(self) -> tuple[bool, dict]:
        """Liveness verdict: unhealthy iff the watchdog reports a stuck
        instance (lagging degrades the body, not the code)."""
        if self.health_fn is None:
            return True, {"status": "ok"}
        with self.lock:
            report = self.health_fn()
        stuck = [f for f in report.get("flagged", [])
                 if f.get("reason") == "stuck"]
        lagging = [f for f in report.get("flagged", [])
                   if f.get("reason") == "lagging"]
        ok = not stuck
        return ok, {"status": "ok" if ok else "stuck",
                    "stuck": len(stuck), "lagging": len(lagging),
                    "watchdog": report}

    def ready(self) -> tuple[bool, dict]:
        if self.draining.is_set():
            return False, {"status": "draining"}
        if self.ready_fn is not None and not self.ready_fn():
            return False, {"status": "starting"}
        return True, {"status": "ready"}

    def take_checkpoint(self, instance: int) -> dict:
        """Run the checkpoint provider under the driver lock, so the
        snapshot lands on a reaction boundary (POST /checkpoint)."""
        with self.lock:
            return self.checkpoint_fn(instance)

    def postmortems(self) -> list:
        with self.lock:
            return list(self.postmortems_fn())


class _Handler(BaseHTTPRequestHandler):
    """One request; dispatch on path.  Never logs to stderr."""

    server_version = "repro-admin/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # --------------------------------------------------------------- plumb
    def _send_text(self, code: int, body: str,
                   content_type: str = "text/plain; charset=utf-8") -> int:
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        return len(data)

    def _send_json(self, code: int, payload: dict) -> int:
        return self._send_text(code, json.dumps(payload, sort_keys=True,
                                                default=repr) + "\n",
                               "application/json")

    # ----------------------------------------------------------- endpoints
    def do_GET(self) -> None:  # noqa: N802 - stdlib signature
        admin: AdminServer = self.server.admin
        url = urlparse(self.path)
        endpoint = url.path.rstrip("/") or "/"
        start = time.perf_counter()
        code, nbytes = 500, 0
        try:
            if endpoint == "/metrics":
                code = 200
                nbytes = self._send_text(200, admin.render_metrics(),
                                         PROM_CONTENT_TYPE)
            elif endpoint == "/healthz":
                ok, body = admin.health()
                code = 200 if ok else 503
                nbytes = self._send_json(code, body)
            elif endpoint == "/readyz":
                ok, body = admin.ready()
                code = 200 if ok else 503
                nbytes = self._send_json(code, body)
            elif endpoint == "/snapshot":
                code = 200
                nbytes = self._send_text(200, admin.render_snapshot(),
                                         "application/json")
            elif endpoint == "/flamegraph":
                if admin.flamegraph_fn is None:
                    code = 404
                    nbytes = self._send_json(404, {
                        "error": "no profiler attached"})
                else:
                    with admin.lock:
                        stacks = list(admin.flamegraph_fn())
                    code = 200
                    body = "\n".join(stacks) + ("\n" if stacks else "")
                    nbytes = self._send_text(200, body)
            elif endpoint == "/events":
                if admin.events is None:
                    code = 404
                    nbytes = self._send_json(404, {
                        "error": "no event stream attached"})
                else:
                    code = 200
                    nbytes = self._stream_events(admin, url.query)
            elif endpoint == "/postmortems":
                if admin.postmortems_fn is None:
                    code = 404
                    nbytes = self._send_json(404, {
                        "error": "no postmortem provider attached"})
                else:
                    bundles = admin.postmortems()
                    code = 200
                    nbytes = self._send_json(200, {
                        "count": len(bundles), "postmortems": bundles})
            elif endpoint == "/":
                code = 200
                nbytes = self._send_text(200, _INDEX)
            else:
                code = 404
                nbytes = self._send_json(404, {"error": "unknown "
                                               "endpoint", "see": "/"})
        except (BrokenPipeError, ConnectionResetError):
            code = 499            # client went away mid-stream
        finally:
            us = int((time.perf_counter() - start) * 1_000_000)
            admin._observe(endpoint, code, us, nbytes)

    def do_POST(self) -> None:  # noqa: N802 - stdlib signature
        admin: AdminServer = self.server.admin
        url = urlparse(self.path)
        endpoint = url.path.rstrip("/") or "/"
        start = time.perf_counter()
        code, nbytes = 500, 0
        try:
            # drain any body so keep-alive connections stay in sync
            length = int(self.headers.get("Content-Length") or 0)
            if length:
                self.rfile.read(length)
            if endpoint == "/checkpoint":
                code, nbytes = self._post_checkpoint(admin, url.query)
            else:
                code = 405
                nbytes = self._send_json(405, {
                    "error": "POST not supported here", "see": "/"})
        except (BrokenPipeError, ConnectionResetError):
            code = 499
        finally:
            us = int((time.perf_counter() - start) * 1_000_000)
            admin._observe(endpoint, code, us, nbytes)

    def _post_checkpoint(self, admin: AdminServer,
                         query: str) -> tuple[int, int]:
        if admin.checkpoint_fn is None:
            return 404, self._send_json(404, {
                "error": "no checkpoint provider attached"})
        raw = parse_qs(query).get("instance", ["0"])[0]
        try:
            instance = int(raw)
        except ValueError:
            return 400, self._send_json(400, {
                "error": f"instance must be an integer, got {raw!r}"})
        try:
            body = admin.take_checkpoint(instance)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            return 400, self._send_json(400, {"error": str(exc)})
        return 200, self._send_json(200, body)

    # ----------------------------------------------------- chunked /events
    def _chunk(self, line: str) -> int:
        data = (line + "\n").encode("utf-8")
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        return len(data)

    def _stream_events(self, admin: AdminServer, query: str) -> int:
        """Chunked JSONL tail: ring catch-up, then live lines until
        ``max`` is reached, the timeout lapses, or the server drains."""
        params = parse_qs(query)

        def _int(name: str, default: int) -> int:
            try:
                return int(params[name][0])
            except (KeyError, ValueError, IndexError):
                return default

        last = _int("last", 0)
        limit = _int("max", 0)
        timeout_s = float(_int("timeout_s", 0)) or None
        tee = admin.events
        sub = tee.subscribe()
        sent = nbytes = 0
        deadline = (time.monotonic() + timeout_s) if timeout_s else None
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            for line in tee.tail(last):
                nbytes += self._chunk(line)
                sent += 1
                if limit and sent >= limit:
                    break
            while (not limit or sent < limit) \
                    and not admin.draining.is_set():
                if deadline is not None and time.monotonic() >= deadline:
                    break
                try:
                    line = sub.get(timeout=0.25)
                except queue.Empty:
                    continue
                nbytes += self._chunk(line)
                sent += 1
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        finally:
            tee.unsubscribe(sub)
            self.close_connection = True
        return nbytes


_INDEX = """\
repro telemetry plane
  /metrics     Prometheus text exposition (0.0.4)
  /healthz     watchdog liveness (503 when any instance is stuck)
  /readyz      readiness (503 while starting or draining)
  /snapshot    full fleet snapshot (JSON)
  /events      live JSONL tail (?last=N&max=N&timeout_s=S)
  /flamegraph  collapsed stacks (flamegraph.pl / speedscope)
  /checkpoint  POST — serialize one instance (?instance=N)
  /postmortems index of captured black-box bundles
"""


__all__ = ["AdminServer"]
