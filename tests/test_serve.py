"""The HTTP telemetry plane (PR 9 tentpole, ``repro.obs.serve``).

The load-bearing properties:

* **every endpoint answers with the documented shape** — ``/metrics``
  is a valid Prometheus 0.0.4 exposition (checked by the same
  structural validator CI runs), ``/snapshot`` round-trips the fleet
  snapshot, ``/healthz`` flips to 503 exactly when the watchdog sees a
  stuck instance, ``/readyz`` flips to 503 while draining;
* **scrapes observe reaction boundaries** — provider calls run under
  the shared driver lock;
* **graceful shutdown** — SIGTERM on a served ``repro farm`` drains
  the driver, writes the final snapshot, flushes the stream, exits 0
  (pinned end-to-end by a subprocess test, same path CI smokes).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from check_prom import check_prom
from repro.obs import AdminServer, LineTee, Profiler
from repro.obs.fleet import sample
from repro.runtime.farm import Farm
from repro.runtime.wallclock import WallClockDriver

TICKER = """
loop do
   await 250ms;
end
"""

ROOT = Path(__file__).parent.parent


def _get(url: str, timeout: float = 5.0) -> tuple[int, bytes, str]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read(), resp.headers.get(
                "Content-Type", "")
    except urllib.error.HTTPError as err:
        return err.code, err.read(), err.headers.get("Content-Type", "")


@pytest.fixture()
def served():
    """A driven farm behind an AdminServer (no wall-clock thread —
    virtual time is advanced explicitly by each test)."""
    tee = LineTee()
    farm = Farm(TICKER, n=4, program="tick", sinks=[tee])
    farm.run_until(1_000_000)
    driver = WallClockDriver(farm)
    profiler = Profiler(source=TICKER)
    server = AdminServer(driver.snapshot, health_fn=farm.watchdog,
                         ready_fn=lambda: True, events=tee,
                         flamegraph_fn=profiler.collapsed,
                         lock=driver.lock).start()
    try:
        yield server, farm, tee
    finally:
        server.close()
        farm.close()


class TestEndpoints:
    def test_metrics_is_valid_exposition(self, served):
        server, _, _ = served
        code, body, ctype = _get(server.address + "/metrics")
        assert code == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        text = body.decode()
        assert check_prom(text) == []
        assert "repro_reactions_total" in text
        # the server's own request metrics ride along after first scrape
        code, body, _ = _get(server.address + "/metrics")
        assert "repro_telemetry_requests_total" in body.decode()
        assert check_prom(body.decode()) == []

    def test_snapshot_round_trips(self, served):
        server, farm, _ = served
        code, body, ctype = _get(server.address + "/snapshot")
        assert code == 200
        assert ctype.startswith("application/json")
        snap = json.loads(body)
        assert snap["instances"] == 4
        assert snap["now_us"] == 1_000_000
        assert sample(snap["families"], "reactions_total") == \
            sample(farm.fleet_snapshot()["families"], "reactions_total")
        assert snap["wallclock"]["speed"] == 1.0
        assert "watchdog" in snap

    def test_healthz_ok_and_readyz_ok(self, served):
        server, _, _ = served
        code, body, _ = _get(server.address + "/healthz")
        assert code == 200
        assert json.loads(body)["status"] == "ok"
        code, body, _ = _get(server.address + "/readyz")
        assert code == 200

    def test_healthz_503_when_stuck(self, served):
        server, _, _ = served
        server.health_fn = lambda: {"flagged": [
            {"instance": 0, "reason": "stuck", "overdue_deadline": 1}]}
        code, body, _ = _get(server.address + "/healthz")
        assert code == 503
        payload = json.loads(body)
        assert payload["status"] == "stuck"
        assert payload["stuck"] == 1

    def test_healthz_lagging_degrades_body_not_code(self, served):
        server, _, _ = served
        server.health_fn = lambda: {"flagged": [
            {"instance": 2, "reason": "lagging"}]}
        code, body, _ = _get(server.address + "/healthz")
        assert code == 200
        assert json.loads(body)["lagging"] == 1

    def test_readyz_503_while_draining(self, served):
        server, _, _ = served
        server.draining.set()
        code, body, _ = _get(server.address + "/readyz")
        assert code == 503
        assert json.loads(body)["status"] == "draining"

    def test_flamegraph_collapsed_stacks(self, served):
        server, _, _ = served
        code, body, _ = _get(server.address + "/flamegraph")
        assert code == 200
        for line in body.decode().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack
            assert int(count) > 0

    def test_events_ring_catchup(self, served):
        server, _, tee = served
        code, body, ctype = _get(server.address
                                 + "/events?last=5&max=5")
        assert code == 200
        assert "ndjson" in ctype
        lines = body.decode().splitlines()
        assert len(lines) == 5
        for line in lines:
            record = json.loads(line)
            assert "ev" in record
            assert "inst" in record
        assert lines == list(tee.tail(5))

    def test_events_timeout_cuts_the_poll(self, served):
        server, _, _ = served
        start = time.monotonic()
        code, body, _ = _get(server.address
                             + "/events?timeout_s=1", timeout=10)
        assert code == 200
        assert time.monotonic() - start < 5

    def test_unknown_endpoint_404s_with_index_pointer(self, served):
        server, _, _ = served
        code, body, _ = _get(server.address + "/nope")
        assert code == 404
        assert json.loads(body)["see"] == "/"
        code, body, _ = _get(server.address + "/")
        assert code == 200
        assert "/metrics" in body.decode()

    def test_request_metering_counts_endpoints(self, served):
        server, _, _ = served
        _get(server.address + "/snapshot")
        _get(server.address + "/snapshot")
        # metering lands after the response is flushed — poll briefly
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            snap = server.registry.snapshot()
            series = dict((tuple(k), v) for k, v in
                          snap["telemetry_requests_total"]["series"])
            if series.get(("/snapshot", "200"), 0) >= 2:
                break
            time.sleep(0.01)
        assert series[("/snapshot", "200")] >= 2


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """End-to-end: serve a farm, wait for readiness, SIGTERM, and
        assert the graceful path ran (exit 0, final snapshot on disk,
        stream flushed and parseable)."""
        snap_path = tmp_path / "final.json"
        jsonl_path = tmp_path / "events.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "farm",
             str(ROOT / "examples" / "ceu" / "counter.ceu"),
             "-n", "10", "--serve", "127.0.0.1:0", "--speed", "50",
             "--snapshot", str(snap_path), "--jsonl", str(jsonl_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=tmp_path)
        try:
            banner = proc.stdout.readline()
            assert "serving telemetry on http://" in banner
            address = banner.split("serving telemetry on ")[1].split()[0]
            code, body, _ = _get(address + "/healthz", timeout=10)
            assert code == 200
            proc.send_signal(signal.SIGTERM)
            out = proc.stdout.read()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert "drained at" in out
        final = json.loads(snap_path.read_text())
        assert final["instances"] == 10
        assert "watchdog" in final
        with jsonl_path.open() as fh:
            records = [json.loads(line) for line in fh]
        assert records, "stream was not flushed on drain"
        assert all("ev" in r for r in records)


def _post(url: str, timeout: float = 5.0) -> tuple[int, bytes]:
    req = urllib.request.Request(url, data=b"", method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def _raw(server, request: bytes, timeout: float = 5.0) -> bytes:
    """Send raw bytes to the admin plane; return all it answers before
    closing the connection (or before ``timeout``)."""
    chunks = []
    with socket.create_connection((server.host, server.port),
                                  timeout=timeout) as sock:
        sock.sendall(request)
        try:
            while data := sock.recv(65536):
                chunks.append(data)
        except TimeoutError:
            pass
    return b"".join(chunks)


@pytest.fixture()
def ckpt_served(tmp_path):
    """A recorded farm behind an AdminServer with the checkpoint plane
    attached — the wiring ``repro farm --serve --record`` does."""
    from repro.runtime.checkpoint import list_postmortems

    tee = LineTee()
    farm = Farm(TICKER, n=2, program="tick", sinks=[tee], record=True,
                postmortem_dir=tmp_path / "pm")
    farm.run_until(1_000_000)
    driver = WallClockDriver(farm)
    ck_dir = tmp_path / "ck"

    def checkpoint_fn(instance: int) -> dict:
        ck = farm.checkpoint(instance)
        ck_dir.mkdir(parents=True, exist_ok=True)
        path = ck.save(ck_dir / f"i{instance}.json")
        return {"instance": instance, "describe": ck.describe(),
                "boundary": ck.boundary, "path": str(path)}

    server = AdminServer(
        driver.snapshot, health_fn=farm.watchdog,
        ready_fn=lambda: True, events=tee,
        checkpoint_fn=checkpoint_fn,
        postmortems_fn=lambda: list_postmortems(farm.postmortem_dir),
        lock=driver.lock).start()
    try:
        yield server, farm, tee
    finally:
        server.close()
        farm.close()


class TestCheckpointPlane:
    def test_post_checkpoint_round_trips(self, ckpt_served):
        from repro.runtime.checkpoint import Checkpoint

        server, farm, _ = ckpt_served
        code, body = _post(server.address + "/checkpoint?instance=1")
        assert code == 200
        payload = json.loads(body)
        assert payload["instance"] == 1
        assert payload["describe"].startswith("checkpoint v1")
        assert payload["boundary"]["reactions"] >= 1
        saved = Checkpoint.load(payload["path"])
        assert saved.boundary == payload["boundary"]
        # the farm counter rides into /metrics via the fleet snapshot
        code, body, _ = _get(server.address + "/metrics")
        text = body.decode()
        assert check_prom(text) == []
        assert "repro_farm_checkpoints_total" in text

    def test_post_checkpoint_rejects_bad_instances(self, ckpt_served):
        server, _, _ = ckpt_served
        code, body = _post(server.address + "/checkpoint?instance=99")
        assert code == 400
        assert "error" in json.loads(body)
        code, body = _post(server.address + "/checkpoint?instance=x")
        assert code == 400
        assert "integer" in json.loads(body)["error"]

    def test_post_without_provider_404s(self, served):
        server, _, _ = served
        code, body = _post(server.address + "/checkpoint")
        assert code == 404
        assert "no checkpoint provider" in json.loads(body)["error"]

    def test_post_to_get_endpoint_is_405(self, ckpt_served):
        server, _, _ = ckpt_served
        code, _ = _post(server.address + "/metrics")
        assert code == 405

    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_bad_content_length_is_a_400(self, ckpt_served, length):
        server, _, _ = ckpt_served
        start = time.monotonic()
        reply = _raw(server, b"POST /checkpoint HTTP/1.1\r\n"
                             b"Content-Length: " + length + b"\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"bad Content-Length" in reply
        assert time.monotonic() - start < 4     # answered and closed

    def test_short_body_cannot_pin_the_handler(self, ckpt_served,
                                               monkeypatch):
        import repro.obs.serve as serve

        monkeypatch.setattr(serve, "BODY_TIMEOUT_S", 0.3)
        server, _, _ = ckpt_served
        start = time.monotonic()
        reply = _raw(server, b"POST /checkpoint HTTP/1.1\r\n"
                             b"Content-Length: 10\r\n\r\nabc")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"7 byte(s) short" in reply
        assert time.monotonic() - start < 4
        # the plane still answers
        code, _, _ = _get(server.address + "/healthz")
        assert code == 200

    def test_post_body_is_drained_on_keep_alive(self, ckpt_served):
        server, _, _ = ckpt_served
        reply = _raw(server, b"POST /metrics HTTP/1.1\r\n"
                             b"Content-Length: 3\r\n\r\nabc"
                             b"GET /readyz HTTP/1.1\r\n"
                             b"Connection: close\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 405 ")
        assert b"HTTP/1.1 200 " in reply and b'"ready"' in reply

    def test_postmortems_endpoint_lists_bundles(self, ckpt_served):
        server, farm, _ = ckpt_served
        code, body, _ = _get(server.address + "/postmortems")
        assert code == 200
        assert json.loads(body) == {"count": 0, "postmortems": []}
        farm.postmortem(0, reason="manual")
        code, body, _ = _get(server.address + "/postmortems")
        listing = json.loads(body)
        assert listing["count"] == 1
        assert listing["postmortems"][0]["reason"] == "manual"
        assert listing["postmortems"][0]["bundle"].startswith("tick-i0")

    def test_postmortems_endpoint_skips_malformed_manifests(self,
                                                            ckpt_served):
        server, farm, _ = ckpt_served
        farm.postmortem(0, reason="manual")
        junk = farm.postmortem_dir / "junk"
        junk.mkdir()
        (junk / "MANIFEST.json").write_text("[]")
        code, body, _ = _get(server.address + "/postmortems")
        assert code == 200
        listing = json.loads(body)
        assert [m["reason"] for m in listing["postmortems"]] == ["manual"]

    def test_postmortems_without_provider_404s(self, served):
        server, _, _ = served
        code, body, _ = _get(server.address + "/postmortems")
        assert code == 404
        assert "no postmortem provider" in json.loads(body)["error"]

    def test_dropped_event_lines_are_exported(self, served):
        server, _, tee = served
        q = tee.subscribe(maxsize=1)
        try:
            for n in range(3):
                tee._line('{"ev": "x", "n": %d}' % n)
        finally:
            tee.unsubscribe(q)
        assert tee.total_dropped == 2
        code, body, _ = _get(server.address + "/metrics")
        text = body.decode()
        assert check_prom(text) == []
        assert "repro_telemetry_events_dropped_total 2" in text
