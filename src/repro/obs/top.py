"""``repro top`` — a live ANSI dashboard over any fleet snapshot.

The terminal-native view of the telemetry plane: point it at an
in-process farm (it boots one under the wall-clock driver), a remote
``repro farm --serve`` URL, or a federator, and it renders one frame
per interval from successive ``/snapshot``-shaped dicts:

* throughput — reactions/s and sim events/s, computed from counter
  deltas between frames (the same derivative a Prometheus ``rate()``
  would take);
* cross-instance reaction latency p50/p95/p99 (bucket-merged, so the
  p99 is the fleet's, not an average);
* watchdog state — stuck / lagging counts and the worst offenders with
  their per-instance median lag vs the fleet median;
* per-shard table when the snapshot is federated — up, instances,
  reactions, p99, staleness.

Keybindings: ``q`` quit · ``p`` pause/resume sampling · ``w`` toggle
the watchdog detail pane.  Rendering is pure (``frame()`` returns a
string), the clock and the source are injectable, and ``frames=`` caps
the loop — so the dashboard is testable to the byte and usable as a
one-shot (``repro top URL --frames 1``) in scripts.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

from .fleet import FLEET_SCHEMA, sample

CLEAR = "\x1b[2J\x1b[H"
BOLD = "\x1b[1m"
DIM = "\x1b[2m"
RED = "\x1b[31m"
YELLOW = "\x1b[33m"
GREEN = "\x1b[32m"
RESET = "\x1b[0m"


def _fmt(n, digits: int = 1) -> str:
    """Human-scale a number (12345 -> ``12.3k``)."""
    if n is None:
        return "-"
    for factor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(n) >= factor:
            return f"{n / factor:.{digits}f}{suffix}"
    if isinstance(n, float):
        return f"{n:.{digits}f}"
    return str(n)


def snapshot_url_source(url: str, *, timeout_s: float = 2.0,
                        fetch=None) -> Callable[[], dict]:
    """A source that GETs a remote ``/snapshot`` endpoint."""
    import json
    import urllib.request

    if not url.rstrip("/").endswith("/snapshot"):
        url = url.rstrip("/") + "/snapshot"

    def _fetch(u, t):
        with urllib.request.urlopen(u, timeout=t) as resp:
            return resp.read()

    fetch = fetch if fetch is not None else _fetch

    def source() -> dict:
        return json.loads(fetch(url, timeout_s))

    return source


class Top:
    """Render a fleet snapshot stream as a terminal dashboard.

    ``source`` returns one snapshot per call (in-process
    ``driver.snapshot``, a :func:`snapshot_url_source`, or a
    ``Federator().collect``).
    """

    def __init__(self, source: Callable[[], dict], *,
                 interval_s: float = 1.0, out=None,
                 clock: Callable[[], float] = time.monotonic,
                 color: Optional[bool] = None, title: str = "fleet"):
        self.source = source
        self.interval_s = interval_s
        self.out = out if out is not None else sys.stdout
        self._clock = clock
        self.title = title
        self.color = color if color is not None \
            else bool(getattr(self.out, "isatty", lambda: False)())
        self.paused = False
        self.show_watchdog = True
        self._prev: Optional[tuple[float, dict]] = None
        self.frames_rendered = 0

    # ------------------------------------------------------------ painting
    def _c(self, code: str, text: str) -> str:
        return f"{code}{text}{RESET}" if self.color else text

    def _rates(self, now: float, snap: dict) -> dict:
        reactions = sample(snap.get("families", {}), "reactions_total", 0)
        fired = snap.get("sim", {}).get("events_fired", 0)
        rates = {"reactions_per_s": None, "events_per_s": None,
                 "reactions_total": reactions}
        if self._prev is not None:
            t0, prev = self._prev
            dt = now - t0
            if dt > 0:
                rates["reactions_per_s"] = (reactions - sample(
                    prev.get("families", {}), "reactions_total", 0)) / dt
                prev_fired = prev.get("sim", {}).get("events_fired", 0)
                rates["events_per_s"] = (fired - prev_fired) / dt
        return rates

    def frame(self) -> str:
        """Sample the source once and render one frame."""
        now = self._clock()
        snap = self.source() if not self.paused or self._prev is None \
            else self._prev[1]
        rates = self._rates(now, snap)
        if not self.paused:
            self._prev = (now, snap)
        lines = []
        state = self._c(DIM, "paused") if self.paused else \
            self._c(GREEN, "live")
        lines.append(
            self._c(BOLD, f"repro top — {self.title}")
            + f"  [{state}]  sim now {_fmt(snap.get('now_us', 0) / 1e6)}s"
            + self._c(DIM, "   q quit · p pause · w watchdog"))
        live = snap.get("instances", 0)
        spawned = snap.get("spawned", 0)
        done = snap.get("done", 0)
        lines.append(
            f"instances {self._c(BOLD, str(live))} live / {spawned} "
            f"spawned / {done} done    reactions "
            f"{_fmt(rates['reactions_total'], 0)} total"
            + (f"  ({_fmt(rates['reactions_per_s'])}/s)"
               if rates["reactions_per_s"] is not None else "")
            + (f"   sim events {_fmt(rates['events_per_s'])}/s"
               if rates["events_per_s"] is not None else ""))
        if snap.get("schema") != FLEET_SCHEMA:
            lines.append(self._c(RED, f"snapshot schema "
                                      f"{snap.get('schema')!r} not "
                                      f"understood (expected "
                                      f"{FLEET_SCHEMA})"))
        latency = sample(snap.get("families", {}), "reaction_latency_us",
                         {})
        if latency.get("count"):
            lines.append(
                "latency us  "
                + "  ".join(f"{k} {_fmt(latency.get(k))}"
                            for k in ("p50", "p95", "p99", "max")))
        # a snapshot may predate the wallclock/watchdog blocks (older
        # shard, detached farm, postmortem fleet.json) — render visible
        # placeholders instead of silently dropping the lines
        wall = snap.get("wallclock")
        if wall:
            lines.append(
                f"wallclock  speed {wall.get('speed', '--')}x   misses "
                f"{wall.get('deadline_misses', '--')}")
        else:
            lines.append(self._c(DIM, "wallclock  speed --   misses --"))
        lines.extend(self._watchdog_lines(snap))
        lines.extend(self._shard_lines(snap))
        self.frames_rendered += 1
        return "\n".join(lines) + "\n"

    def _watchdog_lines(self, snap: dict) -> list[str]:
        report = snap.get("watchdog")
        if not report:
            return [f"watchdog   {self._c(DIM, '--')}"]
        flagged = report.get("flagged", [])
        stuck = [f for f in flagged if f.get("reason") == "stuck"]
        lagging = [f for f in flagged if f.get("reason") == "lagging"]
        verdict = "ok" if not flagged else \
            f"{len(stuck)} stuck, {len(lagging)} lagging"
        color = GREEN if not flagged else (RED if stuck else YELLOW)
        lines = [f"watchdog   {self._c(color, verdict)}"
                 + (f"   fleet p50 {_fmt(report.get('fleet_p50_us'))}us"
                    if report.get("fleet_p50_us") is not None else "")]
        if self.show_watchdog and flagged:
            worst = sorted(
                lagging, key=lambda f: -(f.get("p50_us") or 0))[:5]
            for f in stuck[:5]:
                lines.append(self._c(RED,
                             f"  inst {f['instance']:>6} stuck — "
                             f"overdue={f.get('overdue_deadline')} "
                             f"queued={f.get('queued_inputs')}"))
            for f in worst:
                lines.append(self._c(YELLOW,
                             f"  inst {f['instance']:>6} lagging — "
                             f"p50 {_fmt(f.get('p50_us'))}us vs fleet "
                             f"{_fmt(f.get('fleet_p50_us'))}us"))
        return lines

    def _shard_lines(self, snap: dict) -> list[str]:
        shards = snap.get("shards")
        if not shards:
            return []
        lines = [self._c(BOLD, f"{'shard':<20} {'up':>3} {'inst':>7} "
                               f"{'reactions':>10} {'p99us':>8} "
                               f"{'stale_s':>8}")]
        for name, s in sorted(shards.items()):
            up = self._c(GREEN, "up") if s.get("up") else \
                self._c(RED, "DOWN")
            stale = s.get("staleness_s")
            lines.append(
                f"{name:<20} {up:>3} {_fmt(s.get('instances'), 0):>7} "
                f"{_fmt(s.get('reactions_total'), 0):>10} "
                f"{_fmt(s.get('p99_us')):>8} "
                f"{(f'{stale:.1f}' if stale is not None else '-'):>8}")
        return lines

    # ---------------------------------------------------------------- keys
    def handle_key(self, key: str) -> bool:
        """Apply one keypress; returns False when the key quits."""
        if key in ("q", "Q", "\x03"):
            return False
        if key in ("p", "P", " "):
            self.paused = not self.paused
        elif key in ("w", "W"):
            self.show_watchdog = not self.show_watchdog
        return True

    # ---------------------------------------------------------------- loop
    def run(self, frames: Optional[int] = None) -> int:
        """Paint frames until ``frames`` is exhausted, a quit key
        arrives, or the source raises; returns frames painted."""
        painted = 0
        restore = self._enter_cbreak()
        try:
            while frames is None or painted < frames:
                text = self.frame()
                if self.color:
                    self.out.write(CLEAR)
                self.out.write(text)
                self.out.flush()
                painted += 1
                if frames is not None and painted >= frames:
                    break
                if not self._poll_keys(self.interval_s):
                    break
        except KeyboardInterrupt:
            pass
        finally:
            restore()
        return painted

    @staticmethod
    def _enter_cbreak() -> Callable[[], None]:
        """Unbuffered key delivery on a TTY; no-op restore elsewhere."""
        stdin = sys.stdin
        if not (hasattr(stdin, "fileno")
                and getattr(stdin, "isatty", lambda: False)()):
            return lambda: None
        try:
            import termios
            import tty

            fd = stdin.fileno()
            saved = termios.tcgetattr(fd)
            tty.setcbreak(fd)
            return lambda: termios.tcsetattr(fd, termios.TCSADRAIN, saved)
        except Exception:  # noqa: BLE001 - exotic terminals
            return lambda: None

    def _poll_keys(self, duration_s: float) -> bool:
        """Sleep ``duration_s`` while watching stdin for keys (TTY
        only); returns False when a quit key arrived."""
        import select

        stdin = sys.stdin
        if not (hasattr(stdin, "fileno")
                and getattr(stdin, "isatty", lambda: False)()):
            time.sleep(duration_s)
            return True
        deadline = time.monotonic() + duration_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return True
            ready, _, _ = select.select([stdin], [], [], remaining)
            if not ready:
                continue
            key = stdin.read(1)
            if not key or not self.handle_key(key):
                return False


__all__ = ["Top", "snapshot_url_source"]
