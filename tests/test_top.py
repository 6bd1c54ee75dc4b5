"""``repro top`` rendering (PR 9, ``repro.obs.top``).

Frames are pure functions of (source snapshots, fake clock), so the
dashboard is tested to the byte: throughput rates from counter deltas,
watchdog colouring, the federated shard table, and the keybinding
state machine.
"""

import io

from repro.obs import Top
from repro.obs.top import _fmt


def _families(reactions: int, latency=None) -> dict:
    families = {"reactions_total": {"kind": "counter", "labels": [],
                                    "series": [[[], reactions]]}}
    if latency is not None:
        families["reaction_latency_us"] = {
            "kind": "histogram", "labels": [], "series": [[[], latency]]}
    return families


def _snap(reactions=0, fired=0, now_us=0, **extra) -> dict:
    snap = {
        "schema": 2, "instances": 4, "spawned": 4, "done": 0,
        "now_us": now_us,
        "sim": {"events_fired": fired},
        "families": _families(reactions),
    }
    snap.update(extra)
    return snap


def _top(frames, **kw):
    """A Top over a canned frame sequence and a stepping clock."""
    feed = iter(frames)
    clock = {"t": 0.0}

    def source():
        return next(feed)

    def tick():
        clock["t"] += 1.0
        return clock["t"]

    out = io.StringIO()
    kw.setdefault("color", False)
    kw.setdefault("interval_s", 0)
    return Top(source, out=out, clock=tick, **kw), out


class TestFrames:
    def test_rates_come_from_counter_deltas(self):
        top, _ = _top([_snap(reactions=100, fired=50),
                       _snap(reactions=350, fired=150, now_us=1_000_000)])
        first = top.frame()
        assert "reactions 100 total" in first
        assert "/s" not in first.splitlines()[1]   # no delta yet
        second = top.frame()
        assert "(250.0/s)" in second
        assert "sim events 100.0/s" in second
        assert "sim now 1.0s" in second

    def test_latency_line_renders_percentiles(self):
        latency = {"count": 9, "p50": 80, "p95": 200, "p99": 4000,
                   "max": 5000}
        snap = _snap(families=_families(0, latency))
        top, _ = _top([snap])
        frame = top.frame()
        assert "p50 80" in frame
        assert "p99 4.0k" in frame

    def test_watchdog_ok_and_flagged(self):
        ok = _snap(watchdog={"flagged": [], "fleet_p50_us": 70.0})
        top, _ = _top([ok])
        assert "watchdog   ok" in top.frame()
        bad = _snap(watchdog={"flagged": [
            {"instance": 3, "reason": "stuck", "overdue_deadline": 9,
             "queued_inputs": 2},
            {"instance": 1, "reason": "lagging", "p50_us": 900.0,
             "fleet_p50_us": 70.0}]})
        top, _ = _top([bad])
        frame = top.frame()
        assert "1 stuck, 1 lagging" in frame
        assert "inst      3 stuck" in frame
        assert "inst      1 lagging" in frame

    def test_watchdog_detail_toggles_off(self):
        bad = _snap(watchdog={"flagged": [
            {"instance": 3, "reason": "stuck", "overdue_deadline": 9,
             "queued_inputs": 2}]})
        top, _ = _top([bad, bad])
        top.handle_key("w")
        assert "inst      3" not in top.frame()

    def test_shard_table_for_federated_snapshots(self):
        snap = _snap(shards={
            "s1:9464": {"up": True, "instances": 3,
                        "reactions_total": 1200, "p99_us": 410.0,
                        "staleness_s": 0.2},
            "s2:9464": {"up": False, "instances": None,
                        "reactions_total": None, "p99_us": None,
                        "staleness_s": 31.0},
        })
        top, _ = _top([snap])
        frame = top.frame()
        assert "shard" in frame
        assert "s1:9464" in frame
        assert "DOWN" in frame
        assert "31.0" in frame

    def test_wallclock_line(self):
        snap = _snap(wallclock={"running": True, "speed": 50.0,
                                "now_us": 0, "deadline_misses": 3})
        top, _ = _top([snap])
        frame = top.frame()
        assert "speed 50.0x" in frame
        assert "misses 3" in frame

    def test_snapshot_without_wallclock_renders_placeholder(self):
        """A snapshot predating the wallclock block (older shard,
        detached farm, a postmortem bundle's fleet.json) still renders
        the line — with ``--`` placeholders, never a KeyError."""
        top, _ = _top([_snap()])
        frame = top.frame()
        assert "wallclock  speed --   misses --" in frame

    def test_snapshot_without_watchdog_renders_placeholder(self):
        top, _ = _top([_snap()])
        frame = top.frame()
        assert "watchdog   --" in frame

    def test_postmortem_fleet_snapshot_renders(self):
        """The exact shape ``repro postmortem`` finds in fleet.json —
        counters only, no watchdog, no wallclock — paints a full frame."""
        top, _ = _top([{
            "schema": 2, "instances": 3, "spawned": 3, "done": 0,
            "now_us": 500_000, "sim": {"events_fired": 12},
            "families": _families(42),
        }])
        frame = top.frame()
        assert "reactions 42 total" in frame
        assert "wallclock  speed --" in frame
        assert "watchdog   --" in frame
        assert "schema" not in frame

    def test_unknown_schema_gets_a_diagnostic(self):
        """A snapshot from an older shard or bundle (schema 1: counters
        under ``merged``) would read as all zeros; the frame says so."""
        top, _ = _top([{
            "schema": 1, "instances": 3, "spawned": 3, "done": 0,
            "now_us": 0, "merged": {"counters": {"reactions_total": 42}},
        }])
        frame = top.frame()
        assert "snapshot schema 1 not understood (expected 2)" in frame


class TestLoopAndKeys:
    def test_quit_keys(self):
        top, _ = _top([_snap()])
        assert top.handle_key("q") is False
        assert top.handle_key("\x03") is False
        assert top.handle_key("x") is True

    def test_pause_freezes_sampling(self):
        top, _ = _top([_snap(reactions=10), _snap(reactions=99)])
        top.frame()
        top.handle_key("p")
        frame = top.frame()                # must not consume the feed
        assert "reactions 10 total" in frame
        assert "paused" in frame
        top.handle_key(" ")
        assert "reactions 99 total" in top.frame()

    def test_run_paints_n_frames(self):
        top, out = _top([_snap(reactions=i) for i in range(3)])
        assert top.run(frames=3) == 3
        assert out.getvalue().count("repro top —") == 3

    def test_run_stops_when_source_is_exhausted(self):
        top, _ = _top([_snap()])
        try:
            top.run(frames=5)
        except StopIteration:
            pass                            # acceptable: source raised

    def test_color_mode_emits_ansi(self):
        top, out = _top([_snap()], color=True)
        assert "\x1b[1m" in top.frame()


class TestFmt:
    def test_scaling(self):
        assert _fmt(950) == "950"
        assert _fmt(12_345, 1) == "12.3k"
        assert _fmt(3_400_000) == "3.4M"
        assert _fmt(2_100_000_000) == "2.1G"
        assert _fmt(None) == "-"
        assert _fmt(1.5) == "1.5"
