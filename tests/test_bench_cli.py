"""The ``repro bench`` snapshot + regression gate (ISSUE 4 tentpole,
``repro.bench``)."""

import copy
import json
import re

import pytest

from repro import bench
from repro.cli import build_parser, main

#: every size constant shrunk so a section runs in well under a second
SHRUNK = {"TRAILS": 4, "EVENTS": 40, "DES_EVENTS": 500,
          "FLAT_TRAILS": (4, 32), "FLAT_WAKES": 50, "LEAK_EARLY": 20,
          "LEAK_LATE": 100, "LEAK_WINDOW": 20, "FARM_INSTANCES": 6,
          "FARM_MEM_SAMPLE": 3, "SERVE_INSTANCES": 6, "CKPT_INSTANCES": 6,
          "CKPT_SIM_US": 1_000_000}


@pytest.fixture
def shrunk(monkeypatch):
    for name, value in SHRUNK.items():
        monkeypatch.setattr(bench, name, value)


def tiny_snapshot():
    """A real (but small) measurement — module constants shrunk so the
    suite stays fast."""
    return bench.snapshot(repeats=1)


class TestSnapshot:
    def setup_method(self):
        self._saved = (bench.TRAILS, bench.EVENTS, bench.DES_EVENTS)
        bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = 4, 40, 500

    def teardown_method(self):
        bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = self._saved

    def test_snapshot_shape(self):
        snap = tiny_snapshot()
        assert snap["schema"] == bench.SCHEMA
        vm = snap["vm"]
        assert set(vm["timings_s"]) == \
            {"off", "detached", "metrics", "full", "causal"}
        # causal_vs_off is recorded for the trajectory but never gated
        assert set(vm["ratios"]) == \
            set(bench.RATIO_KEYS) | {"causal_vs_off"}
        assert vm["counters"]["reactions_total"] == bench.EVENTS + 1
        assert vm["counters"]["steps_total"] > 0
        lat = vm["latency_us"]["event:A"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"]
        stream = snap["stream"]
        assert stream["des_events"] == bench.DES_EVENTS
        assert stream["records"] >= stream["des_events"]
        assert stream["resident_high"] <= stream["flush_every"]

    def test_snapshot_counters_are_deterministic(self):
        a, b = tiny_snapshot(), tiny_snapshot()
        assert a["vm"]["counters"] == b["vm"]["counters"]
        assert a["stream"]["records"] == b["stream"]["records"]

    def test_write_snapshot_is_timestamped_json(self, tmp_path):
        snap = tiny_snapshot()
        out = bench.write_snapshot(snap, tmp_path)
        assert re.fullmatch(r"BENCH_\d{8}T\d{6}Z\.json", out.name)
        assert json.loads(out.read_text())["schema"] == bench.SCHEMA


class TestRegressionGate:
    def base(self):
        return {
            "vm": {
                "counters": {"reactions_total": 41, "steps_total": 500},
                "ratios": {"metrics_vs_off": 1.5, "full_vs_off": 3.0,
                           "detached_vs_off": 1.0},
            },
            "stream": {"resident_high": 100, "flush_every": 512},
        }

    def test_identical_snapshot_passes(self):
        snap = self.base()
        assert bench.check_regression(snap, self.base()) == []

    def test_counter_drift_is_flagged_exactly(self):
        snap = self.base()
        snap["vm"]["counters"]["steps_total"] = 501
        problems = bench.check_regression(snap, self.base())
        assert len(problems) == 1 and "steps_total" in problems[0]

    def test_ratio_within_tolerance_passes(self):
        snap = self.base()
        snap["vm"]["ratios"]["full_vs_off"] = 3.0 * 1.4
        assert bench.check_regression(snap, self.base(),
                                      tolerance=0.5) == []

    def test_ratio_beyond_tolerance_fails(self):
        snap = self.base()
        snap["vm"]["ratios"]["full_vs_off"] = 3.0 * 1.6
        problems = bench.check_regression(snap, self.base(),
                                          tolerance=0.5)
        assert any("full_vs_off" in p for p in problems)

    def test_detached_absolute_cap(self):
        """A detached bus slower than 1.5x off is a broken fast path no
        matter what the baseline says."""
        snap = self.base()
        snap["vm"]["ratios"]["detached_vs_off"] = 1.8
        baseline = self.base()
        baseline["vm"]["ratios"]["detached_vs_off"] = 1.7
        problems = bench.check_regression(snap, baseline, tolerance=0.5)
        assert any("detached_vs_off" in p for p in problems)

    def test_flatness_floor_is_absolute(self):
        """A flatness ratio under the floor fails with no baseline entry
        (the committed baseline predates the section)."""
        snap = self.base()
        snap["flatness"] = {"ratios": {"wake_2048_vs_16": 0.3,
                                       "leak_10000_vs_1000": 0.9}}
        problems = bench.check_regression(snap, self.base())
        assert len(problems) == 1 and "wake_2048_vs_16" in problems[0]
        snap["flatness"]["ratios"]["wake_2048_vs_16"] = bench.FLAT_FLOOR
        assert bench.check_regression(snap, self.base()) == []

    def test_missing_ratio_is_flagged(self):
        snap = self.base()
        del snap["vm"]["ratios"]["metrics_vs_off"]
        problems = bench.check_regression(snap, self.base())
        assert any("metrics_vs_off" in p for p in problems)

    def test_streaming_buffering_regression(self):
        snap = self.base()
        snap["stream"]["resident_high"] = 600     # > flush_every
        problems = bench.check_regression(snap, self.base())
        assert any("resident_high" in p for p in problems)

    @pytest.mark.parametrize("name, breach, message", [
        ("serve", {("overhead", "idle_vs_noserver"): 1.2,
                   ("budget", "within_budget"): False},
         "serve: idle overhead 1.200x exceeds 1.05x budget"),
        ("checkpoint", {("overhead", "record_vs_norecord"): 1.2},
         "checkpoint: recording overhead 1.200x exceeds 1.05x budget"),
        ("checkpoint", {("warm_start", "speedup"): 4.0},
         "checkpoint: warm-start speedup 4.0x below 5x floor"),
        ("analysis", {("summary", "all_identical"): False},
         "analysis: an incremental report differs from the cold run of "
         "the same text"),
    ], ids=["serve", "checkpoint-record", "checkpoint-warm", "analysis"])
    def test_optional_section_breach(self, name, breach, message):
        """The optional sections' gates run in ``check_regression`` too,
        each with the message ``repro bench`` printed before."""
        sections = {
            "serve": {"overhead": {"idle_vs_noserver": 1.02},
                      "budget": {"idle_vs_noserver_max": 1.05,
                                 "within_budget": True}},
            "checkpoint": {"overhead": {"record_vs_norecord": 1.01},
                           "warm_start": {"speedup": 6.0},
                           "budget": {"record_vs_norecord_max": 1.05,
                                      "warm_speedup_min": 5.0}},
            "analysis": {"summary": {"all_identical": True}},
        }
        snap = self.base()
        snap[name] = sections[name]
        assert bench.check_regression(snap, self.base()) == []
        for (group, field), value in breach.items():
            snap[name][group][field] = value
        assert bench.check_regression(snap, self.base()) == [message]

    def test_faithful_to_real_snapshot_schema(self):
        """The gate reads the same keys a real snapshot writes."""
        saved = (bench.TRAILS, bench.EVENTS, bench.DES_EVENTS)
        bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = 4, 40, 500
        try:
            snap = bench.snapshot(repeats=1)
        finally:
            bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = saved
        baseline = copy.deepcopy(snap)
        assert bench.check_regression(snap, baseline,
                                      tolerance=10.0) == []
        baseline["vm"]["counters"]["steps_total"] += 1
        assert bench.check_regression(snap, baseline, tolerance=10.0)


class TestCli:
    def test_bench_subcommand_parses(self):
        args = build_parser().parse_args(
            ["bench", "--check", "--tolerance", "0.4", "--out", "/tmp",
             "--repeats", "1"])
        assert args.check and args.tolerance == 0.4

    def test_bench_check_against_fresh_baseline(self, tmp_path):
        saved = (bench.TRAILS, bench.EVENTS, bench.DES_EVENTS)
        bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = 4, 40, 500
        try:
            baseline = tmp_path / "baseline.json"
            rc = main(["bench", "--out", str(tmp_path), "--repeats", "1",
                       "--baseline", str(baseline),
                       "--update-baseline"])
            assert rc == 0 and baseline.exists()
            rc = main(["bench", "--out", str(tmp_path), "--repeats", "1",
                       "--baseline", str(baseline), "--check",
                       "--tolerance", "5.0"])
            assert rc == 0
        finally:
            bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = saved
        assert list(tmp_path.glob("BENCH_*.json"))

    def test_bench_check_without_baseline_errors(self, tmp_path):
        saved = (bench.TRAILS, bench.EVENTS, bench.DES_EVENTS)
        bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = 4, 40, 500
        try:
            rc = main(["bench", "--out", str(tmp_path), "--repeats", "1",
                       "--baseline", str(tmp_path / "missing.json"),
                       "--check"])
        finally:
            bench.TRAILS, bench.EVENTS, bench.DES_EVENTS = saved
        assert rc == 1


class TestFlatnessSection:
    def test_flatness_section_shape(self, monkeypatch):
        """Shrunk sizes: the shape only.  The floors themselves run at
        full size under ``repro bench --check``."""
        monkeypatch.setattr(bench, "FLAT_TRAILS", (4, 32))
        monkeypatch.setattr(bench, "FLAT_WAKES", 50)
        monkeypatch.setattr(bench, "LEAK_EARLY", 20)
        monkeypatch.setattr(bench, "LEAK_LATE", 100)
        monkeypatch.setattr(bench, "LEAK_WINDOW", 20)
        section = bench.bench_flatness(repeats=1)
        assert set(section["wake_1_of_n_per_s"]) == {"4", "32"}
        assert set(section["leak_per_s"]) == {"20", "100"}
        assert set(section["ratios"]) == {"wake_32_vs_4",
                                          "leak_100_vs_20"}
        assert all(r > 0 for r in section["ratios"].values())
        assert section["floor"] == bench.FLAT_FLOOR


    def test_one_slow_window_moves_no_ratio(self, monkeypatch):
        """A host stall that slows one timed window, the first of the
        most-trailed program and the first of the leak program aged
        :data:`~repro.bench.LEAK_LATE`, leaves both ratios at 1.0: each
        rate is the best of interleaved windows.  (The rates are
        injected: nothing is timed.)"""
        monkeypatch.setattr(bench, "FLAT_TRAILS", (4, 32))
        sources = {}

        def program(source):
            made = bench_program(source)
            sources[id(made)] = source
            return made

        bench_program = bench.Program
        monkeypatch.setattr(bench, "Program", program)
        ages = {}
        stalled = []

        def rate(made, events):
            age = ages.get(id(made), 0)
            ages[id(made)] = age + events
            late = (sources[id(made)] == bench.make_idle(32)
                    or age >= bench.LEAK_LATE)
            if late and made not in stalled:
                stalled.append(made)
                return 400.0
            return 1000.0

        monkeypatch.setattr(bench, "_rate", rate)
        section = bench.bench_flatness(repeats=1)
        assert len(stalled) == 2
        assert section["ratios"] == {"wake_32_vs_4": 1.0,
                                     "leak_10000_vs_1000": 1.0}
        assert bench._flatness_gates(section, {}, 0.0) == []


class TestCheckpointSection:
    def test_checkpoint_section_shape(self, monkeypatch):
        """A shrunk ``bench --checkpoint`` measurement has every gated
        field; the *real* gates run on CI-scale workloads, so only the
        recording-overhead one (machine-independent at any scale) is
        asserted here."""
        monkeypatch.setattr(bench, "CKPT_INSTANCES", 6)
        monkeypatch.setattr(bench, "CKPT_SIM_US", 1_000_000)
        section = bench.bench_checkpoint(repeats=1)
        assert section["workload"]["instances"] == 6
        assert set(section["drive_s"]) == {"norecord", "record"}
        cap = section["capture"]
        assert cap["bytes"] > 0
        assert cap["journal_entries"] >= 1
        assert cap["reactions"] >= 2
        warm = section["warm_start"]
        assert warm["cold_boot_s"] > 0 and warm["warm_s"] > 0
        assert warm["speedup"] == warm["cold_boot_s"] / warm["warm_s"]
        budget = section["budget"]
        assert budget["record_vs_norecord_max"] == bench.CHECKPOINT_BUDGET
        assert budget["warm_speedup_min"] == bench.WARM_SPEEDUP_MIN
        assert isinstance(budget["within_budget"], bool)

    def test_checkpoint_flag_parses(self):
        args = build_parser().parse_args(["bench", "--checkpoint"])
        assert args.checkpoint


class TestSectionProtocol:
    @pytest.mark.parametrize("name", list(bench.SECTIONS))
    def test_section_runs_through_repro_bench(self, name, shrunk,
                                              tmp_path, capsys):
        """Each declared section runs at shrunk size under ``repro
        bench``, prints its one summary line, writes its artifact under
        ``--out`` when it is optional, and its gates read the keys it
        writes."""
        section = bench.SECTIONS[name]
        flags = [f"--{name}"] if section.optional else []
        rc = main(["bench", "--out", str(tmp_path), "--repeats", "1",
                   *flags])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        (snap_path,) = tmp_path.glob("BENCH_2*.json")
        snap = json.loads(snap_path.read_text())
        assert set(snap) == {"schema", "python", "machine", *bench.CORE,
                             name}
        assert len([line for line in out
                    if line.startswith(f"{name}: ")]) == 1
        artifact = tmp_path / f"BENCH_{name}.json"
        assert artifact.exists() == section.optional
        if section.optional:
            assert f"wrote {artifact}" in out
            assert json.loads(artifact.read_text()) == snap[name]
        assert isinstance(section.gates(snap[name], snap[name], 1e9), list)

    def test_failing_check_writes_every_artifact(self, shrunk, monkeypatch,
                                                 tmp_path, capsys):
        """A serve breach no longer cuts the run short: the checkpoint
        artifact is written too, and the gate still exits 1."""
        monkeypatch.setattr(bench, "SERVE_BUDGET", 0.0)
        baseline = tmp_path / "baseline.json"
        common = ["bench", "--out", str(tmp_path), "--repeats", "1",
                  "--baseline", str(baseline)]
        assert main([*common, "--update-baseline"]) == 0
        rc = main([*common, "--check", "--tolerance", "100", "--serve",
                   "--checkpoint"])
        assert rc == 1
        assert (tmp_path / "BENCH_serve.json").exists()
        assert (tmp_path / "BENCH_checkpoint.json").exists()
        assert "REGRESSION serve: idle overhead" in capsys.readouterr().err

    def test_serve_without_check_only_records(self, shrunk, monkeypatch,
                                              tmp_path):
        monkeypatch.setattr(bench, "SERVE_BUDGET", 0.0)
        assert main(["bench", "--out", str(tmp_path), "--repeats", "1",
                     "--serve"]) == 0
        assert (tmp_path / "BENCH_serve.json").exists()
