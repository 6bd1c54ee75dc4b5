"""The metric model: labelled metric families, the fold that rolls
registries up, and Prometheus text exposition (``repro.obs.fleet`` +
``repro.obs.prom``).

The load-bearing properties:

* **labelled families** — one family, N label-keyed children, each with
  the same plain-int hot path as the unlabelled primitives; label
  cardinality is validated and schema conflicts are rejected;
* **true cross-instance percentiles** — :func:`fold` merges histogram
  *buckets*, so the fleet p99 is the p99 over every observation on
  every instance, not an average of per-instance p99s;
* **rehydration** — a family block read back from JSON becomes live
  families again, and anything malformed is refused with
  ``ValueError``;
* **exposition** — :func:`render_prom` turns any snapshot shape into
  the text format 0.0.4, with cumulative buckets, labels, and escaped
  label values.
"""

import pytest

from repro.obs import (FleetRegistry, Gauge, Histogram, fold,
                       merge_family_snapshots, merge_histogram, render_prom)
from repro.obs.fleet import sample
from repro.runtime import Program


def _counter(reg: FleetRegistry, name: str):
    return reg.labels(reg.counter_family(name))


def _gauge(reg: FleetRegistry, name: str):
    return reg.labels(reg.gauge_family(name))


# ------------------------------------------------------------- families
class TestFamilies:
    def test_counter_family_children_are_independent(self):
        fleet = FleetRegistry()
        events = fleet.counter_family("events_total", ("program", "event"))
        fleet.labels(events, "blink", "A").inc()
        fleet.labels(events, "blink", "A").inc()
        fleet.labels(events, "blink", "B").inc(5)
        assert fleet.labels(events, "blink", "A").value == 2
        assert fleet.labels(events, "blink", "B").value == 5
        assert fleet.get("events_total", "blink", "C") is None

    def test_gauge_family_tracks_min_and_max(self):
        fleet = FleetRegistry()
        live = fleet.gauge_family("live", ("program",))
        g = fleet.labels(live, "blink")
        g.inc()
        g.inc()
        g.dec()
        assert (g.value, g.min, g.max) == (1, 0, 2)

    def test_histogram_family_shares_bounds(self):
        fleet = FleetRegistry()
        lat = fleet.histogram_family("latency_us", ("program",),
                                     bounds=(10, 100, 1000))
        fleet.labels(lat, "a").record(5)
        fleet.labels(lat, "b").record(500)
        assert fleet.labels(lat, "a").bounds == \
            fleet.labels(lat, "b").bounds == (10, 100, 1000)

    def test_label_cardinality_is_validated(self):
        fleet = FleetRegistry()
        fam = fleet.counter_family("x_total", ("a", "b"))
        with pytest.raises(ValueError):
            fleet.labels(fam, "only-one")
        with pytest.raises(ValueError, match="not declared"):
            FleetRegistry().labels(fam, "a", "b")

    def test_schema_conflicts_are_rejected(self):
        fleet = FleetRegistry()
        fleet.counter_family("x_total", ("a",))
        with pytest.raises(ValueError):
            fleet.counter_family("x_total", ("a", "b"))
        with pytest.raises(ValueError):
            fleet.gauge_family("x_total", ("a",))

    def test_family_is_memoised_per_schema(self):
        fleet = FleetRegistry()
        assert fleet.counter_family("x_total", ("a",)) is \
            fleet.counter_family("x_total", ("a",))

    def test_registry_snapshot_shape(self):
        fleet = FleetRegistry()
        fleet.labels(fleet.counter_family("c_total", ("k",)), "v").inc(3)
        fleet.labels(fleet.gauge_family("g", ("k",)), "v").set(2)
        snap = fleet.snapshot()
        assert snap["c_total"]["kind"] == "counter"
        assert snap["c_total"]["labels"] == ["k"]
        assert snap["c_total"]["series"] == [[["v"], 3]]
        assert snap["g"]["series"][0][1]["value"] == 2


# --------------------------------------------------------------- merging
class TestMerge:
    def test_merge_histogram_folds_counts_and_watermarks(self):
        a = Histogram((10, 100))
        b = Histogram((10, 100))
        a.record(5)
        a.record(50)
        b.record(500)
        merge_histogram(a, b)
        assert a.count == 3
        assert a.min == 5 and a.max == 500

    def test_merge_histogram_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            merge_histogram(Histogram((10,)), Histogram((20,)))

    def test_cross_instance_percentile_is_not_an_average(self):
        """One slow instance among nine fast ones: the fleet p99 must
        surface the slow tail, which an average of per-instance p99s
        would wash out."""
        bounds = tuple(10 ** k for k in range(7))
        regs, snaps = [], []
        for value in [5] * 9 + [90_000]:
            reg = FleetRegistry()
            h = reg.labels(reg.histogram_family("lat_us", (), bounds))
            for _ in range(100):
                h.record(value)
            regs.append(reg)
            snaps.append(h.snapshot())
        merged = fold(regs).get("lat_us").snapshot()
        assert merged["count"] == 1000
        assert merged["p99"] > 10_000
        mean_of_p99 = sum(s["p99"] for s in snaps) / len(snaps)
        assert merged["p99"] > mean_of_p99

    def test_fold_sums_counters_and_folds_gauges(self):
        regs = [FleetRegistry() for _ in range(3)]
        for i, reg in enumerate(regs):
            _counter(reg, "reactions_total").inc(i + 1)
            g = _gauge(reg, "live_trails")
            g.set(i + 1)
            g.set(i)
        merged = fold(regs).snapshot()
        assert sample(merged, "reactions_total") == 6
        assert sample(merged, "live_trails") == {
            "value": 0 + 1 + 2, "min": 0, "max": 3}
        assert all(len(r.snapshot()["reactions_total"]["series"]) == 1
                   for r in regs)       # inputs untouched

    def test_merged_snapshot_renders_like_a_single_instance(self):
        reg = FleetRegistry()
        _counter(reg, "reactions_total").inc()
        merged = fold([reg, reg]).snapshot()
        assert render_prom(merged) == (
            "# TYPE repro_reactions_total counter\n"
            "repro_reactions_total 2\n")

    def test_merge_empty_is_well_formed(self):
        assert fold([]).snapshot() == {}
        assert merge_family_snapshots([]) == {}

    def test_merge_with_empty_shard_is_identity(self):
        """A shard that has emitted nothing (fresh boot) contributes
        nothing but still counts as an instance."""
        reg = FleetRegistry()
        _counter(reg, "reactions_total").inc(5)
        assert fold([reg, FleetRegistry()]).snapshot() == reg.snapshot()

    def test_merge_disjoint_families_unions(self):
        a = FleetRegistry()
        _counter(a, "only_a_total").inc(1)
        b = FleetRegistry()
        _counter(b, "only_b_total").inc(2)
        _gauge(b, "only_b_gauge").set(3)
        merged = fold([a, b]).snapshot()
        assert sample(merged, "only_a_total") == 1
        assert sample(merged, "only_b_total") == 2
        assert sample(merged, "only_b_gauge")["value"] == 3

    def test_fold_bucket_mismatch_raises(self):
        """Shards disagreeing on histogram bounds is deploy skew — it
        must raise, not silently mis-bucket."""
        a, b = FleetRegistry(), FleetRegistry()
        a.labels(a.histogram_family("lat", (), (10, 100))).record(5)
        b.labels(b.histogram_family("lat", (), (10, 1000))).record(5)
        with pytest.raises(ValueError, match=r"skew.*\(10, 100\) vs"):
            fold([a, b])

    def test_merge_gauge_watermarks_survive_two_hops(self):
        """min/max fold correctly when a merged snapshot is merged
        again (federation re-rolls shard rollups)."""
        regs = [FleetRegistry() for _ in range(2)]
        _gauge(regs[0], "q").set(10)
        _gauge(regs[1], "q").set(-4)
        first = fold(regs)
        again = fold([first, first]).snapshot()
        assert sample(again, "q") == {"value": 12, "min": -4, "max": 10}


# ------------------------------------------------- cross-shard families
class TestMergeFamilySnapshots:
    def _registry(self, program: str, n: int) -> FleetRegistry:
        fleet = FleetRegistry()
        fleet.labels(fleet.counter_family("spawned_total", ("program",)),
                     program).inc(n)
        return fleet

    def test_counters_sum_and_disjoint_series_union(self):
        merged = merge_family_snapshots([
            self._registry("a", 2).snapshot(),
            self._registry("a", 3).snapshot(),
            self._registry("b", 7).snapshot(),
        ])
        series = {tuple(k): v
                  for k, v in merged["spawned_total"]["series"]}
        assert series[("a",)] == 5
        assert series[("b",)] == 7

    def test_empty_input_and_empty_shard(self):
        assert merge_family_snapshots([]) == {}
        one = self._registry("a", 1).snapshot()
        assert merge_family_snapshots([one, {}]) == \
            merge_family_snapshots([one])

    def test_schema_skew_raises(self):
        a = FleetRegistry()
        a.labels(a.counter_family("x_total", ("program",)), "p").inc()
        b = FleetRegistry()
        b.labels(b.counter_family("x_total", ("shard",)), "s").inc()
        with pytest.raises(ValueError, match="schema skew"):
            merge_family_snapshots([a.snapshot(), b.snapshot()])

    def test_kind_skew_raises(self):
        a = FleetRegistry()
        a.labels(a.counter_family("x", ("l",)), "v").inc()
        b = FleetRegistry()
        b.labels(b.gauge_family("x", ("l",)), "v").set(1)
        with pytest.raises(ValueError, match="schema skew"):
            merge_family_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_never_mutates_inputs(self):
        a = self._registry("a", 1).snapshot()
        b = self._registry("a", 2).snapshot()
        before = repr(a) + repr(b)
        merge_family_snapshots([a, b])
        assert repr(a) + repr(b) == before

    def test_histogram_families_bucket_merge(self):
        mk = []
        for values in ((5, 50), (500,)):
            fleet = FleetRegistry()
            fam = fleet.histogram_family("lat_us", ("program",),
                                         (10, 100, 1000))
            for v in values:
                fleet.labels(fam, "p").record(v)
            mk.append(fleet.snapshot())
        merged = merge_family_snapshots(mk)
        series = {tuple(k): v for k, v in merged["lat_us"]["series"]}
        assert series[("p",)]["count"] == 3
        assert series[("p",)]["max"] == 500


# ---------------------------------------------------------- rehydration
class TestFromSnapshot:
    def _registry(self) -> FleetRegistry:
        reg = FleetRegistry()
        reg.labels(reg.counter_family("calls_total", ("symbol",)),
                   "x").inc(3)
        g = _gauge(reg, "live")
        g.set(4)
        g.set(-1)
        lat = reg.histogram_family("lat_us", ("program",), (10, 100))
        for v in (5, 50, 500):
            reg.labels(lat, "p").record(v)
        reg.histogram_family("empty_us", ("program",))
        return reg

    def test_round_trip_is_exact(self):
        reg = self._registry()
        back = FleetRegistry.from_snapshot(reg.snapshot())
        assert back.snapshot() == reg.snapshot()
        assert back.get("lat_us", "p").percentile(99) == \
            reg.get("lat_us", "p").percentile(99)
        assert fold([reg, back]).snapshot() == fold([reg, reg]).snapshot()

    @pytest.mark.parametrize("corrupt", [
        lambda b: [b],
        lambda b: b["calls_total"].update(kind="summary"),
        lambda b: b["calls_total"].update(labels="symbol"),
        lambda b: b["calls_total"]["series"][0].__setitem__(0, "x"),
        lambda b: b["calls_total"]["series"][0].__setitem__(1, "3"),
        lambda b: b["calls_total"]["series"][0].__setitem__(0, ["x", "y"]),
        lambda b: b["live"]["series"][0].__setitem__(1, 4),
        lambda b: b["lat_us"]["series"][0].__setitem__(1, 7),
        lambda b: b["lat_us"]["series"][0][1]["buckets"].pop(0),
        lambda b: b["lat_us"]["series"][0][1].update(min="5"),
        lambda b: b.update(lat_us=[]),
    ])
    def test_malformed_blocks_raise_value_error(self, corrupt):
        block = self._registry().snapshot()
        block = corrupt(block) or block
        with pytest.raises(ValueError):
            FleetRegistry.from_snapshot(block)


# ------------------------------------------------------- gauge satellite
class TestGaugeIncDec:
    def test_inc_dec_and_min_watermark(self):
        g = Gauge()
        g.inc()
        g.inc(3)
        g.dec(2)
        assert (g.value, g.min, g.max) == (2, 0, 4)
        g.dec(5)
        assert g.min == -3

    def test_snapshot_carries_min(self):
        reg = FleetRegistry()
        _gauge(reg, "q").set(7)
        snap = reg.snapshot()
        assert snap["q"]["series"] == [[[], {"value": 7, "min": 0,
                                             "max": 7}]]


# ------------------------------------------------------------ exposition
class TestPromRendering:
    def test_registry_snapshot_exposition(self):
        program = Program("input void A; int n = 0; loop do await A; "
                          "n = n + 1; end", observe=True)
        program.start()
        program.send("A")
        text = render_prom(program.stats())
        assert "# TYPE repro_reactions_total counter" in text
        assert "repro_reactions_total 2" in text
        # the collector's labelled families keep their labels
        assert 'repro_reactions_by_trigger_total{trigger="boot"} 1' in text
        assert 'repro_reactions_by_trigger_total{trigger="event:A"} 1' \
            in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        reg = FleetRegistry()
        h = reg.labels(reg.histogram_family("lat_us", bounds=(10, 100)))
        h.record(5)
        h.record(50)
        h.record(5000)
        lines = render_prom(reg.snapshot()).splitlines()
        buckets = [l for l in lines if l.startswith("repro_lat_us_bucket")]
        assert buckets == [
            'repro_lat_us_bucket{le="10"} 1',
            'repro_lat_us_bucket{le="100"} 2',
            'repro_lat_us_bucket{le="+Inf"} 3',
        ]
        assert "repro_lat_us_sum 5055" in lines
        assert "repro_lat_us_count 3" in lines

    def test_gauge_emits_watermark_series(self):
        reg = FleetRegistry()
        g = _gauge(reg, "depth")
        g.set(4)
        g.set(1)
        text = render_prom(reg.snapshot())
        assert "repro_depth 1" in text
        assert "repro_depth_min 0" in text
        assert "repro_depth_max 4" in text

    def test_family_snapshot_exposition_with_escaping(self):
        fleet = FleetRegistry()
        fam = fleet.counter_family("calls_total", ("symbol",))
        fleet.labels(fam, 'weird"name\\').inc()
        text = render_prom(fleet.snapshot())
        assert r'repro_calls_total{symbol="weird\"name\\"} 1' in text

    def test_type_line_appears_once_per_family(self):
        fleet = FleetRegistry()
        fam = fleet.counter_family("c_total", ("k",))
        fleet.labels(fam, "a").inc()
        fleet.labels(fam, "b").inc()
        text = render_prom(fleet.snapshot())
        assert text.count("# TYPE repro_c_total counter") == 1

    def test_metric_names_are_sanitised(self):
        reg = FleetRegistry()
        _counter(reg, "weird-name.total").inc()
        text = render_prom(reg.snapshot())
        for line in text.splitlines():
            if not line.startswith("#"):
                name = line.split("{")[0].split(" ")[0]
                assert all(c.isalnum() or c in "_:" for c in name)

    def test_rejects_non_snapshot(self):
        with pytest.raises(ValueError):
            render_prom({"definitely": "not-a-snapshot"})
