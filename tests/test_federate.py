"""Cross-shard federation (PR 9 tentpole, ``repro.obs.federate``).

The load-bearing properties:

* **true cross-shard percentiles** — the federator rolls shard
  snapshots through the same :func:`~repro.obs.fleet.fold` as the
  in-process fleet rollup, so the federated p99 equals the fold over
  every shard instance's live registry, not an average of per-shard
  p99s;
* **failure is a first-class signal** — a shard that stops answering,
  or answers with an unknown schema or a malformed family block, flips
  ``shard_up`` to 0, keeps its staleness growing, and never poisons the
  exposition: the remaining shards still render valid 0.0.4 text;
* **composability** — the federated snapshot has the same shape as a
  single farm's, so ``render_prom``, ``repro top``, and a second-level
  federator all consume it unchanged.
"""

import json

import pytest

from check_prom import check_prom
from repro.obs import Federator, fold, render_prom
from repro.obs.fleet import sample
from repro.runtime.farm import Farm

TICKER = """
loop do
   await 250ms;
end
"""

SLOW = """
loop do
   await 1s;
end
"""


def _shard(source: str, n: int, until_us: int) -> Farm:
    farm = Farm(source, n=n, program="tick")
    farm.run_until(until_us)
    return farm


def _fake_fetch(farms: dict):
    """A fetch that serves each farm's /snapshot JSON by URL."""
    def fetch(url: str, timeout_s: float) -> bytes:
        base = url.rsplit("/snapshot", 1)[0]
        farm = farms[base]
        if farm is None:
            raise OSError("connection refused")
        return json.dumps(farm.fleet_snapshot(), default=repr).encode()
    return fetch


class TestMergeCorrectness:
    def test_counters_sum_across_shards(self):
        a = _shard(TICKER, 3, 1_000_000)
        b = _shard(TICKER, 5, 1_000_000)
        farms = {"http://s1:9464": a, "http://s2:9464": b}
        fed = Federator(list(farms), fetch=_fake_fetch(farms))
        assert fed.scrape() == 2
        snap = fed.snapshot()
        want = (sample(a.fleet_snapshot()["families"], "reactions_total")
                + sample(b.fleet_snapshot()["families"],
                         "reactions_total"))
        assert sample(snap["families"], "reactions_total") == want
        assert snap["instances"] == 8
        assert snap["federated"] is True

    def test_cross_shard_p99_is_bucket_merged(self):
        a = _shard(TICKER, 4, 2_000_000)
        b = _shard(SLOW, 2, 2_000_000)
        farms = {"http://s1": a, "http://s2": b}
        fed = Federator(list(farms), fetch=_fake_fetch(farms))
        fed.scrape()
        got = sample(fed.snapshot()["families"], "reaction_latency_us")
        want = fold(inst.program.sched.metrics for farm in (a, b)
                    for inst in farm.instances).get(
            "reaction_latency_us").snapshot()
        assert got["count"] == want["count"]
        assert got["p99"] == want["p99"]
        assert got["buckets"] == want["buckets"]

    def test_farm_families_roll_up_too(self):
        a = _shard(TICKER, 3, 500_000)
        b = _shard(TICKER, 1, 500_000)
        farms = {"http://s1": a, "http://s2": b}
        fed = Federator(list(farms), fetch=_fake_fetch(farms))
        fed.scrape()
        fam = fed.snapshot()["families"]["farm_instances_spawned_total"]
        series = {tuple(k): v for k, v in fam["series"]}
        assert series[("tick",)] == 4


class TestFailureSignals:
    def test_down_shard_is_flagged_not_fatal(self):
        a = _shard(TICKER, 3, 1_000_000)
        farms = {"http://alive:1": a, "http://dead:2": None}
        fed = Federator(list(farms), fetch=_fake_fetch(farms))
        assert fed.scrape() == 1
        snap = fed.snapshot()
        shards = snap["shards"]
        assert shards["alive:1"]["up"] is True
        assert shards["dead:2"]["up"] is False
        assert "refused" in shards["dead:2"]["error"]
        # the alive shard's data still flows
        assert snap["instances"] == 3
        text = fed.render()
        assert check_prom(text) == []
        assert 'repro_shard_up{shard="dead:2"} 0' in text
        assert 'repro_shard_up{shard="alive:1"} 1' in text

    def test_staleness_grows_while_down(self):
        a = _shard(TICKER, 2, 500_000)
        farms = {"http://s1": a}
        clock = [100.0]
        fed = Federator(list(farms), fetch=_fake_fetch(farms),
                        clock=lambda: clock[0])
        fed.scrape()
        farms["http://s1"] = None          # shard dies after one scrape
        clock[0] = 107.0
        fed.scrape(force=True)
        shards = fed.snapshot()["shards"]
        assert shards["s1"]["up"] is False
        assert shards["s1"]["staleness_s"] == pytest.approx(7.0)
        # last good snapshot is still served
        assert fed.snapshot()["instances"] == 2

    def test_scrape_metrics_are_recorded(self):
        a = _shard(TICKER, 1, 250_000)
        farms = {"http://s1": a, "http://dead": None}
        fed = Federator(list(farms), fetch=_fake_fetch(farms))
        fed.scrape()
        snap = fed.registry.snapshot()
        scrapes = {tuple(k): v for k, v in
                   snap["federation_scrapes_total"]["series"]}
        assert scrapes[("s1", "ok")] == 1
        assert scrapes[("dead", "error")] == 1
        sizes = {tuple(k): v for k, v in
                 snap["federation_scrape_bytes_total"]["series"]}
        assert sizes[("s1",)] > 100

    def test_min_interval_rate_limits(self):
        a = _shard(TICKER, 1, 250_000)
        farms = {"http://s1": a}
        calls = [0]
        base = _fake_fetch(farms)

        def counting(url, timeout_s):
            calls[0] += 1
            return base(url, timeout_s)

        clock = [0.0]
        fed = Federator(list(farms), fetch=counting, min_interval_s=10,
                        clock=lambda: clock[0])
        fed.scrape()
        fed.scrape()                       # inside the interval: no-op
        assert calls[0] == 1
        fed.scrape(force=True)             # force bypasses the limit
        assert calls[0] == 2
        clock[0] = 11.0
        fed.scrape()
        assert calls[0] == 3


def _bad_payloads() -> dict:
    """One good shard snapshot, broken four ways."""
    good = _shard(TICKER, 2, 500_000).fleet_snapshot()
    bad_histogram = json.loads(json.dumps(good))
    bad_histogram["families"]["reaction_latency_us"]["series"][0][1] = 7
    families_list = dict(good, families=list(good["families"]))
    schema_1 = {key: value for key, value in good.items()
                if key != "families"}
    schema_1.update(schema=1, farm={}, merged={
        "counters": {"reactions_total": 3}, "gauges": {},
        "histograms": {}})
    return {"json-list": [good], "families-list": families_list,
            "histogram-number": bad_histogram, "schema-1": schema_1}


class TestMalformedShards:
    """A shard answering with something that is not a schema-2 fleet
    snapshot is a failed scrape: it counts ``outcome="error"``, reads
    ``shard_up`` 0, and the healthy shards still render."""

    @pytest.mark.parametrize("kind", ["json-list", "families-list",
                                      "histogram-number", "schema-1"])
    def test_bad_shard_is_an_error_not_an_outage(self, kind):
        payload = json.dumps(_bad_payloads()[kind]).encode()
        good = _shard(TICKER, 3, 1_000_000)

        def fetch(url, timeout_s):
            if url.startswith("http://bad"):
                return payload
            return json.dumps(good.fleet_snapshot()).encode()

        fed = Federator(["http://good:1", "http://bad:2"], fetch=fetch)
        assert fed.scrape() == 1
        scrapes = {tuple(k): v for k, v in fed.registry.snapshot()[
            "federation_scrapes_total"]["series"]}
        assert scrapes == {("good:1", "ok"): 1, ("bad:2", "error"): 1}
        snap = fed.snapshot()
        assert snap["shards"]["bad:2"]["up"] is False
        assert snap["shards"]["bad:2"]["error"].startswith("ValueError")
        assert snap["instances"] == 3
        text = fed.render()
        assert check_prom(text) == []
        assert 'repro_federation_shard_up{shard="bad:2"} 0' in text
        assert 'repro_shard_up{shard="good:1"} 1' in text
        assert "repro_reactions_total " in text


class TestComposability:
    def test_federated_snapshot_renders_and_validates(self):
        a = _shard(TICKER, 2, 1_000_000)
        b = _shard(TICKER, 2, 1_000_000)
        farms = {"http://s1": a, "http://s2": b}
        fed = Federator(list(farms), fetch=_fake_fetch(farms))
        fed.scrape()
        text = render_prom(fed.snapshot())
        assert check_prom(text) == []
        assert "repro_reactions_total" in text

    def test_second_level_federation(self):
        a = _shard(TICKER, 2, 500_000)
        b = _shard(TICKER, 3, 500_000)
        farms = {"http://s1": a, "http://s2": b}
        lower = Federator(list(farms), fetch=_fake_fetch(farms))

        def upper_fetch(url, timeout_s):
            lower.scrape(force=True)
            return json.dumps(lower.snapshot(), default=repr).encode()

        upper = Federator(["http://region"], fetch=upper_fetch)
        upper.scrape()
        snap = upper.snapshot()
        assert snap["instances"] == 5
        assert sample(snap["families"], "reactions_total") == \
            sample(lower.snapshot()["families"], "reactions_total")

    def test_duplicate_shard_names_are_disambiguated(self):
        a = _shard(TICKER, 1, 250_000)
        fed = Federator(["http://s1", "http://s1"],
                        fetch=_fake_fetch({"http://s1": a}))
        fed.scrape()
        assert len(fed.snapshot()["shards"]) == 2
