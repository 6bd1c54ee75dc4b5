"""Cross-shard federation: one exposition for a farm of farms.

A single process tops out at one core's worth of reactions; the scale
path is N shard processes, each running ``repro farm --serve`` as its
own synchronous reactive world, observed asynchronously from outside
(the GALS boundary the "Reactive concurrent programming revisited"
line of work draws).  :class:`Federator` is that outside observer:

* it scrapes each shard's ``/snapshot`` endpoint (injectable ``fetch``
  — tests run shards in-process, no sockets) and rehydrates its family
  block into a registry on arrival, so a shard answering with an
  unknown schema or a malformed block counts as a failed scrape
  instead of breaking the render for every shard;
* rolls the shard registries up with the same
  :func:`~repro.obs.fleet.fold` a farm uses — so the federated
  ``reaction_latency_us`` histogram is bucket-merged and its p99 is a
  **true cross-shard percentile**, not an average of shard p99s;
* keeps per-shard summaries under a ``shard`` label
  (``repro_shard_up``, ``_instances``, ``_reactions_total`` …);
* reports its own scraping as first-class metrics: per-shard scrape
  latency histograms, response bytes, scrape outcomes, and staleness
  (seconds since the last successful scrape — the number an alert
  should page on, because an `up`-flap hides behind averages but
  staleness only grows).

The federated snapshot has the shape a single farm's has (``schema``
2, one ``families`` block), so :func:`~repro.obs.prom.render_prom`,
``repro top``, and even a second-level federator consume it unchanged
— federation composes.
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import Callable, Optional, Sequence

from .fleet import FLEET_SCHEMA, FleetRegistry, fold
from .metrics import FINE_LATENCY_BUCKETS
from .prom import render_prom


def _default_fetch(url: str, timeout_s: float) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout_s) as resp:
        return resp.read()


def _shard_name(target: str, index: int) -> str:
    """A stable short label for one shard URL (host:port when
    parseable, else the index)."""
    from urllib.parse import urlparse

    netloc = urlparse(target).netloc
    return netloc or f"shard{index}"


class Federator:
    """Scrape N shard ``/snapshot`` endpoints into one telemetry plane.

    ``targets`` are shard base URLs (``http://host:port`` — the
    ``/snapshot`` path is appended when missing) or full snapshot URLs.
    ``min_interval_s`` rate-limits scraping when the federator itself
    is served (every ``/metrics`` hit triggers at most one upstream
    sweep per interval; between sweeps the cached shard state is
    rendered with growing staleness).

    >>> fed = Federator(["http://10.0.0.1:9464", "http://10.0.0.2:9464"])
    >>> fed.scrape()
    2
    >>> print(fed.render()[:13])
    # TYPE repro_
    """

    def __init__(self, targets: Sequence[str], *,
                 fetch: Optional[Callable[[str, float], bytes]] = None,
                 timeout_s: float = 2.0, min_interval_s: float = 0.0,
                 clock: Callable[[], float] = time.monotonic):
        if not targets:
            raise ValueError("at least one shard target is required")
        self.targets = [t if t.rstrip("/").endswith("/snapshot")
                        else t.rstrip("/") + "/snapshot" for t in targets]
        self.names = [_shard_name(t, i)
                      for i, t in enumerate(self.targets)]
        if len(set(self.names)) != len(self.names):
            self.names = [f"{n}#{i}" for i, n in enumerate(self.names)]
        self.fetch = fetch if fetch is not None else _default_fetch
        self.timeout_s = timeout_s
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._last_sweep: Optional[float] = None
        #: per-shard cache: the last good snapshot and its rehydrated
        #: registry, when it arrived, and the last scrape's error
        self._shards: dict[str, dict] = {
            name: {"snapshot": None, "registry": None, "ok_at": None,
                   "error": None}
            for name in self.names}

        self.registry = FleetRegistry()
        self._scrapes = self.registry.counter_family(
            "federation_scrapes_total", ("shard", "outcome"))
        self._latency = self.registry.histogram_family(
            "federation_scrape_latency_us", ("shard",),
            FINE_LATENCY_BUCKETS)
        self._bytes = self.registry.counter_family(
            "federation_scrape_bytes_total", ("shard",))
        self._up = self.registry.gauge_family(
            "federation_shard_up", ("shard",))
        self._staleness = self.registry.gauge_family(
            "federation_shard_staleness_seconds", ("shard",))

    # ------------------------------------------------------------- scrape
    def scrape(self, force: bool = False) -> int:
        """One sweep over every shard (rate-limited unless ``force``);
        returns how many shards answered."""
        now = self._clock()
        if (not force and self._last_sweep is not None
                and self.min_interval_s
                and now - self._last_sweep < self.min_interval_s):
            return sum(1 for s in self._shards.values()
                       if s["snapshot"] is not None)
        self._last_sweep = now
        ok = 0
        for name, target in zip(self.names, self.targets):
            state = self._shards[name]
            start = self._clock()
            try:
                raw = self.fetch(target, self.timeout_s)
                snap = json.loads(raw)
                registry = _shard_registry(snap)
            except Exception as exc:  # noqa: BLE001 - any shard failure
                self.registry.labels(self._scrapes, name, "error").inc()
                self.registry.labels(self._up, name).set(0)
                state["error"] = f"{type(exc).__name__}: {exc}"
                continue
            us = int((self._clock() - start) * 1_000_000)
            self.registry.labels(self._scrapes, name, "ok").inc()
            self.registry.labels(self._latency, name).record(us)
            self.registry.labels(self._bytes, name).inc(len(raw))
            self.registry.labels(self._up, name).set(1)
            state.update(snapshot=snap, registry=registry,
                         ok_at=self._clock(), error=None)
            ok += 1
        return ok

    # ----------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """The federated fleet snapshot (same shape as one farm's,
        plus per-shard summaries).  Does **not** scrape — callers pick
        the cadence (:meth:`collect` does both)."""
        now = self._clock()
        shard_snaps = []
        registries = []
        shards = {}
        for name in self.names:
            state = self._shards[name]
            snap = state["snapshot"]
            age = (now - state["ok_at"]) if state["ok_at"] is not None \
                else None
            self.registry.labels(self._staleness, name).set(
                round(age, 3) if age is not None else -1)
            summary = {"up": snap is not None and state["error"] is None,
                       "staleness_s": age, "error": state["error"]}
            if snap is not None:
                reg = state["registry"]
                reactions = reg.get("reactions_total")
                latency = reg.get("reaction_latency_us")
                summary.update(
                    instances=snap.get("instances"),
                    spawned=snap.get("spawned"),
                    now_us=snap.get("now_us"),
                    reactions_total=reactions.value if reactions else 0,
                    p99_us=latency.percentile(99) if latency else None)
                shard_snaps.append(snap)
                registries.append(reg)
            shards[name] = summary
        return {
            "schema": FLEET_SCHEMA,
            "federated": True,
            "shards": shards,
            "instances": sum(s.get("instances", 0) for s in shard_snaps),
            "spawned": sum(s.get("spawned", 0) for s in shard_snaps),
            "now_us": max([s.get("now_us", 0) for s in shard_snaps],
                          default=0),
            "families": fold(registries).snapshot(),
        }

    def collect(self) -> dict:
        """Scrape (rate-limited) then snapshot — the provider an
        :class:`~repro.obs.serve.AdminServer` serves directly."""
        self.scrape()
        return self.snapshot()

    # ------------------------------------------------------------- render
    def render(self, prefix: str = "repro_") -> str:
        """One Prometheus exposition: the cross-shard rollup, the
        per-shard summary series (``shard`` label), and the federator's
        own scrape metrics."""
        snap = self.snapshot()
        shard_reg = FleetRegistry()
        up = shard_reg.gauge_family("shard_up", ("shard",))
        inst = shard_reg.gauge_family("shard_instances", ("shard",))
        reactions = shard_reg.counter_family(
            "shard_reactions_total", ("shard",))
        now_us = shard_reg.gauge_family("shard_now_us", ("shard",))
        for name, summary in snap["shards"].items():
            shard_reg.labels(up, name).set(1 if summary["up"] else 0)
            if summary.get("instances") is not None:
                shard_reg.labels(inst, name).set(summary["instances"])
                shard_reg.labels(now_us, name).set(
                    summary.get("now_us") or 0)
                shard_reg.labels(reactions, name).inc(
                    summary.get("reactions_total") or 0)
        parts = [render_prom(snap, prefix=prefix),
                 render_prom(shard_reg.snapshot(), prefix=prefix),
                 render_prom(self.registry.snapshot(), prefix=prefix)]
        return "".join(p for p in parts if p)


def _shard_registry(snap) -> FleetRegistry:
    """Check one shard's ``/snapshot`` and rehydrate its family block;
    raises ``ValueError`` for anything else."""
    if not isinstance(snap, dict):
        raise ValueError(f"snapshot is a {type(snap).__name__}, not an "
                         f"object")
    if snap.get("schema") != FLEET_SCHEMA:
        raise ValueError(f"snapshot schema {snap.get('schema')!r}, "
                         f"expected {FLEET_SCHEMA}")
    for key in ("instances", "spawned", "now_us"):
        value = snap.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"snapshot {key} {value!r} is not an integer")
    return FleetRegistry.from_snapshot(snap.get("families"))


__all__ = ["Federator"]
