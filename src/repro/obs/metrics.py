"""Metrics: the collector the VM feeds to fill a program's registry,
its bucket layouts, and the ``--stats`` report.

Everything is plain Python over plain ints — zero dependencies, cheap
enough to leave attached during benchmarks.  The instruments are the
labelled families of :mod:`repro.obs.fleet`; a program's snapshot is
one family block beside the scheduler's ``runtime`` sample, directly
JSON-serialisable (the ``BENCH_observability`` format and ``repro
profile --json`` both emit it verbatim).
"""

from __future__ import annotations

from .fleet import CounterFamily, GaugeFamily, HistogramFamily

#: µs latency buckets: 1µs … ~1s
LATENCY_BUCKETS = tuple(10 ** i for i in range(7))
#: finer 1-2-5 µs buckets (profiler latency histograms, where the decade
#: buckets above are too coarse for percentile interpolation)
FINE_LATENCY_BUCKETS = tuple(d * 10 ** e
                             for e in range(7) for d in (1, 2, 5))
#: small-integer buckets (stack depths, steps per reaction)
DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


#: the collector's families and the attribute holding each one's series.
#: A family is only a schema, so one set serves every program's registry.
_FIXED = {attr: family for attr, family in (
    ("reactions", CounterFamily("reactions_total")),
    ("steps", CounterFamily("steps_total")),
    ("emits_internal", CounterFamily("emits_internal_total")),
    ("emits_output", CounterFamily("emits_output_total")),
    ("trails_spawned", CounterFamily("trails_spawned_total")),
    ("trails_killed", CounterFamily("trails_killed_total")),
    ("timers_scheduled", CounterFamily("timers_scheduled_total")),
    ("timers_fired", CounterFamily("timers_fired_total")),
    ("async_steps", CounterFamily("async_steps_total")),
    ("region_kills", CounterFamily("region_kills_total")),
    ("steps_per_reaction",
     HistogramFamily("steps_per_reaction", (), DEPTH_BUCKETS)),
    ("reaction_latency",
     HistogramFamily("reaction_latency_us", (), LATENCY_BUCKETS)),
    ("emit_depth", HistogramFamily("emit_stack_depth", (), DEPTH_BUCKETS)),
    ("emits_per_reaction", GaugeFamily("emits_per_reaction")))}
#: ``_FIXED`` plus the gauges polled from ``sampled`` at each reaction
#: end; ``armed_timers``, ``async_jobs_live`` and ``memory_slots`` are the
#: precise variants the static-bounds cross-check reads (the heap/deque
#: sizes can include dead entries)
_SAMPLED = {**_FIXED, **{name: GaugeFamily(name) for name in (
    "live_trails", "timer_heap_size", "async_jobs", "input_queue_depth",
    "armed_timers", "async_jobs_live", "memory_slots")}}
BY_TRIGGER = CounterFamily("reactions_by_trigger_total", ("trigger",))
BY_TARGET = CounterFamily("awaits_by_target_total", ("target",))
BY_EVENT = CounterFamily("emits_by_event_total", ("event",))


class MetricsCollector:
    """Aggregates the documented metric set into a
    :class:`~repro.obs.fleet.FleetRegistry`.

    The collector is the VM's own accounting, not a hook subscriber:
    the scheduler and the interpreter call it where they already count
    (reactions, awaits, emits, timers, spawns and kills, async steps),
    so a metrics-only program leaves its hook bus disabled.  Steps are
    taken once per reaction from the reaction's step count.

    Every unlabelled series is resolved once, here, and held as an
    attribute; the labelled ``*_by_*`` families gain a series per
    trigger, await target or internal event as they occur.  ``sampled``
    (typically the owning scheduler) is polled at each reaction end for
    the live gauges — trail count, timer-heap size, queue depths — so
    gauges track reality without per-operation cost.
    """

    def __init__(self, registry, sampled=None):
        self.registry = registry
        self.sampled = sampled
        series = registry.series
        for attr, family in (_FIXED if sampled is None
                             else _SAMPLED).items():
            # declaring an unlabelled family creates its one series
            setattr(self, attr, series[registry.declare(family).key])
        for family in (BY_TRIGGER, BY_TARGET, BY_EVENT):
            registry.declare(family)
        self._emits_this_reaction = 0

    # ------------------------------------------------------- reactions
    def reaction_begin(self, trigger: str) -> None:
        self.reactions.inc()
        self.registry.labels(BY_TRIGGER, trigger_family(trigger)).inc()
        self._emits_this_reaction = 0

    def reaction_end(self, steps: int, wall_ns: int) -> None:
        self.steps.inc(steps)
        self.steps_per_reaction.record(steps)
        self.reaction_latency.record(wall_ns // 1000)
        self.emits_per_reaction.set(self._emits_this_reaction)
        s = self.sampled
        if s is not None:
            jobs = s.async_jobs
            self.live_trails.set(len(s._live))
            self.timer_heap_size.set(len(s.timers))
            self.async_jobs.set(len(jobs))
            self.input_queue_depth.set(len(s.input_queue))
            self.armed_timers.set(s.armed_timers())
            self.async_jobs_live.set(
                sum(1 for job in jobs if not job.aborted and not job.done)
                if jobs else 0)
            self.memory_slots.set(s.memory.slot_count())

    # ------------------------------------------------------ occurrences
    def await_begin(self, target: str) -> None:
        self.registry.labels(BY_TARGET, target).inc()

    def emit_internal(self, name: str, depth: int) -> None:
        self.emits_internal.inc()
        self.emit_depth.record(depth)
        self._emits_this_reaction += 1
        self.registry.labels(BY_EVENT, name).inc()

    def emit_output(self) -> None:
        self.emits_output.inc()

    def timer_schedule(self) -> None:
        self.timers_scheduled.inc()

    def timer_fire(self) -> None:
        self.timers_fired.inc()

    def trail_spawn(self, n_trails: int = 1) -> None:
        self.trails_spawned.inc(n_trails)

    def trail_kill(self, n_trails: int) -> None:
        self.trails_killed.inc(n_trails)

    def region_kill(self, n_trails: int) -> None:
        self.region_kills.inc()
        self.trails_killed.inc(n_trails)

    def async_step(self) -> None:
        self.async_steps.inc()


def trigger_family(trigger: str) -> str:
    """Collapse unbounded trigger names (``async:NNN``) to a family, so
    per-trigger series stay bounded."""
    return "async" if trigger.startswith("async:") else trigger


# ---------------------------------------------------------------- report
def render_stats(stats: dict) -> str:
    """Human-readable metrics report (``repro profile`` / ``--stats``)
    of a ``program.stats()`` or fleet snapshot."""
    from .fleet import series_name

    lines: list[str] = []
    runtime = stats.get("runtime", {})
    if runtime:
        lines.append("runtime")
        for key, value in runtime.items():
            lines.append(f"  {key:<24} {value}")
    derived = stats.get("derived", {})
    if derived:
        lines.append("derived")
        for key, value in derived.items():
            shown = f"{value:.1f}" if isinstance(value, float) else value
            lines.append(f"  {key:<24} {shown}")
    rows: dict[str, list] = {"counter": [], "gauge": [], "histogram": []}
    for name, fam in stats.get("families", {}).items():
        rows[fam["kind"]] += [(series_name(name, fam["labels"], key), value)
                              for key, value in fam["series"]]
    if rows["counter"]:
        lines.append("counters")
        for key, value in rows["counter"]:
            lines.append(f"  {key:<40} {value}")
    if rows["gauge"]:
        lines.append("gauges")
        for key, g in rows["gauge"]:
            lines.append(f"  {key:<24} {g['value']} (max {g['max']})")
    if rows["histogram"]:
        lines.append("histograms")
        for key, h in rows["histogram"]:
            line = (f"  {key:<24} count={h['count']} mean={h['mean']:.2f} "
                    f"min={h['min']} max={h['max']}")
            if h.get("p50") is not None:
                line += (f" p50={h['p50']:.0f} p95={h['p95']:.0f} "
                         f"p99={h['p99']:.0f}")
            lines.append(line)
    return "\n".join(lines)
