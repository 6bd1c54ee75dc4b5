"""Benchmark snapshots and the perf regression gate (``repro bench``).

One command measures the repo's performance-sensitive surfaces and
writes a machine-readable snapshot:

* **VM reaction throughput** over the standard fan-out workload, in
  five instrumentation configurations — ``off`` (no subscribers ever),
  ``detached`` (subscribed then unsubscribed: the hooks-off fast path
  after a profiling session ends), ``metrics`` (the collector the VM
  feeds directly; the bus stays off), ``full`` (metrics + both
  exporters), and ``causal`` (a :class:`~repro.obs.CausalGraph`
  subscribed; recorded for the trajectory, not gated);
* **reaction-latency percentiles** (p50/p95/p99 µs) from the profiler;
* **deterministic counters** (reactions, steps, emits …) from the
  metrics run — machine-independent, gated *exactly*;
* **DES + streaming-exporter throughput** with the exporter's resident
  high-water mark;
* **bookkeeping flatness** — the rate of a reaction that wakes 1 of N
  idle trails for N in :data:`FLAT_TRAILS`, and the leak program's rate
  young and aged; ``--check`` holds both ratios to :data:`FLAT_FLOOR`.

Snapshots are written as timestamped ``BENCH_<UTCSTAMP>.json`` files
under ``benchmarks/`` (never the repo root) so a perf trajectory
accumulates across commits.  ``--check`` compares a fresh snapshot
against the committed baseline (``benchmarks/BENCH_baseline.json``):
deterministic counters must match exactly; instrumentation-overhead
*ratios* (metrics/off, full/off, detached/off) must stay within
``--tolerance`` of the baseline ratios.  Absolute wall-clock times are
recorded for the trajectory but never gated — they measure the CI
machine, not the code.

``--farm`` additionally measures the reactor farm
(:mod:`repro.runtime.farm`): instance-spawn and event throughput with
fleet telemetry attached vs detached, cross-instance reaction-latency
percentiles, and resident bytes per instance beside the
:mod:`repro.analysis.bounds` static prediction.  The farm section is
recorded in the snapshot *and* as ``benchmarks/BENCH_farm.json``; it is
never gated (yet) — the numbers seed the trajectory the compiled tier
will be measured against.
"""

from __future__ import annotations

import json
import platform
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .obs import (ChromeTraceExporter, JsonlExporter, Profiler,
                  StreamingJsonlExporter)
from .obs.fleet import counter_samples, sample
from .obs.hooks import HookBus
from .runtime import Program
from .sim.des import Simulator

SCHEMA = 1

#: every benchmark artifact lives here — snapshots, the baseline, the
#: farm record; ``repro bench`` never writes into the repo root
BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

#: the committed regression baseline (see ``--update-baseline``)
BASELINE_PATH = BENCH_DIR / "BENCH_baseline.json"

#: the reactor-farm record (``--farm``; recorded, not gated)
FARM_PATH = BENCH_DIR / "BENCH_farm.json"

#: the incremental-analysis record (``--analysis``; recorded, not gated)
ANALYSIS_PATH = BENCH_DIR / "BENCH_analysis.json"

#: the telemetry-plane serving-path record (``--serve``; the idle-server
#: drive ratio IS gated — see SERVE_BUDGET)
SERVE_PATH = BENCH_DIR / "BENCH_serve.json"

#: hard ceiling on attached-server drive overhead: an idle admin server
#: must cost the reaction path <= 5% (the near-zero-cost instrumentation
#: budget; scraped-under-load is recorded, not gated)
SERVE_BUDGET = 1.05

#: the checkpoint-plane record (``--checkpoint``; both ratios gated)
CHECKPOINT_PATH = BENCH_DIR / "BENCH_checkpoint.json"

#: hard ceiling on journal-recording drive overhead: keeping every
#: instance checkpointable must cost the farm drive loop <= 5%
CHECKPOINT_BUDGET = 1.05

#: floor on the warm-start speedup: replaying a checkpoint into a fresh
#: instance (telemetry attached only after the replay) must beat a cold
#: fully-instrumented boot-and-drive to the same state by >= 5x
WARM_SPEEDUP_MIN = 5.0

#: floor on both flatness ratios (``--check``): a reaction must cost
#: O(work), not O(idle trails) or O(program age) — waking 1 of 2048 idle
#: trails runs at >= half the rate of waking 1 of 16, and the leak
#: program after 10k iterations at >= half its rate after 1k
FLAT_FLOOR = 0.5
FLAT_TRAILS = (16, 256, 2048)
FLAT_WAKES = 2_000
LEAK_EARLY = 1_000
LEAK_LATE = 10_000
LEAK_WINDOW = 500

#: the leak program: every iteration kills the trails awaiting
#: ``forever`` and ``B``, which must leave their gates at once (§4.3)
LEAK_PROGRAM = """\
input void A;
input void B;
loop do
   par/or do
      await forever;
   with
      await B;
   with
      await A;
   end
end
"""

#: overhead ratios gated against the baseline.  The ``causal`` mode
#: (CausalGraph subscribed) is *recorded* in snapshots but not gated:
#: older baselines predate it, and its cost tracks the full-export modes
#: that already are.
RATIO_KEYS = ("metrics_vs_off", "full_vs_off", "detached_vs_off")

TRAILS = 16
EVENTS = 300
DES_EVENTS = 20_000
FARM_INSTANCES = 5_000
FARM_SIM_US = 1_000_000
FARM_MEM_SAMPLE = 500


def make_fanout(n: int) -> str:
    """The standard reaction-throughput workload: ``n`` parallel trails
    all waking on one broadcast event (same shape as
    ``benchmarks/test_vm_throughput.py``)."""
    decls = "\n".join(f"int n{i} = 0;" for i in range(n))
    branches = "\nwith\n".join(
        f"   loop do\n      await A;\n      n{i} = n{i} + 1;\n   end"
        for i in range(n))
    return f"input void A;\n{decls}\npar do\n{branches}\nend"


def _drive(program: Program, events: Optional[int] = None) -> float:
    if events is None:
        events = EVENTS          # late-bound so tests can shrink it
    start = time.perf_counter()
    program.start()
    for _ in range(events):
        program.send("A")
    return time.perf_counter() - start


def _time_mode(mode: str, repeats: int) -> tuple[float, Optional[dict]]:
    """Best-of-``repeats`` seconds for one instrumentation mode; the
    metrics mode also returns its (deterministic) stats snapshot."""
    best = float("inf")
    stats = None
    for _ in range(repeats):
        program = Program(make_fanout(TRAILS),
                          observe=mode in ("metrics", "full"))
        if mode == "full":
            program.observe(ChromeTraceExporter())
            program.observe(JsonlExporter())
        elif mode == "causal":
            from .obs import CausalGraph

            program.observe(CausalGraph(program.hooks))
        elif mode == "detached":
            # subscribe + unsubscribe: the bus must drop back to the
            # guarded no-op fast path once the last subscriber leaves
            probe = program.observe(Profiler())
            program.hooks.unsubscribe(probe)
        best = min(best, _drive(program))
        if mode == "metrics" and stats is None:
            stats = program.stats()
    return best, stats


def bench_vm(repeats: int = 3) -> dict:
    """Reaction throughput in all five instrumentation modes, plus the
    deterministic counters and the profiler's latency percentiles."""
    timings = {}
    counters = {}
    for mode in ("off", "detached", "metrics", "full", "causal"):
        secs, stats = _time_mode(mode, repeats)
        timings[mode] = secs
        if stats is not None:
            counters = counter_samples(stats["families"])
    program = Program(make_fanout(TRAILS))
    profiler = program.observe(Profiler())
    _drive(program)
    latency = {family: h.percentiles()
               for family, h in sorted(profiler.latency.items())}
    off = timings["off"]
    return {
        "workload": {"trails": TRAILS, "events": EVENTS},
        "timings_s": timings,
        "ratios": {
            "metrics_vs_off": timings["metrics"] / off,
            "full_vs_off": timings["full"] / off,
            "detached_vs_off": timings["detached"] / off,
            "causal_vs_off": timings["causal"] / off,
        },
        "reactions_per_s": (EVENTS + 1) / off,
        "counters": counters,
        "latency_us": latency,
    }


def make_idle(n: int) -> str:
    """``n`` trails: one loops on ``A``, ``n - 1`` idle on ``Z``."""
    idles = "\nwith\n".join("   await Z;" for _ in range(n - 1))
    return (f"input void A;\ninput void Z;\nint n = 0;\npar do\n"
            f"   loop do\n      await A;\n      n = n + 1;\n   end\n"
            f"with\n{idles}\nend\n")


def _rate(program: Program, events: int) -> float:
    """Reactions per second of ``events`` sends of ``A``."""
    start = time.perf_counter()
    for _ in range(events):
        program.send("A")
    return events / (time.perf_counter() - start)


def bench_flatness(repeats: int = 3) -> dict:
    """Bookkeeping flatness: best-of-``repeats`` rates of a reaction that
    wakes 1 of N idle trails, and of :data:`LEAK_PROGRAM` over
    :data:`LEAK_WINDOW` ``A`` after :data:`LEAK_EARLY` and after
    :data:`LEAK_LATE` iterations.  Both ratios are held to
    :data:`FLAT_FLOOR` by :func:`check_regression`."""
    programs = {n: Program(make_idle(n)) for n in FLAT_TRAILS}
    for program in programs.values():
        program.start()
    wake = dict.fromkeys(FLAT_TRAILS, 0.0)
    early = late = 0.0
    for _ in range(repeats):
        for n, program in programs.items():
            wake[n] = max(wake[n], _rate(program, FLAT_WAKES))
        leak = Program(LEAK_PROGRAM)
        leak.start()
        _rate(leak, LEAK_EARLY)
        early = max(early, _rate(leak, LEAK_WINDOW))
        _rate(leak, LEAK_LATE - LEAK_EARLY - LEAK_WINDOW)
        late = max(late, _rate(leak, LEAK_WINDOW))
    few, many = FLAT_TRAILS[0], FLAT_TRAILS[-1]
    return {
        "workload": {"trails": list(FLAT_TRAILS), "wakes": FLAT_WAKES,
                     "leak_iterations": [LEAK_EARLY, LEAK_LATE],
                     "leak_window": LEAK_WINDOW},
        "wake_1_of_n_per_s": {str(n): rate for n, rate in wake.items()},
        "leak_per_s": {str(LEAK_EARLY): early, str(LEAK_LATE): late},
        "ratios": {f"wake_{many}_vs_{few}": wake[many] / wake[few],
                   f"leak_{LEAK_LATE}_vs_{LEAK_EARLY}": late / early},
        "floor": FLAT_FLOOR,
    }


def bench_stream(tmpdir: Path, n_events: Optional[int] = None) -> dict:
    """DES calendar churn with the streaming exporter attached: export
    throughput and the exporter's bounded-memory high-water mark."""
    if n_events is None:
        n_events = DES_EVENTS    # late-bound so tests can shrink it
    path = Path(tmpdir) / "stream.jsonl"
    bus = HookBus()
    sim = Simulator(hooks=bus)
    with StreamingJsonlExporter(path, flush_every=512) as exporter:
        bus.subscribe(exporter)

        def tick(i: int = 0):
            if i < n_events:
                sim.after(10, lambda: tick(i + 1))

        start = time.perf_counter()
        tick()
        sim.run()
        elapsed = time.perf_counter() - start
        resident_high = exporter.resident_high
    return {
        "des_events": sim.events_fired,
        "records": exporter.seq,
        "elapsed_s": elapsed,
        "records_per_s": exporter.seq / elapsed if elapsed else 0.0,
        "resident_high": resident_high,
        "flush_every": exporter.flush_every,
    }


def _farm_mode(source: str, n: int, sim_us: int,
               observe: bool) -> tuple[dict, dict]:
    """Spawn + drive one farm; returns (timings, fleet snapshot)."""
    from .runtime.farm import Farm

    start = time.perf_counter()
    farm = Farm(source, n=n, program="blink", observe=observe)
    spawn_s = time.perf_counter() - start
    start = time.perf_counter()
    farm.run_until(sim_us)
    drive_s = time.perf_counter() - start
    reactions = sum(inst.program.sched.reaction_count
                    for inst in farm.instances)
    timings = {
        "spawn_s": spawn_s,
        "drive_s": drive_s,
        "instances_per_s": n / spawn_s if spawn_s else 0.0,
        "reactions": reactions,
        "events_per_s": reactions / drive_s if drive_s else 0.0,
    }
    return timings, farm.fleet_snapshot()


def _farm_resident(source: str, n: int, observe: bool) -> float:
    """Heap bytes per instance (tracemalloc delta over ``n`` spawns,
    timers armed so the steady-state structures exist)."""
    import gc
    import tracemalloc

    from .runtime.farm import Farm

    gc.collect()
    tracemalloc.start()
    try:
        farm = Farm(source, observe=observe)
        farm.add_program("blink", source)
        gc.collect()
        base, _ = tracemalloc.get_traced_memory()
        farm.spawn(n, program="blink")
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (current - base) / n if n else 0.0


def bench_farm(n_instances: Optional[int] = None,
               sim_us: Optional[int] = None) -> dict:
    """The reactor-farm section: spawn/drive throughput with telemetry
    attached vs detached, cross-instance latency percentiles, and
    resident bytes per instance beside the static-bounds prediction."""
    from .apps import load

    if n_instances is None:
        n_instances = FARM_INSTANCES   # late-bound so tests can shrink it
    if sim_us is None:
        sim_us = FARM_SIM_US
    source = load("blink")
    attached, fleet = _farm_mode(source, n_instances, sim_us, True)
    detached, _ = _farm_mode(source, n_instances, sim_us, False)
    latency = sample(fleet["families"], "reaction_latency_us", {})
    mem_sample = min(FARM_MEM_SAMPLE, n_instances)
    resident = {
        "sample_instances": mem_sample,
        "attached_bytes": _farm_resident(source, mem_sample, True),
        "detached_bytes": _farm_resident(source, mem_sample, False),
    }
    from .analysis import compute_bounds
    from .dfa import build_dfa
    from .lang import parse
    from .sema import bind

    bound = bind(parse(source, "blink.ceu"))
    bounds = compute_bounds(bound, build_dfa(bound))
    return {
        "workload": {"program": "blink", "instances": n_instances,
                     "sim_us": sim_us},
        "attached": attached,
        "detached": detached,
        "overhead": {
            "attached_vs_detached_spawn":
                attached["spawn_s"] / detached["spawn_s"]
                if detached["spawn_s"] else 0.0,
            "attached_vs_detached_drive":
                attached["drive_s"] / detached["drive_s"]
                if detached["drive_s"] else 0.0,
        },
        "latency_us": {k: latency.get(k)
                       for k in ("p50", "p95", "p99", "mean", "max")},
        "resident_bytes_per_instance": resident,
        "bounds": bounds.as_dict(),
        "counters": counter_samples(fleet["families"]),
    }


SERVE_INSTANCES = 2_000
SERVE_SIM_US = 1_000_000


def _serve_drive(source: str, n: int, sim_us: int,
                 mode: str) -> tuple[float, int]:
    """Time one detached-farm drive with the admin server absent
    (``noserver``), attached but idle (``idle``), or attached and
    scraped from a background thread (``scraped``)."""
    import urllib.request

    from .obs import AdminServer
    from .runtime.farm import Farm

    farm = Farm(source, n=n, program="blink", observe=False)
    server = None
    stop = None
    scraper = None
    if mode != "noserver":
        server = AdminServer(farm.fleet_snapshot,
                             health_fn=farm.watchdog).start()
    if mode == "scraped":
        import threading

        stop = threading.Event()
        url = server.address + "/metrics"

        def hammer() -> None:
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(url, timeout=2) as resp:
                        resp.read()
                except OSError:
                    pass

        scraper = threading.Thread(target=hammer, daemon=True)
        scraper.start()
    try:
        start = time.perf_counter()
        farm.run_until(sim_us)
        elapsed = time.perf_counter() - start
    finally:
        if stop is not None:
            stop.set()
            scraper.join(timeout=2)
        if server is not None:
            server.close()
    reactions = sum(inst.program.sched.reaction_count
                    for inst in farm.instances)
    return elapsed, reactions


def bench_serve(n_instances: Optional[int] = None,
                sim_us: Optional[int] = None, repeats: int = 3) -> dict:
    """The serving-path overhead section (``bench --serve``).

    Interleaved best-of-``repeats`` drives of a *detached* farm (no
    per-instance metrics — the worst case for relative overhead, since
    the baseline is as fast as the farm gets) in the three modes, plus
    one measured scrape of ``/metrics`` and ``/snapshot``.  The
    ``idle_vs_noserver`` ratio is gated at :data:`SERVE_BUDGET`."""
    import json as _json
    import urllib.request

    from .apps import load
    from .obs import AdminServer
    from .runtime.farm import Farm

    if n_instances is None:
        n_instances = SERVE_INSTANCES  # late-bound so tests can shrink it
    if sim_us is None:
        sim_us = SERVE_SIM_US
    source = load("blink")
    best = {"noserver": float("inf"), "idle": float("inf"),
            "scraped": float("inf")}
    reactions = 0
    for _ in range(repeats):
        for mode in best:
            elapsed, reactions = _serve_drive(source, n_instances,
                                              sim_us, mode)
            best[mode] = min(best[mode], elapsed)

    # one served farm, scraped once per endpoint, for latency/size
    farm = Farm(source, n=n_instances, program="blink", observe=False)
    farm.run_until(sim_us)
    server = AdminServer(farm.fleet_snapshot,
                         health_fn=farm.watchdog).start()
    endpoints = {}
    try:
        for path in ("/metrics", "/healthz", "/snapshot"):
            start = time.perf_counter()
            with urllib.request.urlopen(server.address + path,
                                        timeout=5) as resp:
                body = resp.read()
            endpoints[path] = {
                "latency_ms": (time.perf_counter() - start) * 1e3,
                "bytes": len(body),
            }
        snap = _json.loads(
            urllib.request.urlopen(server.address + "/snapshot",
                                   timeout=5).read())
    finally:
        server.close()
    idle_ratio = best["idle"] / best["noserver"] \
        if best["noserver"] else 0.0
    scraped_ratio = best["scraped"] / best["noserver"] \
        if best["noserver"] else 0.0
    return {
        "workload": {"program": "blink", "instances": n_instances,
                     "sim_us": sim_us, "repeats": repeats,
                     "detached": True},
        "drive_s": best,
        "reactions": reactions,
        "events_per_s": {mode: reactions / secs if secs else 0.0
                         for mode, secs in best.items()},
        "overhead": {
            "idle_vs_noserver": idle_ratio,
            "scraped_vs_noserver": scraped_ratio,
        },
        "budget": {"idle_vs_noserver_max": SERVE_BUDGET,
                   "within_budget": idle_ratio <= SERVE_BUDGET},
        "endpoints": endpoints,
        "snapshot_counters": counter_samples(snap["families"]),
    }


CKPT_INSTANCES = 200
#: long enough that steady-state reaction work dominates the fixed
#: per-instance spawn cost both sides pay — the regime warm starts are
#: for (short horizons under-report the speedup)
CKPT_SIM_US = 5_000_000


def _ckpt_drive(source: str, n: int, sim_us: int, record: bool) -> float:
    """One detached-farm drive with journal recording on or off."""
    from .runtime.farm import Farm

    farm = Farm(source, n=n, program="blink", observe=False,
                record=record)
    start = time.perf_counter()
    farm.run_until(sim_us)
    return time.perf_counter() - start


def _instrumented_farm(source: str, tmp: Path, tag: str):
    """A farm with the full telemetry stack a production fleet runs:
    per-instance metrics plus the streaming JSONL tap."""
    from .runtime.farm import Farm

    stream = StreamingJsonlExporter(Path(tmp) / f"{tag}.jsonl",
                                    flush_every=1024)
    farm = Farm(source, observe=True, stream=stream, record=True)
    farm.add_program("blink", source)
    return farm


def bench_checkpoint(n_instances: Optional[int] = None,
                     sim_us: Optional[int] = None,
                     repeats: int = 3) -> dict:
    """The checkpoint-plane section (``bench --checkpoint``).

    Three measurements:

    * **journal-recording overhead** — interleaved best-of-``repeats``
      detached-farm drives with ``record=True`` vs ``record=False``;
      the ratio is gated at :data:`CHECKPOINT_BUDGET` (keeping every
      instance checkpointable must be near-free on the reaction path);
    * **capture/restore cost** — best-of-``repeats`` ``snapshot()`` and
      ``restore()`` round trips on one driven instance, plus the
      serialized size (recorded, not gated);
    * **warm-start speedup** — time to stand up ``n`` fully-telemetered
      instances at a target state, cold (boot + drive with metrics and
      the JSONL tap attached) vs warm (``Farm.spawn(warm_from=ckpt)``:
      detached journal replay, telemetry attached after); gated at
      >= :data:`WARM_SPEEDUP_MIN`.
    """
    import tempfile

    from .apps import load
    from .obs.fleet import FleetRegistry
    from .runtime.checkpoint import restore
    from .runtime.farm import Farm, _StubCEnv

    if n_instances is None:
        n_instances = CKPT_INSTANCES   # late-bound so tests can shrink it
    if sim_us is None:
        sim_us = CKPT_SIM_US
    source = load("blink")

    # 1) journal-recording overhead on the farm drive loop (gated)
    best = {"norecord": float("inf"), "record": float("inf")}
    for _ in range(repeats):
        best["norecord"] = min(best["norecord"],
                               _ckpt_drive(source, n_instances, sim_us,
                                           False))
        best["record"] = min(best["record"],
                             _ckpt_drive(source, n_instances, sim_us,
                                         True))
    record_ratio = best["record"] / best["norecord"] \
        if best["norecord"] else 0.0

    # 2) capture + restore cost and size on one driven instance
    seed = Farm(source, n=1, program="blink", observe=False, record=True)
    seed.run_until(sim_us)
    snapshot_s = restore_s = float("inf")
    ck = None
    for _ in range(repeats):
        start = time.perf_counter()
        ck = seed.checkpoint(0)
        snapshot_s = min(snapshot_s, time.perf_counter() - start)
    # blink calls platform C stubs — restore needs the same auto-stubbing
    # environment the farm gives its instances
    stubs = FleetRegistry()
    stub_calls = stubs.counter_family("bench_c_calls_total", ("symbol",))
    for _ in range(repeats):
        cenv = _StubCEnv(stubs, stub_calls)
        start = time.perf_counter()
        restore(ck, cenv=cenv)
        restore_s = min(restore_s, time.perf_counter() - start)

    # 3) warm-start vs cold instrumented boot to the same state (gated)
    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as tmp:
        cold_s = float("inf")
        for r in range(repeats):
            farm = _instrumented_farm(source, Path(tmp), f"cold{r}")
            start = time.perf_counter()
            farm.spawn(n_instances, program="blink")
            farm.run_until(sim_us)
            cold_s = min(cold_s, time.perf_counter() - start)
            farm.close()
        warm_s = float("inf")
        for r in range(repeats):
            farm = _instrumented_farm(source, Path(tmp), f"warm{r}")
            start = time.perf_counter()
            farm.spawn(n_instances, program="blink", warm_from=ck)
            warm_s = min(warm_s, time.perf_counter() - start)
            farm.close()
    warm_speedup = cold_s / warm_s if warm_s else 0.0
    within = (record_ratio <= CHECKPOINT_BUDGET
              and warm_speedup >= WARM_SPEEDUP_MIN)
    return {
        "workload": {"program": "blink", "instances": n_instances,
                     "sim_us": sim_us, "repeats": repeats},
        "drive_s": best,
        "overhead": {"record_vs_norecord": record_ratio},
        "capture": {
            "snapshot_s": snapshot_s,
            "restore_s": restore_s,
            "bytes": len(ck.to_bytes()),
            "journal_entries": len(ck.journal),
            "reactions": ck.reaction_count,
        },
        "warm_start": {
            "cold_boot_s": cold_s,
            "warm_s": warm_s,
            "speedup": warm_speedup,
            "cold_per_instance_ms": cold_s / n_instances * 1e3,
            "warm_per_instance_ms": warm_s / n_instances * 1e3,
        },
        "budget": {
            "record_vs_norecord_max": CHECKPOINT_BUDGET,
            "warm_speedup_min": WARM_SPEEDUP_MIN,
            "within_budget": within,
        },
    }


def _analysis_corpus() -> list[Path]:
    root = Path(__file__).resolve().parents[2]
    return (sorted((root / "examples" / "ceu").glob("*.ceu"))
            + sorted((root / "tests" / "corpus").glob("*.ceu")))


def _comment_edit(source: str) -> str:
    """A single-region edit: one comment line inserted mid-file."""
    lines = source.splitlines(keepends=True)
    mid = len(lines) // 2
    return "".join(lines[:mid]) + "// bench edit\n" + "".join(lines[mid:])


def _literal_edit(source: str) -> Optional[str]:
    """A single-region edit that changes program values: the first
    ``= <int>`` initializer/assignment bumped by one."""
    import re

    for match in re.finditer(r"=\s*(\d+)\b", source):
        head = source[:match.start()].rsplit("\n", 1)[-1]
        if "//" in head:
            continue                   # inside a line comment
        return (source[:match.start(1)] + str(int(match.group(1)) + 1)
                + source[match.end(1):])
    return None


def bench_analysis(repeats: int = 3) -> dict:
    """Incremental-vs-cold lint latency over examples + corpus.

    For each file, times a cold ``run_analysis`` and the
    :class:`~repro.analysis.IncrementalAnalyzer` re-analysis of two
    single-region edit kinds — a comment insertion (token stream
    unchanged: full DFA replay) and an integer-literal bump (masked
    token stream unchanged: DFA replay unless the file has conflicts).
    Every incremental report is verified byte-identical to the cold run
    of the same text.  Recorded, never gated — absolute times measure
    the machine; the per-file speedups and the identical flags are the
    trajectory."""
    from .analysis import IncrementalAnalyzer, run_analysis

    per_file = []
    identical = True
    for path in _analysis_corpus():
        source = path.read_text()
        name = str(path.relative_to(path.parents[2]))
        cold_s = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run_analysis(source, name)
            cold_s = min(cold_s, time.perf_counter() - start)
        entry = {"file": name, "cold_s": cold_s}
        edits = {"comment": _comment_edit(source)}
        literal = _literal_edit(source)
        if literal is not None and literal != source:
            edits["literal"] = literal
        analyzer = IncrementalAnalyzer(filename=name)
        analyzer.analyze(source)
        for kind, edited in edits.items():
            ok = (analyzer.analyze(edited).to_json()
                  == run_analysis(edited, name).to_json())
            analyzer.analyze(source)   # prime back to the unedited text
            inc_s = float("inf")
            for r in range(repeats):
                start = time.perf_counter()
                analyzer.analyze(edited)
                inc_s = min(inc_s, time.perf_counter() - start)
                analyzer.analyze(source)
            identical = identical and ok
            entry[kind] = {
                "incremental_s": inc_s,
                "speedup": cold_s / inc_s if inc_s else 0.0,
                "identical": ok,
            }
        entry["stats"] = dict(analyzer.stats)
        per_file.append(entry)

    def _geomean(values: list[float]) -> float:
        import math

        values = [v for v in values if v > 0]
        if not values:
            return 0.0
        return math.exp(sum(math.log(v) for v in values) / len(values))

    comment_speedups = [e["comment"]["speedup"] for e in per_file]
    return {
        "workload": {"files": len(per_file), "repeats": repeats},
        "per_file": per_file,
        "summary": {
            "comment_speedup_geomean": _geomean(comment_speedups),
            "comment_speedup_min": min(comment_speedups, default=0.0),
            "literal_speedup_geomean": _geomean(
                [e["literal"]["speedup"] for e in per_file
                 if "literal" in e]),
            "all_identical": identical,
        },
    }


def snapshot(repeats: int = 3, farm: bool = False,
             analysis: bool = False, serve: bool = False,
             checkpoint: bool = False) -> dict:
    """The full ``repro bench`` measurement (pure data, JSON-ready)."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        stream = bench_stream(Path(tmp))
    snap = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "vm": bench_vm(repeats),
        "stream": stream,
        "flatness": bench_flatness(repeats),
    }
    if farm:
        snap["farm"] = bench_farm()
    if analysis:
        snap["analysis"] = bench_analysis(repeats)
    if serve:
        snap["serve"] = bench_serve(repeats=repeats)
    if checkpoint:
        snap["checkpoint"] = bench_checkpoint(repeats=repeats)
    return snap


def stamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")


def write_snapshot(snap: dict, out_dir: Path) -> Path:
    out = Path(out_dir) / f"BENCH_{stamp()}.json"
    out.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")
    return out


def check_regression(snap: dict, baseline: dict,
                     tolerance: float = 0.5) -> list[str]:
    """Compare a snapshot against the committed baseline.

    Returns a list of human-readable violations (empty = gate passes):

    * every deterministic counter must match the baseline exactly — the
      same workload must do the same work, on any machine;
    * each instrumentation-overhead ratio must stay within
      ``tolerance`` (relative) of the baseline ratio, and the detached
      ratio additionally below an absolute cap — a detached bus must
      stay indistinguishable from one that never had subscribers;
    * each bookkeeping-flatness ratio must reach :data:`FLAT_FLOOR`
      (absolute, like the serving budget: no baseline needed).
    """
    problems: list[str] = []
    base_counters = baseline.get("vm", {}).get("counters", {})
    counters = snap.get("vm", {}).get("counters", {})
    for key, expect in sorted(base_counters.items()):
        got = counters.get(key)
        if got != expect:
            problems.append(f"counter {key}: expected {expect}, got {got}")
    base_ratios = baseline.get("vm", {}).get("ratios", {})
    ratios = snap.get("vm", {}).get("ratios", {})
    for key in RATIO_KEYS:
        expect = base_ratios.get(key)
        got = ratios.get(key)
        if expect is None or got is None:
            problems.append(f"ratio {key}: missing "
                            f"(baseline={expect}, snapshot={got})")
            continue
        if got > expect * (1.0 + tolerance):
            problems.append(f"ratio {key}: {got:.2f} exceeds baseline "
                            f"{expect:.2f} by more than {tolerance:.0%}")
    got = ratios.get("detached_vs_off")
    if got is not None and got > 1.5:
        problems.append(f"ratio detached_vs_off: {got:.2f} > 1.5 — the "
                        f"unsubscribed bus is no longer a no-op")
    base_resident = baseline.get("stream", {}).get("resident_high")
    resident = snap.get("stream", {}).get("resident_high")
    flush = snap.get("stream", {}).get("flush_every")
    if (base_resident is not None and resident is not None
            and flush and resident > flush):
        problems.append(f"stream resident_high {resident} exceeds "
                        f"flush_every {flush}: streaming is buffering")
    for key, got in snap.get("flatness", {}).get("ratios", {}).items():
        if got < FLAT_FLOOR:
            problems.append(f"flatness {key}: {got:.2f} below the "
                            f"{FLAT_FLOOR:.2f} floor — bookkeeping grows "
                            f"with idle trails or program age")
    return problems


def main(args) -> int:
    """``repro bench`` entry point (wired up in :mod:`repro.cli`)."""
    import sys

    with_farm = getattr(args, "farm", False)
    with_analysis = getattr(args, "analysis", False)
    with_serve = getattr(args, "serve", False)
    with_checkpoint = getattr(args, "checkpoint", False)
    snap = snapshot(repeats=args.repeats, farm=with_farm,
                    analysis=with_analysis, serve=with_serve,
                    checkpoint=with_checkpoint)
    out_dir = Path(args.out) if args.out else BENCH_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    out = write_snapshot(snap, out_dir)
    vm = snap["vm"]
    print(f"wrote {out}")
    print(f"vm: {vm['reactions_per_s']:.0f} reactions/s off; ratios "
          + ", ".join(f"{k}={vm['ratios'][k]:.2f}" for k in RATIO_KEYS))
    print(f"stream: {snap['stream']['records_per_s']:.0f} records/s, "
          f"resident high {snap['stream']['resident_high']}")
    flat = snap["flatness"]
    print("flatness: " + ", ".join(f"{k}={v:.2f}"
                                   for k, v in flat["ratios"].items())
          + f" (floor {flat['floor']:.2f})")
    if with_farm:
        farm = snap["farm"]
        farm_path = out_dir / FARM_PATH.name if args.out else FARM_PATH
        farm_path.write_text(
            json.dumps(farm, indent=2, sort_keys=True) + "\n")
        att = farm["attached"]
        print(f"wrote {farm_path}")
        print(f"farm: {farm['workload']['instances']} instances, "
              f"{att['instances_per_s']:.0f} spawns/s, "
              f"{att['events_per_s']:.0f} reactions/s attached, "
              f"p99 {farm['latency_us']['p99']} us, "
              f"{farm['resident_bytes_per_instance']['attached_bytes']:.0f}"
              f" B/instance "
              f"(drive overhead "
              f"{farm['overhead']['attached_vs_detached_drive']:.2f}x)")
    if with_analysis:
        analysis = snap["analysis"]
        analysis_path = out_dir / ANALYSIS_PATH.name if args.out \
            else ANALYSIS_PATH
        analysis_path.write_text(
            json.dumps(analysis, indent=2, sort_keys=True) + "\n")
        summary = analysis["summary"]
        print(f"wrote {analysis_path}")
        print(f"analysis: {analysis['workload']['files']} files, "
              f"comment-edit speedup geomean "
              f"{summary['comment_speedup_geomean']:.1f}x "
              f"(min {summary['comment_speedup_min']:.1f}x), "
              f"literal-edit geomean "
              f"{summary['literal_speedup_geomean']:.1f}x, "
              f"identical={summary['all_identical']}")
    if with_serve:
        serve = snap["serve"]
        serve_path = out_dir / SERVE_PATH.name if args.out else SERVE_PATH
        serve_path.write_text(
            json.dumps(serve, indent=2, sort_keys=True) + "\n")
        over = serve["overhead"]
        print(f"wrote {serve_path}")
        print(f"serve: {serve['workload']['instances']} instances, "
              f"{serve['events_per_s']['noserver']:.0f} "
              f"reactions/s detached; overhead idle "
              f"{over['idle_vs_noserver']:.3f}x, scraped "
              f"{over['scraped_vs_noserver']:.3f}x "
              f"(budget {serve['budget']['idle_vs_noserver_max']:.2f}x)")
        if not serve["budget"]["within_budget"]:
            print(f"REGRESSION serve: idle overhead "
                  f"{over['idle_vs_noserver']:.3f}x exceeds "
                  f"{serve['budget']['idle_vs_noserver_max']:.2f}x budget",
                  file=sys.stderr)
            return 1
    if with_checkpoint:
        ckpt = snap["checkpoint"]
        ckpt_path = out_dir / CHECKPOINT_PATH.name if args.out \
            else CHECKPOINT_PATH
        ckpt_path.write_text(
            json.dumps(ckpt, indent=2, sort_keys=True) + "\n")
        cap = ckpt["capture"]
        warm = ckpt["warm_start"]
        ratio = ckpt["overhead"]["record_vs_norecord"]
        print(f"wrote {ckpt_path}")
        print(f"checkpoint: {ckpt['workload']['instances']} instances; "
              f"recording overhead {ratio:.3f}x "
              f"(budget {ckpt['budget']['record_vs_norecord_max']:.2f}x); "
              f"snapshot {cap['snapshot_s'] * 1e3:.2f}ms / "
              f"restore {cap['restore_s'] * 1e3:.2f}ms / "
              f"{cap['bytes']} B; warm start "
              f"{warm['warm_per_instance_ms']:.3f}ms/inst vs cold "
              f"{warm['cold_per_instance_ms']:.3f}ms/inst "
              f"= {warm['speedup']:.1f}x "
              f"(floor {ckpt['budget']['warm_speedup_min']:.0f}x)")
        if ratio > ckpt["budget"]["record_vs_norecord_max"]:
            print(f"REGRESSION checkpoint: recording overhead "
                  f"{ratio:.3f}x exceeds "
                  f"{ckpt['budget']['record_vs_norecord_max']:.2f}x "
                  f"budget", file=sys.stderr)
            return 1
        if warm["speedup"] < ckpt["budget"]["warm_speedup_min"]:
            print(f"REGRESSION checkpoint: warm-start speedup "
                  f"{warm['speedup']:.1f}x below "
                  f"{ckpt['budget']['warm_speedup_min']:.0f}x floor",
                  file=sys.stderr)
            return 1
    baseline_path = Path(args.baseline) if args.baseline \
        else BASELINE_PATH
    if args.update_baseline:
        baseline_path.write_text(
            json.dumps(snap, indent=2, sort_keys=True) + "\n")
        print(f"updated baseline {baseline_path}")
        return 0
    if args.check:
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path} — run with "
                  f"--update-baseline first", file=sys.stderr)
            return 1
        baseline = json.loads(baseline_path.read_text())
        problems = check_regression(snap, baseline,
                                    tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION {problem}", file=sys.stderr)
            return 1
        print(f"regression gate passed (baseline {baseline_path.name}, "
              f"tolerance {args.tolerance:.0%})")
    return 0


__all__ = ["SCHEMA", "bench_vm", "bench_stream", "bench_flatness",
           "bench_farm",
           "bench_analysis", "bench_serve", "bench_checkpoint",
           "snapshot", "write_snapshot", "check_regression",
           "make_fanout"]
