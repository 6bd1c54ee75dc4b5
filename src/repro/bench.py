"""Benchmark snapshots and the perf regression gate (``repro bench``).

One command measures the repo's performance-sensitive surfaces and
writes a machine-readable snapshot.  Each section is declared once in
:data:`SECTIONS` (run function, summary line, gates); an optional one
runs under its own flag and is also written as ``BENCH_<section>.json``.

* ``vm``: reaction throughput over the fan-out workload in five
  instrumentation modes (``off``; ``detached``, subscribed then
  unsubscribed; ``metrics``, fed directly by the VM with the bus off;
  ``full``, metrics + both exporters; ``causal``, a CausalGraph,
  recorded only), latency percentiles and the deterministic counters.
  Gates: counters equal the baseline's exactly; the
  :data:`RATIO_KEYS` ratios stay within ``--tolerance`` of the
  baseline's; ``detached_vs_off`` stays under 1.5.
* ``stream``: DES + streaming-exporter throughput.  Gate: the
  exporter's ``resident_high`` stays within ``flush_every``.
* ``flatness``: waking 1 of N idle trails for N in :data:`FLAT_TRAILS`,
  and the leak program young and aged.  Gate: both ratios reach
  :data:`FLAT_FLOOR`.
* ``farm`` (``--farm``): spawn and event throughput of the reactor farm
  with telemetry attached vs detached, cross-instance latency, and
  resident bytes per instance beside the static bounds.  Never gated.
* ``analysis`` (``--analysis``): incremental-vs-cold lint latency.
  Gate: every incremental report equals the cold run's.
* ``serve`` (``--serve``): admin-server overhead on the farm drive.
  Gate: idle server <= :data:`SERVE_BUDGET`.
* ``checkpoint`` (``--checkpoint``): journal-recording overhead,
  capture/restore cost, warm starts.  Gates: recording <=
  :data:`CHECKPOINT_BUDGET`, warm speedup >= :data:`WARM_SPEEDUP_MIN`.

Snapshots are written as timestamped ``BENCH_<UTCSTAMP>.json`` files
under ``benchmarks/`` (never the repo root) so a perf trajectory
accumulates across commits.  A plain run only records.  ``--check``
first writes every artifact, then runs every measured section's gates
through :func:`check_regression` against the committed baseline
(``benchmarks/BENCH_baseline.json``).  Absolute wall-clock times are
recorded but never gated: they measure the machine, not the code.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Sequence

from .obs import (CausalGraph, ChromeTraceExporter, JsonlExporter,
                  Profiler, StreamingJsonlExporter)
from .obs.fleet import counter_samples, sample
from .obs.hooks import HookBus
from .runtime import Program
from .sim.des import Simulator

SCHEMA = 1

#: every benchmark artifact lives here — snapshots, the baseline, the
#: optional sections' ``BENCH_<section>.json``; ``repro bench`` never
#: writes into the repo root
BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

#: the committed regression baseline (see ``--update-baseline``)
BASELINE_PATH = BENCH_DIR / "BENCH_baseline.json"

#: hard ceiling on attached-server drive overhead: an idle admin server
#: must cost the reaction path <= 5% (the near-zero-cost instrumentation
#: budget; scraped-under-load is recorded, not gated)
SERVE_BUDGET = 1.05

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
#: fewest windows timed per flatness rate, interleaved with the other
#: rates' windows; a rate is the best of its windows, so one host stall
#: slows one window and moves no ratio
FLAT_WINDOWS = 3

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
    """The standard reaction-throughput workload: ``n`` trails all
    waking on one broadcast event (one trail is a bare loop: a ``par``
    needs two branches)."""
    decls = "\n".join(f"int n{i} = 0;" for i in range(n))
    if n == 1:
        return (f"input void A;\n{decls}\n"
                f"loop do\n   await A;\n   n0 = n0 + 1;\nend")
    branches = "\nwith\n".join(
        f"   loop do\n      await A;\n      n{i} = n{i} + 1;\n   end"
        for i in range(n))
    return f"input void A;\n{decls}\npar do\n{branches}\nend"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _drive(program: Program) -> float:
    start = time.perf_counter()
    program.start()
    for _ in range(EVENTS):
        program.send("A")
    return time.perf_counter() - start


def time_mode(mode: str, repeats: int) -> tuple[float, Program]:
    """Best-of-``repeats`` seconds for one instrumentation mode, and the
    last program driven (for its stats)."""
    best = float("inf")
    for _ in range(repeats):
        program = Program(make_fanout(TRAILS),
                          observe=mode in ("metrics", "full"))
        if mode == "full":
            program.observe(ChromeTraceExporter())
            program.observe(JsonlExporter())
        elif mode == "causal":
            program.observe(CausalGraph(program.hooks))
        elif mode == "detached":
            # subscribe + unsubscribe: the bus must drop back to the
            # guarded no-op fast path once the last subscriber leaves
            probe = program.observe(Profiler())
            program.hooks.unsubscribe(probe)
        best = min(best, _drive(program))
    return best, program


def bench_vm(repeats: int = 3) -> dict:
    """Reaction throughput in all five instrumentation modes, plus the
    deterministic counters and the profiler's latency percentiles."""
    timings = {}
    for mode in ("off", "detached", "metrics", "full", "causal"):
        timings[mode], program = time_mode(mode, repeats)
        if mode == "metrics":
            counters = counter_samples(program.stats()["families"])
    program = Program(make_fanout(TRAILS))
    profiler = program.observe(Profiler())
    _drive(program)
    latency = {family: h.percentiles()
               for family, h in sorted(profiler.latency.items())}
    off = timings["off"]
    return {
        "workload": {"trails": TRAILS, "events": EVENTS},
        "timings_s": timings,
        "ratios": {f"{mode}_vs_off": timings[mode] / off
                   for mode in ("metrics", "full", "detached", "causal")},
        "reactions_per_s": (EVENTS + 1) / off,
        "counters": counters,
        "latency_us": latency,
    }


def _vm_line(vm: dict) -> str:
    return (f"{vm['reactions_per_s']:.0f} reactions/s off; ratios "
            + ", ".join(f"{k}={vm['ratios'][k]:.2f}" for k in RATIO_KEYS))


def _vm_gates(vm: dict, base: dict, tolerance: float) -> list[str]:
    problems = []
    counters = vm.get("counters", {})
    for key, expect in sorted(base.get("counters", {}).items()):
        got = counters.get(key)
        if got != expect:
            problems.append(f"counter {key}: expected {expect}, got {got}")
    base_ratios = base.get("ratios", {})
    ratios = vm.get("ratios", {})
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
    return problems


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
    """Bookkeeping flatness: rates of a reaction that wakes 1 of N idle
    trails, and of :data:`LEAK_PROGRAM` over :data:`LEAK_WINDOW` ``A`` in
    one copy aged :data:`LEAK_EARLY` iterations and one aged
    :data:`LEAK_LATE`.  Every rate is the best of ``max(repeats,
    FLAT_WINDOWS)`` windows, interleaved with the other rates' windows.
    Both ratios are held to :data:`FLAT_FLOOR` by
    :func:`check_regression`."""
    programs = {n: Program(make_idle(n)) for n in FLAT_TRAILS}
    young, aged = Program(LEAK_PROGRAM), Program(LEAK_PROGRAM)
    for program in (*programs.values(), young, aged):
        program.start()
    _rate(young, LEAK_EARLY)
    _rate(aged, LEAK_LATE)
    wake = dict.fromkeys(FLAT_TRAILS, 0.0)
    early = late = 0.0
    for _ in range(max(repeats, FLAT_WINDOWS)):
        for n, program in programs.items():
            wake[n] = max(wake[n], _rate(program, FLAT_WAKES))
        early = max(early, _rate(young, LEAK_WINDOW))
        late = max(late, _rate(aged, LEAK_WINDOW))
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


def _flatness_line(flat: dict) -> str:
    return (", ".join(f"{k}={v:.2f}" for k, v in flat["ratios"].items())
            + f" (floor {flat['floor']:.2f})")


def _flatness_gates(flat: dict, base: dict, tolerance: float) -> list[str]:
    return [f"flatness {key}: {got:.2f} below the {FLAT_FLOOR:.2f} floor "
            f"— bookkeeping grows with idle trails or program age"
            for key, got in flat.get("ratios", {}).items()
            if got < FLAT_FLOOR]


def bench_stream() -> dict:
    """DES calendar churn with the streaming exporter attached: export
    throughput and the exporter's bounded-memory high-water mark."""
    import tempfile

    bus = HookBus()
    sim = Simulator(hooks=bus)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp, \
            StreamingJsonlExporter(Path(tmp) / "stream.jsonl",
                                   flush_every=512) as exporter:
        bus.subscribe(exporter)

        def tick(i: int = 0):
            if i < DES_EVENTS:
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
        "records_per_s": _ratio(exporter.seq, elapsed),
        "resident_high": resident_high,
        "flush_every": exporter.flush_every,
    }


def _stream_line(stream: dict) -> str:
    return (f"{stream['records_per_s']:.0f} records/s, "
            f"resident high {stream['resident_high']}")


def _stream_gates(stream: dict, base: dict, tolerance: float) -> list[str]:
    resident = stream.get("resident_high")
    flush = stream.get("flush_every")
    if (base.get("resident_high") is not None and resident is not None
            and flush and resident > flush):
        return [f"stream resident_high {resident} exceeds "
                f"flush_every {flush}: streaming is buffering"]
    return []


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
        "instances_per_s": _ratio(n, spawn_s),
        "reactions": reactions,
        "events_per_s": _ratio(reactions, drive_s),
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
    return _ratio(current - base, n)


def bench_farm() -> dict:
    """The reactor-farm section: spawn/drive throughput with telemetry
    attached vs detached, cross-instance latency percentiles, and
    resident bytes per instance beside the static-bounds prediction."""
    from .apps import load

    n, sim_us = FARM_INSTANCES, FARM_SIM_US
    source = load("blink")
    attached, fleet = _farm_mode(source, n, sim_us, True)
    detached, _ = _farm_mode(source, n, sim_us, False)
    latency = sample(fleet["families"], "reaction_latency_us", {})
    mem_sample = min(FARM_MEM_SAMPLE, n)
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
        "workload": {"program": "blink", "instances": n, "sim_us": sim_us},
        "attached": attached,
        "detached": detached,
        "overhead": {
            "attached_vs_detached_spawn":
                _ratio(attached["spawn_s"], detached["spawn_s"]),
            "attached_vs_detached_drive":
                _ratio(attached["drive_s"], detached["drive_s"]),
        },
        "latency_us": {k: latency.get(k)
                       for k in ("p50", "p95", "p99", "mean", "max")},
        "resident_bytes_per_instance": resident,
        "bounds": bounds.as_dict(),
        "counters": counter_samples(fleet["families"]),
    }


def _farm_line(farm: dict) -> str:
    att = farm["attached"]
    return (f"{farm['workload']['instances']} instances, "
            f"{att['instances_per_s']:.0f} spawns/s, "
            f"{att['events_per_s']:.0f} reactions/s attached, "
            f"p99 {farm['latency_us']['p99']} us, "
            f"{farm['resident_bytes_per_instance']['attached_bytes']:.0f}"
            f" B/instance (drive overhead "
            f"{farm['overhead']['attached_vs_detached_drive']:.2f}x)")


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


def bench_serve(repeats: int = 3) -> dict:
    """The serving-path overhead section (``bench --serve``).

    Interleaved best-of-``repeats`` drives of a *detached* farm (no
    per-instance metrics — the worst case for relative overhead, since
    the baseline is as fast as the farm gets) in the three modes, plus
    one measured scrape of ``/metrics`` and ``/snapshot``.  The
    ``idle_vs_noserver`` ratio is gated at :data:`SERVE_BUDGET`."""
    import urllib.request

    from .apps import load
    from .obs import AdminServer
    from .runtime.farm import Farm

    n, sim_us = SERVE_INSTANCES, SERVE_SIM_US
    source = load("blink")
    best = {"noserver": float("inf"), "idle": float("inf"),
            "scraped": float("inf")}
    reactions = 0
    for _ in range(repeats):
        for mode in best:
            elapsed, reactions = _serve_drive(source, n, sim_us, mode)
            best[mode] = min(best[mode], elapsed)

    # one served farm, scraped once per endpoint, for latency/size
    farm = Farm(source, n=n, program="blink", observe=False)
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
    finally:
        server.close()
    snap = json.loads(body)                # /snapshot is read last
    idle_ratio = _ratio(best["idle"], best["noserver"])
    scraped_ratio = _ratio(best["scraped"], best["noserver"])
    return {
        "workload": {"program": "blink", "instances": n,
                     "sim_us": sim_us, "repeats": repeats,
                     "detached": True},
        "drive_s": best,
        "reactions": reactions,
        "events_per_s": {mode: _ratio(reactions, secs)
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


def _serve_line(serve: dict) -> str:
    over = serve["overhead"]
    return (f"{serve['workload']['instances']} instances, "
            f"{serve['events_per_s']['noserver']:.0f} "
            f"reactions/s detached; overhead idle "
            f"{over['idle_vs_noserver']:.3f}x, scraped "
            f"{over['scraped_vs_noserver']:.3f}x "
            f"(budget {serve['budget']['idle_vs_noserver_max']:.2f}x)")


def _serve_gates(serve: dict, base: dict, tolerance: float) -> list[str]:
    if serve["budget"]["within_budget"]:
        return []
    return [f"serve: idle overhead "
            f"{serve['overhead']['idle_vs_noserver']:.3f}x exceeds "
            f"{serve['budget']['idle_vs_noserver_max']:.2f}x budget"]


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


def bench_checkpoint(repeats: int = 3) -> dict:
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
    from .runtime.checkpoint import restore
    from .runtime.farm import Farm, _StubCEnv

    n, sim_us = CKPT_INSTANCES, CKPT_SIM_US
    source = load("blink")

    # 1) journal-recording overhead on the farm drive loop (gated)
    best = {"norecord": float("inf"), "record": float("inf")}
    for _ in range(repeats):
        for mode in best:
            elapsed = _ckpt_drive(source, n, sim_us, mode == "record")
            best[mode] = min(best[mode], elapsed)
    record_ratio = _ratio(best["record"], best["norecord"])

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
    for _ in range(repeats):
        cenv = _StubCEnv(seed.fleet, seed._c_calls, muted=True)
        start = time.perf_counter()
        restore(ck, cenv=cenv)
        restore_s = min(restore_s, time.perf_counter() - start)

    # 3) warm-start vs cold instrumented boot to the same state (gated)
    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as tmp:
        cold_s = float("inf")
        for r in range(repeats):
            farm = _instrumented_farm(source, Path(tmp), f"cold{r}")
            start = time.perf_counter()
            farm.spawn(n, program="blink")
            farm.run_until(sim_us)
            cold_s = min(cold_s, time.perf_counter() - start)
            farm.close()
        warm_s = float("inf")
        for r in range(repeats):
            farm = _instrumented_farm(source, Path(tmp), f"warm{r}")
            start = time.perf_counter()
            farm.spawn(n, program="blink", warm_from=ck)
            warm_s = min(warm_s, time.perf_counter() - start)
            farm.close()
    warm_speedup = _ratio(cold_s, warm_s)
    within = (record_ratio <= CHECKPOINT_BUDGET
              and warm_speedup >= WARM_SPEEDUP_MIN)
    return {
        "workload": {"program": "blink", "instances": n,
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
            "cold_per_instance_ms": cold_s / n * 1e3,
            "warm_per_instance_ms": warm_s / n * 1e3,
        },
        "budget": {
            "record_vs_norecord_max": CHECKPOINT_BUDGET,
            "warm_speedup_min": WARM_SPEEDUP_MIN,
            "within_budget": within,
        },
    }


def _checkpoint_line(ckpt: dict) -> str:
    cap = ckpt["capture"]
    warm = ckpt["warm_start"]
    budget = ckpt["budget"]
    return (f"{ckpt['workload']['instances']} instances; "
            f"recording overhead "
            f"{ckpt['overhead']['record_vs_norecord']:.3f}x "
            f"(budget {budget['record_vs_norecord_max']:.2f}x); "
            f"snapshot {cap['snapshot_s'] * 1e3:.2f}ms / "
            f"restore {cap['restore_s'] * 1e3:.2f}ms / "
            f"{cap['bytes']} B; warm start "
            f"{warm['warm_per_instance_ms']:.3f}ms/inst vs cold "
            f"{warm['cold_per_instance_ms']:.3f}ms/inst "
            f"= {warm['speedup']:.1f}x "
            f"(floor {budget['warm_speedup_min']:.0f}x)")


def _checkpoint_gates(ckpt: dict, base: dict,
                      tolerance: float) -> list[str]:
    budget = ckpt["budget"]
    ratio = ckpt["overhead"]["record_vs_norecord"]
    speedup = ckpt["warm_start"]["speedup"]
    problems = []
    if ratio > budget["record_vs_norecord_max"]:
        problems.append(f"checkpoint: recording overhead {ratio:.3f}x "
                        f"exceeds {budget['record_vs_norecord_max']:.2f}x "
                        f"budget")
    if speedup < budget["warm_speedup_min"]:
        problems.append(f"checkpoint: warm-start speedup {speedup:.1f}x "
                        f"below {budget['warm_speedup_min']:.0f}x floor")
    return problems


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
    Every incremental report is compared byte for byte with the cold run
    of the same text; :func:`check_regression` gates that identity.  The
    times and per-file speedups are recorded, never gated — they measure
    the machine."""
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
                "speedup": _ratio(cold_s, inc_s),
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


def _analysis_line(analysis: dict) -> str:
    summary = analysis["summary"]
    return (f"{analysis['workload']['files']} files, "
            f"comment-edit speedup geomean "
            f"{summary['comment_speedup_geomean']:.1f}x "
            f"(min {summary['comment_speedup_min']:.1f}x), "
            f"literal-edit geomean "
            f"{summary['literal_speedup_geomean']:.1f}x, "
            f"identical={summary['all_identical']}")


def _analysis_gates(analysis: dict, base: dict,
                    tolerance: float) -> list[str]:
    if analysis["summary"]["all_identical"]:
        return []
    return ["analysis: an incremental report differs from the cold run "
            "of the same text"]


def _ungated(data: dict, base: dict, tolerance: float) -> list[str]:
    return []


@dataclass(frozen=True)
class Section:
    """One ``repro bench`` section, declared once under its name in
    :data:`SECTIONS`.

    ``run(repeats)`` measures it; ``summary(data)`` renders its stdout
    line after ``"<name>: "``; ``gates(data, baseline, tolerance)``
    returns its violations against the baseline's section of the same
    name (empty = pass).  An ``optional`` section runs only under its
    ``--<name>`` flag and is also written standalone as
    ``BENCH_<name>.json``."""

    run: Callable[[int], dict]
    summary: Callable[[dict], str]
    gates: Callable[[dict, dict, float], list[str]] = _ungated
    optional: bool = False


#: every section, in run and print order
SECTIONS = {
    "vm": Section(bench_vm, _vm_line, _vm_gates),
    "stream": Section(lambda repeats: bench_stream(), _stream_line,
                      _stream_gates),
    "flatness": Section(bench_flatness, _flatness_line, _flatness_gates),
    "farm": Section(lambda repeats: bench_farm(), _farm_line,
                    optional=True),
    "analysis": Section(bench_analysis, _analysis_line, _analysis_gates,
                        optional=True),
    "serve": Section(bench_serve, _serve_line, _serve_gates,
                     optional=True),
    "checkpoint": Section(bench_checkpoint, _checkpoint_line,
                          _checkpoint_gates, optional=True),
}

#: the sections every ``repro bench`` run measures
CORE = tuple(name for name, section in SECTIONS.items()
             if not section.optional)


def snapshot(repeats: int = 3, sections: Sequence[str] = CORE) -> dict:
    """The ``repro bench`` measurement of ``sections`` (pure data,
    JSON-ready)."""
    snap = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    for name in sections:
        snap[name] = SECTIONS[name].run(repeats)
    return snap


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def write_snapshot(snap: dict, out_dir: Path) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return _write_json(Path(out_dir) / f"BENCH_{stamp}.json", snap)


def check_regression(snap: dict, baseline: dict,
                     tolerance: float = 0.5) -> list[str]:
    """Run the gates of every section in ``snap`` against ``baseline``
    (see each section's gates in the module docstring); returns the
    human-readable violations, empty when the gate passes.  The core
    sections are gated even when missing from ``snap``, so a snapshot
    without ``vm`` fails its counters instead of passing vacuously."""
    problems: list[str] = []
    for name, section in SECTIONS.items():
        if name in snap or not section.optional:
            problems += section.gates(snap.get(name, {}),
                                      baseline.get(name, {}), tolerance)
    return problems


def main(args) -> int:
    """``repro bench`` entry point (wired up in :mod:`repro.cli`): run
    the requested sections, write the snapshot and every optional
    section's artifact, then gate under ``--check``."""
    names = [name for name, section in SECTIONS.items()
             if not section.optional or getattr(args, name, False)]
    snap = snapshot(args.repeats, names)
    out_dir = Path(args.out) if args.out else BENCH_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"wrote {write_snapshot(snap, out_dir)}")
    for name in names:
        section = SECTIONS[name]
        if section.optional:
            path = _write_json(out_dir / f"BENCH_{name}.json", snap[name])
            print(f"wrote {path}")
        print(f"{name}: {section.summary(snap[name])}")
    baseline_path = Path(args.baseline) if args.baseline \
        else BASELINE_PATH
    if args.update_baseline:
        _write_json(baseline_path, snap)
        print(f"updated baseline {baseline_path}")
        return 0
    if not args.check:
        return 0
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path} — run with "
              f"--update-baseline first", file=sys.stderr)
        return 1
    problems = check_regression(snap, json.loads(baseline_path.read_text()),
                                tolerance=args.tolerance)
    for problem in problems:
        print(f"REGRESSION {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"regression gate passed (baseline {baseline_path.name}, "
          f"tolerance {args.tolerance:.0%})")
    return 0


__all__ = ["SCHEMA", "SECTIONS", "CORE", "Section", "bench_vm",
           "bench_stream", "bench_flatness", "bench_farm",
           "bench_analysis", "bench_serve", "bench_checkpoint",
           "snapshot", "write_snapshot", "check_regression",
           "make_fanout", "time_mode"]
