"""Turn rounds of one workload into the benchmark's metrics.

``measure()`` runs rounds until the time budget is spent (at least
``MIN_ROUNDS``), then reports each end-to-end metric as the median of
its per-round values.  The traced pass alternates untraced and traced
rounds, so ``trace.overhead`` compares the two inside one process.
"""

from __future__ import annotations

from pathlib import Path

from harness import Round, Tracer, median, peak_rss_mb, perf, summarize
from workloads import LAYERS, SHARED, WORKLOADS, FarmLoad

MIN_ROUNDS = 3

#: end-to-end metrics and their units (measured with tracing off)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "tail_ops_per_s": "1/s",
    "spawn_per_s": "1/s",
    "scrape_p50_ms": "ms",
    "scrape_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

SPANS = ("analysis.incremental_s", "runtime.farm.spawn_s",
         "runtime.farm.gc_full_s", "runtime.farm.drive_s",
         "obs.fleet.snapshot_s", "obs.prom.render_s", "obs.serve.request_s")
COUNTS = ("lang.tokens", "dfa.states", "dfa.transitions",
          "analysis.full_fallbacks", "analysis.analyses",
          "runtime.reactions", "runtime.steps",
          "runtime.bookkeeping_entries", "runtime.awaiting",
          "runtime.bookkeeping_bound", "sim.des.events_fired",
          "obs.prom.series")
RATIOS = ("analysis.region_reuse_ratio", "analysis.dfa_replay_ratio",
          "runtime.bookkeeping_ratio", "runtime.bookkeeping_bound_ratio",
          "trace.overhead")
BYTES = ("codegen.c_bytes", "obs.prom.bytes",
         "runtime.farm.bytes_per_instance")

#: per-layer metrics and their units (from the traced pass)
PER_LAYER = {
    **{name: "s" for name in LAYERS}, "other.self_s": "s",
    **{name: "s" for name in SPANS},
    **{name: "count" for name in COUNTS},
    **{name: "ratio" for name in RATIOS},
    **{name: "B" for name in BYTES},
    "runtime.steps_per_reaction": "steps/op",
}

#: counters that two runs with one seed report identically
EXACT = COUNTS + ("codegen.c_bytes", "runtime.steps_per_reaction",
                  "analysis.region_reuse_ratio",
                  "analysis.dfa_replay_ratio",
                  "runtime.bookkeeping_ratio",
                  "runtime.bookkeeping_bound_ratio")


def run_rounds(workload, seconds: float, tracer=None):
    """Rounds until ``seconds`` have passed; with a tracer, every other
    round is traced.  Returns ``(untraced, traced)`` round lists."""
    plain, traced = [], []
    start = perf()
    while True:
        on = tracer is not None and len(plain) > len(traced)
        rnd = Round(tracer if on else None)
        workload.round(rnd)
        (traced if on else plain).append(rnd)
        done = len(plain) + len(traced)
        elapsed = perf() - start
        if done >= MIN_ROUNDS and elapsed * (done + 1) / done > seconds:
            return plain, traced


def measure(root: Path, name: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, list[str]]:
    workload = WORKLOADS[name](root, seed)
    tracer = Tracer(LAYERS, SHARED) if trace else None
    plain, traced = run_rounds(workload, seconds, tracer)
    rounds = plain + traced
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    lines = [f"workload={name} seed={seed} rounds={len(plain)}"
             f"+{len(traced)} traced ops={attempted} failed={failed} "
             f"error_rate={failed / attempted:.6f}"]
    if trace:
        metrics = layer_metrics(workload, tracer, plain, traced)
        units = PER_LAYER
        total = sum(v for k, v in metrics.items() if k in LAYERS
                    or k == "other.self_s")
        for key in sorted(LAYERS) + ["other.self_s"]:
            if metrics[key]:
                lines.append(f"  {key:28s} {metrics[key]:10.4f} s "
                             f"{100 * metrics[key] / total:5.1f}%")
    else:
        metrics = summarize(plain)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END
    lines += [f"  {k:34s} {metrics[k]:.6g} {units[k]}" for k in units]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    return result, lines


def layer_metrics(workload, tracer: Tracer, plain, traced) -> dict:
    n = len(traced)
    out = {name: 0.0 for name in PER_LAYER}
    for layer, secs in tracer.layer_self_times().items():
        out["other.self_s" if layer == "other" else layer] = secs / n
    for span, secs in tracer.spans.items():
        out[span] = secs / n
    out.update(traced[-1].counters)
    rate = [[r.ops_per_s() for r in rounds] for rounds in (traced, plain)]
    out["trace.overhead"] = median(rate[0]) / median(rate[1])
    if isinstance(workload, FarmLoad):
        out["runtime.farm.bytes_per_instance"] = \
            workload.bytes_per_instance()
    return out
