"""Timing, statistics and tracing helpers shared by every workload.

A run is a sequence of *rounds*.  Each round builds the workload afresh
(timed as set-up), then performs a fixed, seed-determined list of ops,
timing each public call.  Rounds repeat the same ops, so
:func:`summarize` takes each op's latency, and the set-up time, as its
median over the rounds.

**Calibrated time.**  The host is shared and its speed drifts by half
or more within seconds, so a raw wall-clock figure mostly measures the
neighbours.  Every ~25 ms a round runs a fixed pure-Python loop
(:func:`calibrate`, ~1 ms); each timed interval is then scaled by
``CAL_REF_S`` over the median of the calibrations around it.
The ratio of work time to calibration time holds within a few percent
while the raw times swing by tens of percent, so every time the
benchmark reports is in *reference seconds*: what the interval would
take on a host where the calibration loop takes ``CAL_REF_S``.

The traced pass (``--trace 1``) adds a :class:`Tracer`: spans around the
harness's own public calls, and a deterministic ``cProfile`` of the op
phase whose self time is bucketed into layers by module path.  Reaction
boundaries are generator resumes inside the VM, which no wrapper outside
``src/`` can see, so the profile is the only way to split a reaction
into scheduler, statement dispatch and expression evaluation.
"""

from __future__ import annotations

import bisect
import cProfile
import pstats
import resource
import statistics
import time
from typing import Callable, Optional

perf = time.perf_counter

#: iterations of the calibration loop, and the time it takes on the
#: reference host (an uncontended core of the machine that sized the
#: workloads, CPython 3.11)
CAL_ITERS = 6_000
CAL_REF_S = 0.00115
#: longest stretch of ops between two calibrations, and how many
#: calibrations around an interval scale it (one alone is noisy; the
#: host's speed drifts over seconds, not milliseconds)
CAL_EVERY_S = 0.025
CAL_WINDOW = 6


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibrate() -> float:
    """Seconds one fixed pure-Python loop (integer arithmetic and dict
    traffic, like the VM's own) takes right now."""
    table: dict = {}
    acc = 0
    start = perf()
    for i in range(CAL_ITERS):
        key = i & 255
        acc = (acc * 31 + i) % 1_000_003
        table[key] = table.get(key, 0) + acc
        if acc & 1:
            acc += len(table)
    return perf() - start


class Round:
    """One round's raw timings, calibrations and counters.

    A *session* is a list of ``[start, seconds, ops]`` entries, one per
    timed call (``ops`` is 1 unless one call performs many ops)."""

    def __init__(self, tracer: Optional["Tracer"] = None) -> None:
        self.tracer = tracer
        self.cal_t: list[float] = []
        self.cal_s: list[float] = []
        self.setup_steps: list = []
        self.spawned = 0                 # units built during set-up
        self.sessions: list[tuple[list, float]] = []
        self.scrapes: list = []
        self.failed = 0
        self.counters: dict[str, float] = {}

    # ---------------------------------------------------------- recording
    def tick(self, force: bool = False) -> None:
        """Calibrate when the last calibration is older than
        ``CAL_EVERY_S`` (between ops, never inside one)."""
        now = perf()
        if force or not self.cal_t or now - self.cal_t[-1] >= CAL_EVERY_S:
            s = calibrate()
            self.cal_t.append(now + s / 2)
            self.cal_s.append(s)

    def setup(self, build_fn: Callable, *args):
        """Build the workload, timed as set-up.  ``build_fn`` is a
        generator function that yields between the steps of its build:
        the round calibrates at each yield, outside the timed steps, and
        the set-up time is the sum of the steps."""
        build = build_fn(*args)
        try:
            while True:
                self._step(next, build)
        except StopIteration as stop:
            out = stop.value
        self.tick(force=True)
        return out

    def _step(self, fn: Callable, *args):
        self.tick(force=True)
        t0 = perf()
        try:
            return fn(*args)
        finally:
            self.setup_steps.append((t0, perf() - t0))

    def session(self, tail: float = 0.0) -> list:
        """Start a list of ops; ``tail`` is the share of its last ops
        that measure the aged system (none when 0)."""
        lat: list = []
        self.sessions.append((lat, tail))
        return lat

    def op(self, session: list, fn: Callable, *args):
        """Time one public call as an op (profiled in a traced round)."""
        self.tick()
        prof = self.tracer.profile if self.tracer is not None else None
        if prof is not None:
            prof.enable()
        t0 = perf()
        try:
            return fn(*args)
        finally:
            t1 = perf()
            if prof is not None:
                prof.disable()
            session.append([t0, t1 - t0, 1])

    def scrape(self, fn: Callable, *args):
        """Time one read of the workload's observable state."""
        self.tick()
        t0 = perf()
        out = fn(*args)
        self.scrapes.append((t0, perf() - t0))
        return out

    # ----------------------------------------------------------- results
    def scaled(self, t0: float, seconds: float) -> float:
        """``seconds`` measured at ``t0``, in reference seconds: scaled
        by the median of the ``CAL_WINDOW`` calibrations around ``t0``."""
        i = bisect.bisect(self.cal_t, t0)
        half = CAL_WINDOW // 2
        near = self.cal_s[max(0, i - half):i + half]
        return seconds * CAL_REF_S / median(near)

    @property
    def ops(self) -> int:
        return sum(e[2] for lat, _ in self.sessions for e in lat)

    def positions(self) -> list[tuple[float, int, bool]]:
        """Every op entry as ``(reference seconds, ops, in_tail)``, in
        the order the round made them."""
        out = []
        for lat, share in self.sessions:
            tail = len(lat) - max(1, round(len(lat) * share)) \
                if share else len(lat)
            out += [(self.scaled(t0, s), n, i >= tail)
                    for i, (t0, s, n) in enumerate(lat)]
        return out

    def ops_per_s(self) -> float:
        entries = self.positions()
        return sum(e[1] for e in entries) / sum(e[0] for e in entries)


def summarize(rounds: list[Round]) -> dict:
    """The end-to-end figures of a run, in reference time.

    Rounds repeat the same ops, so each op's latency is taken as the
    median of its latencies over the rounds: a preempted op in one round
    does not reach the percentiles, while an op that is slow every time
    does.  Scrapes are treated the same way; set-up is the median of
    the rounds' builds."""
    by_round = [r.positions() for r in rounds]
    ops = [(median([p[i][0] for p in by_round]), n, tail)
           for i, (_, n, tail) in enumerate(by_round[0])]
    per_op = [s / n for s, n, _ in ops]
    scrapes = [median(col) for col in zip(*(
        [r.scaled(t0, s) for t0, s in r.scrapes] for r in rounds))]
    setup = median([sum(r.scaled(t0, s) for t0, s in r.setup_steps)
                    for r in rounds])
    tail = [(s, n) for s, n, in_tail in ops if in_tail]
    return {
        "setup_s": setup,
        "ops_per_s": sum(n for _, n, _ in ops) / sum(s for s, _, _ in ops),
        "op_p50_us": percentile(per_op, 50) * 1e6,
        "op_p99_us": percentile(per_op, 99) * 1e6,
        "tail_ops_per_s": sum(n for _, n in tail) / sum(s for s, _ in tail),
        "spawn_per_s": rounds[0].spawned / setup,
        "scrape_p50_ms": percentile(scrapes, 50) * 1e3,
        "scrape_p90_ms": percentile(scrapes, 90) * 1e3,
    }


class Tracer:
    """Spans and the bucketed profile of a traced run, kept in memory.

    ``buckets`` maps a layer to module-path prefixes under ``repro/``;
    ``shared`` names helper modules (tree walks, span shifting) that
    every stage calls, whose time belongs to whichever layer called."""

    def __init__(self, buckets: dict[str, tuple[str, ...]],
                 shared: tuple[str, ...] = ()) -> None:
        self.buckets = buckets
        self.shared = shared
        self.spans: dict[str, float] = {}
        self.profile = cProfile.Profile()

    def add(self, name: str, seconds: float) -> None:
        self.spans[name] = self.spans.get(name, 0.0) + seconds

    def span(self, name: str, fn: Callable, *args, **kw):
        start = perf()
        try:
            return fn(*args, **kw)
        finally:
            self.add(name, perf() - start)

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer.  A builtin (``isinstance``, ``heapq``)
        or a shared helper has no layer of its own, so its time goes to
        its callers' layers in proportion to the time each caller spent
        in it, transitively through callers that are helpers too."""
        stats = pstats.Stats(self.profile).stats
        out = dict.fromkeys(self.buckets, 0.0)
        out["other"] = 0.0
        memo: dict = {}

        def owners(func, seen=frozenset()) -> dict[str, float]:
            if func in memo:
                return memo[func]
            callers = {c: w[2] for c, w in stats[func][4].items()
                       if c != func and c not in seen and c in stats}
            total = sum(callers.values())
            if not self._is_helper(func[0]) or not total:
                return {self._layer(func[0]): 1.0}
            shares: dict[str, float] = {}
            for caller, weight in callers.items():
                for layer, part in owners(caller, seen | {func}).items():
                    shares[layer] = shares.get(layer, 0.0) \
                        + part * weight / total
            memo[func] = shares
            return shares

        for func, row in stats.items():
            for layer, part in owners(func).items():
                out[layer] += row[2] * part
        return out

    def _is_helper(self, filename: str) -> bool:
        return filename == "~" or self._rel(filename).startswith(
            self.shared)

    @staticmethod
    def _rel(filename: str) -> str:
        path = filename.replace("\\", "/")
        return path.rsplit("/repro/", 1)[1] if "/repro/" in path else ""

    def _layer(self, filename: str) -> str:
        rel = self._rel(filename)
        if rel:
            for name, prefixes in self.buckets.items():
                if rel.startswith(prefixes):
                    return name
        return "other"
