"""The reaction engine (§2 execution model, §4.5 API).

The scheduler exposes the paper's four-entry C API:

* :meth:`go_init`  — boot reaction;
* :meth:`go_event` — one reaction chain for one external input event;
* :meth:`go_time`  — advance wall-clock time, running one reaction chain
  per expiring deadline (residual-delta semantics of §2.3);
* :meth:`go_async` — one round-robin step of one ``async`` block, whose
  emits tail-call back into ``go_event``/``go_time`` (§4.5).

Within a reaction chain, normal awakenings run first, in FIFO order off a
ready queue; rejoin/termination continuations of parallel compositions and
loops wait in a priority heap and run later, **the outer the construct, the
lower the priority** (§4.1) — the glitch-avoidance order of the paper's flow
graph.
Internal events are *not* queued: an ``emit`` runs its awaiting trails to
halt synchronously and only then resumes the emitter — the stack policy of
§2.2, realised here directly on the Python call stack.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from operator import attrgetter
from typing import Any, Callable, Optional

from ..lang import ast
from ..lang.errors import RuntimeCeuError
from ..obs.hooks import HookBus
from ..obs.fleet import FleetRegistry
from ..obs.metrics import MetricsCollector
from ..sema.binder import BoundProgram
from ..sema.symbols import EventSymbol
from .asyncs import AsyncInterp, AsyncJob
from .cenv import CEnv
from .eval import Evaluator
from .interp import Interp
from .memory import Memory
from .trace import Trace
from .trails import BreakSignal, EscapeJoin, Join, ReturnSignal, Trail

#: status codes, mirroring the paper's C API returns
RUNNING = "running"
TERMINATED = "terminated"

#: suspension kinds that count as *awaiting* (§3.1)
AWAITING = frozenset(("ext", "int", "time", "forever"))


class Scheduler:
    """Executes one Céu program."""

    def __init__(self, bound: BoundProgram, cenv: Optional[CEnv] = None,
                 trace: Optional[Trace] = None,
                 hooks: Optional[HookBus] = None,
                 step_limit: int = 5_000_000,
                 compensate_deltas: bool = True,
                 glitch_free: bool = True,
                 reverse_seeds: bool = False):
        self.bound = bound
        #: ablation switches (§2.3 residual deltas, §4.1 join priorities);
        #: both default to the paper's design — disabling them reproduces
        #: the failure modes the paper designs against
        self.compensate_deltas = compensate_deltas
        self.glitch_free = glitch_free
        #: schedule-diversity switch for the analyzer-soundness oracle:
        #: seed every reaction in reversed arrival order.  Any program the
        #: temporal analysis accepts must behave identically either way.
        self.reverse_seeds = reverse_seeds
        self.memory = Memory()
        self.cenv = cenv if cenv is not None else CEnv()
        self.ev = Evaluator(bound, self.memory, self.cenv)
        self.interp = Interp(bound, self.ev, self)
        self.async_interp = AsyncInterp(bound, self.ev)
        #: instrumentation (docs/OBSERVABILITY.md) — a no-op unless
        #: someone subscribes; the Trace recorder is one subscriber
        self.hooks = hooks if hooks is not None else HookBus()
        self.trace = trace if trace is not None else Trace(enabled=False)
        if self.trace.enabled:
            self.hooks.subscribe(self.trace)
        self.metrics = FleetRegistry()
        #: the metrics collector, fed directly by this scheduler and its
        #: interpreter (never through the bus) once :meth:`enable_metrics`
        #: attaches it
        self.collector: Optional[MetricsCollector] = None

        self.clock = 0                     # wall-clock, microseconds
        self.done = False
        self.result: Any = None
        self.reaction_count = 0
        self.steps_executed = 0
        self.step_limit = step_limit
        #: time-travel support (repro debug): when set, the scheduler
        #: refuses to *start* reaction number ``pause_at`` — go_time and
        #: the input/async drains stop at the boundary, leaving the VM
        #: inspectable exactly after ``pause_at`` completed reactions
        self.pause_at: Optional[int] = None

        # awaiting registries ("gates", §4.3): insertion-ordered sets
        # (dicts keyed by trail) that a killed trail leaves at once
        self.ext_waiting: dict[str, dict[Trail, None]] = {}
        self.int_waiting: dict[str, dict[Trail, None]] = {}
        self.forever: dict[Trail, None] = {}
        #: heap of (deadline, arming_base, computed?, seq, trail) — the
        #: base/computed components partition coincident deadlines into
        #: per-epoch reactions (see :meth:`go_time`).  Killed entries stay
        #: until they outnumber the armed ones (:meth:`_compact_timers`)
        self.timers: list[tuple[int, int, int, int, Trail]] = []
        self._dead_timers = 0
        #: live trails whose ``waiting`` is in :data:`AWAITING`, kept at
        #: halt, resume and kill
        self._awaiting = 0
        self.async_jobs: deque[AsyncJob] = deque()
        self.input_queue: deque[tuple[str, Any]] = deque()
        self.output_handler: Optional[Callable[[str, Any], None]] = None
        #: checkpoint support (repro.runtime.checkpoint): when a list is
        #: assigned, every *top-level* driver call — go_event/go_time/
        #: go_async plus queue_input/flush_inputs — appends one journal
        #: op.  Nested calls (an async's emit tail-calling go_event, a
        #: flush delivering queued inputs) are consequences of the
        #: recorded op and are not journaled; replaying the journal in
        #: order reproduces the run exactly (the determinism property
        #: the replay fuzz oracle checks).
        self.journal: Optional[list[tuple]] = None
        self._drive_depth = 0

        # reaction-chain state: resumes ``(trail, value)`` run FIFO off
        # ``_ready`` before the heap of (priority, seq, Join|EscapeJoin)
        # continuations; without glitch-free priorities all share the FIFO.
        # The FIFO is a list read by index and cleared after the reaction:
        # an idle one costs a farm instance 56 bytes, a deque ~760
        self._ready: list = []
        self._heap: list = []
        self._seq = itertools.count()
        self._region_seq = itertools.count(1)
        self._reacting = False
        self._current_base = 0
        self._steps_this_reaction = 0
        self._emit_depth = 0               # §2.2 emit-stack depth
        self._live: dict[Trail, None] = {}  # spawn order
        self.root: Optional[Trail] = None

        self._depth = self._compute_depths()

    # ------------------------------------------------------------ prepass
    def _compute_depths(self) -> dict[int, int]:
        depth: dict[int, int] = {}

        def walk(node: ast.Node, d: int) -> None:
            depth[node.nid] = d
            nested = d + 1 if isinstance(
                node, (ast.ParStmt, ast.Loop, ast.DoBlock,
                       ast.AsyncBlock)) else d
            for child in node.children():
                walk(child, nested)

        walk(self.bound.program, 0)
        return depth

    def depth(self, node: Optional[ast.Node]) -> int:
        if node is None:
            return 0
        return self._depth.get(node.nid, 0)

    # ------------------------------------------------------- observability
    def enable_metrics(self) -> FleetRegistry:
        """Attach (once) the metrics collector.  The VM feeds it directly
        from then on, like :attr:`reaction_count`, and leaves the hook bus
        alone: metrics alone keep ``hooks.enabled`` false."""
        if self.collector is None:
            self.collector = MetricsCollector(self.metrics, sampled=self)
        return self.metrics

    def stats(self) -> dict:
        """Snapshot of the documented metric set (docs/OBSERVABILITY.md).

        The ``runtime`` block is always live (sampled on demand); the
        ``families`` block fills in once :meth:`enable_metrics` (or
        ``Program(..., observe=True)``) has attached the collector.
        """
        snap = {
            "runtime": {
                "clock_us": self.clock,
                "reactions_total": self.reaction_count,
                "steps_total": self.steps_executed,
                "live_trails": len(self._live),
                "awaiting": self.awaiting_count(),
                "timer_heap_size": len(self.timers),
                "async_jobs": len(self.async_jobs),
                "input_queue_depth": len(self.input_queue),
                "done": self.done,
                "observed": self.collector is not None,
            },
            "families": self.metrics.snapshot(),
        }
        collector = self.collector
        if collector is not None and collector.reaction_latency.total:
            latency = collector.reaction_latency
            snap["derived"] = {
                "reactions_per_sec": latency.count * 1e6 / latency.total,
                "steps_per_reaction_mean":
                    collector.steps_per_reaction.mean,
            }
        return snap

    # ---------------------------------------------------------- public API
    def paused(self) -> bool:
        """True when the reaction-boundary pause (:attr:`pause_at`) has
        been reached — drivers must stop feeding stimuli."""
        return (self.pause_at is not None
                and self.reaction_count >= self.pause_at)

    def go_init(self) -> str:
        """Boot reaction (``ceu_go_init``)."""
        if self.root is not None:
            raise RuntimeCeuError("program already initialised")
        trail = Trail(gen=None, path=(), parent_join=None, label="main")
        trail.gen = self.interp.trail_body(self.bound.program.body, trail)
        self.root = trail
        self._live[trail] = None
        if self.collector is not None:
            self.collector.trail_spawn()
        if self.hooks.enabled:
            self.hooks.trail_spawn(trail.label, trail.path, self.clock)
            trail.wake_cause = self.hooks.last_span
        self._react("boot", None,
                    lambda: self._enqueue_resume(trail, None))
        return TERMINATED if self.done else RUNNING

    def _journal_op(self, op: tuple) -> Optional[int]:
        """Record one top-level driver call for checkpoint replay.
        Returns the entry index so :meth:`_journal_close` can stamp it."""
        if self.journal is not None and self._drive_depth == 0:
            self.journal.append(op)
            return len(self.journal) - 1
        return None

    def _journal_close(self, idx: Optional[int]) -> None:
        """Stamp an entry with the reaction count after its application.
        Replay uses the stamp to detect a partially applied entry (a
        pause — or a crash — landed inside a multi-reaction op) and
        resume it instead of re-running it."""
        if idx is not None and self.journal is not None:
            self.journal[idx] = self.journal[idx] + (self.reaction_count,)

    def go_event(self, name: str, value: Any = None) -> str:
        """One reaction chain for input event ``name`` (``ceu_go_event``)."""
        if self.done:
            return TERMINATED
        sym = self.bound.events.get(name)
        if sym is None or sym.kind != "input":
            raise RuntimeCeuError(f"`{name}` is not a declared input event")
        rec = self._journal_op(("E", name, value))
        self._drive_depth += 1

        def seed() -> None:
            gate = self.ext_waiting.pop(name, None)
            if gate:
                ready = self._ready
                for trail in reversed(gate) if self.reverse_seeds else gate:
                    ready.append((trail, value))

        try:
            self._react(f"event:{name}", value, seed)
        finally:
            self._drive_depth -= 1
            self._journal_close(rec)
        return TERMINATED if self.done else RUNNING

    def go_time(self, now: int) -> str:
        """Advance wall-clock time to ``now`` µs (``ceu_go_time``).

        Runs one reaction chain per expiring *logical* deadline; deadlines
        chain (`await 10ms; await 1ms` expires at 10 and 11 ms regardless
        of how late ``go_time`` is called), reproducing the residual-delta
        handling of §2.3.
        """
        if self.done:
            return TERMINATED
        if now < self.clock:
            raise RuntimeCeuError(
                f"time goes backwards ({now} < {self.clock})")
        rec = self._journal_op(("T", now))
        self._drive_depth += 1
        try:
            self._go_time(now)
        finally:
            self._drive_depth -= 1
            self._journal_close(rec)
        return TERMINATED if self.done else RUNNING

    def _go_time(self, now: int) -> None:
        self.clock = now
        while not self.done and not self.paused():
            deadline = self._next_deadline()
            if deadline is None or deadline > now:
                break
            # Pop everything at this absolute deadline, then partition it:
            # timers armed in the same reaction (same base) fire together,
            # cross-epoch coincidences fire as separate reactions, and
            # computed timeouts (`await (exp)`) always fire alone.  This is
            # exactly the batching the temporal analysis explores (one
            # epoch per `fire_timer`, one `tunk` per `fire_unknown_timer`),
            # so its per-reaction bounds hold for the concrete scheduler.
            popped: list[tuple[int, int, int, Trail]] = []
            timers = self.timers
            while timers and timers[0][0] == deadline:
                _, base, computed, seq, trail = heapq.heappop(timers)
                if trail.alive and trail.waiting == "time":
                    trail.gate = None
                    popped.append((computed, base, seq, trail))
                else:
                    self._dead_timers -= 1
            self._compact_timers()
            # most recently armed epoch first (the freshly re-armed short
            # timer beats the long-armed watchdog expiring with it),
            # computed timeouts last
            popped.sort(key=lambda item: (item[0], -item[1], item[2]))
            parts: list[list[Trail]] = []
            last_key: Optional[tuple] = None
            for computed, base, seq, trail in popped:
                key = (computed, base, seq if computed else -1)
                if key != last_key:
                    parts.append([])
                    last_key = key
                parts[-1].append(trail)
            delta = now - deadline
            for part in parts:
                if self.done or self.paused():
                    break
                # an earlier partition's reaction may have killed these
                live = [t for t in part
                        if t.alive and t.waiting == "time"]
                if not live:
                    continue
                if self.collector is not None:
                    self.collector.timer_fire()
                hooked = self.hooks.enabled
                if hooked:
                    prev_cause = self.hooks.cause
                    self.hooks.timer_fire(deadline, delta, len(live))
                    # the fire is the cause of the reaction it seeds
                    self.hooks.cause = self.hooks.last_span

                def seed(live=live, delta=delta) -> None:
                    order = reversed(live) if self.reverse_seeds else live
                    for trail in order:
                        self._enqueue_resume(trail, delta)

                self._react("time", deadline, seed, base=deadline)
                if hooked:
                    self.hooks.cause = prev_cause

    def advance_time(self, us: int) -> str:
        """Convenience: ``go_time(clock + us)``."""
        return self.go_time(self.clock + us)

    def go_async(self) -> str:
        """One async step (``ceu_go_async``): a single loop iteration or a
        single emit of the current job, round-robin across jobs."""
        if self.done:
            return TERMINATED
        rec = self._journal_op(("A",))
        self._drive_depth += 1
        try:
            return self._go_async()
        finally:
            self._drive_depth -= 1
            self._journal_close(rec)

    def _go_async(self) -> str:
        if self.input_queue:
            # asynchronous code cannot run with pending inputs (§2.7)
            self.flush_inputs()
            return TERMINATED if self.done else RUNNING
        job = self._next_job()
        if job is None:
            return RUNNING
        try:
            req = next(job.gen)
        except StopIteration as stop:
            self._complete_async(job, stop.value)
            return TERMINATED if self.done else RUNNING
        kind = req[0]
        if self.collector is not None:
            self.collector.async_step()
        hooked = self.hooks.enabled
        if hooked:
            self.hooks.async_step(job.seq, kind, self.clock)
            # the async step causes the reaction(s) its emit triggers
            self.hooks.cause = self.hooks.last_span
        if kind == "emit_ext":
            _, sym, value = req
            if job.aborted:
                if hooked:
                    self.hooks.cause = 0
                return RUNNING
            if sym.kind == "output":
                self.emit_output(sym, value)
            else:
                self.go_event(sym.name, value)
        elif kind == "emit_time":
            if not job.aborted:
                self.go_time(self.clock + req[1])
        # "tick": nothing — one loop iteration consumed
        if hooked:
            self.hooks.cause = 0
        if not job.aborted and not job.done:
            self._rotate_job(job)
        return TERMINATED if self.done else RUNNING

    # input queue (events arriving while a reaction runs / DES platforms)
    def queue_input(self, name: str, value: Any = None) -> None:
        rec = self._journal_op(("Q", name, value))
        self.input_queue.append((name, value))
        self._journal_close(rec)

    def flush_inputs(self) -> None:
        rec = self._journal_op(("F",))
        self._drive_depth += 1
        try:
            while self.input_queue and not self.done and not self.paused():
                name, value = self.input_queue.popleft()
                self.go_event(name, value)
        finally:
            self._drive_depth -= 1
            self._journal_close(rec)

    def has_work(self) -> bool:
        """Anything left that could run without external stimulus?"""
        return bool(self.input_queue or self.async_jobs) and not self.done

    def awaiting_count(self) -> int:
        """Live trails halted on an event, a timer or ``forever``.  A
        timer waiter counts by its ``waiting`` kind, not by a heap entry:
        go_time pops every same-deadline entry before running the
        per-epoch partitions, so between two coincident-deadline
        reactions a still-waiting trail has no heap entry — counting the
        heap would declare quiescence with a resume still owed."""
        return self._awaiting

    def armed_timers(self) -> int:
        """Timer-heap entries whose trail still waits on them: the heap
        less the killed entries not yet compacted away."""
        return len(self.timers) - self._dead_timers

    def next_deadline(self) -> Optional[int]:
        """Earliest pending wall-clock deadline (for platform drivers)."""
        return self._next_deadline()

    # ------------------------------------------------------ reaction chain
    def _react(self, trigger: str, value: Any, seed: Callable[[], None],
               base: Optional[int] = None) -> None:
        if self._reacting:
            raise RuntimeCeuError(
                "reaction chains must not be interleaved (§4.5)")
        if self.done:
            return
        self._reacting = True
        self._current_base = self.clock if base is None else base
        index = self.reaction_count
        self.reaction_count += 1
        self._steps_this_reaction = 0
        hooked = self.hooks.enabled
        collector = self.collector
        timed = hooked or collector is not None
        if timed:
            start_ns = time.perf_counter_ns()
        if collector is not None:
            collector.reaction_begin(trigger)
        if hooked:
            self.hooks.reaction_begin(index, trigger, value,
                                      self._current_base)
            # the reaction span is the causal parent of everything it
            # runs (seeded resumes, rejoins); its own parent is whatever
            # triggered it (0 = external, an async step, a timer fire)
            prev_cause = self.hooks.cause
            self.hooks.cause = self.hooks.last_span
        try:
            seed()
            ready, heap = self._ready, self._heap
            head = 0
            while not self.done:
                if head < len(ready):
                    item = ready[head]
                    head += 1
                elif heap:
                    item = heapq.heappop(heap)[2]
                else:
                    break
                if type(item) is tuple:
                    trail, send_value = item
                    if trail.alive:
                        self._run_trail(trail, send_value)
                elif type(item) is Join:
                    self._dispatch_join(item)
                else:
                    self._dispatch_escape(item)
        finally:
            self._ready.clear()
            self._heap.clear()
            self._reacting = False
            if timed:
                steps = self._steps_this_reaction
                wall_ns = time.perf_counter_ns() - start_ns
                if hooked:
                    self.hooks.reaction_end(index, trigger, steps, wall_ns)
                    self.hooks.cause = prev_cause
                if collector is not None:
                    collector.reaction_end(steps, wall_ns)
        self._check_termination()

    def _enqueue_resume(self, trail: Trail, value: Any) -> None:
        self._ready.append((trail, value))

    def _enqueue_continuation(self, depth: int,
                              item: Join | EscapeJoin) -> None:
        """Queue a rejoin or escape of a construct at nesting ``depth``:
        after every resume, the outer the later (§4.1).  Without
        glitch-free priorities it queues FIFO with the resumes."""
        if self.hooks.enabled:
            # causal parent of the deferred continuation: the halt of
            # the branch that enqueued it (the dispatch may run much
            # later in the reaction, under a different context)
            item.cause = self.hooks.last_span
        if self.glitch_free:
            heapq.heappush(self._heap, (-depth, next(self._seq), item))
        else:
            self._ready.append(item)

    def _enqueue_join(self, join: Join) -> None:
        self._enqueue_continuation(self.depth(join.node), join)

    def _enqueue_escape(self, trail: Trail, signal: Exception) -> None:
        if isinstance(signal, BreakSignal):
            target_depth = self.depth(signal.target)
        else:
            boundary = signal.boundary  # type: ignore[attr-defined]
            target_depth = self.depth(boundary)
        self._enqueue_continuation(target_depth, EscapeJoin(trail, signal))

    def _dispatch_join(self, join: Join) -> None:
        if not join.owner.alive:  # killed with its region
            return
        hooked = self.hooks.enabled
        if hooked:
            prev_cause = self.hooks.cause
            if join.cause:
                self.hooks.cause = join.cause
        if join.mode == "or" or join.has_value:
            self.kill_region(join)
        value = join.value if join.has_value else 0
        self._run_trail(join.owner, ("done", value))
        if hooked:
            self.hooks.cause = prev_cause

    def _dispatch_escape(self, ej: EscapeJoin) -> None:
        join = ej.trail.parent_join
        if join.killed:  # an earlier kill already destroyed its region
            return
        hooked = self.hooks.enabled
        if hooked:
            prev_cause = self.hooks.cause
            if ej.cause:
                self.hooks.cause = ej.cause
        self.kill_region(join)
        owner = join.owner
        if owner.alive:
            self._run_trail(owner, ("escape", ej.signal))
        if hooked:
            self.hooks.cause = prev_cause

    # --------------------------------------------------------- trail steps
    def _run_trail(self, trail: Trail, value: Any) -> None:
        """Run one trail until it halts (one atomic *track*, §4.4)."""
        if trail.waiting in AWAITING:
            self._awaiting -= 1
        trail.waiting = trail.gate = None
        trail.time_base = self._current_base
        hooks = self.hooks
        hooked = hooks.enabled
        if hooked:
            # publish the aux wake cause (await/arm/spawn span) for the
            # resume dispatch, then open the resume's causal context
            hooks.wake = trail.wake_cause
            hooks.trail_resume(trail.label, trail.path, self.clock)
            hooks.wake = 0
            trail.wake_cause = 0
            prev_cause = hooks.cause
            hooks.cause = hooks.last_span
        try:
            if not trail.started:
                trail.started = True
                req = next(trail.gen)
            else:
                req = trail.gen.send(value)
        except StopIteration:
            if hooked:
                hooks.trail_halt(trail.label, trail.path, "done",
                                 self.clock)
            self._trail_completed(trail)
            if hooked:
                hooks.cause = prev_cause
            return
        except (BreakSignal, ReturnSignal) as sig:
            if hooked:
                hooks.trail_halt(trail.label, trail.path, "escape",
                                 self.clock)
            self._trail_signal(trail, sig)
            if hooked:
                hooks.cause = prev_cause
            return
        self._register(trail, req)
        if hooked:
            hooks.trail_halt(trail.label, trail.path, req[0], self.clock)
            hooks.cause = prev_cause

    def _register(self, trail: Trail, req: tuple) -> None:
        kind = req[0]
        trail.waiting = kind
        if kind == "ext" or kind == "int":
            table = self.ext_waiting if kind == "ext" else self.int_waiting
            gate = table.get(req[1].name)
            if gate is None:
                gate = table[req[1].name] = {}
            gate[trail] = None
        elif kind == "time":
            timeout = req[1]
            if timeout < 0:
                raise RuntimeCeuError("negative timeout")
            computed = 1 if len(req) > 2 and req[2] else 0
            base = trail.time_base if self.compensate_deltas else self.clock
            deadline = base + timeout
            gate = self.timers
            heapq.heappush(gate, (deadline, base, computed,
                                  next(self._seq), trail))
            if self.collector is not None:
                self.collector.timer_schedule()
            if self.hooks.enabled:
                self.hooks.timer_schedule(deadline, trail.label, self.clock)
                trail.wake_cause = self.hooks.last_span
            # an already-late deadline is picked up by the next go_time
        elif kind == "forever":
            gate = self.forever
            gate[trail] = None
        elif kind in ("par", "async"):
            trail.gate = req[1]  # the Join / AsyncJob holds the owner
            return
        else:  # pragma: no cover - interpreter invariant
            raise RuntimeCeuError(f"unknown suspension {kind!r}")
        trail.gate = gate
        self._awaiting += 1

    def _retire(self, trail: Trail) -> None:
        """A trail dies: it leaves the live set and its join's branches
        (so dead trails form no cycle with their join)."""
        trail.alive = False
        del self._live[trail]
        if trail.parent_join is not None:
            del trail.parent_join.branches[trail]

    def _trail_completed(self, trail: Trail) -> None:
        self._retire(trail)
        join = trail.parent_join
        if join is None:
            return  # root trail finished; liveness check decides the rest
        if join.mode == "and":
            if join.branch_done(trail.branch_index):
                self._enqueue_join(join)
        elif join.mode == "or":
            join.branch_done(trail.branch_index)
            if not join.or_enqueued:
                join.or_enqueued = True
                self._enqueue_join(join)
        # plain `par` never rejoins: the trail simply dies

    def _trail_signal(self, trail: Trail, sig: Exception) -> None:
        self._retire(trail)
        join = trail.parent_join
        if join is None:
            if isinstance(sig, ReturnSignal):
                self._terminate(sig.value)
                return
            raise RuntimeCeuError("`break` escaped the program")
        if isinstance(sig, ReturnSignal) and sig.boundary is join.node:
            # `return` from a value-parallel: completes the whole par
            if not join.has_value:
                join.has_value = True
                join.value = sig.value
            if not join.or_enqueued:
                join.or_enqueued = True
                self._enqueue_join(join)
            return
        self._enqueue_escape(trail, sig)

    # ------------------------------------------------------------- regions
    def spawn_par(self, node: ast.ParStmt, owner: Trail) -> Join:
        region = owner.path + (next(self._region_seq),)
        join = Join(node=node, mode=node.mode, owner=owner, region=region,
                    depth=self.depth(node), n_branches=len(node.blocks))
        branches = list(enumerate(node.blocks))
        if self.reverse_seeds:
            branches.reverse()
        for i, block in branches:
            label = f"{owner.label}.{i + 1}" if owner.label != "main" \
                else f"trail{i + 1}"
            child = Trail(gen=None, path=region + (i,), parent_join=join,
                          branch_index=i, label=label)
            child.gen = self.interp.trail_body(block, child)
            join.branches[child] = None
            self._live[child] = None
            if self.hooks.enabled:
                self.hooks.trail_spawn(child.label, child.path, self.clock)
                child.wake_cause = self.hooks.last_span
            self._enqueue_resume(child, None)
        if self.collector is not None:
            self.collector.trail_spawn(len(branches))
        return join

    def kill_region(self, join: Join) -> None:
        """Destroy every trail/async under ``join`` — the VM analogue of
        clearing a contiguous gate range with ``memset`` (§4.3).  Walks
        the join's tree of live branches through the trails halted on a
        nested ``par``, so the cost is the number of victims; they die in
        spawn order.  Marking each walked join ``killed`` voids the escapes
        still queued from its branches; a queued rejoin of a nested join
        is voided by its owner's death."""
        victims: list[Trail] = []
        stack = [join]
        while stack:
            region = stack.pop()
            region.killed = True
            for trail in region.branches:
                victims.append(trail)
                if trail.waiting == "par":
                    stack.append(trail.gate)
        if not victims:
            return
        victims.sort(key=attrgetter("seq"))  # spawn order
        if self.collector is not None:
            self.collector.region_kill(len(victims))
        hooked = self.hooks.enabled
        if hooked:
            self.hooks.region_kill(join.region, len(victims), self.clock)
            # the region kill is the cause of each trail's death
            prev_cause = self.hooks.cause
            self.hooks.cause = self.hooks.last_span
        aborted = False
        for trail in victims:
            self._retire(trail)
            trail.gen.close()
            kind, gate = trail.waiting, trail.gate
            trail.gate = None
            if kind in AWAITING:
                self._awaiting -= 1
                if kind != "time":
                    del gate[trail]
                elif gate is not None:  # its entry is still in the heap
                    self._dead_timers += 1
            elif kind == "async":
                gate.aborted = aborted = True
            if hooked:
                self.hooks.trail_kill(trail.label, trail.path, self.clock)
        if hooked:
            self.hooks.cause = prev_cause
        if aborted:
            self.async_jobs = deque(job for job in self.async_jobs
                                    if not job.aborted)
        self._compact_timers()

    # ------------------------------------------------------ internal events
    def emit_internal(self, sym: EventSymbol, value: Any,
                      emitter: Trail) -> None:
        """Stack policy (§2.2): run every awaiting trail to halt *now*,
        then return control to the emitter (the Python call stack is the
        emit stack).  ``_emit_depth`` measures that stack: 1 for a
        top-level emit, +1 per nested emit triggered from an awakened
        trail."""
        self._emit_depth += 1
        if self.collector is not None:
            self.collector.emit_internal(sym.name, self._emit_depth)
        hooked = self.hooks.enabled
        if hooked:
            self.hooks.emit_internal(sym.name, self._emit_depth,
                                     emitter.label, self.clock)
            # the emit is the causal parent of every trail it wakes
            prev_cause = self.hooks.cause
            self.hooks.cause = self.hooks.last_span
        try:
            waiting = self.int_waiting.pop(sym.name, None)
            if not waiting:
                return  # no one awaiting: the occurrence is discarded
            # a snapshot: a woken trail may kill (unlink) a later one
            order = list(waiting)
            if self.reverse_seeds:
                order.reverse()
            for trail in order:
                if trail.alive and trail.waiting == "int":
                    self._run_trail(trail, value)
        finally:
            self._emit_depth -= 1
            if hooked:
                self.hooks.cause = prev_cause

    def emit_output(self, sym: EventSymbol, value: Any) -> None:
        if self.collector is not None:
            self.collector.emit_output()
        if self.hooks.enabled:
            self.hooks.emit_output(sym.name, value, self.clock)
        if self.output_handler is not None:
            self.output_handler(sym.name, value)

    # -------------------------------------------------------------- asyncs
    def spawn_async(self, node: ast.AsyncBlock, owner: Trail) -> AsyncJob:
        job = AsyncJob(node, owner, self.async_interp.run(node))
        self.async_jobs.append(job)
        return job

    def _next_job(self) -> Optional[AsyncJob]:
        while self.async_jobs:
            job = self.async_jobs[0]
            if job.aborted or job.done:
                self.async_jobs.popleft()
                continue
            return job
        return None

    def _rotate_job(self, job: AsyncJob) -> None:
        if self.async_jobs and self.async_jobs[0] is job:
            self.async_jobs.rotate(-1)

    def _complete_async(self, job: AsyncJob, value: Any) -> None:
        job.done = True
        job.result = value
        if self.collector is not None:
            self.collector.async_step()
        hooked = self.hooks.enabled
        if hooked:
            self.hooks.async_step(job.seq, "done", self.clock)
            done_span = self.hooks.last_span
        if self.async_jobs and self.async_jobs[0] is job:
            self.async_jobs.popleft()
        if job.aborted or not job.owner.alive:
            return
        # completion is a synthetic input event back to the owner (§2.7)
        if hooked:
            prev_cause = self.hooks.cause
            self.hooks.cause = done_span
        self._react(f"async:{job.seq}", value,
                    lambda: self._enqueue_resume(job.owner, value))
        if hooked:
            self.hooks.cause = prev_cause

    # ------------------------------------------------------------- helpers
    def _next_deadline(self) -> Optional[int]:
        timers = self.timers
        while timers:
            entry = timers[0]
            if entry[-1].alive and entry[-1].waiting == "time":
                return entry[0]
            heapq.heappop(timers)
            self._dead_timers -= 1
        return None

    def _compact_timers(self) -> None:
        """Drop the killed entries once they outnumber the armed ones, so
        ``len(timers) <= 2 * armed + 1``.  Entries are totally ordered by
        ``(deadline, base, computed, seq)``: re-heapifying leaves the pop
        order unchanged.  Each compaction removes at least half the heap,
        all of it killed entries, so its cost is O(1) per kill."""
        timers = self.timers
        if self._dead_timers > len(timers) - self._dead_timers:
            timers[:] = [entry for entry in timers if entry[-1].alive]
            heapq.heapify(timers)
            self._dead_timers = 0

    def _terminate(self, value: Any) -> None:
        self.done = True
        self.result = value
        self._ready.clear()
        self._heap.clear()
        if self.collector is not None:
            self.collector.trail_kill(len(self._live))
        hooked = self.hooks.enabled
        for trail in self._live:
            trail.alive = False
            trail.gen.close()
            if hooked:
                self.hooks.trail_kill(trail.label, trail.path, self.clock)
        self._live.clear()
        self._awaiting = 0
        self.ext_waiting.clear()
        self.int_waiting.clear()
        self.forever.clear()
        self.timers.clear()
        self._dead_timers = 0
        for job in self.async_jobs:
            job.aborted = True
        self.async_jobs.clear()

    def _check_termination(self) -> None:
        if self.done:
            return
        if (self.awaiting_count() == 0 and not self.async_jobs
                and not self.input_queue):
            self.done = True

    # ---------------------------------------------------------------- hooks
    def note_step(self, trail: Trail, stmt: ast.Stmt) -> None:
        self.steps_executed += 1
        self._steps_this_reaction += 1
        if self._steps_this_reaction > self.step_limit:
            raise RuntimeCeuError(
                "reaction chain exceeded the step limit — unbounded "
                "execution (should have been caught by §2.5 analysis)")
        if self.hooks.enabled:
            self.hooks.step(trail.label, trail.path,
                            type(stmt).__name__, stmt.span.start.line)
