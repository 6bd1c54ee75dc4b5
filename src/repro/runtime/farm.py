"""The reactor farm: thousands of program instances, one process.

Céu reactions are run-to-completion and programs are tiny, which is
exactly the shape of a multi-tenant event server.  :class:`Farm`
multiplexes N instances — same or different programs — over the DES
kernel (:class:`~repro.sim.des.Simulator`):

* the program is parsed/bound/analysed **once** and every instance runs
  the shared :class:`~repro.sema.binder.BoundProgram` (compilation is
  amortised across the fleet);
* each instance keeps its own VM clock, offset by its spawn time, and
  the farm arms exactly one calendar entry per instance — the earliest
  pending deadline — re-armed after every drive, so calendar pressure is
  O(instances), not O(armed timers);
* external events flow through **per-instance queues** realised on the
  calendar (:meth:`send` / :meth:`broadcast`), delivered in
  deterministic ``(time, seq)`` order;
* every instance keeps **its own metrics**: a collector its VM feeds
  directly (no hook dispatch), filling that instance's
  :class:`~repro.obs.fleet.FleetRegistry`; every instance's hook bus
  can feed **one shared event pipeline**, a
  :class:`~repro.obs.stream.StreamingJsonlExporter` and/or
  :class:`~repro.obs.stream.FlightRecorder` receiving every instance's
  events (tagged ``"inst"``) under one global ``seq``;
* farm-level occurrences the per-instance registries cannot see live in
  the farm's own registry of labelled families — instances
  spawned/retired/live, queued and delivered events, output emits,
  stubbed C calls, watchdog flags;
* :meth:`fleet_snapshot` folds the farm's registry and every
  instance's into one family block with
  :func:`~repro.obs.fleet.fold` (cross-instance latency percentiles
  included) and :meth:`watchdog` flags stuck or lagging instances from
  the same histograms.

Undefined C symbols (``_Leds_led0Toggle`` and friends) resolve to
counting no-op stubs by default — any platform-flavoured program runs
unmodified, and the calls surface as ``farm_c_calls_total{symbol=…}``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from ..lang import ast
from ..lang.errors import RuntimeCeuError
from ..lang.parser import parse
from ..obs.export import jsonl_line, jsonl_record
from ..obs.fleet import FLEET_SCHEMA, FleetRegistry, fold
from ..obs.hooks import RecordingSubscriber
from ..obs.stream import FlightRecorder, StreamingJsonlExporter
from ..sema.binder import BoundProgram, bind
from ..sema.bounded import check_bounded
from ..sim.des import Simulator
from .cenv import CEnv
from .program import Program, parse_time


class _StubCEnv(CEnv):
    """A :class:`CEnv` that turns undefined C symbols into counting
    no-op stubs, counted in the fleet registry's ``calls`` family."""

    def __init__(self, registry, calls, muted: bool = False) -> None:
        super().__init__()
        self._registry = registry
        self._calls = calls
        #: muted during a checkpoint replay: the re-executed C calls were
        #: already counted when the checkpointed instance first ran them
        self.muted = muted

    def lookup(self, name: str) -> Any:
        try:
            return super().lookup(name)
        except RuntimeCeuError:
            counter = self._registry.labels(self._calls, name)

            def stub(*args, _c=counter, _env=self):
                if not _env.muted:
                    _c.inc()
                return 0

            self.define(name, stub)
            return stub


class InstanceTap(RecordingSubscriber):
    """Forwards one instance's hook events into the farm's shared line
    sinks, tagging each record with the instance id.

    Each sink keeps its own global ``seq`` across every instance, so the
    merged stream carries true fleet-wide ordering — the farm's exact
    interleaved-writers usage of the streaming exporter.
    """

    __slots__ = ("sinks", "instance")

    def __init__(self, sinks, instance: int):
        self.sinks = sinks
        self.instance = instance

    def record(self, event: str, fields: tuple[str, ...],
               args: tuple) -> None:
        for sink in self.sinks:
            rec = jsonl_record(event, fields, args, sink.seq)
            rec["inst"] = self.instance
            sink.seq += 1
            sink._line(jsonl_line(rec))


class Instance:
    """One live program in the farm."""

    __slots__ = ("index", "program_name", "program", "t0", "handle",
                 "armed_deadline", "alive")

    def __init__(self, index: int, program_name: str, program: Program,
                 t0: int):
        self.index = index
        self.program_name = program_name
        self.program = program
        self.t0 = t0                     # sim time of spawn (clock offset)
        self.handle: Optional[int] = None
        self.armed_deadline: Optional[int] = None   # in sim time
        self.alive = True

    def local(self, sim_now: int) -> int:
        """Translate simulator time into this instance's VM clock."""
        return sim_now - self.t0


class Farm:
    """N bound program instances multiplexed over one DES calendar.

    >>> farm = Farm(load("blink"), n=1000, program="blink")
    >>> farm.run_until("1s")
    >>> from repro.obs.fleet import sample
    >>> sample(farm.fleet_snapshot()["families"], "reactions_total")
    4000
    """

    def __init__(self, source: Union[str, ast.Program, BoundProgram,
                                     None] = None,
                 n: int = 0, *, program: str = "prog",
                 sim: Optional[Simulator] = None, observe: bool = True,
                 stream: Optional[StreamingJsonlExporter] = None,
                 recorder: Optional[FlightRecorder] = None,
                 check: bool = True, sinks: Sequence = (),
                 subscribers: Sequence = (), record: bool = False,
                 postmortem_dir=None):
        self.sim = sim if sim is not None else Simulator()
        self.observe = observe
        self.check = check
        self.stream = stream
        self.recorder = recorder
        #: journal recording per instance — the prerequisite for
        #: :meth:`checkpoint` / :meth:`postmortem` / warm starts
        self.record = record
        #: when set, the watchdog auto-captures a postmortem bundle for
        #: every newly flagged instance (one per instance, deduplicated)
        self.postmortem_dir = postmortem_dir
        self._postmortemmed: set[int] = set()
        #: extra line sinks (e.g. the /events LineTee) ride beside the
        #: exporter/recorder; extra hook subscribers (e.g. one shared
        #: Profiler feeding /flamegraph) attach to every instance's bus
        self._sinks = [s for s in (stream, recorder) if s is not None] \
            + list(sinks)
        self._subscribers = list(subscribers)

        self.programs: dict[str, BoundProgram] = {}
        self.instances: list[Instance] = []

        self.fleet = FleetRegistry()
        self._spawned = self.fleet.counter_family(
            "farm_instances_spawned_total", ("program",))
        self._retired = self.fleet.counter_family(
            "farm_instances_retired_total", ("program",))
        self._live_gauge = self.fleet.gauge_family(
            "farm_instances_live", ("program",))
        self._queued = self.fleet.gauge_family(
            "farm_queued_events", ("program",))
        self._events = self.fleet.counter_family(
            "farm_events_total", ("program", "event"))
        self._dropped = self.fleet.counter_family(
            "farm_events_dropped_total", ("program", "event"))
        self._outputs = self.fleet.counter_family(
            "farm_outputs_total", ("program", "event"))
        self._c_calls = self.fleet.counter_family(
            "farm_c_calls_total", ("symbol",))
        self._flags = self.fleet.counter_family(
            "farm_watchdog_flags_total", ("reason",))
        self._checkpoints = self.fleet.counter_family(
            "farm_checkpoints_total", ("program",))
        self._postmortems = self.fleet.counter_family(
            "farm_postmortems_total", ("reason",))
        self._warm_starts = self.fleet.counter_family(
            "farm_warm_starts_total", ("program",))

        #: program name → source text (when known) for checkpoint
        #: self-containment
        self.sources: dict[str, Optional[str]] = {}

        if source is not None:
            self.add_program(program, source)
            if n:
                self.spawn(n, program=program)

    # --------------------------------------------------------------- fleet
    def add_program(self, name: str, source: Union[str, ast.Program,
                                                   BoundProgram]) -> None:
        """Bind (and bound-check) a program once for the whole fleet."""
        if isinstance(source, str):
            bound = bind(parse(source, f"<farm:{name}>"))
            self.sources[name] = source
        elif isinstance(source, ast.Program):
            bound = bind(source)
            self.sources[name] = None
        else:
            bound = source
            self.sources[name] = None
        if self.check:
            check_bounded(bound)
        self.programs[name] = bound

    def spawn(self, n: int = 1, program: Optional[str] = None, *,
              warm_from=None) -> list[Instance]:
        """Create and boot ``n`` instances at the current virtual time.

        With ``warm_from`` (a :class:`~repro.runtime.checkpoint
        .Checkpoint`), each instance *warm-starts*: instead of booting
        from reaction 0 it replays the checkpoint's journal — detached,
        with C-call counting muted and telemetry unattached, so the
        already-accounted work is not double-counted — and joins the
        fleet standing at the checkpoint's boundary with its clock
        offset so VM time continues from ``checkpoint.clock_us``.  This
        is the farm-migration seam: a bundle captured on one shard
        respawns on another mid-flight.
        """
        if warm_from is not None:
            return self._spawn_warm(n, program, warm_from)
        if program is None:
            if len(self.programs) != 1:
                raise ValueError("program= is required when the farm "
                                 "holds several programs")
            program = next(iter(self.programs))
        bound = self.programs[program]
        born = []
        for _ in range(n):
            prog = Program(bound, cenv=_StubCEnv(self.fleet, self._c_calls),
                           observe=self.observe, check=False,
                           record=self.record)
            inst = self._admit(prog, program, self.sim.now)
            prog.start()
            self._post_drive(inst)
            born.append(inst)
        return born

    def _spawn_warm(self, n: int, program: Optional[str],
                    ckpt) -> list[Instance]:
        from .checkpoint import CheckpointError, restore

        if program is None:
            program = "warm"
        if program not in self.programs:
            self.add_program(program, ckpt.source)
        elif self.sources.get(program) != ckpt.source:
            raise CheckpointError(
                f"checkpoint of {ckpt.filename} does not match the source "
                f"registered as program {program!r}")
        bound = self.programs[program]
        born = []
        for _ in range(n):
            # detached replay to the boundary, stubs muted
            cenv = _StubCEnv(self.fleet, self._c_calls, muted=True)
            prog = restore(ckpt, bound=bound, cenv=cenv,
                           record=self.record)
            cenv.muted = False
            # attach the fleet telemetry only now — the replayed past is
            # the checkpointed instance's history, not this one's
            if self.observe:
                prog.sched.enable_metrics()
            # VM time continues from the checkpoint clock
            inst = self._admit(prog, program, self.sim.now - ckpt.clock_us)
            self.fleet.labels(self._warm_starts, program).inc()
            self._post_drive(inst)
            born.append(inst)
        return born

    def _admit(self, prog: Program, program: str, t0: int) -> Instance:
        """Join one booted or restored VM to the fleet: output counting,
        the shared line sinks, the extra subscribers, and the
        spawned/live counters."""
        index = len(self.instances)
        prog.sched.output_handler = self._output_handler(program)
        if self._sinks:
            prog.observe(InstanceTap(self._sinks, index))
        for sub in self._subscribers:
            prog.observe(sub)
        inst = Instance(index, program, prog, t0)
        self.instances.append(inst)
        self.fleet.labels(self._spawned, program).inc()
        self.fleet.labels(self._live_gauge, program).inc()
        return inst

    def _output_handler(self, program: str) -> Callable[[str, Any], None]:
        labels, outputs = self.fleet.labels, self._outputs

        def on_output(name: str, value: Any) -> None:
            labels(outputs, program, name).inc()

        return on_output

    def live(self) -> int:
        return sum(1 for inst in self.instances if inst.alive)

    # ------------------------------------------------------------ calendar
    def _arm(self, inst: Instance) -> None:
        """(Re-)arm the instance's single calendar entry at its earliest
        pending deadline."""
        nd = inst.program.sched.next_deadline()
        if nd is None:
            if inst.handle is not None:
                self.sim.cancel(inst.handle)
                inst.handle = None
                inst.armed_deadline = None
            return
        at = max(nd + inst.t0, self.sim.now)
        if inst.armed_deadline == at and inst.handle is not None:
            return
        if inst.handle is not None:
            self.sim.cancel(inst.handle)
        inst.armed_deadline = at
        inst.handle = self.sim.at(at, lambda: self._fire(inst))

    def _fire(self, inst: Instance) -> None:
        inst.handle = None
        inst.armed_deadline = None
        if not inst.alive:
            return
        inst.program.at(inst.local(self.sim.now))
        self._post_drive(inst)

    def _post_drive(self, inst: Instance) -> None:
        if inst.program.done:
            self._retire(inst)
        else:
            self._arm(inst)

    def _retire(self, inst: Instance) -> None:
        if not inst.alive:
            return
        inst.alive = False
        if inst.handle is not None:
            self.sim.cancel(inst.handle)
            inst.handle = None
        self.fleet.labels(self._retired, inst.program_name).inc()
        self.fleet.labels(self._live_gauge, inst.program_name).dec()

    # -------------------------------------------------------------- events
    def send(self, index: int, event: str, value: Any = None,
             at: Optional[int] = None) -> None:
        """Queue one external event for one instance (delivered via the
        calendar at ``at``, default: the current virtual time)."""
        inst = self.instances[index]
        queued = self.fleet.labels(self._queued, inst.program_name)
        queued.inc()

        def deliver() -> None:
            queued.dec()
            if not inst.alive or inst.program.done:
                self.fleet.labels(self._dropped, inst.program_name,
                                  event).inc()
                return
            inst.program.at(inst.local(self.sim.now))
            inst.program.send(event, value)
            self.fleet.labels(self._events, inst.program_name,
                              event).inc()
            self._post_drive(inst)

        self.sim.at(self.sim.now if at is None else at, deliver)

    def broadcast(self, event: str, value: Any = None,
                  at: Optional[int] = None) -> None:
        """Queue one event for every live instance."""
        for inst in self.instances:
            if inst.alive:
                self.send(inst.index, event, value, at=at)

    # ------------------------------------------------------------- driving
    def run_until(self, spec: Union[int, str]) -> None:
        """Drive the calendar (deliveries + timer wakeups) to a virtual
        time, then align every live instance's clock with it."""
        t = parse_time(spec)
        self.sim.run_until(t)
        for inst in self.instances:
            if inst.alive and not inst.program.done:
                inst.program.at(inst.local(t))
                self._post_drive(inst)

    def run_script(self, script) -> None:
        """Apply a fuzz/witness-format stimulus script to the fleet:
        ``("E", name, value)`` broadcasts, ``("T", us)`` advances the
        calendar to an absolute virtual time."""
        for item in script:
            if item[0] == "E":
                self.broadcast(item[1], item[2])
                self.sim.run_until(self.sim.now)
            else:
                self.run_until(item[1])

    # ------------------------------------------------------------ watchdog
    def watchdog(self, factor: float = 4.0, min_count: int = 8,
                 min_lag_us: float = 1000.0) -> dict:
        """Flag stuck or lagging instances.

        * **lagging** — the instance's *median* reaction latency exceeds
          ``factor`` × the fleet-wide median AND the ``min_lag_us``
          absolute floor (from the ``reaction_latency_us`` histograms;
          medians so one GC pause or scheduler blip cannot flag a
          healthy instance — a lagging instance is *consistently* slow;
          instances with fewer than ``min_count`` reactions are skipped
          as statistically silent, and the floor keeps sub-millisecond
          jitter from flagging a fleet whose baseline is tens of µs);
        * **stuck** — the instance still owes work at the current
          virtual time: a pending deadline or queued input it never
          drained (a correctly driven farm has neither).

        Each flag bumps ``farm_watchdog_flags_total{reason=…}``.
        """
        flagged: list[dict] = []
        fleet_p50 = fleet_p99 = None
        per_instance: list = []
        if self.observe:
            regs = [inst.program.sched.metrics for inst in self.instances]
            per_instance = [(inst, reg.get("reaction_latency_us"))
                            for inst, reg in zip(self.instances, regs)]
            merged = fold(regs, ("reaction_latency_us",)).get(
                "reaction_latency_us")
            if merged is not None and merged.count:
                fleet_p50 = merged.percentile(50)
                fleet_p99 = merged.percentile(99)
        for inst, h in per_instance:
            if (fleet_p50 and h is not None and h.count >= min_count):
                p50 = h.percentile(50)
                if p50 is not None and p50 > max(factor * fleet_p50,
                                                 min_lag_us):
                    self.fleet.labels(self._flags, "lagging").inc()
                    flagged.append({"instance": inst.index,
                                    "reason": "lagging",
                                    "p50_us": p50,
                                    "fleet_p50_us": fleet_p50})
        for inst in self.instances:
            if not inst.alive or inst.program.done:
                continue
            sched = inst.program.sched
            nd = sched.next_deadline()
            overdue = nd is not None and nd + inst.t0 < self.sim.now \
                and inst.handle is None
            backlog = bool(sched.input_queue)
            if overdue or backlog:
                self.fleet.labels(self._flags, "stuck").inc()
                flagged.append({"instance": inst.index, "reason": "stuck",
                                "overdue_deadline": overdue,
                                "queued_inputs": len(sched.input_queue)})
        if self.postmortem_dir is not None:
            self._auto_postmortem(flagged)
        return {"fleet_p50_us": fleet_p50, "fleet_p99_us": fleet_p99,
                "factor": factor, "flagged": flagged}

    def _auto_postmortem(self, flagged: list[dict]) -> None:
        """Black-box capture for newly flagged instances — once per
        instance, and never allowed to take the watchdog down with it."""
        from .checkpoint import CheckpointError

        for flag in flagged:
            index = flag["instance"]
            if index in self._postmortemmed:
                continue
            try:
                flag["postmortem"] = str(self.postmortem(
                    index, reason=flag["reason"], detail=dict(flag)))
            except (CheckpointError, OSError) as exc:
                flag["postmortem_error"] = str(exc)

    # --------------------------------------------- checkpoints / postmortems
    def checkpoint(self, index: int):
        """Serialize one instance at its current reaction boundary
        (requires ``record=True``)."""
        from .checkpoint import snapshot

        inst = self.instances[index]
        ck = snapshot(inst.program,
                      source=self.sources.get(inst.program_name),
                      filename=f"<farm:{inst.program_name}>")
        self.fleet.labels(self._checkpoints, inst.program_name).inc()
        return ck

    def postmortem(self, index: int, *, reason: str = "manual",
                   directory=None, detail: Optional[dict] = None):
        """Capture a black-box bundle for one instance: its checkpoint,
        the FlightRecorder ring, the causal slice of its last reaction,
        and the fleet snapshot — written atomically (complete with
        manifest, or absent).  Returns the bundle path."""
        import time as _time
        from pathlib import Path

        from .checkpoint import write_postmortem

        directory = directory if directory is not None \
            else self.postmortem_dir
        if directory is None:
            raise ValueError("no postmortem directory (pass directory= "
                             "or construct the farm with postmortem_dir=)")
        inst = self.instances[index]
        ck = self.checkpoint(index)
        bundle = Path(directory) / (f"{inst.program_name}-i{index}"
                                    f"-r{ck.reaction_count}")
        lines = self.recorder.lines() if self.recorder is not None \
            else None
        path = write_postmortem(
            bundle, ck, reason=reason, program=inst.program_name,
            instance=index, recorder_lines=lines,
            fleet=self.fleet_snapshot(),
            slice_text=self._causal_slice(inst, ck), detail=detail,
            created_at=_time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                      _time.gmtime()))
        self.fleet.labels(self._postmortems, reason).inc()
        self._postmortemmed.add(index)
        return path

    def _causal_slice(self, inst: Instance, ck) -> Optional[str]:
        """Causal slice of the checkpoint's last reaction, derived by an
        instrumented detached replay (best-effort — a bundle without a
        slice is still a bundle, but a replay that raises is counted in
        ``farm_postmortem_slice_errors_total``)."""
        try:
            from ..obs.causal import CausalGraph
            from ..obs.hooks import HookBus
            from .checkpoint import restore

            bus = HookBus()
            graph = bus.subscribe(CausalGraph(bus))
            restore(ck, bound=self.programs[inst.program_name],
                    cenv=_StubCEnv(self.fleet, self._c_calls, muted=True),
                    hooks=bus)
            node = graph.find(f"reaction:{ck.reaction_count - 1}")
            if node is None:
                return None
            return graph.render_slice(node.span)
        except Exception:  # noqa: BLE001 - any replay failure
            # registered on first use, so fleets that never hit it
            # expose no new series
            errors = self.fleet.counter_family(
                "farm_postmortem_slice_errors_total", ("program",))
            self.fleet.labels(errors, inst.program_name).inc()
            return None

    # ------------------------------------------------------------ snapshot
    def fleet_snapshot(self) -> dict:
        """One JSON-ready snapshot of the whole fleet: the DES kernel
        counters and one family block folding the farm's own families
        with every instance's (``schema`` :data:`FLEET_SCHEMA`)."""
        regs = [self.fleet]
        if self.observe:
            regs += [inst.program.sched.metrics for inst in self.instances]
        done = sum(1 for inst in self.instances if inst.program.done)
        return {
            "schema": FLEET_SCHEMA,
            "instances": self.live(),
            "spawned": len(self.instances),
            "done": done,
            "programs": {name: sum(1 for i in self.instances
                                   if i.program_name == name)
                         for name in sorted(self.programs)},
            "now_us": self.sim.now,
            "sim": self.sim.stats(),
            "families": fold(regs).snapshot(),
        }

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()


__all__ = ["Farm", "Instance", "InstanceTap"]
