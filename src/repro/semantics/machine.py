"""The reference machine: reaction chains over the explicit configuration.

One :meth:`Machine.step_once` applies one rule:

* **[run]** — the top run-stack trail executes one statement
  (:mod:`repro.semantics.rules`);
* **[emit-wake] / [emit-pop]** — the top pending-emit frame wakes its
  next awaiting trail, or drains and resumes the emitter below (§2.2);
* **[seed] / [join] / [escape]** — with an empty run stack, the least
  agenda item dispatches: normal resumes first, then rejoin and escape
  continuations ordered outermost-last (§4.1).

Reactions (`boot` / `event:NAME` / `time` / `async:N`) drive the machine
exactly like the paper's four-entry C API; ``go_time`` partitions
coincident deadlines per arming epoch and compensates residual deltas
from the *logical* base (§2.3).  The recorded trace rows reuse the
:class:`repro.runtime.trace.Reaction` records, so ``signature()`` /
``portable_signature()`` are directly comparable against the VM and the
C backend in the differential harness (:mod:`repro.fuzz.oracles`).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Union

from ..lang import ast
from ..lang.errors import RuntimeCeuError
from ..lang.parser import parse
from ..runtime.cenv import CEnv
from ..runtime.eval import Evaluator
from ..runtime.memory import Memory
from ..runtime.trace import Reaction, Step
from ..runtime.values import as_int, truthy
from ..sema.binder import BoundProgram, bind
from ..sema.bounded import check_bounded
from ..sema.symbols import EventSymbol
from .config import (ALoopF, ASeqF, BreakSig, EmitF, ReturnSig, RunF, SeqF,
                     SpecEscape, SpecJob, SpecJoin, SpecTrail)
from .rules import CONTINUE, DEAD, EMIT, HALT, StatementRules


class Machine(StatementRules):
    """Executes one Céu program under the reference semantics."""

    def __init__(self, bound: BoundProgram, cenv: Optional[CEnv] = None,
                 transcript: bool = False, step_limit: int = 5_000_000):
        self.bound = bound
        self.memory = Memory()
        self.cenv = cenv if cenv is not None else CEnv()
        self.ev = Evaluator(bound, self.memory, self.cenv)

        self.clock = 0
        self.done = False
        self.result: Any = None
        self.steps_executed = 0
        self.step_limit = step_limit

        # configuration ⟨F, E, A, Θ, σ, t⟩
        self.live: list[SpecTrail] = []          # trail forest F
        self.run_stack: list = []                # pending-emit stack E (+ runner)
        self.agenda: list = []                   # agenda A
        #: timer residues Θ: (deadline, arming_base, computed, seq, trail)
        self.timers: list[tuple] = []
        self.ext_waiting: dict[str, list[SpecTrail]] = {}
        self.int_waiting: dict[str, list[SpecTrail]] = {}
        self.forever: list[SpecTrail] = []
        self.async_jobs: list[SpecJob] = []
        self.outputs: list[tuple[str, Any]] = []
        self.root: Optional[SpecTrail] = None

        self.reactions: list[Reaction] = []
        self._current: Optional[Reaction] = None
        self._current_base = 0
        self._steps_this_reaction = 0
        self._emit_depth = 0
        self._seq = itertools.count()
        self._region_seq = itertools.count(1)
        self._job_seq = itertools.count(1)
        self._transcript: Optional[list[str]] = [] if transcript else None

        self._depth = self._compute_depths()

    # ------------------------------------------------------------- prepass
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

    def _depth_of(self, node: Optional[ast.Node]) -> int:
        if node is None:
            return 0
        return self._depth.get(node.nid, 0)

    # ----------------------------------------------------------- recording
    def _note(self, line: str) -> None:
        if self._transcript is not None:
            self._transcript.append(line)

    def _note_step(self, trail: SpecTrail, stmt: ast.Stmt) -> None:
        self.steps_executed += 1
        self._steps_this_reaction += 1
        if self._steps_this_reaction > self.step_limit:
            raise RuntimeCeuError(
                "reaction chain exceeded the step limit — unbounded "
                "execution (should have been caught by §2.5 analysis)")
        if self._current is not None:
            self._current.steps.append(
                Step(trail.label, trail.path, type(stmt).__name__,
                     stmt.span.start.line))
        self._note(f"[exec] {trail.label} "
                   f"{type(stmt).__name__}@{stmt.span.start.line}")

    def transcript(self) -> str:
        """The rule-application log (``Machine(..., transcript=True)``)."""
        return "\n".join(self._transcript or [])

    # ------------------------------------------------------------- driving
    def boot(self) -> None:
        """[boot]: the root trail enters the program body."""
        if self.root is not None:
            raise RuntimeCeuError("program already initialised")
        root = SpecTrail("main", ())
        root.frames.append(SeqF(self.bound.program.body.stmts))
        self.root = root
        self.live.append(root)
        self._react("boot", None,
                    lambda: self._enqueue_resume(root, ("start",)))
        self._drain()

    def send(self, name: str, value: Any = None) -> None:
        self.go_event(name, value)
        self._drain()

    def at(self, us: int) -> None:
        self.go_time(us)
        self._drain()

    def advance(self, us: int) -> None:
        self.at(self.clock + us)

    def _drain(self, max_async_steps: int = 10_000_000) -> None:
        steps = 0
        while not self.done and self.async_jobs:
            self.go_async()
            steps += 1
            if steps > max_async_steps:
                raise RuntimeCeuError("async budget exhausted — runaway "
                                      "asynchronous block?")

    # ----------------------------------------------------------- reactions
    def go_event(self, name: str, value: Any = None) -> None:
        """[event]: one reaction chain for one input occurrence."""
        if self.done:
            return
        sym = self.bound.events.get(name)
        if sym is None or sym.kind != "input":
            raise RuntimeCeuError(f"`{name}` is not a declared input event")

        def seed() -> None:
            waiting = self.ext_waiting.get(name, [])
            self.ext_waiting[name] = []
            for trail in waiting:
                if trail.alive:
                    self._enqueue_resume(trail, ("value", value))

        self._react(f"event:{name}", value, seed)

    def go_time(self, now: int) -> None:
        """[time]: advance the clock, one reaction per expiring logical
        deadline, coincidences partitioned per arming epoch (§2.3)."""
        if self.done:
            return
        if now < self.clock:
            raise RuntimeCeuError(
                f"time goes backwards ({now} < {self.clock})")
        self.clock = now
        while not self.done:
            deadline = self._next_deadline()
            if deadline is None or deadline > now:
                break
            due = [e for e in self.timers if e[0] == deadline]
            self.timers = [e for e in self.timers if e[0] != deadline]
            popped = [(computed, base, seq, trail)
                      for (_, base, computed, seq, trail) in due
                      if trail.alive and trail.waiting == "time"]
            # most recently armed epoch first, computed timeouts last
            popped.sort(key=lambda item: (item[0], -item[1], item[2]))
            parts: list[list[SpecTrail]] = []
            last_key: Optional[tuple] = None
            for computed, base, seq, trail in popped:
                key = (computed, base, seq if computed else -1)
                if key != last_key:
                    parts.append([])
                    last_key = key
                parts[-1].append(trail)
            delta = now - deadline
            for part in parts:
                if self.done:
                    break
                live = [t for t in part
                        if t.alive and t.waiting == "time"]
                if not live:
                    continue
                self._note(f"[timer-fire] deadline={deadline} "
                           f"delta={delta} trails={len(live)}")

                def seed(live=live, delta=delta) -> None:
                    for trail in live:
                        self._enqueue_resume(trail, ("value", delta))

                self._react("time", deadline, seed, base=deadline)

    def _next_deadline(self) -> Optional[int]:
        self.timers = [e for e in self.timers
                       if e[-1].alive and e[-1].waiting == "time"]
        if not self.timers:
            return None
        return min(e[0] for e in self.timers)

    def _react(self, trigger: str, value: Any, seed: Callable[[], None],
               base: Optional[int] = None) -> None:
        if self.done:
            return
        self._current_base = self.clock if base is None else base
        reaction = Reaction(len(self.reactions), trigger, value,
                            self._current_base)
        self.reactions.append(reaction)
        self._current = reaction
        self._steps_this_reaction = 0
        self._note(f"== reaction #{reaction.index} {trigger} "
                   f"@{self._current_base}us")
        seed()
        while not self.done and (self.run_stack or self.agenda):
            self.step_once()
        self.run_stack.clear()
        self.agenda.clear()
        if not reaction.steps:
            reaction.discarded = True
        self._current = None
        self._check_termination()

    # --------------------------------------------------------- the machine
    def step_once(self) -> None:
        """Apply one rule to the configuration."""
        if self.run_stack:
            top = self.run_stack[-1]
            if isinstance(top, EmitF):
                while top.queue:            # [emit-wake]
                    trail = top.queue.pop(0)
                    if trail.alive and trail.waiting == "int":
                        self._note(f"[emit-wake] {trail.label} "
                                   f"<- {top.name}")
                        self.run_stack.append(
                            RunF(trail, ("value", top.value)))
                        return
                self.run_stack.pop()        # [emit-pop]
                self._note(f"[emit-pop] {top.name} "
                           f"depth={self._emit_depth}")
                self._emit_depth -= 1
                return
            status = self._advance(top)     # [run]
            if status in (HALT, DEAD):
                if self.run_stack and self.run_stack[-1] is top:
                    self.run_stack.pop()
            return
        item = self._pop_agenda()
        if item is None:
            return
        kind, payload = item[2], item[3]
        if kind == "resume":                # [seed]
            trail, mode = payload
            if trail.alive:
                self.run_stack.append(RunF(trail, mode))
        elif kind == "join":                # [join]
            self._dispatch_join(payload)
        else:                               # [escape]
            self._dispatch_escape(payload)

    def _advance(self, runf: RunF) -> str:
        trail = runf.trail
        if not trail.alive:
            return DEAD
        pending = runf.pending
        if pending is not None:
            runf.pending = None
            trail.waiting = None
            trail.time_base = self._current_base
            kind = pending[0]
            if kind == "escape":
                return self._unwind(trail, pending[1])
            if kind in ("value", "done"):
                self._deliver(trail, pending[1])
        return self._step_trail(trail)

    # --------------------------------------------------------------- agenda
    def _enqueue_resume(self, trail: SpecTrail, mode: tuple) -> None:
        self.agenda.append(((0, 0), next(self._seq), "resume",
                            (trail, mode)))

    def _enqueue_join(self, join: SpecJoin) -> None:
        prio = (1, -self._depth_of(join.node))
        self.agenda.append((prio, next(self._seq), "join", join))

    def _enqueue_escape(self, trail: SpecTrail, sig) -> None:
        if isinstance(sig, BreakSig):
            target_depth = self._depth_of(sig.target)
        else:
            target_depth = self._depth_of(sig.boundary)
        prio = (1, -target_depth)
        self.agenda.append((prio, next(self._seq), "escape",
                            SpecEscape(trail, sig)))

    def _pop_agenda(self) -> Optional[tuple]:
        if not self.agenda:
            return None
        best = min(range(len(self.agenda)),
                   key=lambda i: (self.agenda[i][0], self.agenda[i][1]))
        return self.agenda.pop(best)

    def _dispatch_join(self, join: SpecJoin) -> None:
        if join.cancelled or not join.owner.alive:
            return
        mode = join.mode
        self._note(f"[join-{mode}] par@{join.node.span.start.line} "
                   f"-> {join.owner.label}")
        if mode == "or" or join.has_value:
            self._kill_region(join.region)
        value = join.value if join.has_value else 0
        self.run_stack.append(RunF(join.owner, ("done", value)))

    def _dispatch_escape(self, esc: SpecEscape) -> None:
        if esc.cancelled:
            return
        join = esc.trail.parent_join
        if join is None:  # pragma: no cover - guarded at enqueue time
            return
        self._note(f"[escape] {esc.trail.label} "
                   f"-> {join.owner.label}")
        self._kill_region(join.region)
        if join.owner.alive:
            self.run_stack.append(RunF(join.owner, ("escape", esc.signal)))

    # ------------------------------------------------------- trail lifecycle
    def _trail_completed(self, trail: SpecTrail) -> None:
        trail.alive = False
        if trail in self.live:
            self.live.remove(trail)
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

    def _trail_signal(self, trail: SpecTrail, sig) -> None:
        trail.alive = False
        if trail in self.live:
            self.live.remove(trail)
        join = trail.parent_join
        if join is None:
            if isinstance(sig, ReturnSig):
                self._terminate(sig.value)
                return
            raise RuntimeCeuError("`break` escaped the program")
        if isinstance(sig, ReturnSig) and sig.boundary is join.node:
            # `return` from a value-parallel completes the whole par
            if not join.has_value:
                join.has_value = True
                join.value = sig.value
            if not join.or_enqueued:
                join.or_enqueued = True
                self._enqueue_join(join)
            return
        self._enqueue_escape(trail, sig)

    # --------------------------------------------------------------- spawns
    def _exec_par(self, trail: SpecTrail, node: ast.ParStmt) -> str:
        self._spawn_par(node, trail)
        trail.waiting = "par"
        return HALT

    def _spawn_par(self, node: ast.ParStmt, owner: SpecTrail) -> SpecJoin:
        region = owner.path + (next(self._region_seq),)
        join = SpecJoin(node=node, mode=node.mode, owner=owner,
                        region=region, depth=self._depth_of(node),
                        n_branches=len(node.blocks))
        for i, block in enumerate(node.blocks):
            label = f"{owner.label}.{i + 1}" if owner.label != "main" \
                else f"trail{i + 1}"
            child = SpecTrail(label, region + (i,), parent_join=join,
                              branch_index=i)
            child.frames.append(SeqF(block.stmts))
            self.live.append(child)
            self._note(f"[par-spawn] {label}")
            self._enqueue_resume(child, ("start",))
        return join

    def _exec_async(self, trail: SpecTrail, node: ast.AsyncBlock) -> str:
        job = SpecJob(next(self._job_seq), node, trail)
        self.async_jobs.append(job)
        trail.waiting = "async"
        self._note(f"[async-spawn] job={job.seq}")
        return HALT

    # -------------------------------------------------------------- regions
    def _kill_region(self, prefix: tuple) -> None:
        victims = [t for t in self.live if t.in_region(prefix)]
        if victims:
            self._note(f"[region-kill] {prefix} {len(victims)} trail(s)")
        for trail in victims:
            trail.alive = False
            self.live.remove(trail)
        if self.async_jobs:
            kept = []
            for job in self.async_jobs:
                if job.in_region(prefix):
                    job.aborted = True
                else:
                    kept.append(job)
            self.async_jobs = kept
        for item in self.agenda:
            kind, payload = item[2], item[3]
            if kind == "escape" and payload.trail.in_region(prefix):
                payload.cancelled = True
            elif kind == "join" and payload.owner.in_region(prefix):
                payload.cancelled = True

    # ------------------------------------------------------ internal events
    def _emit_internal(self, sym: EventSymbol, value: Any,
                       trail: SpecTrail) -> str:
        self._emit_depth += 1
        if self._current is not None:
            self._current.emitted_internal.append(sym.name)
        waiting = self.int_waiting.get(sym.name)
        if not waiting:
            self._note(f"[emit-skip] {sym.name} by {trail.label} "
                       f"(no one awaiting)")
            self._emit_depth -= 1
            return CONTINUE
        self.int_waiting[sym.name] = []
        self._note(f"[emit-push] {sym.name} depth={self._emit_depth} "
                   f"by {trail.label} ({len(waiting)} waiting)")
        self.run_stack.append(EmitF(sym.name, value, list(waiting)))
        return EMIT

    # ---------------------------------------------------------------- timers
    def _arm_timer(self, trail: SpecTrail, us: int, computed: int) -> None:
        if us < 0:
            raise RuntimeCeuError("negative timeout")
        base = trail.time_base               # §2.3 delta compensation
        deadline = base + us
        self.timers.append((deadline, base, computed, next(self._seq),
                            trail))
        trail.waiting = "time"
        self._note(f"[timer-arm] {trail.label} deadline={deadline} "
                   f"base={base}")

    # ---------------------------------------------------------------- asyncs
    def go_async(self) -> None:
        """[async]: one loop iteration or one emit of the current job,
        round-robin across jobs (§4.5)."""
        if self.done:
            return
        job = self._next_job()
        if job is None:
            return
        req = self._step_job(job)
        kind = req[0]
        if kind == "done":
            self._complete_async(job, req[1])
            return
        self._note(f"[async-step] job={job.seq} {kind}")
        if kind == "emit_ext" and not job.aborted:
            _, sym, value = req
            if sym.kind == "output":                    # [emit-out]
                self.outputs.append((sym.name, value))
            else:
                self.go_event(sym.name, value)
        elif kind == "emit_time" and not job.aborted:
            self.go_time(self.clock + req[1])
        # "tick": nothing — one loop iteration consumed
        if not job.aborted and not job.done:
            self._rotate_job(job)

    def _next_job(self) -> Optional[SpecJob]:
        while self.async_jobs:
            job = self.async_jobs[0]
            if job.aborted or job.done:
                self.async_jobs.pop(0)
                continue
            return job
        return None

    def _rotate_job(self, job: SpecJob) -> None:
        if self.async_jobs and self.async_jobs[0] is job:
            self.async_jobs.append(self.async_jobs.pop(0))

    def _complete_async(self, job: SpecJob, value: Any) -> None:
        job.done = True
        job.result = value
        if self.async_jobs and self.async_jobs[0] is job:
            self.async_jobs.pop(0)
        if job.aborted or not job.owner.alive:
            return
        self._note(f"[async-done] job={job.seq}")
        self._react(f"async:{job.seq}", value,
                    lambda: self._enqueue_resume(job.owner,
                                                 ("value", value)))

    def _step_job(self, job: SpecJob) -> tuple:
        """Run one async job to its next yield point."""
        while True:
            if not job.frames:
                return ("done", None)
            top = job.frames[-1]
            if isinstance(top, ASeqF):
                if top.i >= len(top.stmts):
                    job.frames.pop()
                    if job.frames and isinstance(job.frames[-1], ALoopF):
                        job.frames[-1].restart = True
                        return ("tick",)     # one iteration per step
                    continue
                stmt = top.stmts[top.i]
                top.i += 1
                req = self._async_stmt(job, stmt)
                if req is not None:
                    return req
                continue
            if isinstance(top, ALoopF):
                top.restart = False
                job.frames.append(ASeqF(top.node.body.stmts))
                continue
            raise RuntimeCeuError(  # pragma: no cover - machine invariant
                f"semantics: bad async frame {type(top).__name__}")

    def _async_stmt(self, job: SpecJob, s: ast.Stmt) -> Optional[tuple]:
        if isinstance(s, (ast.Nothing, ast.PureDecl, ast.DeterministicDecl,
                          ast.CBlockStmt)):
            return None
        if isinstance(s, ast.DeclVar):
            for declarator in s.decls:
                sym = self.bound.sym_of_decl[declarator.nid]
                if declarator.init is None:
                    self.memory.declare(sym)
                elif isinstance(declarator.init, ast.Exp):
                    self.memory.write(sym, self.ev.eval(declarator.init))
                else:
                    raise RuntimeCeuError(
                        "async declarations take plain expressions",
                        declarator.span)
            return None
        if isinstance(s, ast.EmitExt):
            sym = self.bound.event_of[s.nid]
            value = None if s.value is None else self.ev.eval(s.value)
            return ("emit_ext", sym, value)
        if isinstance(s, ast.EmitTime):
            return ("emit_time", s.time.us)
        if isinstance(s, ast.If):
            if truthy(self.ev.eval(s.cond)):
                job.frames.append(ASeqF(s.then.stmts))
            elif s.orelse is not None:
                job.frames.append(ASeqF(s.orelse.stmts))
            return None
        if isinstance(s, ast.Loop):
            job.frames.append(ALoopF(s))
            job.frames.append(ASeqF(s.body.stmts))
            return None
        if isinstance(s, ast.Break):
            target = self.bound.break_target[s.nid]
            while job.frames:
                frame = job.frames.pop()
                if isinstance(frame, ALoopF) and frame.node is target:
                    return None
            raise RuntimeCeuError("`break` escaped the async block",
                                  s.span)
        if isinstance(s, ast.Return):
            boundary = self.bound.ret_boundary.get(s.nid)
            value = None if s.value is None else self.ev.eval(s.value)
            if boundary is job.node:
                job.frames.clear()
                return ("done", value)
            raise RuntimeCeuError(
                "`return` inside `async` must target the async block",
                s.span)
        if isinstance(s, ast.CCallStmt):
            self.ev.call(s.call)
            return None
        if isinstance(s, ast.CallStmt):
            self.ev.eval(s.exp)
            return None
        if isinstance(s, ast.Assign):
            if not isinstance(s.value, ast.Exp):
                raise RuntimeCeuError("async assignments take plain "
                                      "expressions", s.span)
            self.ev.assign(s.target, self.ev.eval(s.value))
            return None
        if isinstance(s, ast.DoBlock):
            job.frames.append(ASeqF(s.body.stmts))
            return None
        raise RuntimeCeuError(
            f"statement {type(s).__name__} is not allowed inside `async`",
            s.span)

    # ---------------------------------------------------------- termination
    def _terminate(self, value: Any) -> None:
        self.done = True
        self.result = value
        self._note(f"[terminate] result={value!r}")
        self.agenda.clear()
        for trail in self.live:
            trail.alive = False
        self.live.clear()
        self.ext_waiting.clear()
        self.int_waiting.clear()
        self.forever.clear()
        self.timers.clear()
        for job in self.async_jobs:
            job.aborted = True
        self.async_jobs.clear()

    def awaiting_count(self) -> int:
        ext = sum(1 for lst in self.ext_waiting.values()
                  for t in lst if t.alive)
        internal = sum(1 for lst in self.int_waiting.values()
                       for t in lst if t.alive)
        # from the live set, not the timer list — go_time pops every
        # same-deadline entry before running the per-epoch partitions,
        # and a later partition's trail must still count as awaiting
        timers = sum(1 for t in self.live
                     if t.alive and t.waiting == "time")
        forever = sum(1 for t in self.forever if t.alive)
        return ext + internal + timers + forever

    def _check_termination(self) -> None:
        if self.done:
            return
        if self.awaiting_count() == 0 and not self.async_jobs:
            self.done = True
            self._note("[quiesce] nothing left awaiting")

    # ------------------------------------------------------------ reporting
    def output(self) -> str:
        return self.cenv.output()

    def memory_snapshot(self) -> dict:
        return self.memory.snapshot()

    def render(self) -> str:
        return "\n".join(str(r) for r in self.reactions)

    def signature(self) -> tuple:
        """Trace-compatible full signature (see
        :meth:`repro.runtime.trace.Trace.signature`)."""
        return tuple(
            (r.trigger,
             tuple((s.trail, s.kind, s.line) for s in r.steps),
             tuple(r.emitted_internal))
            for r in self.reactions)

    def portable_signature(self) -> tuple:
        """The cross-backend projection (VM ↔ C ↔ semantics)."""
        return tuple(
            (r.trigger, tuple(r.emitted_internal))
            for r in self.reactions
            if not r.trigger.startswith("async:"))


def run_script(source: Union[str, ast.Program, BoundProgram],
               script: list, transcript: bool = False,
               check: bool = True, cenv: Optional[CEnv] = None) -> Machine:
    """Run one (program, script) pair under the reference semantics.

    ``script`` is the fuzz/witness format: ``("E", name, value)`` input
    occurrences and ``("T", abs_us)`` clock advances.  Returns the
    machine, whose ``signature()`` / ``portable_signature()`` /
    ``done`` / ``result`` / ``output()`` plug straight into the
    differential harness (:mod:`repro.fuzz.oracles`).
    """
    if isinstance(source, str):
        bound = bind(parse(source))
    elif isinstance(source, ast.Program):
        bound = bind(source)
    else:
        bound = source
    if check:
        check_bounded(bound)
    machine = Machine(bound, cenv=cenv, transcript=transcript)
    machine.boot()
    for item in script:
        if machine.done:
            break
        if item[0] == "E":
            machine.send(item[1], item[2])
        else:
            machine.at(item[1])
    return machine


# re-exported for the rules mixin's type checkers
_ = (as_int, truthy)
