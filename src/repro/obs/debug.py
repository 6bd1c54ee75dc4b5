"""Time-travel debugging over reaction checkpoints.

The VM is deterministic: a program plus its top-level driver journal
fixes every reaction (the property the replay fuzz oracle checks).  The
first debugger exploited only the determinism — every ``goto`` was a
fresh re-execution from boot, instrumented, O(run length).  This one
adds the checkpoint layer (:mod:`repro.runtime.checkpoint`):

* **Pass 1** runs the program once, fully instrumented (trace + causal
  graph) and with journal recording on.  Its artifacts — the total
  reaction count, the full trace signature, the causal DAG, the journal
  — are kept and *sliced* for rendering; they are never recomputed.
* A **ring of parked VMs** is then built: detached (no hooks, no trace)
  replicas paused at periodic reaction boundaries, plus the movable
  *cursor* VM that always sits at the current position.
* ``goto n`` takes the nearest parked VM at or below ``n`` (usually the
  cursor itself when moving forward) and drives it the remaining
  distance with the journal — O(distance-from-nearest-checkpoint)
  reactions, all detached.  The displaced cursor is parked in turn, so
  a back-and-forth session keeps seeding its own checkpoints.
  :attr:`last_goto` records the base used and the reactions/steps
  actually replayed; the acceptance tests pin it.

Positions are *completed reaction counts*: position ``n`` means
reactions ``0 .. n-1`` (0 is boot) have run.  Rendered state at every
position is byte-identical to the first debugger's re-execution — the
checkpoint fingerprints guarantee it.

One caveat worth knowing: when a position lands inside a time advance
(``T`` journal entry), the VM clock already shows the advance's *target*
instant — the not-yet-run timer reactions between the pause boundary and
the target are simply still pending.  They run, deterministically, once
the position moves past them (the journal's reaction-count stamps make
the mid-entry pause resumable — see
:func:`~repro.runtime.checkpoint.replay_journal`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .causal import CausalGraph


class TimeTravelDebugger:
    """Replay debugger over one program + stimulus script.

    >>> dbg = TimeTravelDebugger(src, script)
    >>> dbg.total            # reactions in the full run
    >>> dbg.goto(2)          # nearest checkpoint + journal replay
    >>> dbg.state()["memory"]
    >>> dbg.step(); dbg.step()
    >>> dbg.signature() == dbg.full_signature   # caught back up
    True

    ``script`` uses the fuzz-driver item format:
    ``("E", name, value)`` sends an input event, ``("T", abs_us)``
    advances the wall clock to an absolute instant
    (:func:`repro.fuzz.gen.parse_script_text` reads the file form).

    ``checkpoint_interval`` spaces the parked boundaries (default: the
    run divided evenly over the ring); ``checkpoint_ring`` caps how many
    VMs stay parked at once (oldest evicted first).
    """

    def __init__(self, source: str, script: Sequence[tuple] = (),
                 filename: str = "<ceu>",
                 checkpoint_interval: Optional[int] = None,
                 checkpoint_ring: int = 8):
        self.source = source
        self.script = list(script)
        self.filename = filename
        self._ckpt = None
        # pass 1: the one instrumented run
        program, self.graph = self._instrumented_boot()
        program.start()
        program.run_script(self.script)
        self._finish_init(program, checkpoint_interval, checkpoint_ring)

    @classmethod
    def from_checkpoint(cls, ckpt, *,
                        checkpoint_interval: Optional[int] = None,
                        checkpoint_ring: int = 8) -> "TimeTravelDebugger":
        """Open a :class:`~repro.runtime.checkpoint.Checkpoint` (a saved
        session or a postmortem bundle's) as a debugging session.

        The instrumented pass replays the embedded journal up to the
        checkpoint's boundary — for a crash checkpoint that is one
        reaction short of the crash — and verifies the state fingerprint
        when one is present.  The horizon (:attr:`total`) is the
        boundary; everything before it is navigable as usual.
        """
        from ..runtime.checkpoint import (CheckpointError, replay_journal,
                                          state_fingerprint)

        self = cls.__new__(cls)
        self.source = ckpt.source
        self.script = None
        self.filename = ckpt.filename
        self._ckpt = ckpt
        program, self.graph = self._instrumented_boot()
        sched = program.sched
        boundary = ckpt.reaction_count
        sched.pause_at = boundary
        sched.go_init()
        replay_journal(sched, ckpt.journal, pause_at=boundary)
        if ckpt.fingerprint is not None:
            got = state_fingerprint(sched)
            if got != ckpt.fingerprint:
                raise CheckpointError(
                    f"checkpoint replay diverged: fingerprint "
                    f"{got[:12]}… != {ckpt.fingerprint[:12]}…")
        self._finish_init(program, checkpoint_interval, checkpoint_ring)
        return self

    # ----------------------------------------------------------- execution
    def _instrumented_boot(self):
        """Fresh fully-instrumented program (not yet started)."""
        # deferred: obs is imported by the runtime it drives
        from ..runtime.program import Program

        program = Program(self.source, trace=True, filename=self.filename,
                          record=True)
        if self._ckpt is not None:
            from ..runtime.checkpoint import apply_options
            apply_options(program.sched, self._ckpt)
        graph = program.observe(CausalGraph(program.hooks))
        return program, graph

    def _finish_init(self, program, interval: Optional[int],
                     ring: int) -> None:
        sched = program.sched
        #: reactions in the full run — the debugger's horizon
        self.total = sched.reaction_count
        #: the full run's trace signature (positions slice it)
        self.full_signature = program.trace.signature()
        self._full_trace = program.trace
        self.journal = [tuple(e) for e in sched.journal]
        self.ring = max(1, ring)
        self.interval = max(1, interval if interval is not None
                            else -(-self.total // (self.ring + 1)))
        #: position → parked detached VM ``(program, journal cursor)``
        self._parked: dict[int, tuple] = {}
        self._bound = program.bound
        self._build_ring()
        # pass 1's program doubles as the initial cursor, parked at total
        sched.pause_at = self.total
        self._cursor = (program, len(self.journal))
        self.at = self.total
        #: how the last movement was served — {"base", "mode",
        #: "replayed", "steps_replayed"}; tests pin the O(distance) claim
        self.last_goto = {"base": self.total, "mode": "full-run",
                          "replayed": 0, "steps_replayed": 0}

    def _detached_boot(self):
        """Fresh uninstrumented replica paused right after boot."""
        from ..runtime.program import Program

        program = Program(self._bound, check=False,
                          filename=self.filename)
        if self._ckpt is not None:
            from ..runtime.checkpoint import apply_options
            apply_options(program.sched, self._ckpt)
        program.sched.pause_at = 1
        program.sched.go_init()
        return program, 0

    def _replay_to(self, program, cursor: int, n: int) -> int:
        from ..runtime.checkpoint import replay_journal
        return replay_journal(program.sched, self.journal, cursor,
                              pause_at=n)

    def _build_ring(self) -> None:
        boundaries = list(range(self.interval, self.total, self.interval))
        for b in boundaries[-self.ring:]:
            program, cursor = self._detached_boot()
            cursor = self._replay_to(program, cursor, b)
            self._parked[b] = (program, cursor)

    def _park(self, position: int, entry: tuple) -> None:
        if position in self._parked:
            return                          # already covered; drop dup
        self._parked[position] = entry
        while len(self._parked) > self.ring:
            oldest = next(iter(self._parked))
            del self._parked[oldest]

    # ------------------------------------------------------------ movement
    def goto(self, n: int) -> int:
        """Move to position ``n`` (clamped to ``1 .. total``; boot itself
        cannot be unwound) via the nearest checkpoint at or below it."""
        n = max(1, min(n, self.total))
        if n == self.at:
            self.last_goto = {"base": n, "mode": "cursor", "replayed": 0,
                              "steps_replayed": 0}
            return self.at
        # candidate bases: the cursor (when behind n) and parked VMs
        candidates = [p for p in self._parked if p <= n]
        use_cursor = self.at <= n and (not candidates
                                       or self.at >= max(candidates))
        if use_cursor:
            base, mode = self.at, "cursor"
            program, cursor = self._cursor
        elif candidates:
            base, mode = max(candidates), "checkpoint"
            program, cursor = self._parked.pop(base)
            self._park(self.at, self._cursor)
        else:
            base, mode = 1, "boot"
            program, cursor = self._detached_boot()
            self._park(self.at, self._cursor)
        steps0 = program.sched.steps_executed
        cursor = self._replay_to(program, cursor, n)
        self._cursor = (program, cursor)
        self.at = program.sched.reaction_count
        self.last_goto = {
            "base": base, "mode": mode, "replayed": self.at - base,
            "steps_replayed": program.sched.steps_executed - steps0,
        }
        return self.at

    def step(self) -> int:
        """Forward one reaction (no-op at the end of the run)."""
        return self.goto(self.at + 1)

    def back(self) -> int:
        """Backward one reaction (no-op at position 1)."""
        return self.goto(self.at - 1)

    # --------------------------------------------------------- checkpoints
    @property
    def program(self):
        """The VM at the current position (paused, inspectable)."""
        return self._cursor[0]

    def checkpoints(self) -> dict:
        """The parked-VM ring: positions, spacing, and the cursor."""
        return {"at": self.at, "total": self.total,
                "interval": self.interval, "ring": self.ring,
                "parked": sorted(self._parked),
                "last_goto": dict(self.last_goto)}

    def save(self, path) -> str:
        """Serialize the current position as a checkpoint file; a later
        ``repro debug --from-checkpoint`` (or :meth:`from_checkpoint`)
        reopens the session exactly here."""
        from ..runtime.checkpoint import snapshot

        ckpt = snapshot(self.program, source=self.source,
                        filename=self.filename, journal=self.journal)
        ckpt.save(path)
        return ckpt.describe()

    # ---------------------------------------------------------- inspection
    def signature(self) -> tuple:
        """Trace signature of the reactions run so far — at position
        ``total`` this equals :attr:`full_signature` byte for byte."""
        return tuple(self.full_signature[:self.at])

    def state(self) -> dict:
        """Structured snapshot of the paused VM."""
        sched = self.program.sched
        trails = sorted(sched._live, key=lambda t: t.seq)
        return {
            "at": self.at,
            "total": self.total,
            "clock_us": sched.clock,
            "steps": sched.steps_executed,
            "done": sched.done,
            "result": sched.result,
            "memory": sched.memory.snapshot(),
            "trails": [(t.label, t.waiting or "running")
                       for t in trails if t.alive],
        }

    def render_state(self) -> str:
        s = self.state()
        lines = [f"position {s['at']}/{s['total']}  "
                 f"clock {s['clock_us']}us  "
                 + (f"terminated result={s['result']}" if s["done"]
                    else "running")]
        for name, value in sorted(s["memory"].items()):
            lines.append(f"  mem  {name} = {value}")
        for label, waiting in s["trails"]:
            lines.append(f"  trail {label}: {waiting}")
        return "\n".join(lines)

    def render_checkpoints(self) -> str:
        c = self.checkpoints()
        g = c["last_goto"]
        lines = [f"position {c['at']}/{c['total']}  "
                 f"interval {c['interval']}  ring {c['ring']}",
                 f"parked at: "
                 f"{', '.join(map(str, c['parked'])) or '(none)'}",
                 f"last goto: base {g['base']} ({g['mode']}), "
                 f"{g['replayed']} reaction(s) / "
                 f"{g['steps_replayed']} step(s) replayed"]
        return "\n".join(lines)

    def render_trace(self) -> str:
        return "\n".join(str(r)
                         for r in self._full_trace.reactions[:self.at])

    def why(self, at: str, steps: bool = False) -> str:
        """Causal slice (``repro why``) over the full run's graph,
        restricted to the current position — targets in the
        not-yet-replayed future are not visible."""
        return self.graph.why(at, steps=steps, before=self.at)
