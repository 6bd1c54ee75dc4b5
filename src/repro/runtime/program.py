"""High-level program facade: compile + run Céu programs on the VM."""

from __future__ import annotations

from typing import Any, Optional, Union

from ..lang import ast
from ..lang.lexer import tokenize
from ..lang.parser import parse
from ..lang.tokens import TokKind
from ..obs.hooks import HookBus, HookSubscriber
from ..sema.binder import BoundProgram, bind
from ..sema.bounded import check_bounded
from .cenv import CEnv
from .scheduler import RUNNING, TERMINATED, Scheduler
from .trace import Trace


def parse_time(spec: Union[int, str]) -> int:
    """Accept microseconds or a TIME literal string (``"1h35min"``)."""
    if isinstance(spec, int):
        return spec
    toks = tokenize(spec)
    if len(toks) != 2 or toks[0].kind is not TokKind.TIME:
        raise ValueError(f"not a TIME literal: {spec!r}")
    return toks[0].value.us


class Program:
    """One compiled Céu program bound to a VM scheduler.

    >>> p = Program('''
    ...     input int Restart;
    ...     int v = await Restart;
    ...     return v * 2;
    ... ''')
    >>> p.start()
    >>> p.send("Restart", 21)
    >>> p.result
    42
    """

    def __init__(self, source: Union[str, ast.Program, BoundProgram],
                 cenv: Optional[CEnv] = None, trace: bool = False,
                 observe: bool = False, hooks: Optional[HookBus] = None,
                 check: bool = True, filename: str = "<ceu>",
                 compensate_deltas: bool = True, glitch_free: bool = True,
                 reverse_seeds: bool = False, record: bool = False):
        if isinstance(source, str):
            program = parse(source, filename)
            bound = bind(program)
        elif isinstance(source, ast.Program):
            bound = bind(source)
        else:
            bound = source
        if check:
            check_bounded(bound)
        self.bound = bound
        #: source text and filename, kept for checkpointing (a snapshot
        #: embeds the program so a bundle is self-contained)
        self.source: Optional[str] = source if isinstance(source, str) \
            else None
        self.filename = filename
        self.trace = Trace(enabled=trace)
        self.sched = Scheduler(bound, cenv=cenv, trace=self.trace,
                               hooks=hooks,
                               compensate_deltas=compensate_deltas,
                               glitch_free=glitch_free,
                               reverse_seeds=reverse_seeds)
        if record:
            self.sched.journal = []
        if observe:
            self.sched.enable_metrics()

    # ------------------------------------------------------------ plumbing
    @property
    def cenv(self) -> CEnv:
        return self.sched.cenv

    # -------------------------------------------------------- observability
    @property
    def hooks(self) -> HookBus:
        """The scheduler's instrumentation bus (docs/OBSERVABILITY.md)."""
        return self.sched.hooks

    def observe(self, subscriber: HookSubscriber) -> HookSubscriber:
        """Subscribe ``subscriber`` (e.g. an exporter) to the hook bus."""
        return self.sched.hooks.subscribe(subscriber)

    def stats(self) -> dict:
        """Metrics snapshot — see :meth:`Scheduler.stats`."""
        return self.sched.stats()

    @property
    def done(self) -> bool:
        return self.sched.done

    @property
    def result(self) -> Any:
        return self.sched.result

    @property
    def clock(self) -> int:
        return self.sched.clock

    def output(self) -> str:
        """Everything the program printed via ``_printf`` and friends."""
        return self.cenv.output()

    # ------------------------------------------------------------- driving
    def start(self) -> str:
        """Boot reaction; drains any asyncs spawned at boot."""
        status = self.sched.go_init()
        if status is RUNNING:
            status = self.run()
        return status

    def send(self, event: str, value: Any = None) -> str:
        """One input event, then drain asyncs it may have unblocked."""
        status = self.sched.go_event(event, value)
        if status is RUNNING:
            status = self.run()
        return status

    def advance(self, spec: Union[int, str]) -> str:
        """Advance wall-clock time by a duration (µs or TIME literal)."""
        status = self.sched.go_time(self.sched.clock + parse_time(spec))
        if status is RUNNING:
            status = self.run()
        return status

    def at(self, spec: Union[int, str]) -> str:
        """Advance wall-clock time to an absolute instant."""
        status = self.sched.go_time(parse_time(spec))
        if status is RUNNING:
            status = self.run()
        return status

    def run_script(self, script) -> None:
        """Apply a fuzz/witness-format stimulus script to a started
        program: ``("E", name, value)`` sends an input event, ``("T",
        us)`` advances the clock to an absolute instant.  Stops once the
        program is done or paused (the per-program twin of
        :meth:`~repro.runtime.farm.Farm.run_script`)."""
        for item in script:
            if self.done or self.sched.paused():
                break
            if item[0] == "E":
                self.send(item[1], item[2])
            else:
                self.at(item[1])

    def run(self, max_async_steps: int = 10_000_000) -> str:
        """Drive the program until it needs external input: flush queued
        inputs, then step asyncs (whose emits feed reactions) until no
        asynchronous work remains."""
        steps = 0
        while not self.sched.done and not self.sched.paused():
            if self.sched.input_queue:
                self.sched.flush_inputs()
                continue
            if not self.sched.async_jobs:
                break
            self.sched.go_async()
            steps += 1
            if steps > max_async_steps:
                raise RuntimeError("async budget exhausted — runaway "
                                   "asynchronous block?")
        return TERMINATED if self.sched.done else RUNNING
