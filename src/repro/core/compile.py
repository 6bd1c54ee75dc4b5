"""End-to-end compilation pipeline (§4): parse → bind → bounded-execution
check → temporal analysis → artifacts (flow graph, DFA, memory layout,
gates, C code) → executable VM instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from ..codegen import (HOST, CompiledC, GateTable, MemLayout, TargetABI,
                       build_gates, build_layout, compile_to_c)
from ..dfa import Dfa
from ..dfa import check_determinism as refuse_conflicts
from ..flow import FlowGraph, build_flow
from ..lang import parse
from ..runtime import CEnv, Program
from ..runtime.program import parse_time
from ..sema import BoundProgram, bind, check_bounded


@dataclass
class CompiledUnit:
    """A fully analysed Céu program and its derived artifacts."""

    source: str
    bound: BoundProgram
    dfa: Optional[Dfa] = None
    _flow: Optional[FlowGraph] = field(default=None, repr=False)

    # ------------------------------------------------------------ artifacts
    def flow_graph(self) -> FlowGraph:
        if self._flow is None:
            self._flow = build_flow(self.bound)
        return self._flow

    def memory_layout(self, abi: TargetABI = HOST) -> MemLayout:
        return build_layout(self.bound, abi)

    def gate_table(self) -> GateTable:
        return build_gates(self.bound)

    def to_c(self, abi: TargetABI = HOST, with_main: bool = True,
             name: str = "ceu") -> CompiledC:
        return compile_to_c(self.bound, abi=abi, with_main=with_main,
                            name=name)

    # ----------------------------------------------------------- execution
    def instantiate(self, cenv: Optional[CEnv] = None,
                    trace: bool = False, observe: bool = False) -> Program:
        return Program(self.bound, cenv=cenv, trace=trace,
                       observe=observe, check=False)


def analyze(source: str, check_determinism: bool = True,
            max_states: int = 20_000, filename: str = "<ceu>") -> CompiledUnit:
    """Run the full front end and static analyses on Céu source."""
    bound = bind(parse(source, filename))
    check_bounded(bound)
    dfa = refuse_conflicts(bound, max_states) if check_determinism else None
    return CompiledUnit(source, bound, dfa)


def compile_source(source: str, check_determinism: bool = True,
                   filename: str = "<ceu>") -> CompiledUnit:
    """Alias of :func:`analyze` with the conventional name."""
    return analyze(source, check_determinism=check_determinism,
                   filename=filename)


def run(source: str, events: Sequence[tuple[str, Any]] = (),
        until: Union[int, str, None] = None,
        check_determinism: bool = False, trace: bool = False,
        cenv: Optional[CEnv] = None) -> Program:
    """One-shot: compile, boot, feed ``events`` and/or advance time.

    ``events`` items are ``(name, value)`` pairs or ``("@<TIME>", _)``
    markers that advance the clock; ``until`` advances the clock at the
    end.  Returns the (possibly terminated) :class:`Program`.
    """
    unit = analyze(source, check_determinism=check_determinism)
    program = unit.instantiate(cenv=cenv, trace=trace)
    program.start()
    for name, value in events:
        if program.done:
            break
        if name.startswith("@"):
            program.at(parse_time(name[1:]))
        else:
            program.send(name, value)
    if until is not None and not program.done:
        program.at(parse_time(until))
    return program
