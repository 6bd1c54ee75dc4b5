"""DFA construction (§2.6, §4.1, Figure `dfa`).

Breadth-first exploration of abstract configurations: from every reachable
state, fire every enabled trigger (each awaited input event, each timer
epoch's next expiry, each computed timeout, each async completion) and
abstract-execute the reaction chain.  The DFA "covers exactly all possible
paths a program can reach during runtime"; conflicting concurrent accesses
found along any transition are the paper's nondeterminism witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..lang.errors import AnalysisBudgetExceeded, NondeterminismError
from ..sema.binder import BoundProgram
from .abstract import AbstractMachine, freeze
from .actions import EMIT, Conflict, find_conflicts


@dataclass(eq=False)
class DfaState:
    index: int
    config: tuple          # frozen configuration tree
    terminal: bool = False

    def awaiting(self) -> list[tuple]:
        return [entry for _, entry in self.config
                if entry[0] in ("ext", "intl", "time", "tunk", "fore",
                                "async")]

    def describe(self, bound: BoundProgram) -> str:
        parts = []
        for path, entry in self.config:
            tag = entry[0]
            if tag in ("ext", "intl"):
                name = bound.event_of[entry[1]].name
                parts.append(f"await {name}")
            elif tag == "time":
                parts.append(f"await {entry[2]}us[e{entry[3]}]")
            elif tag == "tunk":
                parts.append("await (exp)")
            elif tag == "fore":
                parts.append("await forever")
            elif tag == "async":
                parts.append("async")
            elif tag == "term":
                parts.append("terminated")
            elif tag == "done" and path == ():
                parts.append("done")
        return "; ".join(parts) if parts else "(empty)"


@dataclass(eq=False)
class Dfa:
    """The automaton plus every conflict discovered while building it."""

    states: list[DfaState] = field(default_factory=list)
    #: (src_index, trigger_label, dst_index)
    edges: list[tuple[int, str, int]] = field(default_factory=list)
    conflicts: list[Conflict] = field(default_factory=list)
    truncated: bool = False
    #: most internal-event emits any single reaction chain can perform —
    #: an upper bound on the §2.2 event-stack depth (each emit pushes once)
    max_internal_emits: int = 0

    @property
    def deterministic(self) -> bool:
        return not self.conflicts

    def state_count(self) -> int:
        return len(self.states)

    def transition_count(self) -> int:
        return len(self.edges)

    def successors(self, index: int) -> list[tuple[str, int]]:
        return [(label, dst) for src, label, dst in self.edges
                if src == index]

    # ----------------------------------------------------------------- dot
    def to_dot(self, bound: Optional[BoundProgram] = None,
               title: str = "dfa") -> str:
        """Graphviz export in the style of the paper's Figure `dfa`
        (conflicting states outlined)."""
        bad = {c.state_index for c in self.conflicts}
        lines = [f"digraph {title} {{", "  rankdir=TB;",
                 '  node [fontname="Helvetica", fontsize=10, shape=box];']
        for st in self.states:
            label = f"DFA #{st.index}"
            if bound is not None:
                label += "\\n" + st.describe(bound).replace('"', "'")
            attrs = [f'label="{label}"']
            if st.index in bad:
                attrs.append("color=red")
                attrs.append("penwidth=2")
            if st.terminal:
                attrs.append("peripheries=2")
            lines.append(f"  s{st.index} [{', '.join(attrs)}];")
        for src, trig, dst in self.edges:
            lines.append(f'  s{src} -> s{dst} [label="{trig}"];')
        lines.append("}")
        return "\n".join(lines)


class DfaBuilder:
    def __init__(self, bound: BoundProgram, max_states: int = 20_000):
        self.bound = bound
        self.machine = AbstractMachine(bound)
        self.max_states = max_states

    def build(self) -> Dfa:
        dfa = Dfa()
        index_of: dict[tuple, int] = {}
        internal_uids = {sym.uid for sym in self.bound.events.values()
                         if sym.is_internal}

        def note_emits(accesses) -> None:
            n = sum(1 for _, (kind, key, _) in accesses
                    if kind == EMIT and key[0] == "evt"
                    and key[1] in internal_uids)
            if n > dfa.max_internal_emits:
                dfa.max_internal_emits = n

        def intern(config: tuple) -> tuple[int, bool]:
            if config in index_of:
                return index_of[config], False
            state = DfaState(len(dfa.states), config,
                             terminal=self._is_terminal(config))
            dfa.states.append(state)
            index_of[config] = state.index
            return state.index, True

        # boot is itself a transition: a virtual pre-state feeds it
        worklist: list[int] = []
        for config, accesses, chains in self.machine.boot():
            conflicts = find_conflicts(accesses, chains,
                                       self.bound.annotations, "boot", 0)
            dfa.conflicts.extend(conflicts)
            note_emits(accesses)
            idx, fresh = intern(config)
            dfa.edges.append((-1, "boot", idx))
            if fresh:
                worklist.append(idx)

        while worklist:
            if len(dfa.states) > self.max_states:
                dfa.truncated = True
                raise AnalysisBudgetExceeded(
                    f"DFA exceeded {self.max_states} states — the "
                    f"conversion is exponential in the worst case (§6)")
            src = worklist.pop(0)
            for trigger, results in self._fire_all(dfa.states[src].config):
                for config, accesses, chains in results:
                    conflicts = find_conflicts(
                        accesses, chains, self.bound.annotations, trigger,
                        src)
                    dfa.conflicts.extend(conflicts)
                    note_emits(accesses)
                    idx, fresh = intern(config)
                    dfa.edges.append((src, trigger, idx))
                    if fresh:
                        worklist.append(idx)
        return dfa

    # ------------------------------------------------------------ triggers
    def _fire_all(self, config: tuple):
        events: list[str] = []
        epochs: list[int] = []
        tunks: list[tuple] = []
        asyncs: list[tuple] = []
        for path, entry in config:
            tag = entry[0]
            if tag == "ext":
                name = self.bound.event_of[entry[1]].name
                if name not in events:
                    events.append(name)
            elif tag == "time":
                if entry[3] not in epochs:
                    epochs.append(entry[3])
            elif tag == "tunk":
                tunks.append(path)
            elif tag == "async":
                asyncs.append(path)
        out = []
        for name in events:
            out.append((f"event {name}",
                        self.machine.fire_event(config, name)))
        for epoch in epochs:
            out.append((f"timer e{epoch}",
                        self.machine.fire_timer(config, epoch)))
        for path in tunks:
            out.append((f"timeout@{'.'.join(map(str, path)) or 'root'}",
                        self.machine.fire_unknown_timer(config, path)))
        for path in asyncs:
            out.append((f"async@{'.'.join(map(str, path)) or 'root'}",
                        self.machine.fire_async(config, path)))
        return out

    @staticmethod
    def _is_terminal(config: tuple) -> bool:
        return all(entry[0] in ("done", "term", "par")
                   for _, entry in config)


def build_dfa(bound: BoundProgram, max_states: int = 20_000) -> Dfa:
    """Run the temporal analysis; returns the DFA with any conflicts."""
    return DfaBuilder(bound, max_states).build()


def check_determinism(bound: BoundProgram,
                      max_states: int = 20_000) -> Dfa:
    """Build the DFA and raise :class:`NondeterminismError` on the first
    conflict — the compile-time refusal of §2.6."""
    dfa = build_dfa(bound, max_states)
    if dfa.conflicts:
        first = dfa.conflicts[0]
        raise NondeterminismError(first.message(), first.first.span,
                                  state=first.state_index,
                                  witness=(first.first, first.second))
    return dfa
