"""Causal tracing: a per-reaction DAG over hook-bus occurrences.

Céu's synchronous semantics make every state change attributable to one
external event plus a deterministic chain of trail wakeups, internal
emits (the §2.2 stack policy), and ``par/or`` cancellations.  The plain
trace records *what* fired; this module records *why*: every hook-bus
occurrence gets a **span id** and a **parent edge** to the occurrence
that caused it, producing a DAG whose roots are the external triggers.

Edges are exact, not inferred.  The scheduler threads cause ids through
its emit paths (see :class:`~repro.obs.hooks.HookBus`): the bus assigns
span ids at dispatch, the scheduler maintains the *current cause* across
deferred work (heap-queued resumes, rejoin continuations, timer fires),
and deferred wakeups carry their registration span (the await / timer
arm / spawn) as an auxiliary ``wake`` edge.  Two edge kinds result:

* ``cause`` — the occurrence that made this one happen *now* (an emit
  waking an awaiting trail, a timer fire seeding a reaction, a branch
  completion dispatching a rejoin);
* ``wake``  — the earlier occurrence that registered the wakeup (why the
  trail was listening at all).

The graph answers the debugger's questions (``repro why``): the *causal
slice* of a target occurrence is the set of its ancestors — the minimal
chain of events explaining why a trail ran or was killed.  Because
dispatch is synchronous and the §2.2 emit stack runs awakened trails to
completion before resuming the emitter, span order **is** the stack
(LIFO) execution order, so a slice printed in span order reads exactly
like the paper's walk-throughs.  The same cone powers the fuzz
shrinker's slice-first pass (:mod:`repro.fuzz.shrink`) and the Perfetto
flow-event export (:mod:`repro.obs.export`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hooks import HookBus, RecordingSubscriber


@dataclass(slots=True)
class CausalNode:
    """One hook-bus occurrence in the causal DAG."""

    span: int          # unique, monotone (bus dispatch order)
    event: str         # hook taxonomy name
    fields: dict       # taxonomy fields for the occurrence
    parent: int        # causing span (0 = the external world)
    wake: int          # aux cause: await/arm/spawn registration (or 0)
    reaction: int      # reaction index it happened in (-1 = pre-boot)

    def describe(self) -> str:
        """One-line human rendering used by slices and ``repro why``."""
        f = self.fields
        if self.event == "reaction_begin":
            extra = "" if f.get("value") is None else f" value={f['value']}"
            return f"reaction #{f['index']} {f['trigger']}{extra}"
        if self.event == "reaction_end":
            return f"reaction #{f['index']} quiesced ({f['steps']} steps)"
        if self.event == "trail_resume":
            return f"resume {f['trail']}"
        if self.event == "trail_halt":
            return f"halt {f['trail']} ({f['waiting']})"
        if self.event == "trail_spawn":
            return f"spawn {f['trail']}"
        if self.event == "trail_kill":
            return f"kill {f['trail']}"
        if self.event == "emit_internal":
            return f"emit {f['name']} (depth {f['depth']}) by {f['trail']}"
        if self.event == "emit_output":
            return f"output {f['name']}={f['value']}"
        if self.event == "await_begin":
            return f"{f['trail']} awaits {f['target']}"
        if self.event == "timer_schedule":
            return f"{f['trail']} arms timer @{f['deadline_us']}us"
        if self.event == "timer_fire":
            return (f"timer fires @{f['deadline_us']}us "
                    f"({f['n_trails']} trail(s))")
        if self.event == "region_kill":
            return f"region kill ({f['n_trails']} trail(s))"
        if self.event == "async_step":
            return f"async {f['job']} {f['kind']}"
        if self.event == "step":
            return f"{f['trail']} {f['kind']}@{f['line']}"
        return f"{self.event} {f}"


class CausalGraph(RecordingSubscriber):
    """Hook-bus subscriber materialising the causal DAG.

    Needs the bus it is subscribed to (to read the span bookkeeping)::

        graph = program.observe(CausalGraph(program.hooks))

    or just ``program.causal()``.
    """

    def __init__(self, bus: HookBus) -> None:
        self.bus = bus
        self.nodes: dict[int, CausalNode] = {}
        self.order: list[int] = []
        self._reaction = -1

    # ------------------------------------------------------------ recording
    def record(self, event: str, fields: tuple[str, ...],
               args: tuple) -> None:
        if event == "reaction_begin":
            self._reaction = args[0]
        bus = self.bus
        node = CausalNode(
            span=bus.last_span, event=event,
            fields=dict(zip(fields, args)), parent=bus.last_parent,
            wake=bus.wake if event == "trail_resume" else 0,
            reaction=self._reaction)
        self.nodes[node.span] = node
        self.order.append(node.span)

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.order)

    def node(self, span: int) -> Optional[CausalNode]:
        return self.nodes.get(span)

    def edges(self) -> list[tuple[int, int, str]]:
        """All edges as ``(src_span, dst_span, kind)`` with kind in
        ``{"cause", "wake"}`` (src caused dst)."""
        out: list[tuple[int, int, str]] = []
        for span in self.order:
            node = self.nodes[span]
            if node.parent:
                out.append((node.parent, span, "cause"))
            if node.wake:
                out.append((node.wake, span, "wake"))
        return out

    def of(self, *events: str) -> list[CausalNode]:
        wanted = set(events)
        return [self.nodes[s] for s in self.order
                if self.nodes[s].event in wanted]

    def roots(self) -> list[CausalNode]:
        """Externally-caused occurrences (parent = 0)."""
        return [self.nodes[s] for s in self.order
                if self.nodes[s].parent == 0]

    # ----------------------------------------------------- target resolution
    def find(self, at: str,
             before: Optional[int] = None) -> Optional[CausalNode]:
        """Resolve a ``repro why --at`` target to its *last* occurrence.

        Accepted forms: ``trail:LABEL`` (last resume or kill of the
        trail), ``line:N`` (last interpreter step at source line N),
        ``event:NAME`` (last internal/output emit of NAME),
        ``reaction:N``; a bare token tries trail, then event, then — if
        numeric — line.  With ``before`` set, only occurrences in
        reactions ``< before`` are visible — the time-travel debugger
        uses this so a rewound position cannot see its own future.
        """
        kind, _, name = at.partition(":")
        if name:
            if kind == "trail":
                return self._last(lambda n: n.event in
                                  ("trail_resume", "trail_kill")
                                  and n.fields["trail"] == name, before)
            if kind == "line":
                return self._last(lambda n: n.event == "step"
                                  and n.fields["line"] == int(name),
                                  before)
            if kind == "event":
                return self._last(lambda n: n.event in
                                  ("emit_internal", "emit_output")
                                  and n.fields["name"] == name, before)
            if kind == "reaction":
                return self._last(lambda n: n.event == "reaction_begin"
                                  and n.fields["index"] == int(name),
                                  before)
            return None
        token = at
        node = self.find(f"trail:{token}", before)
        if node is None:
            node = self.find(f"event:{token}", before)
        if node is None and token.isdigit():
            node = self.find(f"line:{token}", before)
        return node

    def _last(self, pred: Callable[[CausalNode], bool],
              before: Optional[int] = None) -> Optional[CausalNode]:
        for span in reversed(self.order):
            node = self.nodes[span]
            if before is not None and node.reaction >= before:
                continue
            if pred(node):
                return node
        return None

    # --------------------------------------------------------------- slices
    def slice(self, span: int, wake_edges: bool = True) -> list[CausalNode]:
        """The causal slice of ``span``: the target plus every ancestor
        along ``cause`` (and, by default, ``wake``) edges, in span order
        — which, by the §2.2 stack policy, is LIFO execution order."""
        keep: set[int] = set()
        stack = [span]
        while stack:
            s = stack.pop()
            if s in keep or s not in self.nodes:
                continue
            keep.add(s)
            node = self.nodes[s]
            if node.parent:
                stack.append(node.parent)
            if wake_edges and node.wake:
                stack.append(node.wake)
        return [self.nodes[s] for s in sorted(keep)]

    def reaction_cone(self, reaction: int) -> set[int]:
        """Reaction indices inside the causal cone of ``reaction``: the
        reaction itself plus every reaction an ancestor of any of its
        occurrences belongs to.  Feeds the shrinker's slice-first pass —
        stimuli whose reactions fall outside the cone of the failing
        reaction cannot have contributed to the failure."""
        targets = [s for s in self.order
                   if self.nodes[s].reaction == reaction]
        cone = {reaction}
        seen: set[int] = set()
        stack = list(targets)
        while stack:
            s = stack.pop()
            if s in seen or s not in self.nodes:
                continue
            seen.add(s)
            node = self.nodes[s]
            if node.reaction >= 0:
                cone.add(node.reaction)
            if node.parent:
                stack.append(node.parent)
            if node.wake:
                stack.append(node.wake)
        return cone

    # ------------------------------------------------------------ rendering
    def render_slice(self, span: int, steps: bool = False,
                     normalize: bool = False) -> str:
        """Human rendering of :meth:`slice`, one occurrence per line::

            [12] reaction #2 event:I  <- external
            [14]   resume trail1  <- [12] (awaited at [7])
            [16]   emit a (depth 1) by trail1  <- [14]

        Lines appear in span order (= stack/LIFO execution order);
        ``<-`` names the causal parent, ``awaited/armed at`` the wake
        edge.  ``steps=False`` elides interpreter ``step`` occurrences
        (unless the target itself is one).

        ``normalize=True`` renumbers span ids 1..n *within the slice*
        (slice order), so two replays of diverging runs — whose absolute
        span counters drift apart at the first divergence — still
        produce byte-identical lines for the shared causal prefix.
        That is what makes :func:`diff_slices` output stable.
        """
        nodes = self.slice(span)
        ids: dict[int, int] = {}
        if normalize:
            ids = {node.span: i + 1 for i, node in enumerate(nodes)}

        def sid(s: int) -> int:
            return ids.get(s, s) if normalize else s

        lines: list[str] = []
        depth_of: dict[int, int] = {}
        for node in nodes:
            if node.event == "step" and not steps and node.span != span:
                continue
            depth = depth_of.get(node.parent, -1) + 1
            depth_of[node.span] = depth
            ref = (f"<- [{sid(node.parent)}]" if node.parent
                   else "<- external")
            wake = ""
            if node.wake:
                verb = ("armed" if self.nodes.get(node.wake) is not None
                        and self.nodes[node.wake].event == "timer_schedule"
                        else "awaited")
                wake = f" ({verb} at [{sid(node.wake)}])"
            mark = " *" if node.span == span else ""
            lines.append(f"[{sid(node.span)}] {'  ' * depth}"
                         f"{node.describe()}  {ref}{wake}{mark}")
        return "\n".join(lines)

    def why(self, at: str, steps: bool = False,
            before: Optional[int] = None) -> str:
        """``render_slice(find(at))`` with a clear miss message."""
        node = self.find(at, before)
        if node is None:
            known = sorted({n.fields["trail"]
                            for n in self.of("trail_resume")})
            return (f"no occurrence matches {at!r} "
                    f"(known trails: {', '.join(known) or 'none'})")
        return self.render_slice(node.span, steps=steps)


def diff_slices(graph_a: CausalGraph, span_a: int,
                graph_b: CausalGraph, span_b: int,
                steps: bool = False,
                label_a: str = "a", label_b: str = "b") -> str:
    """Unified diff of two causal slices (``repro why --diff``).

    Both slices are rendered with *normalized* span ids, so the shared
    causal prefix of two diverging replays compares byte-equal and the
    diff shows exactly where the histories fork.  Returns ``""`` when
    the slices are identical.
    """
    import difflib

    a = graph_a.render_slice(span_a, steps=steps,
                             normalize=True).splitlines()
    b = graph_b.render_slice(span_b, steps=steps,
                             normalize=True).splitlines()
    if a == b:
        return ""
    return "\n".join(difflib.unified_diff(a, b, fromfile=label_a,
                                          tofile=label_b, lineterm=""))
