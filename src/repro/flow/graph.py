"""Flow graph ("NFA") of a Céu program — §4.1, Figure `nfa`.

The temporal-analysis phase first converts the AST into a graph that
represents the execution flow.  Nodes are statements; fork nodes spawn the
branches of parallel compositions; join nodes represent the termination of
``par/or``/``par/and`` compositions and of loops.  Every node carries a
*priority*: 0 (highest) by default, while join/termination nodes take the
nesting depth complement — **the outer the construct, the lower the
priority** — the glitch-avoidance ordering the scheduler enforces at run
time (:mod:`repro.runtime.scheduler`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional


@dataclass(eq=False)
class FlowNode:
    id: int
    label: str
    kind: str                  # "stmt" | "await" | "fork" | "join" | "end"
    priority: int = 0          # 0 = highest; larger runs later
    ast_nid: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.id}] {self.label} (prio {self.priority})"


@dataclass
class FlowGraph:
    nodes: list[FlowNode] = field(default_factory=list)
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    entry: Optional[int] = None
    _seq: itertools.count = field(default_factory=lambda: itertools.count(1))

    def add_node(self, label: str, kind: str, priority: int = 0,
                 ast_nid: Optional[int] = None) -> FlowNode:
        node = FlowNode(next(self._seq), label, kind, priority, ast_nid)
        self.nodes.append(node)
        return node

    def add_edge(self, src: FlowNode, dst: FlowNode, label: str = "") -> None:
        self.edges.append((src.id, dst.id, label))

    # ------------------------------------------------------------- queries
    def node(self, node_id: int) -> FlowNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def successors(self, node_id: int) -> list[int]:
        return [dst for src, dst, _ in self.edges if src == node_id]

    def await_nodes(self) -> list[FlowNode]:
        return [n for n in self.nodes if n.kind == "await"]

    def join_nodes(self) -> list[FlowNode]:
        return [n for n in self.nodes if n.kind == "join"]

    # ---------------------------------------------------------------- dot
    def to_dot(self, title: str = "flow") -> str:
        """Graphviz rendering, matching the paper's figure style: awaits
        as ellipses, joins annotated with their priority."""
        lines = [f"digraph {title} {{", "  rankdir=TB;",
                 '  node [fontname="Helvetica", fontsize=10];']
        for n in self.nodes:
            shape = {"await": "ellipse", "fork": "triangle",
                     "join": "invtriangle", "end": "doublecircle",
                     "stmt": "box"}[n.kind]
            label = n.label.replace('"', r'\"')
            if n.kind == "join" and n.priority:
                label += f"\\nprio={n.priority}"
            lines.append(f'  n{n.id} [label="{label}", shape={shape}];')
        for src, dst, label in self.edges:
            attr = f' [label="{label}"]' if label else ""
            lines.append(f"  n{src} -> n{dst}{attr};")
        lines.append("}")
        return "\n".join(lines)
