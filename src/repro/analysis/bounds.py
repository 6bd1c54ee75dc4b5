"""Static resource bounds derived from the DFA (§4.2, §6).

The temporal analysis "covers exactly all possible paths", so per-state
maxima over the explored configurations are sound upper bounds on what
the runtime can ever hold live:

* **trails** — configuration entries (awaiting trails, suspended parallel
  owners, the root) bound the scheduler's live-trail count;
* **armed timers** — ``time``/``tunk`` entries per state (one heap entry
  per armed trail on the VM, one gate in the generated C);
* **async jobs** — ``async`` entries per state;
* **internal-emit depth** — the most internal emits any single abstract
  reaction performs bounds both the per-reaction emit count and the §2.2
  emit-stack depth (each nested emit pushes at most once);
* **memory** — slots are keyed per symbol (re-declaration reuses the
  slot), so the variable count bounds the VM store and the ABI layouts
  bound the flat C vector.

The fuzz oracle ``static-bounds`` (:mod:`repro.fuzz.oracles`) checks
every generated program's observed high-water marks against these; the C
emitter embeds them as ``_Static_assert``-checked capacity constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codegen.memlayout import HOST, TARGET16, TargetABI, build_layout
from ..dfa.builder import Dfa
from ..lang import ast
from ..sema.binder import BoundProgram

_TIMERISH = ("time", "tunk")


@dataclass(frozen=True)
class TrailBounds:
    """Static memory attribution for one trail frame — the root block or
    one branch of a ``par`` (anywhere in the program).  Variables of a
    frame are those declared in its subtree *excluding* nested parallel
    branches, which own their declarations; frame byte figures therefore
    tile the §4.2 side-by-side layout.  The LSP hover surfaces these
    per-construct figures."""

    label: str                 # "root" | "par/or branch 2" | ...
    line: int                  # 1-based source extent of the frame
    end_line: int
    mem_slots: int
    mem_bytes_host: int
    mem_bytes_target16: int

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "line": self.line,
            "end_line": self.end_line,
            "mem_slots": self.mem_slots,
            "mem_bytes_host": self.mem_bytes_host,
            "mem_bytes_target16": self.mem_bytes_target16,
        }

    def summary(self) -> str:
        return (f"{self.label}: slots={self.mem_slots} "
                f"bytes(host)={self.mem_bytes_host} "
                f"bytes(target16)={self.mem_bytes_target16}")


@dataclass(frozen=True)
class ResourceBounds:
    max_trails: int
    max_armed_timers: int
    max_async_jobs: int
    max_internal_emits: int
    mem_slots: int
    mem_bytes_host: int
    mem_bytes_target16: int
    dfa_states: int
    dfa_transitions: int
    per_trail: tuple[TrailBounds, ...] = ()

    def mem_bytes(self, abi: TargetABI) -> int:
        return (self.mem_bytes_target16 if abi.name == "target16"
                else self.mem_bytes_host)

    def as_dict(self) -> dict:
        return {
            "max_trails": self.max_trails,
            "max_armed_timers": self.max_armed_timers,
            "max_async_jobs": self.max_async_jobs,
            "max_internal_emits": self.max_internal_emits,
            "mem_slots": self.mem_slots,
            "mem_bytes_host": self.mem_bytes_host,
            "mem_bytes_target16": self.mem_bytes_target16,
            "dfa_states": self.dfa_states,
            "dfa_transitions": self.dfa_transitions,
            "per_trail": [t.as_dict() for t in self.per_trail],
        }

    def trail_at(self, line: int) -> "TrailBounds | None":
        """The innermost frame whose extent covers ``line`` (hover)."""
        best = None
        for trail in self.per_trail:
            if trail.line <= line <= trail.end_line:
                if (best is None
                        or (trail.end_line - trail.line
                            <= best.end_line - best.line)):
                    best = trail
        return best

    def summary(self) -> str:
        return (f"trails<={self.max_trails} "
                f"timers<={self.max_armed_timers} "
                f"asyncs<={self.max_async_jobs} "
                f"emit-depth<={self.max_internal_emits} "
                f"mem-slots<={self.mem_slots} "
                f"mem-bytes(host)<={self.mem_bytes_host}")


def _frame_vars(block: ast.Block, bound: BoundProgram) -> list:
    """Variable symbols declared in a frame's subtree, excluding nested
    ``par`` branches (each branch is its own frame)."""
    syms: list = []

    def visit_stmt(s: ast.Node) -> None:
        if isinstance(s, ast.DeclVar):
            syms.extend(bound.sym_of_decl[d.nid] for d in s.decls)
            for d in s.decls:
                if d.init is not None and not isinstance(d.init, ast.Exp):
                    visit_stmt(d.init)
        elif isinstance(s, ast.If):
            visit_block(s.then)
            if s.orelse is not None:
                visit_block(s.orelse)
        elif isinstance(s, (ast.Loop, ast.DoBlock, ast.AsyncBlock)):
            visit_block(s.body)
        elif isinstance(s, ast.Assign) and not isinstance(s.value, ast.Exp):
            visit_stmt(s.value)
        # ParStmt: nested frames own their declarations

    def visit_block(b: ast.Block) -> None:
        for stmt in b.stmts:
            visit_stmt(stmt)

    visit_block(block)
    return syms


def memory_bounds(bound: BoundProgram) -> dict:
    """The :class:`ResourceBounds` fields that follow from the
    declarations alone, not from the DFA: slots, both ABI byte totals and
    the per-frame attribution — the root block plus every branch of every
    ``par``, in deterministic pre-order."""
    host = build_layout(bound, HOST)
    t16 = build_layout(bound, TARGET16)
    frames: list[tuple[str, ast.Block]] = [("root", bound.program.body)]
    for node in bound.program.walk():
        if isinstance(node, ast.ParStmt):
            for i, blk in enumerate(node.blocks, start=1):
                frames.append((f"{node.keyword} branch {i}", blk))
    per_trail = []
    for label, blk in frames:
        syms = _frame_vars(blk, bound)
        per_trail.append(TrailBounds(
            label=label,
            line=blk.span.start.line,
            end_line=blk.span.end.line,
            mem_slots=len(syms),
            mem_bytes_host=sum(host.sizes[s] for s in syms),
            mem_bytes_target16=sum(t16.sizes[s] for s in syms),
        ))
    return {"mem_slots": len(bound.variables),
            "mem_bytes_host": host.total,
            "mem_bytes_target16": t16.total,
            "per_trail": tuple(per_trail)}


def compute_bounds(bound: BoundProgram, dfa: Dfa) -> ResourceBounds:
    """Fold per-state maxima out of an explored DFA."""
    max_trails = 1  # the root trail exists from boot
    max_timers = 0
    max_asyncs = 0
    for state in dfa.states:
        trails = len(state.config)
        timers = 0
        asyncs = 0
        for _path, entry in state.config:
            tag = entry[0]
            if tag in _TIMERISH:
                timers += 1
            elif tag == "async":
                asyncs += 1
        max_trails = max(max_trails, trails)
        max_timers = max(max_timers, timers)
        max_asyncs = max(max_asyncs, asyncs)
    return ResourceBounds(
        max_trails=max_trails,
        max_armed_timers=max_timers,
        max_async_jobs=max_asyncs,
        max_internal_emits=dfa.max_internal_emits,
        dfa_states=dfa.state_count(),
        dfa_transitions=dfa.transition_count(),
        **memory_bounds(bound),
    )
