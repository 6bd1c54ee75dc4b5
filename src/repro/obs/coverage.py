"""Coverage maps built from the hook bus.

Two subscribers turn the instrumentation stream into coverage bitmaps
over a fixed 2^16-slot universe (AFL-style: features are hashed into the
map, collisions are tolerated, and set union / popcount are the only
operations the consumers need):

* :class:`CoverageMap` — **statement** coverage (every source line the
  interpreter stepped, from the ``step`` hook) and **control-flow edge**
  coverage (consecutive ``(prev_line → line)`` pairs per trail — the
  classic branch-edge signal that distinguishes *how* a program ran, not
  just *what* it touched);
* :class:`DfaEdgeCoverage` — coverage of the §2.6 temporal-analysis
  DFA's transitions: the frontier of possible DFA states is advanced on
  every ``reaction_begin`` by trigger label, and each traversed
  transition is marked.  This is coverage of the *abstract* state space
  the static analysis explored — the measure that tells a fuzzer it has
  visited a new region of the automaton.

Both expose ``ids()`` (the hashed feature set), ``merge()``, a stable
``signature()``, and counts; the fuzzer's coverage-guided scheduler
(:mod:`repro.fuzz.runner`) accumulates ``ids()`` across a campaign and
feeds inputs that light new bits into its corpus.

A ``context`` string namespaces the hashes — campaigns over many
generated programs prefix each program's identity so line 7 of program A
and line 7 of program B stay distinct features.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Iterable, Optional

from .hooks import HookSubscriber

#: size of the hashed feature universe (collisions are acceptable noise,
#: exactly as in AFL's 64 KiB edge map)
MAP_SIZE = 1 << 16


def feature_id(*parts) -> int:
    """Stable hash of a coverage feature into the map universe."""
    key = "\x1f".join(str(p) for p in parts).encode()
    return zlib.crc32(key) % MAP_SIZE


def coverage_signature(ids: Iterable[int]) -> str:
    """Stable digest of a coverage set (corpus dedup key)."""
    payload = ",".join(str(i) for i in sorted(ids)).encode()
    return hashlib.sha1(payload).hexdigest()


class CoverageMap(HookSubscriber):
    """Statement + control-flow-edge coverage from ``step`` hooks."""

    def __init__(self, context: str = ""):
        self.context = context
        self.stmts: set[int] = set()
        self.edges: set[int] = set()
        self._prev: dict[str, int] = {}    # trail -> last stepped line

    # ------------------------------------------------------------- hooks
    def on_step(self, trail, path, kind, line) -> None:
        self.stmts.add(feature_id(self.context, "s", line))
        prev = self._prev.get(trail)
        if prev is not None:
            self.edges.add(feature_id(self.context, "e", prev, line))
        self._prev[trail] = line

    # --------------------------------------------------------------- api
    def ids(self) -> set[int]:
        return self.stmts | self.edges

    def merge(self, other: "CoverageMap") -> "CoverageMap":
        self.stmts |= other.stmts
        self.edges |= other.edges
        return self

    def signature(self) -> str:
        return coverage_signature(self.ids())

    def __len__(self) -> int:
        return len(self.stmts) + len(self.edges)


class DfaEdgeCoverage(HookSubscriber):
    """Marks which temporal-analysis DFA transitions a run traversed.

    The concrete VM does not expose its abstract DFA state, so the
    subscriber tracks the *set* of states consistent with the trigger
    history (a determinised view of the automaton): every
    ``reaction_begin`` advances the frontier along all transitions whose
    label matches the trigger, marking each as covered.  Sound — every
    actually-taken transition is marked — and precise enough for seed
    scheduling (frontiers stay small: programs the analysis accepted
    have near-deterministic automata).
    """

    def __init__(self, dfa, context: str = ""):
        self.dfa = dfa
        self.context = context
        self.covered: set[int] = set()
        self._frontier: set[int] = {-1}     # pre-boot pseudo-state
        self._by_src: dict[int, list[tuple[int, str, int]]] = {}
        for i, (src, label, dst) in enumerate(dfa.edges):
            self._by_src.setdefault(src, []).append((i, label, dst))

    # ------------------------------------------------------------- hooks
    def on_reaction_begin(self, index, trigger, value, time_us) -> None:
        if trigger == "boot":
            def match(label: str) -> bool:
                return label == "boot"
        elif trigger.startswith("event:"):
            wanted = f"event {trigger[len('event:'):]}"

            def match(label: str, wanted=wanted) -> bool:
                return label == wanted
        elif trigger == "time":
            def match(label: str) -> bool:
                return label.startswith(("timer ", "timeout@"))
        elif trigger.startswith("async:"):
            def match(label: str) -> bool:
                return label.startswith("async@")
        else:  # pragma: no cover - exhaustive over scheduler triggers
            return
        frontier: set[int] = set()
        for state in self._frontier:
            for i, label, dst in self._by_src.get(state, ()):
                if match(label):
                    self.covered.add(i)
                    frontier.add(dst)
        if frontier:
            self._frontier = frontier
        # an empty frontier means the run outpaced a truncated DFA —
        # keep the old frontier rather than going permanently blind

    # --------------------------------------------------------------- api
    def ids(self) -> set[int]:
        return {feature_id(self.context, "d", i) for i in self.covered}

    def merge(self, other: "DfaEdgeCoverage") -> "DfaEdgeCoverage":
        self.covered |= other.covered
        return self

    def signature(self) -> str:
        return coverage_signature(self.ids())

    def __len__(self) -> int:
        return len(self.covered)


def collect_coverage(program_cls, src: str, script,
                     dfa=None, context: str = "",
                     check: bool = True) -> Optional[set[int]]:
    """Run ``src`` under ``script`` with coverage subscribers attached;
    returns the combined feature-id set (None if the run raised).

    ``program_cls`` is :class:`repro.runtime.Program` — passed in to
    keep this module import-light (obs must not depend on the runtime).
    """
    cov = CoverageMap(context=context)
    dfa_cov = DfaEdgeCoverage(dfa, context=context) if dfa is not None \
        else None
    try:
        program = program_cls(src, check=check)
        program.observe(cov)
        if dfa_cov is not None:
            program.observe(dfa_cov)
        program.start()
        program.run_script(script)
    except Exception:
        return None
    ids = cov.ids()
    if dfa_cov is not None:
        ids |= dfa_cov.ids()
    return ids
