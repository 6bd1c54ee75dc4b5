"""Actions, chains and the concurrency/conflict model of the temporal
analysis (§2.6).

During one abstract reaction, every executed access is recorded as a
``(chain, (kind, key, span))`` pair: the *chain* that performed it and the
access template compiled for it.  A chain is one run-to-halt execution (the
abstract counterpart of a track, §4.4).  Two chains are **ordered**
(deterministically sequenced) when:

* one transitively *caused* the other — an emitter is ordered before the
  trails its ``emit`` awakes (stack policy, §2.2), and a parent is ordered
  before the branches it spawns; or
* they run at different priorities — join/termination continuations run
  after all normal work, inner joins before outer ones (§4.1).

Any other pair of chains in the same reaction is **concurrent**, and the
paper's three nondeterminism sources are checked across concurrent pairs:

* variables: write vs. read/write of the same variable;
* internal events: emit vs. emit, and emit vs. *arming* an await;
* C calls: any two calls not allowed by ``pure``/``deterministic``
  annotations.

The two sides of each conflict found become :class:`Action` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from ..lang.errors import SourceSpan
from ..sema.symbols import Annotations

# access kinds
RD, WR, EMIT, ARM, CALL = "rd", "wr", "emit", "arm", "call"


@dataclass(frozen=True, slots=True)
class Action:
    chain: int
    kind: str          # rd | wr | emit | arm | call
    key: tuple         # ("var", uid, name) | ("evt", uid, name) |
    #                    ("cfun", name) | ("cglobal", name) | ("deref", uid, name)
    span: SourceSpan

    def describe(self) -> str:
        kind_text = {RD: "read of", WR: "write to", EMIT: "emit of",
                     ARM: "await of", CALL: "call to"}[self.kind]
        return f"{kind_text} {self.key_name()} at {self.span}"

    def key_name(self) -> str:
        tag = self.key[0]
        if tag == "var":
            return f"variable `{self.key[2]}`"
        if tag == "evt":
            return f"event `{self.key[2]}`"
        if tag == "cfun":
            return f"C function `_{self.key[1]}`"
        if tag == "cglobal":
            return f"C global `_{self.key[1]}`"
        if tag == "deref":
            return f"*{self.key[2]}"
        return str(self.key)


class ChainSet:
    """Chain registry for one abstract reaction."""

    def __init__(self) -> None:
        self._next = 0
        self.prio: dict[int, tuple] = {}
        self.cause: dict[int, Optional[int]] = {}

    def new(self, prio: tuple = (0,), cause: Optional[int] = None) -> int:
        cid = self._next
        self._next += 1
        self.prio[cid] = prio
        self.cause[cid] = cause
        return cid

    def copy(self) -> "ChainSet":
        dup = ChainSet()
        dup._next = self._next
        dup.prio = dict(self.prio)
        dup.cause = dict(self.cause)
        return dup

    def ordered(self, a: int, b: int) -> bool:
        """Is the relative execution order of chains a and b fixed?"""
        if a == b:
            return True
        if self.prio[a] != self.prio[b]:
            return True
        return self._ancestor(a, b) or self._ancestor(b, a)

    def _ancestor(self, anc: int, cid: int) -> bool:
        cur: Optional[int] = self.cause[cid]
        while cur is not None:
            if cur == anc:
                return True
            cur = self.cause[cur]
        return False


@dataclass(frozen=True, slots=True)
class Conflict:
    """A witnessed pair of concurrent conflicting actions."""

    first: Action
    second: Action
    trigger: str
    state_index: int

    def message(self) -> str:
        return (f"nondeterminism on {self.first.key_name()}: concurrent "
                f"{self.first.describe()} and {self.second.describe()} "
                f"(reachable in DFA state #{self.state_index} on "
                f"{self.trigger})")


def _conflicting(kind_a: str, key_a: tuple, kind_b: str, key_b: tuple,
                 ann: Annotations) -> bool:
    if kind_a == CALL and kind_b == CALL:
        return not ann.compatible(key_a[1], key_b[1])
    if key_a != key_b:
        return False
    tag = key_a[0]
    if tag in ("var", "deref", "cglobal"):
        return kind_a == WR or kind_b == WR
    if tag == "evt":
        kinds = {kind_a, kind_b}
        return EMIT in kinds and kinds <= {EMIT, ARM}
    return False


def find_conflicts(accesses: list[tuple], chains: ChainSet,
                   ann: Annotations, trigger: str,
                   state_index: int) -> list[Conflict]:
    """All conflicting concurrent pairs in one abstract reaction.

    ``accesses`` holds ``(chain, (kind, key, span))`` in the order they
    ran; the pairs come out in that order, and only their two sides
    become :class:`Action` objects.  A reaction whose accessing chains
    are pairwise ordered has none.  Otherwise only accesses that can
    conflict are compared: two C calls, or two other accesses of one
    key."""
    active = {chain for chain, _ in accesses}
    if all(chains.ordered(a, b) for a, b in combinations(active, 2)):
        return []
    groups: dict = {}
    for i, (_, (kind, key, _)) in enumerate(accesses):
        # a call can conflict with a call to another function, and no
        # other kind of access has a ``cfun`` key: all calls are one group
        groups.setdefault(CALL if kind == CALL else key, []).append(i)
    pairs = []
    for group in groups.values():
        for x, i in enumerate(group):
            chain_a, (kind_a, key_a, _) = accesses[i]
            for j in group[x + 1:]:
                chain_b, (kind_b, key_b, _) = accesses[j]
                if (not chains.ordered(chain_a, chain_b)
                        and _conflicting(kind_a, key_a, kind_b, key_b, ann)):
                    pairs.append((i, j))
    pairs.sort()
    return [Conflict(_action(accesses[i]), _action(accesses[j]), trigger,
                     state_index)
            for i, j in pairs]


def _action(access: tuple) -> Action:
    chain, (kind, key, span) = access
    return Action(chain, kind, key, span)
