"""Seeded Céu program generator (the fuzzer's front half).

Every generated program is, **by construction**:

* *well-formed* — it parses, binds, and passes the §2.5 bounded-execution
  analysis (each loop body leads with an ``await`` and escapes through a
  counter);
* *terminating under its script* — the generator charges every ``await``
  it emits (times loop iterations) against an await budget, and the
  paired event script supplies at least one occurrence of every stimulus
  per budget unit, so the final ``return <checksum>;`` is always reached;
* *deterministic-by-construction with high probability* — concurrent
  branches own disjoint variables and disjoint await-stimuli, and
  observable actions (``_printf``, ``emit``) ride only on branch-unique
  event wakeups, so the §2.6 temporal analysis accepts the vast majority
  of programs and the VM↔C diff applies to them (refused programs still
  exercise the replay and no-crash oracles);
* *C-safe arithmetically* — products are immediately reduced modulo a
  small constant and all other operands stay tiny, so Python's unbounded
  ints and C's 32-bit ``int`` agree (the VM already matches C's
  truncated ``/`` and ``%``).

The per-feature weights in :class:`GenConfig` steer coverage: nested
``par/and``/``par/or``, internal-event emit chains (the §2.2 stack
policy), value and timer awaits, loops with escapes, value ``do`` blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

EXT_EVENTS = ("A", "B", "C")
TIMERS_MS = (10, 20, 30, 50, 70, 100)
ROUND_US = 100_000          # the script advances time 100ms per round
MULT_MOD = (97, 101, 251)   # products are reduced mod one of these

DEFAULT_WEIGHTS: dict[str, float] = {
    "assign": 2.5,
    "printf": 1.0,
    "await_ext": 1.5,
    "await_val": 1.0,
    "await_time": 1.2,
    "if": 1.2,
    "loop": 0.8,
    "par": 1.0,
    "emit_chain": 0.9,
    "do_value": 0.4,
}


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one generator profile (all deterministic given a seed)."""

    n_vars: int = 6
    n_void_internal: int = 2      # signal-only internal events (i0, i1…)
    n_int_internal: int = 2       # valued internal events (x0, x1…)
    max_depth: int = 3            # nesting budget for par/if/loop/do
    top_stmts: tuple[int, int] = (5, 10)
    block_stmts: tuple[int, int] = (1, 4)
    await_budget: int = 40
    loop_iters: tuple[int, int] = (2, 3)
    max_par_branches: int = 3
    prio_gadgets: int = 0         # §4.1 join-priority gadgets per program
    weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def weight(self, name: str) -> float:
        return self.weights.get(name, 0.0)


#: the default differential-testing profile
DIFF = GenConfig()

#: edge profiles used to mint the checked-in corpus (tests/corpus/)
CORPUS_PROFILES: dict[str, GenConfig] = {
    "deep": replace(DIFF, max_depth=6, weights={
        **DEFAULT_WEIGHTS, "par": 3.0, "if": 2.0, "loop": 1.5,
        "assign": 1.5}),
    "emit": replace(DIFF, n_void_internal=3, n_int_internal=3, weights={
        **DEFAULT_WEIGHTS, "emit_chain": 4.0, "par": 1.5}),
    "timer": replace(DIFF, weights={
        **DEFAULT_WEIGHTS, "await_time": 4.0, "loop": 1.5,
        "await_ext": 0.5}),
}

#: the schedule-diversity profile: every program carries join-order
#: gadgets (a nested rejoin, a ``break`` and a value-block ``return``
#: through a ``par`` under ``do … end`` blocks) whose emit ordering is
#: observable in the portable signature, so a backend that runs §4.1
#: join continuations at flat priority, or by another nesting rule,
#: diverges from the glitch-free VM (the blind spot the plain profiles
#: left: their parallels rarely rejoin *and* observe the join order)
PRIO = replace(DIFF, prio_gadgets=3, top_stmts=(2, 5))

#: every profile the CLI accepts (``repro fuzz --profile``)
PROFILES: dict[str, GenConfig] = {
    "diff": DIFF, **CORPUS_PROFILES, "prio": PRIO,
}


@dataclass
class GenCase:
    """One fuzz case: the program, its event script, and provenance."""

    seed: int
    src: str
    script: list[tuple]   # ("E", event, value) | ("T", abs_us)
    profile: str = "diff"

    def src_lines(self) -> int:
        return len(self.src.splitlines())


def script_text(script: list[tuple]) -> str:
    """Render a script in the C driver's ``E name val`` / ``T us`` form."""
    out = []
    for item in script:
        if item[0] == "E":
            if item[2] is None:      # void event: no payload column
                out.append(f"E {item[1]}")
            else:
                out.append(f"E {item[1]} {item[2]}")
        else:
            out.append(f"T {item[1]}")
    return "\n".join(out) + "\n"


def parse_script_text(text: str) -> list[tuple]:
    """Inverse of :func:`script_text` (``repro run --inputs FILE``).

    One stimulus per line — ``E NAME [VALUE]`` delivers an external
    event, ``T US`` advances absolute time; blank lines and ``#``
    comments are skipped.  A malformed line raises ``ValueError``
    naming it (``script line N: …``).
    """
    script: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "E" and len(parts) in (2, 3):
            value = (_script_int(parts[2], lineno, raw)
                     if len(parts) == 3 else 0)
            script.append(("E", parts[1], value))
        elif parts[0] == "T" and len(parts) == 2:
            script.append(("T", _script_int(parts[1], lineno, raw)))
        else:
            raise ValueError(
                f"script line {lineno}: expected 'E NAME [VALUE]' or "
                f"'T US', got {raw!r}")
    return script


def _script_int(word: str, lineno: int, raw: str) -> int:
    try:
        return int(word)
    except ValueError:
        raise ValueError(f"script line {lineno}: expected an integer, "
                         f"got {word!r} in {raw!r}") from None


class _Scope:
    """What a sequential context may touch.

    ``exclusive`` contexts (top level, or any code that no sibling runs
    concurrently with) may use every resource; ``par`` branches receive
    disjoint slices of their parent's variables, events, and internal
    events, which is what keeps generated programs deterministic.
    """

    def __init__(self, variables: list[str], events: list[str],
                 consume_void: list[str], consume_int: list[str],
                 emit_void: list[str], emit_int: list[str],
                 exclusive: bool):
        self.variables = variables
        self.events = events              # external events this scope awaits
        self.consume_void = consume_void  # internal events it may await
        self.consume_int = consume_int
        self.emit_void = emit_void        # internal events it may emit
        self.emit_int = emit_int
        self.exclusive = exclusive


class ProgramGen:
    """Seeded generator: ``ProgramGen(seed).case()`` → :class:`GenCase`."""

    def __init__(self, seed: int, config: GenConfig = DIFF,
                 profile: str = "diff"):
        self.seed = seed
        self.config = config
        self.profile = profile
        self.rng = random.Random(seed)
        self.lines: list[str] = []
        self.awaits = 0          # worst-case awaits on any sequential path
        self.printed = 0
        self.fresh = 0           # fresh-name counter (loop counters …)

    # ------------------------------------------------------------ plumbing
    def out(self, text: str, depth: int) -> None:
        self.lines.append("   " * depth + text)

    def fresh_var(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def split(self, items: list, n: int) -> list[list]:
        """Partition ``items`` into ``n`` disjoint (possibly empty) slices."""
        slots: list[list] = [[] for _ in range(n)]
        for item in items:
            slots[self.rng.randrange(n)].append(item)
        return slots

    def choose(self, options: list[str]) -> str:
        weights = [self.config.weight(name) for name in options]
        if not any(w > 0 for w in weights):
            return options[0]
        return self.rng.choices(options, weights=weights)[0]

    # ---------------------------------------------------------- expressions
    def rand_exp(self, scope: _Scope) -> str:
        """A C-safe, bounded-magnitude right-hand side."""
        var = self.rng.choice(scope.variables)
        roll = self.rng.random()
        small = self.rng.randrange(1, 9)
        if roll < 0.35:
            op = self.rng.choice(["+", "-"])
            return f"({var} {op} {small})"
        if roll < 0.55 and len(scope.variables) > 1:
            # var-on-var sums are reduced immediately: unreduced they can
            # double per step, overflowing C's int while Python shrugs
            other = self.rng.choice(scope.variables)
            op = self.rng.choice(["+", "-"])
            return f"(({var} {op} {other}) % 100003)"
        if roll < 0.75:
            mod = self.rng.choice(MULT_MOD)
            return f"(({var} * {small}) % {mod})"
        if roll < 0.85:
            mod = self.rng.choice(MULT_MOD)
            return f"({var} % {mod})"
        return str(self.rng.randrange(0, 100))

    def rand_cond(self, scope: _Scope) -> str:
        var = self.rng.choice(scope.variables)
        roll = self.rng.random()
        if roll < 0.4:
            return f"{var} % 2"
        if roll < 0.7:
            return f"{var} {self.rng.choice(['>', '<', '>='])} " \
                   f"{self.rng.randrange(0, 50)}"
        if len(scope.variables) > 1:
            other = self.rng.choice(scope.variables)
            return f"{var} {self.rng.choice(['==', '!=', '<'])} {other}"
        return f"{var} == {self.rng.randrange(0, 10)}"

    # -------------------------------------------------- zero-time actions
    def action(self, scope: _Scope, depth: int,
               observable: bool = True) -> None:
        """One zero-time statement.  ``observable=False`` restricts to
        assignments (used after timer wakeups inside ``par`` branches,
        where two trails may share a reaction and ordering is the
        backends' own business)."""
        options = ["assign"]
        if observable:
            options.append("printf")
            if scope.emit_void or scope.emit_int:
                options.append("emit_chain")
        kind = self.choose(options)
        if kind == "printf":
            self.printed += 1
            var = self.rng.choice(scope.variables)
            self.out(f'_printf("p{self.printed} %d\\n", {var});', depth)
        elif kind == "emit_chain" and (scope.emit_void or scope.emit_int):
            pool = ([("void", e) for e in scope.emit_void]
                    + [("int", e) for e in scope.emit_int])
            evkind, name = self.rng.choice(pool)
            if evkind == "void":
                self.out(f"emit {name};", depth)
            else:
                self.out(f"emit {name} = {self.rand_exp(scope)};", depth)
        else:
            var = self.rng.choice(scope.variables)
            self.out(f"{var} = {self.rand_exp(scope)};", depth)

    # --------------------------------------------------------- statements
    def stmt(self, scope: _Scope, depth: int, nest: int) -> None:
        options = ["assign", "printf", "await_ext", "await_val",
                   "await_time"]
        if nest < self.config.max_depth:
            options += ["if", "loop", "do_value"]
            if scope.exclusive and len(scope.variables) >= 2:
                options.append("par")
        kind = self.choose(options)
        if kind == "assign":
            var = self.rng.choice(scope.variables)
            self.out(f"{var} = {self.rand_exp(scope)};", depth)
        elif kind == "printf":
            self.printed += 1
            var = self.rng.choice(scope.variables)
            self.out(f'_printf("p{self.printed} %d\\n", {var});', depth)
        elif kind == "await_ext" and scope.events:
            self.awaits += 1
            self.out(f"await {self.rng.choice(scope.events)};", depth)
        elif kind == "await_val" and scope.events:
            self.awaits += 1
            var = self.rng.choice(scope.variables)
            self.out(f"{var} = await {self.rng.choice(scope.events)};",
                     depth)
        elif kind == "await_time":
            self.awaits += 1
            self.out(f"await {self.rng.choice(TIMERS_MS)}ms;", depth)
        elif kind == "if":
            self.out(f"if {self.rand_cond(scope)} then", depth)
            self.block(scope, depth + 1, nest + 1, allow_await=True)
            if self.rng.random() < 0.6:
                self.out("else", depth)
                self.block(scope, depth + 1, nest + 1, allow_await=True)
            self.out("end", depth)
        elif kind == "loop":
            self.gen_loop(scope, depth, nest)
        elif kind == "par":
            self.gen_par(scope, depth, nest)
        elif kind == "do_value":
            var = self.rng.choice(scope.variables)
            self.out(f"{var} = do", depth)
            for _ in range(self.rng.randrange(0, 2)):
                self.action(scope, depth + 1, observable=scope.exclusive)
            self.out(f"return {self.rand_exp(scope)};", depth + 1)
            self.out("end", depth)
        else:  # fallbacks when a pick was unavailable in this scope
            var = self.rng.choice(scope.variables)
            self.out(f"{var} = {self.rand_exp(scope)};", depth)

    def block(self, scope: _Scope, depth: int, nest: int,
              allow_await: bool) -> None:
        lo, hi = self.config.block_stmts
        for _ in range(self.rng.randrange(lo, hi + 1)):
            if allow_await and self.awaits < self.config.await_budget:
                self.stmt(scope, depth, nest)
            else:
                self.action(scope, depth, observable=scope.exclusive)

    # --------------------------------------------------------------- loops
    def gen_loop(self, scope: _Scope, depth: int, nest: int) -> None:
        """``loop do await …; <body>; k = k + 1; if k >= N break end`` —
        the leading await satisfies §2.5, the counter bounds the script."""
        counter = self.fresh_var("k")
        lo, hi = self.config.loop_iters
        iters = self.rng.randrange(lo, hi + 1)
        # the loop body's awaits are paid once per iteration
        before = self.awaits
        self.out(f"int {counter} = 0;", depth)
        self.out("loop do", depth)
        self.awaits += 1  # the leading await
        if scope.events and self.rng.random() < 0.7:
            self.out(f"await {self.rng.choice(scope.events)};", depth + 1)
        else:
            self.out(f"await {self.rng.choice(TIMERS_MS)}ms;", depth + 1)
        self.block(scope, depth + 1, nest + 1,
                   allow_await=self.rng.random() < 0.4)
        self.out(f"{counter} = {counter} + 1;", depth + 1)
        self.out(f"if {counter} >= {iters} then", depth + 1)
        self.out("break;", depth + 2)
        self.out("end", depth + 1)
        self.out("end", depth)
        # charge the extra iterations
        per_iter = self.awaits - before
        self.awaits += per_iter * (iters - 1)

    # ----------------------------------------------------------------- par
    def gen_par(self, scope: _Scope, depth: int, nest: int) -> None:
        """A rejoining parallel whose branches own disjoint resources."""
        n = self.rng.randrange(2, self.config.max_par_branches + 1)
        n = min(n, len(scope.variables))
        mode = self.rng.choice(["par/and", "par/or"])
        var_slices = self.split(list(scope.variables), n)
        # every branch needs at least one variable to act on
        for i, vs in enumerate(var_slices):
            if not vs:
                donor = max(var_slices, key=len)
                vs.append(donor.pop())
        evt_slices = self.split(list(scope.events), n)
        void_slices = self.split(list(scope.consume_void), n)
        int_slices = self.split(list(scope.consume_int), n)
        # an emit chain pairs a consumer branch (last) with a guaranteed
        # emitter branch (first); the emitter needs an external event of
        # its own to ride on
        chain_evt: Optional[tuple[str, str]] = None
        if (self.rng.random() < self.config.weight("emit_chain") / 2.0
                and evt_slices[0]):
            pool = ([("void", e) for e in void_slices[n - 1]]
                    + [("int", e) for e in int_slices[n - 1]])
            if pool:
                chain_evt = self.rng.choice(pool)
        self.out(f"{mode} do", depth)
        for i in range(n):
            if i:
                self.out("with", depth)
            # a branch may emit the internal events its *siblings* consume
            sib_void = [e for j, s in enumerate(void_slices)
                        for e in s if j != i]
            sib_int = [e for j, s in enumerate(int_slices)
                       for e in s if j != i]
            branch = _Scope(var_slices[i], evt_slices[i],
                            void_slices[i], int_slices[i],
                            sib_void, sib_int, exclusive=False)
            if chain_evt is not None and i == n - 1:
                self.gen_consumer(branch, depth + 1, chain_evt)
            else:
                emit_first = chain_evt if i == 0 else None
                self.gen_branch(branch, depth + 1, nest + 1, emit_first)
        self.out("end", depth)

    def gen_branch(self, scope: _Scope, depth: int, nest: int,
                   emit_first: Optional[tuple[str, str]] = None) -> None:
        """A branch is a sequence of *reaction blocks*: an await of a
        branch-unique stimulus followed by zero-time actions.  Observable
        actions (print/emit) follow only event wakeups — timer wakeups
        may share a reaction with a sibling, so they only assign.
        ``emit_first`` names an internal event this branch must emit in
        its first block (the guaranteed feeder of a chain consumer)."""
        looped = emit_first is None and self.rng.random() < 0.25
        counter = None
        iters = 1
        before = self.awaits
        if looped:
            counter = self.fresh_var("k")
            lo, hi = self.config.loop_iters
            iters = self.rng.randrange(lo, hi + 1)
            self.out(f"int {counter} = 0;", depth)
            self.out("loop do", depth)
            depth += 1
        n_blocks = self.rng.randrange(1, 4)
        for b in range(n_blocks):
            force_event = b == 0 and emit_first is not None
            if scope.events and (force_event or self.rng.random() < 0.6):
                self.awaits += 1
                event = self.rng.choice(scope.events)
                if not force_event and self.rng.random() < 0.3:
                    var = self.rng.choice(scope.variables)
                    self.out(f"{var} = await {event};", depth)
                else:
                    self.out(f"await {event};", depth)
                observable = True
            else:
                self.awaits += 1
                self.out(f"await {self.rng.choice(TIMERS_MS)}ms;", depth)
                observable = False
            if force_event:
                kind, name = emit_first
                if kind == "void":
                    self.out(f"emit {name};", depth)
                else:
                    self.out(f"emit {name} = {self.rand_exp(scope)};",
                             depth)
            for _ in range(self.rng.randrange(0, 3)):
                self.action(scope, depth, observable=observable)
            if (nest < self.config.max_depth
                    and len(scope.variables) >= 2
                    and self.rng.random()
                    < self.config.weight("par") / 8.0):
                self.gen_par(scope, depth, nest)
        if looped:
            depth -= 1
            self.out(f"{counter} = {counter} + 1;", depth + 1)
            self.out(f"if {counter} >= {iters} then", depth + 1)
            self.out("break;", depth + 2)
            self.out("end", depth + 1)
            self.out("end", depth)
            per_iter = self.awaits - before
            self.awaits += per_iter * (iters - 1)

    def gen_prio_gadget(self, scope: _Scope, idx: int,
                        depth: int = 0) -> None:
        """A §4.1 join-order probe: two sibling trails wake on the same
        external event and race two continuations of one reaction.  The
        shape is ``idx % 3``, so a program with three gadgets has each:

        0. one trail finishes its ``par/or`` directly, the other through
           a *nested* rejoin whose continuation emits.  Glitch-free join
           priorities run the inner continuation (``g<idx>b``) before the
           outer kill reaches it; a flat-priority backend may kill the
           inner branch first and lose the emit and the ``vb`` update;
        1. the branches of a ``par/and`` each ``break`` out of a loop
           through a ``par``: the first loop sits inside two plain
           ``do … end`` blocks, the second inside an outer loop, so the
           first escape is the deeper one and ``g<idx>a`` precedes
           ``g<idx>b``.  A backend that does not count ``do`` blocks
           runs the second first;
        2. the same race, the first branch leaving a ``va = do … end``
           value block (inside two ``do … end`` blocks) by ``return``
           through a ``par``.

        The gadget events are dedicated, never-awaited internal voids, so
        only the portable signature (``==EMIT`` order) observes them and
        the temporal analysis still accepts the program."""
        event = self.rng.choice(EXT_EVENTS)
        va, vb = self.rng.sample(scope.variables, 2)
        self.awaits += 1
        if idx % 3:
            self.gen_escape_race(event, va, vb, idx, depth)
            return
        self.out("par/or do", depth)
        self.out(f"await {event};", depth + 1)
        self.out(f"{va} = {va} + 1;", depth + 1)
        self.out(f"emit g{idx}a;", depth + 1)
        self.out("with", depth)
        self.out("par/or do", depth + 1)
        self.out(f"await {event};", depth + 2)
        self.out(f"{vb} = {vb} + 1;", depth + 2)
        self.out("with", depth + 1)
        self.out("await forever;", depth + 2)
        self.out("end", depth + 1)
        self.out(f"emit g{idx}b;", depth + 1)
        self.out("end", depth)

    def gen_escape_race(self, event: str, va: str, vb: str, idx: int,
                        depth: int) -> None:
        """Gadget shapes 1 and 2 of :meth:`gen_prio_gadget`."""
        self.out("par/and do", depth)
        self.out("do", depth + 1)
        self.out("do", depth + 2)
        if idx % 3 == 1:
            self.out("loop do", depth + 3)
            self.gen_par_escape(event, [f"{va} = {va} + 1;", "break;"],
                                depth + 4)
        else:
            self.out(f"{va} = do", depth + 3)
            self.gen_par_escape(event, [f"return {va} + 1;"], depth + 4)
        self.out("end", depth + 3)
        self.out("end", depth + 2)
        self.out("end", depth + 1)
        self.out(f"emit g{idx}a;", depth + 1)
        self.out("with", depth)
        self.out("loop do", depth + 1)
        self.out("loop do", depth + 2)
        self.gen_par_escape(event, [f"{vb} = {vb} + 1;", "break;"],
                            depth + 3)
        self.out("end", depth + 2)
        self.out(f"emit g{idx}b;", depth + 2)
        self.out("break;", depth + 2)
        self.out("end", depth + 1)
        self.out("end", depth)

    def gen_par_escape(self, event: str, escape: list[str],
                       depth: int) -> None:
        """``par do await <event>; <escape> with await forever; end``"""
        self.out("par do", depth)
        self.out(f"await {event};", depth + 1)
        for line in escape:
            self.out(line, depth + 1)
        self.out("with", depth)
        self.out("await forever;", depth + 1)
        self.out("end", depth)

    def gen_consumer(self, scope: _Scope, depth: int,
                     chain_evt: tuple[str, str]) -> None:
        """An emit-chain consumer: awaits its own internal event once and
        escapes.  A single receipt is guaranteed — the consumer arms at
        the parallel's boot reaction, before the feeder's first external
        wakeup can possibly emit."""
        kind, event = chain_evt
        counter = self.fresh_var("c")
        self.out(f"int {counter} = 0;", depth)
        self.out("loop do", depth)
        if kind == "int":
            var = self.rng.choice(scope.variables)
            self.out(f"{var} = await {event};", depth + 1)
        else:
            self.out(f"await {event};", depth + 1)
        for _ in range(self.rng.randrange(1, 3)):
            self.action(scope, depth + 1, observable=True)
        self.out(f"{counter} = {counter} + 1;", depth + 1)
        self.out(f"if {counter} >= 1 then", depth + 1)
        self.out("break;", depth + 2)
        self.out("end", depth + 1)
        self.out("end", depth)

    # ------------------------------------------------------------ assembly
    def case(self) -> GenCase:
        cfg = self.config
        self.lines = [f"input int {', '.join(EXT_EVENTS)};"]
        voids = [f"i{i}" for i in range(cfg.n_void_internal)]
        ints = [f"x{i}" for i in range(cfg.n_int_internal)]
        if voids:
            self.lines.append(f"internal void {', '.join(voids)};")
        if ints:
            self.lines.append(f"internal int {', '.join(ints)};")
        gadgets = list(range(cfg.prio_gadgets))
        if gadgets:
            names = ", ".join(f"g{i}{suffix}"
                              for i in gadgets for suffix in "ab")
            self.lines.append(f"internal void {names};")
        variables = [f"v{i}" for i in range(cfg.n_vars)]
        inits = ", ".join(f"{v} = {self.rng.randrange(10)}"
                          for v in variables)
        self.lines.append(f"int {inits};")
        scope = _Scope(variables, list(EXT_EVENTS), voids, ints,
                       voids, ints, exclusive=True)
        lo, hi = cfg.top_stmts
        for _ in range(self.rng.randrange(lo, hi + 1)):
            if gadgets and self.rng.random() < 0.5:
                self.gen_prio_gadget(scope, gadgets.pop(0))
            if self.awaits >= cfg.await_budget:
                break
            self.stmt(scope, 0, 0)
        for idx in gadgets:  # any gadget the dice didn't place yet
            self.gen_prio_gadget(scope, idx)
        checksum = " + ".join(variables)
        self.lines.append(f"return {checksum};")
        src = "\n".join(self.lines)
        script = self.make_script()
        return GenCase(seed=self.seed, src=src, script=script,
                       profile=self.profile)

    def make_script(self) -> list[tuple]:
        """Enough rounds that every generated await is satisfiable: each
        round delivers every external event once and advances time past
        the longest timer."""
        rounds = self.awaits + 4
        script: list[tuple] = []
        for k in range(1, rounds + 1):
            for j, name in enumerate(EXT_EVENTS):
                script.append(("E", name, (k * 7 + j * 13) % 200))
            script.append(("T", k * ROUND_US))
        return script


def generate_case(seed: int, config: GenConfig = DIFF,
                  profile: str = "diff") -> GenCase:
    """One seeded fuzz case (deterministic in ``seed`` and ``config``)."""
    return ProgramGen(seed, config, profile).case()


# ---------------------------------------------------------------------------
# the relay family (used by the hypothesis property tests)
# ---------------------------------------------------------------------------

RELAY_EVENTS = ["A", "B", "C"]
RELAY_PERIODS = ["10ms", "7ms", "1s"]


def relay_program(n_trails: int, period: str,
                  steps: Optional[list[list[str]]] = None) -> str:
    """Deterministic-by-construction relay program: trail 0 is a
    timer-driven emitter of the ``relay`` internal event; the other
    trails each update their *own* variable on external events or on
    ``relay``.  ``relay`` is only ever armed in reactions the emitter
    cannot share (an event reaction, or a causal consequence of the emit
    itself), so the temporal analysis must accept every instance.

    ``steps[t]`` lists the stimuli of trail ``t+1`` (events or
    ``"relay"``); defaults to one external await each.
    """
    decls = [f"input int {', '.join(RELAY_EVENTS)};",
             "internal void relay;"]
    branches = []
    for t in range(n_trails):
        decls.append(f"int v{t} = 0;")
        lines = []
        if t == 0:
            lines.append(f"      await {period};")
            lines.append(f"      v{t} = v{t} + 1;")
            lines.append("      emit relay;")
        else:
            trail_steps = (steps[t - 1] if steps and t - 1 < len(steps)
                           else [RELAY_EVENTS[t % len(RELAY_EVENTS)]])
            for step in trail_steps:
                lines.append(f"      await {step};")
                lines.append(f"      v{t} = v{t} + 1;")
        branches.append("   loop do\n" + "\n".join(lines) + "\n   end")
    src = "\n".join(decls)
    if len(branches) == 1:
        src += "\n" + branches[0].replace("   loop", "loop")
    else:
        src += "\npar do\n" + "\nwith\n".join(branches) + "\nend"
    return src
