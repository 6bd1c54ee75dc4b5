"""The four workloads, each driven only through public calls.

Every workload is closed-loop with a single client: the next op is sent
only after the previous call returns.  A workload makes all of its
inputs from the seed in ``__init__``; ``round()`` then builds the system
(set-up), performs the ops, and checks the outputs.  Rounds of one run
repeat the same inputs, so their counters repeat exactly.
"""

from __future__ import annotations

import gc
import http.client
import importlib.util
import random
import re
import tracemalloc
from pathlib import Path
from typing import Optional

from harness import Round, perf

from repro.analysis import IncrementalAnalyzer, compute_bounds, \
    run_analysis
from repro.codegen import UnsupportedForC, compile_to_c
from repro.dfa import build_dfa
from repro.flow import build_flow
from repro.lang.ast import renumber
from repro.lang.errors import BindError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.tokens import TokKind
from repro.obs.prom import render_prom
from repro.obs.serve import AdminServer
from repro.runtime import Farm, Program
from repro.sema import bind
from repro.sema.bounded import check_bounded

#: how the traced pass attributes profile self time, by module path under
#: ``repro/`` (first match wins, so ``lang/lexer.py`` beats ``lang/``)
LAYERS: dict[str, tuple[str, ...]] = {
    "lang.lex_s": ("lang/lexer.py", "lang/tokens.py"),
    "lang.parse_s": ("lang/",),
    "sema.bind_s": ("sema/binder.py", "sema/symbols.py"),
    "sema.bounded_s": ("sema/bounded.py",),
    "flow.build_s": ("flow/",),
    "dfa.build_s": ("dfa/",),
    "analysis.passes_s": ("analysis/",),
    "codegen.emit_s": ("codegen/",),
    "runtime.scheduler.self_s": ("runtime/scheduler.py",
                                 "runtime/trails.py"),
    "runtime.interp.self_s": ("runtime/interp.py",),
    "runtime.eval.self_s": ("runtime/eval.py", "runtime/values.py",
                            "runtime/memory.py"),
    "runtime.other.self_s": ("runtime/",),
    "sim.des.self_s": ("sim/",),
    "obs.hooks.self_s": ("obs/hooks.py",),
    "obs.metrics.self_s": ("obs/metrics.py", "obs/fleet.py"),
    "obs.other.self_s": ("obs/",),
}
#: helpers every stage calls: their time goes to the calling layer
SHARED = ("lang/ast.py", "lang/rebase.py")


def bookkeeping_entries(sched) -> int:
    """Scheduler bookkeeping: waiting lists, ``forever`` and the timer
    heap, counting dead entries that have not been swept yet."""
    return (sum(len(v) for v in sched.ext_waiting.values())
            + sum(len(v) for v in sched.int_waiting.values())
            + len(sched.forever) + len(sched.timers))


def runtime_counters(scheds, predicted: Optional[int] = None) -> dict:
    """Exact VM counters; with ``predicted`` (the static bound on
    bookkeeping entries) also the bookkeeping figures."""
    reactions = sum(s.reaction_count for s in scheds)
    steps = sum(s.steps_executed for s in scheds)
    out = {"runtime.reactions": reactions, "runtime.steps": steps,
           "runtime.steps_per_reaction": steps / max(1, reactions)}
    if predicted is not None:
        entries = sum(bookkeeping_entries(s) for s in scheds)
        awaiting = sum(s.awaiting_count() for s in scheds)
        out.update({
            "runtime.bookkeeping_entries": entries,
            "runtime.awaiting": awaiting,
            "runtime.bookkeeping_ratio": entries / max(1, awaiting),
            "runtime.bookkeeping_bound": predicted,
            "runtime.bookkeeping_bound_ratio": entries / predicted,
        })
    return out


def predicted_trails(source: str) -> int:
    """``compute_bounds``' bound on live trails.  Each trail holds at
    most one waiting-list or timer entry, so this bounds the bookkeeping
    too: the paper's static-memory promise (§4.3)."""
    bound = bind(parse(source))
    return compute_bounds(bound, build_dfa(bound)).max_trails


# ------------------------------------------------------------------ lint
#: where the editor session's files come from, with the prefix of the
#: name each is analysed under (the goldens were minted as ``corpus/…``)
LINT_DIRS = (("examples/ceu", "examples/ceu/"),
             ("tests/corpus", "corpus/"),
             ("src/repro/apps/ceu", "apps/ceu/"))

#: verdicts of the C emitter that are the right answer, not failures
EXPECTED_EMIT = {"mario_game.ceu": BindError, "ship.ceu": UnsupportedForC}

EDITS_PER_FILE = 10
#: the share of a file's edits that measure an aged analyzer: its last
#: tenth would be one edit, too few to hold still across seeds
LINT_TAIL = 0.5


def _edit(text: str, rng: random.Random, k: int) -> str:
    """Edit ``k`` of a file, in one region: edits 2 and 6 bump a decimal
    integer literal, the others (and those two in a file without one)
    insert a comment line before a random line.  The mix is fixed so
    that the seed moves only positions: the median op stays inside the
    comment inserts and a session ends on one."""
    if k % 4 == 2:
        nums = [t for t in tokenize(text) if t.kind is TokKind.NUM
                and t.text.isdigit()]
        if nums:
            tok = rng.choice(nums)
            a, b = tok.span.start.offset, tok.span.end.offset
            return f"{text[:a]}{int(tok.text) + 1}{text[b:]}"
    lines = text.split("\n")
    lines.insert(rng.randrange(len(lines)), f"// edit {k}")
    return "\n".join(lines)


def _emit(text: str, filename: str):
    """What ``repro dot --flow`` and ``repro c`` do: parse, bind, build
    the flow graph, §2.5 check, emit.  Returns the C code, or the type
    of an expected refusal.  Node ids are renumbered first, as
    ``run_analysis`` does: the emitter names counters after them, and
    unrenumbered ids depend on how many nodes the process has parsed
    before, which would make the C text differ run to run."""
    try:
        program = parse(text, filename)
        renumber(program)
        bound = bind(program)
        build_flow(bound)
        check_bounded(bound)
        return compile_to_c(bound).code
    except (BindError, UnsupportedForC) as err:
        return type(err)


class Lint:
    """An editor session over every ``.ceu`` file in the repo."""

    def __init__(self, root: Path, seed: int):
        rng = random.Random(seed)
        self.files = []
        for rel, prefix in LINT_DIRS:
            for path in sorted((root / rel).glob("*.ceu")):
                golden = root / "tests/goldens" / f"corpus_{path.stem}.json"
                self.files.append({
                    "name": path.name, "filename": prefix + path.name,
                    "text": path.read_text(),
                    "golden": golden.read_text()
                    if prefix == "corpus/" and golden.exists() else None,
                })
        rng.shuffle(self.files)
        for f in self.files:
            texts, text = [], f["text"]
            for k in range(EDITS_PER_FILE):
                text = _edit(text, rng, k)
                texts.append(text)
            f["edits"] = texts
        self.cold: dict[tuple[str, str], str] = {}

    def _cold(self, filename: str, text: str) -> str:
        """The cold report an incremental one must equal (computed once
        per text, outside any timed call)."""
        key = (filename, text)
        if key not in self.cold:
            self.cold[key] = run_analysis(text, filename).to_json()
        return self.cold[key]

    def _open(self):
        """Open every file in the editor: one primed analyzer each."""
        sessions = []
        for f in self.files:
            analyzer = IncrementalAnalyzer(f["filename"])
            analyzer.analyze(f["text"])
            sessions.append(analyzer)
            yield
        return sessions

    def round(self, rnd: Round) -> None:
        sessions = rnd.setup(self._open)
        rnd.spawned = len(self.files)
        counts = dict.fromkeys(("lang.tokens", "dfa.states",
                                "dfa.transitions", "codegen.c_bytes"), 0)
        for f, analyzer in zip(self.files, sessions):
            name, filename, text = f["name"], f["filename"], f["text"]
            requests = rnd.session()
            report = rnd.op(requests, run_analysis, text, filename)
            got = rnd.scrape(report.to_json)
            rnd.failed += got != (f["golden"] or self._cold(filename, text))
            counts["dfa.states"] += report.dfa_states or 0
            counts["dfa.transitions"] += report.dfa_transitions or 0

            edits = rnd.session(tail=LINT_TAIL)
            for edited in f["edits"]:
                report = rnd.op(edits, analyzer.analyze, edited)
                got = rnd.scrape(report.to_json)
                rnd.failed += got != self._cold(filename, edited)

            code = rnd.op(requests, _emit, text, filename)
            if isinstance(code, str):
                counts["codegen.c_bytes"] += len(code)
                code = None
            rnd.failed += code is not EXPECTED_EMIT.get(name)
            if rnd.tracer is not None:
                rnd.tracer.add("analysis.incremental_s",
                               sum(e[1] for e in edits))
                counts["lang.tokens"] += sum(
                    len(tokenize(t)) for t in [text] * 2 + f["edits"])

        stats: dict[str, int] = {}
        for analyzer in sessions:
            for key, value in analyzer.stats.items():
                stats[key] = stats.get(key, 0) + value
        regions = (stats["regions_reused"] + stats["regions_recovered"]
                   + stats["regions_reparsed"])
        dfa = stats["dfa_replays"] + stats["dfa_rebuilds"]
        rnd.counters = dict(counts, **{
            "analysis.region_reuse_ratio":
                stats["regions_reused"] / max(1, regions),
            "analysis.dfa_replay_ratio": stats["dfa_replays"] / max(1, dfa),
            "analysis.full_fallbacks": stats["full_fallbacks"],
            "analysis.analyses": stats["analyses"],
        })


# ---------------------------------------------------------------- fanout
FANOUT_TRAILS = 32
FANOUT_SENDS = 1500
#: VM workloads read the program's variables after every this many ops
SCRAPE_EVERY = 25


def fanout_source(n: int = FANOUT_TRAILS) -> str:
    """``make_fanout`` widened: every trail wakes on ``A`` and runs a
    short arithmetic recurrence with two tests."""
    decls = "\n".join(f"int x{i} = 0;\nint y{i} = {i};\nint s{i} = 0;"
                      for i in range(n))
    body = """\
   loop do
      int v = await A;
      x{i} = (x{i} + v + {i}) % 997;
      y{i} = (y{i} * 3 + x{i}) % 1009;
      if y{i} > 504 then
         y{i} = y{i} - 7;
      else
         y{i} = y{i} + 11;
      end
      s{i} = (s{i} + x{i} * y{i}) % 65521;
      if s{i} % 2 == 0 then
         x{i} = x{i} + 1;
      end
   end"""
    branches = "\nwith\n".join(body.format(i=i) for i in range(n))
    return f"input int A;\n{decls}\npar do\n{branches}\nend\n"


def fanout_expected(values, n: int = FANOUT_TRAILS) -> dict:
    """The same recurrence in plain Python."""
    out = {}
    for i in range(n):
        x, y, s = 0, i, 0
        for v in values:
            x = (x + v + i) % 997
            y = (y * 3 + x) % 1009
            y = y - 7 if y > 504 else y + 11
            s = (s + x * y) % 65521
            if s % 2 == 0:
                x += 1
        out.update({f"x{i}": x, f"y{i}": y, f"s{i}": s})
    return out


def _boot(source: str):
    """``Program(source).start()`` in its public steps, yielding between
    them so that a long build is calibrated step by step."""
    program = parse(source)
    yield
    bound = bind(program)
    yield
    check_bounded(bound)
    yield
    program = Program(bound, check=False)
    yield
    program.start()
    return program


def _drive(program: Program, ops, rnd: Round) -> dict:
    """Send every op, timing each ``Program.send``; every
    ``SCRAPE_EVERY`` ops, and at the end, read the program's variables
    (its observable state) as the scrape.  Returns the final read."""
    lat = rnd.session(tail=0.1)
    for k, (event, value) in enumerate(ops, 1):
        rnd.op(lat, program.send, event, value)
        if k % SCRAPE_EVERY == 0 and k < len(ops):
            rnd.scrape(program.sched.memory.snapshot)
    return rnd.scrape(program.sched.memory.snapshot)


class Fanout:
    """One program, 32 parallel trails woken by every ``A``."""

    def __init__(self, root: Path, seed: int):
        rng = random.Random(seed)
        self.values = [rng.randrange(1000) for _ in range(FANOUT_SENDS)]
        self.source = fanout_source()
        self.expected = fanout_expected(self.values)

    def round(self, rnd: Round) -> None:
        program = rnd.setup(_boot, self.source)
        rnd.spawned = FANOUT_TRAILS
        memory = _drive(program, [("A", v) for v in self.values], rnd)
        rnd.failed += any(memory[k] != v for k, v in self.expected.items())
        rnd.counters = runtime_counters([program.sched])


# ----------------------------------------------------------------- churn
CHURN_IDLE = 2048
CHURN_OPS = 2400
#: per 240 ops: 3 ``Z`` (each wakes every idle trail), 60 ``B``, 177
#: ``A``; at 1.25% the ``Z`` reactions are exactly what ``op_p99_us``
#: measures, rather than a boundary between two kinds of op
CHURN_MIX = (("Z", 3), ("B", 60), ("A", 177))


def churn_source(idle: int = CHURN_IDLE) -> str:
    """ROADMAP's leak program beside ``idle`` trails awaiting ``Z``."""
    decls = "\n".join(f"int z{i} = 0;" for i in range(idle))
    idles = "\nwith\n".join(
        f"   loop do\n      await Z;\n      z{i} = z{i} + 1;\n   end"
        for i in range(idle))
    leak = """\
   loop do
      par/or do
         await forever;
      with
         await B;
      with
         await A;
      end
      it = it + 1;
   end"""
    return (f"input void A;\ninput void B;\ninput void Z;\nint it = 0;\n"
            f"{decls}\npar do\n{leak}\nwith\n{idles}\nend\n")


class Churn:
    """The §4.3 leak program, aged by thousands of reactions."""

    def __init__(self, root: Path, seed: int):
        rng = random.Random(seed)
        block = [e for e, k in CHURN_MIX for _ in range(k)]
        self.ops = []
        for _ in range(CHURN_OPS // len(block)):
            rng.shuffle(block)
            self.ops.extend((e, None) for e in block)
        self.source = churn_source()
        self.zs = sum(e == "Z" for e, _ in self.ops)
        self.bound: Optional[int] = None

    def round(self, rnd: Round) -> None:
        program = rnd.setup(_boot, self.source)
        rnd.spawned = CHURN_IDLE + 3
        memory = _drive(program, self.ops, rnd)
        rnd.failed += memory["it"] != len(self.ops) - self.zs
        rnd.failed += any(memory[f"z{i}"] != self.zs
                          for i in range(CHURN_IDLE))
        if rnd.tracer is not None and self.bound is None:
            self.bound = predicted_trails(self.source)
        rnd.counters = runtime_counters([program.sched], self.bound)


# ------------------------------------------------------------------ farm
FARM_BLINK = 150
FARM_SENSE = 150
SLICE_US = 250_000
FARM_SLICES = 40
SPAWN_BATCH = 50
MS = 1000

_C_CALLS = re.compile(
    r'^repro_farm_c_calls_total\{symbol="([^"]+)"\} (\d+)$', re.M)
_DROPPED = re.compile(
    r"^repro_farm_events_dropped_total\{[^}]*\} (\d+)$", re.M)


def _scrape(server: AdminServer) -> tuple[int, str]:
    """One ``GET /metrics`` on a fresh connection, as a scraper makes it.
    (On a kept-alive connection the server's separate header and body
    writes meet Nagle's algorithm and a delayed ACK, which stalls about
    every other scrape by 40 ms.)"""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def _check_prom(root: Path):
    """The repo's structural exposition validator (``tests/check_prom``)."""
    spec = importlib.util.spec_from_file_location(
        "check_prom", root / "tests" / "check_prom.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_prom


class FarmLoad:
    """Hundreds of blink and sense instances on one DES calendar, served
    by an ``AdminServer`` that is scraped after every 250 ms slice."""

    def __init__(self, root: Path, seed: int):
        rng = random.Random(seed)
        apps = root / "src/repro/apps/ceu"
        self.blink = (apps / "blink.ceu").read_text()
        self.sense = (apps / "sense.ceu").read_text()
        self.check_prom = _check_prom(root)
        # each sense instance answers its reads after its own delay, with
        # its own reading; its reads then recur every 100 ms + delay
        self.delays = [rng.randrange(1 * MS, 60 * MS) + 7
                       for _ in range(FARM_SENSE)]
        self.readings = [rng.randrange(1024) for _ in range(FARM_SENSE)]
        self.until = SLICE_US * FARM_SLICES
        self.expected = self._expected_calls()
        self.bound: Optional[int] = None

    def _reads(self, d: int):
        """Times of one sense instance's reads: 100 ms after boot, then
        100 ms after each ``ReadDone`` (delivered ``d`` after its read)."""
        t = 100 * MS
        while t <= self.until:
            yield t
            t += d + 100 * MS

    def _expected_calls(self) -> dict:
        n, t = FARM_BLINK, self.until
        reads = [r for d in self.delays for r in self._reads(d)]
        done = [r for d in self.delays for r in self._reads(d)
                if r + d <= t]
        # the exposition labels C symbols without their leading ``_``
        return {"Leds_led0Toggle": n * (t // (250 * MS)),
                "Leds_led1Toggle": n * (t // (500 * MS)),
                "Leds_led2Toggle": n * (t // (1000 * MS)),
                "Sensor_read": len(reads), "Leds_set": len(done)}

    def _build(self, tracer):
        """Programs, instances (spawned in batches, yielding between
        them) and the admin server; returns ``(farm, sense instance
        indices, scrape spans, server)``."""
        farm = Farm(observe=True)
        farm.add_program("blink", self.blink)
        farm.add_program("sense", self.sense)
        sense = []
        for program, n in (("blink", FARM_BLINK), ("sense", FARM_SENSE)):
            for _ in range(n // SPAWN_BATCH):
                yield
                if tracer is None:
                    born = farm.spawn(SPAWN_BATCH, program=program)
                else:
                    born = tracer.span("runtime.farm.spawn_s", farm.spawn,
                                       SPAWN_BATCH, program=program)
                if program == "sense":
                    sense += [inst.index for inst in born]
        yield
        spans = {"snapshot": 0.0, "render": 0.0}

        def snapshot():
            t0 = perf()
            snap = farm.fleet_snapshot()
            spans["snapshot"] += perf() - t0
            return snap

        def metrics():
            snap = snapshot()
            t0 = perf()
            text = render_prom(snap, prefix="repro_")
            spans["render"] += perf() - t0
            return text

        server = AdminServer(snapshot, metrics_fn=metrics).start()
        return farm, sense, spans, server

    def round(self, rnd: Round) -> None:
        farm, sense, spans, server = rnd.setup(self._build, rnd.tracer)
        rnd.spawned = FARM_BLINK + FARM_SENSE
        # The fleet is long-lived, so like a server after start-up it
        # moves to the permanent generation.  Left in the young ones, a
        # ~10 ms full collection of it lands in about one scrape in ten,
        # which is exactly where ``scrape_p90_ms`` reads (README).  Its
        # cost is measured instead as ``runtime.farm.gc_full_s``.
        gc.collect()
        if rnd.tracer is not None:
            rnd.tracer.span("runtime.farm.gc_full_s", gc.collect)
        gc.freeze()
        try:
            text = self._drive(farm, sense, server, spans, rnd)
        finally:
            gc.unfreeze()
            server.close()
        calls = {sym: int(n) for sym, n in _C_CALLS.findall(text)}
        rnd.failed += calls != self.expected
        rnd.failed += any(int(n) for n in _DROPPED.findall(text))

    def _drive(self, farm: Farm, sense: list[int], server: AdminServer,
               spans: dict, rnd: Round) -> str:
        """Drive 250 ms slices, scraping ``/metrics`` after each; returns
        the last exposition.  One entry of the op session is one slice,
        weighted by the reactions it ran."""
        scheds = [inst.program.sched for inst in farm.instances]
        reads = [self._reads(d) for d in self.delays]
        due = [next(r) + d for r, d in zip(reads, self.delays)]

        def drive(end: int) -> None:
            for j, index in enumerate(sense):
                while due[j] is not None and due[j] <= end:
                    farm.send(index, "ReadDone", self.readings[j],
                              at=due[j])
                    read = next(reads[j], None)
                    due[j] = None if read is None else read + self.delays[j]
            farm.run_until(end)

        lat = rnd.session(tail=0.1)
        reactions = sum(s.reaction_count for s in scheds)
        scrape_bytes = 0
        for k in range(1, FARM_SLICES + 1):
            rnd.op(lat, drive, k * SLICE_US)
            now = sum(s.reaction_count for s in scheds)
            lat[-1][2], reactions = now - reactions, now
            served = spans["snapshot"] + spans["render"]
            status, text = rnd.scrape(_scrape, server)
            served = spans["snapshot"] + spans["render"] - served
            rnd.failed += status != 200 or bool(self.check_prom(text))
            scrape_bytes += len(text)
            if rnd.tracer is not None:
                rnd.tracer.add("obs.serve.request_s",
                               rnd.scrapes[-1][1] - served)
        if rnd.tracer is not None:
            rnd.tracer.add("runtime.farm.drive_s", sum(e[1] for e in lat))
            rnd.tracer.add("obs.fleet.snapshot_s", spans["snapshot"])
            rnd.tracer.add("obs.prom.render_s", spans["render"])
            if self.bound is None:
                self.bound = (FARM_BLINK * predicted_trails(self.blink)
                              + FARM_SENSE * predicted_trails(self.sense))
        rnd.counters = dict(
            runtime_counters(scheds, self.bound),
            **{"sim.des.events_fired": farm.sim.events_fired,
               "obs.prom.bytes": scrape_bytes / FARM_SLICES,
               "obs.prom.series": sum(
                   1 for line in text.splitlines()
                   if line and not line.startswith("#"))})
        return text

    def bytes_per_instance(self) -> float:
        """Heap bytes one instance holds, from ``tracemalloc`` over a
        small farm of the same half-blink, half-sense mix."""
        farm = Farm(observe=True)
        farm.add_program("blink", self.blink)
        farm.add_program("sense", self.sense)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            farm.spawn(25, program="blink")
            farm.spawn(25, program="sense")
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (after - before) / 50


WORKLOADS = {"lint": Lint, "fanout": Fanout, "churn": Churn,
             "farm": FarmLoad}
