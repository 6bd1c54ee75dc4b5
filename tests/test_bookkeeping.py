"""The VM's bookkeeping costs O(work) and stays within the static bounds
(§4.3): killed trails leave their gates, killed timer entries are
compacted, ``awaiting_count()`` is a live counter, and a region kill
walks its join tree in spawn order.  The static-bounds fuzz oracle
audits all of it after every reaction; injected faults pin the audit."""

import random

import pytest

from repro.bench import LEAK_PROGRAM
from repro.fuzz import GenCase, check_case
from repro.obs import JsonlExporter
from repro.runtime import Program
from repro.runtime.scheduler import AWAITING, Scheduler

WATCHDOG = """\
input void A;
loop do
   par/or do
      await 1h;
   with
      await A;
   end
end
"""


def _awaiting_recount(sched) -> int:
    return sum(1 for t in sched._live if t.waiting in AWAITING)


# ---------------------------------------------------------------------------
# leaks
# ---------------------------------------------------------------------------

def test_killed_trails_leave_their_gates():
    program = Program(LEAK_PROGRAM)
    program.start()
    for _ in range(10_000):
        program.send("A")
    sched = program.sched
    assert len(sched.forever) == 1
    assert len(sched.ext_waiting["B"]) == 1
    assert len(sched.ext_waiting["A"]) == 1
    assert sched.awaiting_count() == 3 == _awaiting_recount(sched)


def test_killed_timer_entries_are_compacted():
    program = Program(WATCHDOG)
    program.start()
    for _ in range(5_000):
        program.send("A")
    sched = program.sched
    assert len(sched.timers) <= 3
    assert sched.awaiting_count() == 2 == _awaiting_recount(sched)


def test_compaction_keeps_the_timer_pop_order():
    """Killed entries go, armed ones fire in deadline order as before."""
    program = Program("""
    input void A;
    int n = 0;
    par do
       loop do
          par/or do
             await 1h;
          with
             await A;
          end
       end
    with
       await 10ms;
       n = n + 1;
       await 20ms;
       n = n + 10;
    end
    """)
    program.start()
    for _ in range(50):
        program.send("A")
    program.at("10ms")
    assert program.sched.memory.snapshot()["n"] == 1
    program.at("30ms")
    assert program.sched.memory.snapshot()["n"] == 11
    assert len(program.sched.timers) <= 3


# ---------------------------------------------------------------------------
# region kills: a walk of the join tree, in spawn order
# ---------------------------------------------------------------------------

KILL_ORDER = """\
input void A;
input void B;
loop do
   par/or do
      await A;
   with
      par do
         await B;
      with
         await forever;
      end
   with
""" + "\nwith\n".join("      await B;" for _ in range(9)) + """
   with
      par/and do
         await B;
      with
         await 1s;
      end
   end
end
"""


def _lines(exporter: JsonlExporter) -> list[str]:
    """The exporter's lines with the wall-clock field zeroed (the only
    field that legitimately differs between runs)."""
    from repro.obs.export import jsonl_line

    return [jsonl_line({**r, "wall_ns": 0} if "wall_ns" in r else r)
            for r in exporter.records]


def _run_kill_order() -> JsonlExporter:
    program = Program(KILL_ORDER)
    exporter = program.observe(JsonlExporter())
    program.start()
    for _ in range(3):
        program.send("A")
    return exporter


def test_region_kill_order_is_deterministic_and_in_spawn_order():
    rng = random.Random(7)
    keep = []
    runs = []
    for _ in range(20):
        # churn the allocator so trails land at different addresses
        keep.append([object() for _ in range(rng.randrange(1, 2000))])
        if len(keep) > 5:
            keep.pop(rng.randrange(len(keep)))
        runs.append(_lines(_run_kill_order()))
    assert all(lines == runs[0] for lines in runs)

    records = _run_kill_order().records
    spawned = {(r["trail"], tuple(r["path"])): i
               for i, r in enumerate(records) if r["ev"] == "trail_spawn"}
    kills = 0
    for i, r in enumerate(records):
        if r["ev"] != "region_kill":
            continue
        # the 11 losing branches of the 12-branch par/or, plus the two
        # branches of each nested par the walk descends into
        assert r["n_trails"] == 15
        victims = records[i + 1:i + 1 + r["n_trails"]]
        assert all(v["ev"] == "trail_kill" for v in victims)
        order = [spawned[(v["trail"], tuple(v["path"]))] for v in victims]
        assert order == sorted(order)
        kills += 1
    assert kills == 3


def test_region_kill_aborts_and_drops_its_async():
    program = Program("""
    input void A;
    int n = 0;
    loop do
       par/or do
          await A;
       with
          n = async do
             loop do
             end
          end;
       end
       n = n + 1;
    end
    """)
    sched = program.sched
    sched.go_init()
    for k in range(1, 4):
        first = sched.async_jobs[0]
        for _ in range(3):
            sched.go_async()           # the async never finishes
        sched.go_event("A")
        assert first.aborted
        assert len(sched.async_jobs) == 1
        assert not sched.async_jobs[0].aborted
        assert sched.memory.snapshot()["n"] == k


# ---------------------------------------------------------------------------
# the static-bounds oracle audits the bookkeeping after every reaction
# ---------------------------------------------------------------------------

LEAK_SCRIPT = [("E", "A", None)] * 3 + [("E", "B", None)] * 2
WATCHDOG_SCRIPT = [("E", "A", None)] * 6


@pytest.mark.parametrize("src,script", [(LEAK_PROGRAM, LEAK_SCRIPT),
                                        (WATCHDOG, WATCHDOG_SCRIPT),
                                        (KILL_ORDER, WATCHDOG_SCRIPT)])
def test_audit_passes_on_the_real_vm(src, script):
    case = GenCase(seed=0, src=src, script=list(script))
    _verdict, fails = check_case(case, use_c=False)
    assert not fails, [f.summary() for f in fails]


@pytest.fixture
def kill_skips_counter(monkeypatch):
    """Fault: a region kill forgets to decrement the awaiting counter."""
    original = Scheduler.kill_region

    def mutated(self, join):
        before = self._awaiting
        original(self, join)
        self._awaiting = before

    monkeypatch.setattr(Scheduler, "kill_region", mutated)


@pytest.fixture
def kill_leaves_gates(monkeypatch):
    """Fault: killed trails stay in their waiting gates (the old leak)."""
    original = Scheduler.kill_region

    def mutated(self, join):
        gated = [(t, t.gate) for t in self._live
                 if t.waiting in ("ext", "int", "forever")]
        original(self, join)
        for trail, gate in gated:
            if not trail.alive:
                gate[trail] = None

    monkeypatch.setattr(Scheduler, "kill_region", mutated)


@pytest.fixture
def kill_skips_dead_timer(monkeypatch):
    """Fault: a kill skips the ``_dead_timers`` increment for the timer
    entry it leaves in the heap (compaction then runs on that count)."""
    original = Scheduler.kill_region

    def mutated(self, join):
        before = self._dead_timers
        self._compact_timers = lambda: None
        try:
            original(self, join)
        finally:
            del self._compact_timers
        self._dead_timers = before
        self._compact_timers()

    monkeypatch.setattr(Scheduler, "kill_region", mutated)


@pytest.fixture
def no_timer_compaction(monkeypatch):
    """Fault: killed timer entries are never compacted."""
    monkeypatch.setattr(Scheduler, "_compact_timers", lambda self: None)


def _bookkeeping_failure(src, script):
    case = GenCase(seed=0, src=src, script=list(script))
    _verdict, fails = check_case(case, use_c=False)
    hits = [f for f in fails if f.oracle == "static-bounds"]
    assert hits, [f.summary() for f in fails]
    return hits[0].details["bookkeeping"]


def test_audit_catches_a_kill_that_skips_the_counter(kill_skips_counter):
    found = _bookkeeping_failure(LEAK_PROGRAM, LEAK_SCRIPT)
    assert found["awaiting"] == {"counter": 5, "recount": 3}
    assert found["reaction"] == 1   # the first `A`, right after boot


def test_audit_catches_dead_trails_in_gates(kill_leaves_gates):
    found = _bookkeeping_failure(LEAK_PROGRAM, LEAK_SCRIPT)
    assert found["dead_in_gates"] == 2


def test_audit_catches_an_uncompacted_timer_heap(no_timer_compaction):
    found = _bookkeeping_failure(WATCHDOG, WATCHDOG_SCRIPT)
    assert found["timer_heap"]["observed"] > found["timer_heap"]["bound"]



def test_audit_catches_a_kill_that_skips_the_dead_timer_count(
        kill_skips_dead_timer):
    found = _bookkeeping_failure(WATCHDOG, WATCHDOG_SCRIPT)
    assert found["armed_timers"] == {"counter": 2, "recount": 1}
    assert found["reaction"] == 1   # the first `A` kills the 1s timer


def test_armed_timers_counter_matches_the_heap_scan():
    """``armed_timers()`` is the heap less its uncompacted killed
    entries: equal to a scan after every reaction, while killed entries
    wait for compaction beside two long-armed timers."""
    program = Program(WATCHDOG.replace("loop do", "par do\nloop do", 1)
                      + "with\n   await 10min;\nwith\n   await 20min;\n"
                        "end\n")
    sched = program.sched
    program.start()
    seen = []
    for _ in range(6):
        program.send("A")
        scan = sum(1 for entry in sched.timers
                   if entry[-1].alive and entry[-1].waiting == "time")
        seen.append((sched.armed_timers(), scan, len(sched.timers)))
    assert all(counter == scan for counter, scan, _ in seen)
    assert any(heap > scan for _, scan, heap in seen)  # dead entries
