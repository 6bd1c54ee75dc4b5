"""The CLI (`python -m repro`) and the multi-hop collection protocol."""

import itertools
from pathlib import Path

import pytest

from repro.apps import load
from repro.cli import main
from repro.eval import loc
from repro.platforms import TinyOsWorld

GOOD = """
input int X;
int v = await X;
_printf("got %d\\n", v);
return v;
"""

BAD = "int v;\npar/and do\nv = 1;\nwith\nv = 2;\nend"


@pytest.fixture()
def ceu_file(tmp_path):
    def write(source: str, name: str = "prog.ceu") -> str:
        path = tmp_path / name
        path.write_text(source)
        return str(path)
    return write


class TestCli:
    def test_check_ok(self, ceu_file, capsys):
        assert main(["check", ceu_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "deterministic" in out and "dfa" in out

    def test_check_builds_the_dfa_once(self, monkeypatch, capsys):
        """The counts `check` prints come from the analysis it ran."""
        from repro.dfa.builder import DfaBuilder

        calls = []
        build = DfaBuilder.build
        monkeypatch.setattr(DfaBuilder, "build",
                            lambda self: calls.append(self) or build(self))
        corpus = Path(__file__).parent / "corpus"
        assert main(["check", str(corpus / "deep_014.ceu")]) == 0
        assert "deterministic" in capsys.readouterr().out
        assert len(calls) == 1

    def test_check_refuses(self, ceu_file, capsys):
        assert main(["check", ceu_file(BAD)]) == 1
        assert "nondeterminism" in capsys.readouterr().err

    def test_run_with_inputs(self, ceu_file, capsys):
        assert main(["run", ceu_file(GOOD), "X=7"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "got 7\n"
        assert "result = 7" in captured.err

    def test_run_with_time_marker(self, ceu_file, capsys):
        src = "int n = 0;\npar/or do\nloop do\nawait 10ms;\nn = n + 1;" \
              "\nend\nwith\nawait 95ms;\nend\nreturn n;"
        assert main(["run", ceu_file(src), "@1s"]) == 0
        assert "result = 9" in capsys.readouterr().err

    def test_emit_c(self, ceu_file, capsys):
        assert main(["c", ceu_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "ceu_go_event" in out and "switch (track)" in out

    def test_emit_c_to_file(self, ceu_file, tmp_path):
        out_path = tmp_path / "out.c"
        assert main(["c", ceu_file(GOOD), "-o", str(out_path)]) == 0
        assert "ceu_go_init" in out_path.read_text()

    def test_dot_dfa(self, ceu_file, capsys):
        assert main(["dot", ceu_file(GOOD)]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_dot_flow(self, ceu_file, capsys):
        assert main(["dot", "--flow", ceu_file(GOOD)]) == 0
        assert "await X" in capsys.readouterr().out

    def test_dot_nondeterministic_warns(self, ceu_file, capsys):
        assert main(["dot", ceu_file(BAD)]) == 1
        assert "witness" in capsys.readouterr().err

    def test_dot_refuses_a_tight_loop_before_the_dfa(self, ceu_file, capsys):
        """The §2.5 check runs first, as for `repro c`: the abstract
        machine never forks its way around the loop."""
        src = "int x = 0;\nloop do\nif x then\nx = 1;\nend\nend\n"
        assert main(["dot", ceu_file(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        line, = captured.err.splitlines()
        assert "tight loop: loop body has a path with neither" in line

    def test_layout(self, ceu_file, capsys):
        assert main(["layout", ceu_file(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "memory vector" in out and "gates" in out

    def test_parse_error_reported(self, ceu_file, capsys):
        assert main(["check", ceu_file("loop do")]) == 1
        assert "error" in capsys.readouterr().err


class TestMalformedScripts:
    """Every command that reads an event script refuses a malformed one
    with a one-line ``script line N`` diagnostic and exit 1."""

    PROG = "input int A;\nloop do\n   await A;\nend\n"

    @pytest.mark.parametrize("text,expected", [
        ("E A x\n", "script line 1: expected an integer"),
        ("E A 1\nT 1e3\n", "script line 2: expected an integer"),
        ("E A 1²\n", "script line 1: expected an integer"),
        ("E A 1\nQ z\n", "script line 2: expected 'E NAME [VALUE]'")])
    @pytest.mark.parametrize("argv", [
        ["run", "{prog}", "--inputs", "{script}"],
        ["why", "{prog}", "--inputs", "{script}", "--at", "reaction:0"],
        ["debug", "{prog}", "--inputs", "{script}"],
        ["farm", "{prog}", "-n", "2", "--workload", "{script}"],
    ], ids=["run", "why", "debug", "farm"])
    def test_one_line_diagnostic(self, argv, text, expected, ceu_file,
                                 tmp_path, capsys):
        script = tmp_path / "bad.script"
        script.write_text(text)
        paths = {"prog": ceu_file(self.PROG), "script": str(script)}
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1, captured.err
        assert f"{script}: {expected}" in err[0]
        assert captured.out == ""


EMITTER = """
input int X;
internal void e;
int v = 0;
par/or do
   loop do
      v = await X;
      emit e;
   end
with
   await 1s;
end
return v;
"""


class TestCliObservability:
    def test_run_trace_prints_reactions(self, ceu_file, capsys):
        assert main(["run", ceu_file(GOOD), "X=7", "--trace"]) == 0
        err = capsys.readouterr().err
        assert "--- trace ---" in err
        assert "#0 boot" in err and "event:X" in err

    def test_run_trace_json_is_loadable(self, ceu_file, tmp_path, capsys):
        import json
        out = tmp_path / "trace.json"
        assert main(["run", ceu_file(EMITTER), "X=1", "X=2",
                     "--trace-json", str(out)]) == 0
        assert "ui.perfetto.dev" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        # "s"/"f" are the causal flow arrows (docs/OBSERVABILITY.md)
        assert {e["ph"] for e in events} <= {"B", "E", "i", "M", "s", "f"}
        # every B has its E: the file loads with balanced slices
        per_tid: dict = {}
        for ev in events:
            if ev["ph"] in ("B", "E"):
                tid = ev["tid"]
                per_tid[tid] = per_tid.get(tid, 0) + \
                    (1 if ev["ph"] == "B" else -1)
                assert per_tid[tid] >= 0
        assert set(per_tid.values()) == {0}

    def test_run_trace_jsonl(self, ceu_file, tmp_path, capsys):
        import json
        out = tmp_path / "trace.jsonl"
        assert main(["run", ceu_file(EMITTER), "X=3",
                     "--trace-jsonl", str(out)]) == 0
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert any(r["ev"] == "emit_internal" and r["name"] == "e"
                   for r in records)

    def test_run_stats(self, ceu_file, capsys):
        assert main(["run", ceu_file(EMITTER), "X=1", "X=2", "@1s",
                     "--stats"]) == 0
        err = capsys.readouterr().err
        assert "--- stats ---" in err
        assert "reactions_total" in err and "emits_internal_total" in err

    def test_profile_prints_report(self, ceu_file, capsys):
        assert main(["profile", ceu_file(EMITTER), "X=4", "@1s"]) == 0
        out = capsys.readouterr().out
        assert "counters" in out and "histograms" in out
        assert "steps_per_reaction" in out

    def test_profile_json_snapshot(self, ceu_file, tmp_path, capsys):
        import json
        out = tmp_path / "stats.json"
        assert main(["profile", ceu_file(EMITTER), "X=4",
                     "--json", str(out)]) == 0
        from repro.obs.fleet import counter_samples
        stats = json.loads(out.read_text())
        counters = counter_samples(stats["families"])
        assert counters["reactions_total"] == 2
        assert counters['emits_by_event_total{event="e"}'] == 1
        assert stats["runtime"]["observed"] is True


def build_chain(length: int = 4, latency_us: int = 3_000) -> TinyOsWorld:
    """A linear collection tree: node k forwards to k-1; node 0 sinks."""
    world = TinyOsWorld(latency_us=latency_us)
    for node in range(length):
        world.add_mote(node, load("multihop"),
                       extra_env={"PARENT_ID": max(node - 1, 0),
                                  "Sensor_read": lambda: 0})
    for mote in world.motes.values():
        counter = itertools.count(100)

        def read(mote=mote, counter=counter):
            def respond():
                if mote.up and not mote.program.done:
                    mote.sync_time()
                    mote.program.send("ReadDone", next(counter) % 1024)
                    world.arm_timer(mote)
            world.sim.after(1_000, respond)
            return 0

        mote.cenv.define("Sensor_read", read)
    world.boot()
    return world


class TestMultihop:
    def test_readings_reach_the_sink(self):
        world = build_chain(4)
        world.run_until(30_000_000)
        sink = world.motes[0].program.sched.memory.snapshot()
        # 3 sources × ~14 sampling rounds, minus in-flight stragglers
        assert sink["delivered"] >= 36

    def test_relay_counts_decrease_toward_leaves(self):
        world = build_chain(4)
        world.run_until(30_000_000)
        relayed = [world.motes[n].program.sched.memory.snapshot()["relayed"]
                   for n in (1, 2, 3)]
        assert relayed[0] > relayed[1] > relayed[2] == 0

    def test_duplicate_suppression(self):
        world = build_chain(3)
        world.run_until(10_000_000)
        sink_mote = world.motes[0]
        # replay an already-delivered message: it must be dropped
        before = sink_mote.program.sched.memory.snapshot()["delivered"]
        _, old = sink_mote.received[0]
        sink_mote.receive(old.copy())
        after = sink_mote.program.sched.memory.snapshot()["delivered"]
        assert after == before

    def test_dead_relay_cuts_the_stream(self):
        world = build_chain(4)
        world.run_until(10_000_000)
        mid = world.motes[1].program.sched.memory.snapshot()["relayed"]
        world.motes[1].fail()
        world.run_until(20_000_000)
        sink = world.motes[0].program.sched.memory.snapshot()
        # only the direct child (node 1 is dead; node 0 has no sensor)
        # keeps nothing flowing: delivered stops growing
        grown = world.motes[0].program.sched.memory.snapshot()["delivered"]
        world.run_until(30_000_000)
        final = world.motes[0].program.sched.memory.snapshot()["delivered"]
        assert final == grown


class TestLocExperiment:
    def test_totals_match_paper_claim(self):
        rows = loc.loc_table()
        total_ceu = sum(r.ceu for r in rows)
        total_nesc = sum(r.nesc for r in rows)
        assert 0.3 < total_ceu / total_nesc < 0.75

    def test_every_app_counted(self):
        rows = loc.loc_table()
        assert [r.app for r in rows] == ["Blink", "Sense", "Client",
                                         "Server"]
        assert all(r.ceu > 0 and r.nesc > 0 for r in rows)

    def test_comment_lines_ignored(self):
        assert loc.count_ceu_loc("// only comments\n\n// more\n") == 0
        assert loc.count_ceu_loc("int v;\n// note\nv = 1;") == 2
