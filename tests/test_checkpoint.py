"""Reaction checkpoints (PR 10 tentpole, ``repro.runtime.checkpoint``).

The load-bearing properties:

* **restore-then-run == run-from-boot** — a checkpoint taken mid-run,
  serialized, reloaded, and driven through the rest of the stimulus
  produces the *byte-identical* trace signature, output, and state
  fingerprint as the uninterrupted run.  Pinned over the checked-in
  corpus and a 200-seed fuzz sweep.
* **O(distance) time travel** — ``debug goto`` replays from the nearest
  parked boundary, not from boot; :attr:`TimeTravelDebugger.last_goto`
  pins the base, mode, and replayed reaction/step counts.
* **postmortem bundles are atomic** — complete with a verifying
  manifest, or absent; a SIGKILL mid-write (subprocess-pinned) never
  leaves a visible partial bundle.
* **farm warm starts land on the checkpoint's fingerprint** and react
  identically to the original instance from there on.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fuzz.gen import generate_case
from repro.fuzz.oracles import canon_sig
from repro.obs.debug import TimeTravelDebugger
from repro.runtime import Program
from repro.runtime.checkpoint import (Checkpoint, CheckpointError,
                                      journal_cursor, list_postmortems,
                                      load_postmortem, restore, snapshot,
                                      snapshot_crash, state_fingerprint,
                                      write_postmortem)
from repro.runtime.farm import Farm

CORPUS = Path(__file__).parent / "corpus"
NAMES = sorted(p.stem for p in CORPUS.glob("*.ceu"))

ACC = """
input int X;
int n = 0;
loop do
   int v = await X;
   n = n + v;
end
"""

TIMERED = """
input int X;
int n = 0;
par do
   loop do
      await 10ms;
      n = n + 1;
   end
with
   loop do
      int v = await X;
      n = n + v;
   end
end
"""


def drive(program, script):
    for item in script:
        if program.done:
            break
        if item[0] == "E":
            program.send(item[1], item[2])
        else:
            program.at(item[1])


def full_run(src, script) -> Program:
    program = Program(src, trace=True, record=True)
    program.start()
    drive(program, script)
    return program


def split_run(src, script, cut=None):
    """Run to ``cut``, checkpoint through a byte round trip, restore,
    and finish the script on the restored VM."""
    if cut is None:
        cut = max(1, len(script) // 2)
    p1 = Program(src, trace=True, record=True)
    p1.start()
    drive(p1, script[:cut])
    ck = Checkpoint.from_bytes(snapshot(p1, source=src).to_bytes())
    p2 = restore(ck, trace=True)
    drive(p2, script[cut:])
    return p1, ck, p2


def corpus_case(name):
    src = (CORPUS / f"{name}.ceu").read_text()
    meta = json.loads((CORPUS / f"{name}.json").read_text())
    return src, [tuple(item) for item in meta["script"]]


# ------------------------------------------------------ restore identity
class TestRestoreIdentity:
    @pytest.mark.parametrize("name", NAMES)
    def test_corpus_restore_then_run_is_identical(self, name):
        src, script = corpus_case(name)
        base = full_run(src, script)
        _, _, cont = split_run(src, script)
        assert canon_sig(cont.trace.signature()) == \
            canon_sig(base.trace.signature())
        assert cont.output() == base.output()
        assert state_fingerprint(cont.sched) == \
            state_fingerprint(base.sched)

    @pytest.mark.parametrize("cut", [1, 2, 5, 9])
    def test_every_cut_point_is_equivalent(self, cut):
        script = [("E", "X", k) for k in range(1, 6)] + \
                 [("T", 25_000), ("E", "X", 9), ("T", 60_000),
                  ("E", "X", 11), ("T", 100_000)]
        base = full_run(TIMERED, script)
        _, _, cont = split_run(TIMERED, script, cut=cut)
        assert canon_sig(cont.trace.signature()) == \
            canon_sig(base.trace.signature())
        assert state_fingerprint(cont.sched) == \
            state_fingerprint(base.sched)

    def test_fuzz_sweep_200_seeds(self):
        failures = []
        for seed in range(200):
            case = generate_case(seed)
            base = full_run(case.src, case.script)
            _, _, cont = split_run(case.src, case.script)
            if canon_sig(cont.trace.signature()) != \
                    canon_sig(base.trace.signature()):
                failures.append(seed)
        assert failures == []

    def test_restore_of_finished_run_is_done(self):
        script = [("E", "X", 1)]
        src = "input int X;\nint v = await X;\nreturn v;"
        p1 = full_run(src, script)
        assert p1.done
        ck = snapshot(p1, source=src)
        p2 = restore(ck)
        assert p2.done and p2.result == p1.result


# ------------------------------------------------------- the serializer
class TestSerializer:
    def test_snapshot_bytes_are_deterministic(self):
        script = [("E", "X", 3), ("E", "X", 4)]
        a = full_run(ACC, script)
        b = full_run(ACC, script)
        assert snapshot(a, source=ACC).to_bytes() == \
            snapshot(b, source=ACC).to_bytes()

    def test_save_load_round_trip(self, tmp_path):
        program = full_run(ACC, [("E", "X", 3)])
        ck = snapshot(program, source=ACC)
        path = ck.save(tmp_path / "acc.ckpt")
        assert Checkpoint.load(path).to_bytes() == ck.to_bytes()
        assert "reaction 2" in ck.describe()

    def test_snapshot_without_journal_refuses(self):
        program = Program(ACC)
        program.start()
        with pytest.raises(CheckpointError, match="journal"):
            snapshot(program, source=ACC)

    def test_from_bytes_rejects_garbage_and_versions(self):
        with pytest.raises(CheckpointError, match="unparsable"):
            Checkpoint.from_bytes(b"not json")
        program = full_run(ACC, [("E", "X", 1)])
        payload = snapshot(program, source=ACC).payload
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint({**payload, "version": 99})
        with pytest.raises(CheckpointError, match="format"):
            Checkpoint({**payload, "format": "tarball"})

    def test_restore_verifies_fingerprint(self):
        program = full_run(ACC, [("E", "X", 1), ("E", "X", 2)])
        payload = dict(snapshot(program, source=ACC).payload)
        payload["fingerprint"] = "0" * 64
        with pytest.raises(CheckpointError, match="diverged"):
            restore(Checkpoint(payload))

    def test_journal_cursor_stamps(self):
        program = full_run(ACC, [("E", "X", 1), ("E", "X", 2)])
        journal = snapshot(program, source=ACC).journal
        assert [e[0] for e in journal] == ["E", "E"]
        assert journal_cursor(journal, 1) == 0    # boot only: nothing ran
        assert journal_cursor(journal, 2) == 1
        assert journal_cursor(journal, 3) == 2

    def test_snapshot_mid_reaction_refuses(self):
        program = Program(ACC, record=True)
        program.start()
        program.sched._reacting = True
        try:
            with pytest.raises(CheckpointError, match="mid-reaction"):
                snapshot(program, source=ACC)
        finally:
            program.sched._reacting = False

    def test_crash_snapshot_parks_before_the_crash(self):
        src = "input int K;\nint v = await K;\nv = v / 0;\nreturn v;"
        program = Program(src, record=True)
        program.start()
        with pytest.raises(Exception):
            program.send("K", 0)
        ck = snapshot_crash(program, source=src)
        assert ck.fingerprint is None
        assert ck.reaction_count == 1      # boot completed, crash did not
        restored = restore(ck)
        assert not restored.done
        assert restored.sched.reaction_count == 1


# ------------------------------------------------------------ time travel
class TestTimeTravel:
    SCRIPT = [("E", "X", k) for k in range(1, 13)]

    def dbg(self):
        return TimeTravelDebugger(ACC, self.SCRIPT,
                                  checkpoint_interval=4,
                                  checkpoint_ring=8)

    def test_ring_parks_interval_boundaries(self):
        dbg = self.dbg()
        assert dbg.total == 13
        assert dbg.checkpoints()["parked"] == [4, 8, 12]

    def test_goto_uses_nearest_checkpoint(self):
        dbg = self.dbg()
        dbg.goto(6)
        assert dbg.last_goto == {"base": 4, "mode": "checkpoint",
                                 "replayed": 2,
                                 "steps_replayed":
                                     dbg.last_goto["steps_replayed"]}
        assert 0 < dbg.last_goto["steps_replayed"] < \
            dbg.program.sched.steps_executed

    def test_back_and_forward_reseed_the_ring(self):
        dbg = self.dbg()
        dbg.goto(6)                      # consumes the parked VM at 4 …
        dbg.back()                       # … so 5 replays from boot
        assert dbg.last_goto["mode"] == "boot"
        assert dbg.last_goto["replayed"] == 4
        assert 6 in dbg.checkpoints()["parked"]   # displaced cursor
        dbg.step()                       # 6: served by its own park
        assert dbg.last_goto["mode"] == "checkpoint"
        assert dbg.last_goto["base"] == 6
        assert dbg.last_goto["replayed"] == 0
        dbg.step()                       # 7: cursor moves forward
        assert dbg.last_goto["mode"] == "cursor"
        assert dbg.last_goto["replayed"] == 1

    def test_displaced_cursor_is_parked(self):
        dbg = self.dbg()
        dbg.goto(6)
        dbg.goto(2)                      # from-boot: no parked VM <= 2
        assert dbg.last_goto["mode"] == "boot"
        assert 6 in dbg.checkpoints()["parked"]

    def test_positions_match_fresh_prefix_runs(self):
        dbg = self.dbg()
        for pos in (3, 7, 11):
            dbg.goto(pos)
            fresh = full_run(ACC, self.SCRIPT[:pos - 1])
            assert dbg.state()["memory"] == \
                fresh.sched.memory.snapshot()
        dbg.goto(dbg.total)
        assert dbg.signature() == dbg.full_signature

    def test_save_and_reopen_from_checkpoint(self, tmp_path):
        dbg = self.dbg()
        dbg.goto(7)
        described = dbg.save(tmp_path / "pos7.ckpt")
        assert "reaction 7" in described
        reopened = TimeTravelDebugger.from_checkpoint(
            Checkpoint.load(tmp_path / "pos7.ckpt"))
        assert reopened.total == 7
        assert reopened.state()["memory"] == dbg.state()["memory"]
        reopened.goto(3)
        fresh = full_run(ACC, self.SCRIPT[:2])
        assert reopened.state()["memory"] == \
            fresh.sched.memory.snapshot()


# ------------------------------------------------------------ postmortems
def _bundle(tmp_path, name="acc-i0-r2", **kw):
    program = full_run(ACC, [("E", "X", 41)])
    ck = snapshot(program, source=ACC)
    kw.setdefault("reason", "stuck")
    kw.setdefault("program", "acc")
    kw.setdefault("instance", 0)
    kw.setdefault("recorder_lines", ['{"ev": "step", "seq": 1}'])
    kw.setdefault("fleet", {"instances": 3})
    kw.setdefault("slice_text", "[1] spawn main  <- external")
    kw.setdefault("detail", {"p50_us": 12})
    return write_postmortem(tmp_path / name, ck, **kw)


class TestPostmortemBundles:
    def test_write_load_round_trip(self, tmp_path):
        path = _bundle(tmp_path)
        bundle = load_postmortem(path)
        assert bundle.reason == "stuck"
        assert bundle.manifest["instance"] == 0
        assert bundle.recorder_lines() == ['{"ev": "step", "seq": 1}']
        assert bundle.fleet() == {"instances": 3}
        assert "spawn main" in bundle.slice_text()
        assert bundle.checkpoint.reaction_count == 2
        assert "postmortem [stuck] acc instance 0" in bundle.describe()

    def test_existing_path_refused(self, tmp_path):
        _bundle(tmp_path)
        with pytest.raises(CheckpointError, match="already exists"):
            _bundle(tmp_path)

    def test_corrupt_file_detected(self, tmp_path):
        path = _bundle(tmp_path)
        (path / "fleet.json").write_text("{}")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_postmortem(path)

    def test_missing_listed_file_detected(self, tmp_path):
        path = _bundle(tmp_path)
        (path / "slice.txt").unlink()
        with pytest.raises(CheckpointError, match="missing"):
            load_postmortem(path)

    def test_not_a_bundle(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(CheckpointError, match="MANIFEST"):
            load_postmortem(tmp_path / "junk")

    def test_listing_skips_partials_and_noise(self, tmp_path):
        _bundle(tmp_path)
        (tmp_path / ".staging.tmp123").mkdir()
        (tmp_path / "no-manifest").mkdir()
        listed = list_postmortems(tmp_path)
        assert [m["bundle"] for m in listed] == ["acc-i0-r2"]
        assert list_postmortems(tmp_path / "absent") == []

    def test_failed_write_leaves_nothing_visible(self, tmp_path,
                                                 monkeypatch):
        import repro.runtime.checkpoint as cp

        calls = {"n": 0}
        real = os.fsync

        def flaky(fd):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise OSError("disk gone")
            return real(fd)

        monkeypatch.setattr(cp.os, "fsync", flaky)
        with pytest.raises(OSError):
            _bundle(tmp_path)
        assert list(tmp_path.iterdir()) == []   # staging cleaned too

    def test_sigkill_mid_write_never_leaves_partials(self, tmp_path):
        """Satellite 3: a drain/kill racing in-flight bundle writes
        leaves only complete bundles (or none) — pinned by SIGKILLing a
        writer loop mid-flight, the harshest interruption there is."""
        out = tmp_path / "bundles"
        writer = (
            "import sys\n"
            "sys.path[:0] = [%r, %r]\n"
            "from test_checkpoint import ACC, full_run\n"
            "from repro.runtime.checkpoint import snapshot, "
            "write_postmortem\n"
            "program = full_run(ACC, [('E', 'X', 7)])\n"
            "ck = snapshot(program, source=ACC)\n"
            "big = ['{\"ev\": \"pad\", \"n\": %%d}' %% n "
            "for n in range(4000)]\n"
            "i = 0\n"
            "while True:\n"
            "    write_postmortem(%r + '/b-%%06d' %% i, ck,\n"
            "                     reason='race', recorder_lines=big,\n"
            "                     fleet={'instances': 1})\n"
            "    i += 1\n"
        ) % (str(Path(__file__).parent),
             str(Path(__file__).parent.parent / "src"), str(out))
        out.mkdir()
        proc = subprocess.Popen([sys.executable, "-c", writer],
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if len(list_postmortems(out)) >= 3:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("writer produced no bundles: %s"
                            % proc.stderr.read().decode()[-2000:])
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        visible = [p for p in out.iterdir()
                   if not p.name.startswith(".")]
        assert visible
        for bundle in visible:
            loaded = load_postmortem(bundle)    # complete and verified
            assert loaded.reason == "race"


# ----------------------------------------------------------- farm plane
class TestFarmWarmStarts:
    def test_warm_start_lands_on_the_fingerprint(self):
        farm = Farm(TIMERED, n=1, program="t", observe=False,
                    record=True)
        farm.broadcast("X", 5)
        farm.run_until(45_000)
        ck = farm.checkpoint(0)
        warm = farm.spawn(2, program="t", warm_from=ck)
        for inst in warm:
            assert state_fingerprint(inst.program.sched) == \
                ck.fingerprint
        counters = farm.fleet.snapshot()
        assert counters["farm_warm_starts_total"]["series"] == \
            [[["t"], 2]]
        assert counters["farm_checkpoints_total"]["series"] == \
            [[["t"], 1]]

    def test_warm_instance_tracks_the_original(self):
        farm = Farm(TIMERED, n=1, program="t", observe=False,
                    record=True)
        farm.broadcast("X", 5)
        farm.run_until(45_000)
        ck = farm.checkpoint(0)
        farm.spawn(1, program="t", warm_from=ck)
        farm.broadcast("X", 9)
        farm.run_until(105_000)
        mems = [inst.program.sched.memory.snapshot()
                for inst in farm.instances]
        assert mems[0] == mems[1]

    def test_watchdog_auto_captures_a_bundle(self, tmp_path):
        from repro.apps import load

        farm = Farm(load("blink"), n=3, program="blink", record=True,
                    postmortem_dir=tmp_path)
        farm.run_until("500ms")
        stuck = farm.instances[1]
        farm.sim.cancel(stuck.handle)
        stuck.handle = None
        farm.sim.run_until(800_000)
        for inst in farm.instances:
            if inst.handle is not None:
                inst.program.at(inst.local(800_000))
                farm._post_drive(inst)
        report = farm.watchdog()
        flagged = [f for f in report["flagged"]
                   if f.get("reason") == "stuck"]
        assert flagged and "postmortem" in flagged[0]
        bundle = load_postmortem(flagged[0]["postmortem"])
        assert bundle.reason == "stuck"
        assert bundle.manifest["instance"] == 1
        assert bundle.fleet()["instances"] == 3
        # once per instance: a second sweep does not duplicate
        farm.watchdog()
        assert len(list_postmortems(tmp_path)) == 1
        assert farm.fleet.snapshot()["farm_postmortems_total"][
            "series"] == [[["stuck"], 1]]

    def test_failed_slice_replay_is_counted(self, tmp_path, monkeypatch):
        """The causal slice is best-effort: a replay that raises leaves
        a bundle without a slice, and the swallowed error is counted in
        a family that only exists once it has happened."""
        import repro.runtime.checkpoint as checkpoint

        farm = Farm(TIMERED, n=2, program="t", record=True,
                    postmortem_dir=tmp_path)
        farm.broadcast("X", 5)
        farm.run_until(45_000)
        bundle = load_postmortem(farm.postmortem(0))
        assert bundle.slice_text()
        assert "farm_postmortem_slice_errors_total" not in \
            farm.fleet_snapshot()["families"]

        def broken_replay(*args, **kwargs):
            raise RuntimeError("injected replay failure")

        monkeypatch.setattr(checkpoint, "replay_journal", broken_replay)
        bundle = load_postmortem(farm.postmortem(1))
        assert bundle.slice_text() is None
        assert bundle.checkpoint.reaction_count > 0
        assert farm.fleet_snapshot()["families"][
            "farm_postmortem_slice_errors_total"]["series"] == \
            [[["t"], 1]]

    def test_checkpoint_requires_record(self):
        farm = Farm(TIMERED, n=1, program="t", observe=False)
        farm.run_until(20_000)
        with pytest.raises(CheckpointError, match="journal"):
            farm.checkpoint(0)


# ------------------------------------------------------------------- CLI
class TestCli:
    CRASHER = ("input int K;\n"
               "int v = await K;\n"
               "v = 10 / v;\n"
               "return v;\n")

    def test_run_postmortem_writes_a_loadable_bundle(self, tmp_path,
                                                     capsys):
        from repro.cli import main

        prog = tmp_path / "crash.ceu"
        prog.write_text(self.CRASHER)
        pmdir = tmp_path / "pm"
        assert main(["run", str(prog), "K=0", "--flight-recorder", "32",
                     "--postmortem", str(pmdir)]) == 1
        err = capsys.readouterr().err
        assert "wrote postmortem bundle" in err
        bundles = list_postmortems(pmdir)
        assert len(bundles) == 1
        bundle = load_postmortem(pmdir / bundles[0]["bundle"])
        assert bundle.reason == "exception"
        assert "division by zero" in bundle.manifest["detail"]["error"]
        assert bundle.recorder_lines()
        # the crash checkpoint parks one reaction short of the crash
        assert main(["postmortem", str(pmdir / bundles[0]["bundle"])]) \
            == 0
        out = capsys.readouterr().out
        assert "postmortem [exception]" in out
        assert "flight recorder" in out

    def test_postmortem_reads_the_fleet_family_block(self, tmp_path,
                                                     capsys):
        """A schema-2 ``fleet.json`` reports its reactions; any other
        schema (an older bundle's ``merged`` counters) gets a one-line
        diagnostic instead of reading as zero reactions."""
        from repro.cli import main

        reactions = {"kind": "counter", "labels": [],
                     "series": [[[], 42]]}
        new = _bundle(tmp_path, name="new", fleet={
            "schema": 2, "instances": 3, "spawned": 3, "now_us": 9,
            "families": {"reactions_total": reactions}})
        old = _bundle(tmp_path, name="old", fleet={
            "schema": 1, "instances": 3, "spawned": 3, "now_us": 9,
            "merged": {"counters": {"reactions_total": 42}}})
        assert main(["postmortem", str(new)]) == 0
        assert "fleet at capture: 3 live / 3 spawned, 42 reactions" in \
            capsys.readouterr().out
        assert main(["postmortem", str(old)]) == 0
        out = capsys.readouterr().out
        assert "fleet at capture: snapshot schema 1 not understood " \
            "(expected 2)" in out
        assert "0 reactions" not in out

    def test_postmortem_directory_listing(self, tmp_path, capsys):
        from repro.cli import main

        _bundle(tmp_path)
        assert main(["postmortem", str(tmp_path)]) == 0
        assert "acc-i0-r2" in capsys.readouterr().out
        assert main(["postmortem", str(tmp_path / "nothing")]) == 1

    def test_postmortem_why_and_debug(self, tmp_path, capsys,
                                      monkeypatch):
        import io

        from repro.cli import main

        path = _bundle(tmp_path)
        assert main(["postmortem", str(path), "--why",
                     "reaction:1"]) == 0
        assert "reaction #1 event:X" in capsys.readouterr().out
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("state\ncheckpoints\nquit\n"))
        assert main(["postmortem", str(path), "--debug"]) == 0
        out = capsys.readouterr().out
        assert "position 2/2" in out
        assert "n = 41" in out

    def test_debug_save_then_from_checkpoint(self, tmp_path, capsys,
                                             monkeypatch):
        import io

        from repro.cli import main
        from repro.fuzz.gen import script_text

        prog = tmp_path / "acc.ceu"
        prog.write_text(ACC)
        script = tmp_path / "acc.script"
        script.write_text(script_text([("E", "X", k)
                                       for k in range(1, 5)]))
        ck = tmp_path / "pos3.ckpt"
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(f"goto 3\nsave {ck}\nquit\n"))
        assert main(["debug", str(prog), "--inputs",
                     str(script)]) == 0
        assert "reaction 3" in capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO("state\nquit\n"))
        assert main(["debug", "--from-checkpoint", str(ck)]) == 0
        assert "n = 3" in capsys.readouterr().out

    def test_debug_requires_a_source(self, capsys):
        from repro.cli import main

        assert main(["debug"]) == 2
        assert "--from-checkpoint" in capsys.readouterr().err
