"""The executable reference semantics as the third differential oracle.

Four layers of evidence that :mod:`repro.semantics` is a faithful
specification of the reaction rules:

* **parity** — on every checked-in corpus program (under its recorded
  script) and every shipped example, the spec machine reproduces the
  VM's *full* trace signature, final memory, output, and result; the C
  backend's portable signature agrees too (gcc-gated);
* **goldens** — the spec's rule-application transcripts are pinned
  byte-exact (``tests/goldens/semantics_*.txt``; remint via
  ``python tests/mint_goldens.py --semantics``);
* **sweep** — 200 seeded fuzz cases through the full oracle stack with
  the spec enabled report zero disagreements (three-way with C when
  gcc is available);
* **sensitivity** — an intentionally-injected VM bug (reversed §2.2
  emit wake order, monkeypatched, test-only) is *caught* by the
  ``vm-vs-spec`` oracle, attributed by the three-way vote, and
  *shrunk* to a minimal reproducer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from helpers import HAVE_GCC, requires_gcc

from repro.fuzz import (FuzzRunner, GenCase, RunResult, canon_psig,
                        canon_sig, check_case, generate_case, run_c,
                        run_semantics, run_vm, shrink,
                        three_way_attribution)
from repro.lang import parse
from repro.runtime.scheduler import Scheduler
from repro.sema import bind
from repro.semantics import Machine, run_script

TESTS = Path(__file__).parent
CORPUS = sorted((TESTS / "corpus").glob("*.ceu"))
EXAMPLES = sorted((TESTS.parent / "examples" / "ceu").glob("*.ceu"))


def corpus_script(path: Path) -> list:
    case = json.loads(path.with_suffix(".json").read_text())
    return [tuple(item) for item in case["script"]]


def default_script(src: str) -> list:
    """A generic stimulus for programs without a recorded script: every
    declared input a few times, interleaved with time advances.  Void
    events carry an explicit 0 payload — the C driver's script reader
    needs the payload column."""
    bound = bind(parse(src))
    inputs = [(e.name, e.type.name) for e in bound.input_events()]
    script: list = [("T", 50_000)]
    t = 50_000
    for round_ in range(3):
        for i, (name, type_name) in enumerate(inputs):
            value = 0 if type_name == "void" else 10 * round_ + i
            script.append(("E", name, value))
            t += 250_000
            script.append(("T", t))
    script.append(("T", t + 2_000_000))
    return script


def assert_spec_matches_vm(src: str, script: list) -> Machine:
    vm = run_vm(src, script, trace=True)
    assert vm.ok, vm.error
    machine = run_script(src, script)
    assert canon_sig(machine.signature()) == canon_sig(vm.signature)
    assert machine.done == vm.done
    assert (machine.result if machine.done else None) == vm.result
    assert machine.output() == vm.output
    assert machine.memory_snapshot() == vm.memory
    return machine


# ---------------------------------------------------------------------------
# parity: corpus + examples
# ---------------------------------------------------------------------------

class TestCorpusParity:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_spec_equals_vm(self, path):
        assert_spec_matches_vm(path.read_text(), corpus_script(path))

    @requires_gcc
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_spec_equals_c(self, path, tmp_path):
        src, script = path.read_text(), corpus_script(path)
        machine = run_script(src, script)
        c = run_c(src, script, tmp_path, name=path.stem)
        assert c.ok, c.error
        assert canon_psig(machine.portable_signature()) \
            == canon_psig(c.psig)
        assert machine.done == c.done
        assert machine.output() == c.output


class TestExamplesParity:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_spec_equals_vm(self, path):
        src = path.read_text()
        assert_spec_matches_vm(src, default_script(src))

    @requires_gcc
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_spec_equals_c(self, path, tmp_path):
        from repro.fuzz.oracles import analyses_verdict

        src = path.read_text()
        if analyses_verdict(src) != "accept":
            pytest.skip("refused program: cross-backend determinism "
                        "is only promised for accepted programs")
        script = default_script(src)
        machine = run_script(src, script)
        c = run_c(src, script, tmp_path, name=path.stem)
        assert c.ok, c.error
        assert canon_psig(machine.portable_signature()) \
            == canon_psig(c.psig)
        assert machine.output() == c.output


# ---------------------------------------------------------------------------
# goldens: rule-application transcripts, byte-exact
# ---------------------------------------------------------------------------

class TestSemanticsGoldens:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_transcript_golden(self, path):
        from mint_goldens import semantics_transcript

        golden = TESTS / "goldens" / f"semantics_{path.stem}.txt"
        assert golden.exists(), \
            "missing golden — run `python tests/mint_goldens.py " \
            "--semantics`"
        text = semantics_transcript(path.read_text(),
                                    corpus_script(path),
                                    f"corpus/{path.name}")
        assert text == golden.read_text(), \
            f"{golden.name} drifted — if the semantics changed " \
            f"deliberately, remint with `python tests/mint_goldens.py " \
            f"--semantics`"


# ---------------------------------------------------------------------------
# the 200-seed acceptance sweep (three-way when gcc is available)
# ---------------------------------------------------------------------------

class TestSeededSweep:
    def test_three_way_zero_disagreements(self, tmp_path):
        failures = []
        for seed in range(200):
            case = generate_case(seed)
            _verdict, fails = check_case(case, workdir=tmp_path,
                                         use_c=HAVE_GCC,
                                         use_semantics=True)
            failures.extend(fails)
        assert failures == [], \
            [f.summary() for f in failures][:5]


# ---------------------------------------------------------------------------
# sensitivity: an injected VM bug must be caught and shrunk
# ---------------------------------------------------------------------------

#: two trails await the same internal event; the §2.2 wake order is
#: their await-registration order, which the full signature records
EMIT_ORDER_PROG = """\
input void I;
internal void e;
int a = 0;
int b = 0;
par do
   loop do
      await e;
      a = a + 1;
   end
with
   loop do
      await e;
      b = b + 1;
   end
with
   loop do
      await I;
      emit e;
   end
end
"""
EMIT_ORDER_SCRIPT = [("E", "I", None), ("E", "I", None)]


@pytest.fixture
def buggy_vm_emit_order(monkeypatch):
    """Mutate the VM (test-only): internal emits wake trails in
    *reversed* registration order — the §2.2 stack policy violated."""
    original = Scheduler.emit_internal

    def mutated(self, sym, value, emitter):
        saved = self.int_waiting.get(sym.name)
        if saved:
            self.int_waiting[sym.name] = list(reversed(saved))
        return original(self, sym, value, emitter)

    monkeypatch.setattr(Scheduler, "emit_internal", mutated)


class TestInjectedVMBug:
    def test_spec_oracle_catches_reversed_emit_order(
            self, buggy_vm_emit_order):
        case = GenCase(seed=0, src=EMIT_ORDER_PROG,
                       script=list(EMIT_ORDER_SCRIPT))
        _verdict, fails = check_case(case, use_c=False,
                                     use_semantics=True)
        spec_fails = [f for f in fails if f.oracle == "vm-vs-spec"]
        assert spec_fails, [f.summary() for f in fails]
        details = spec_fails[0].details
        assert "signature" in details

    def test_spec_oracle_shrinks_the_bug(self, buggy_vm_emit_order):
        def predicate(src: str, script: list) -> bool:
            case = GenCase(seed=0, src=src, script=list(script))
            _verdict, fails = check_case(case, use_c=False,
                                         use_semantics=True)
            return any(f.oracle == "vm-vs-spec" for f in fails)

        assert predicate(EMIT_ORDER_PROG, EMIT_ORDER_SCRIPT)
        result = shrink(EMIT_ORDER_PROG, EMIT_ORDER_SCRIPT, predicate)
        # the divergence needs one emission: a single input suffices
        assert len(result.script) <= 1
        assert result.src_lines() <= len(EMIT_ORDER_PROG.splitlines())
        assert predicate(result.src, result.script)

    @requires_gcc
    def test_three_way_attributes_vm_as_odd_one_out(
            self, buggy_vm_emit_order, tmp_path):
        """With all three backends live, the vote singles out the
        mutated VM (spec and C agree, VM disagrees).  The vote runs on
        ``canon_psig`` — the emit *multiset* per reaction — so the
        mutation must change *which* events fire, not just their order:
        the second waiter's emit is conditional on a flag the first
        waiter sets, making the reversed wake order drop the emit.
        (Concurrent flag access would be refused by the §2.6 analysis;
        here we call the backends directly — all three implement the
        same deterministic registration order, which is the point.)"""
        src = """\
input void I;
internal void e, p;
int flag = 0;
par do
   loop do
      await e;
      flag = 1;
   end
with
   loop do
      await e;
      if flag == 1 then
         emit p;
      end
   end
with
   loop do
      await I;
      emit e;
   end
end
"""
        script = [("E", "I", 0)]
        vm = run_vm(src, script)
        spec = run_semantics(src, script)
        c = run_c(src, script, tmp_path, name="oddone")
        assert vm.ok and spec.ok and c.ok
        # unmutated wake order is await-registration order: the flag is
        # set before the conditional emit runs
        assert spec.psig[-1][1] == ("e", "p")
        assert vm.psig[-1][1] == ("e",)
        attribution = three_way_attribution(vm, c, spec)
        assert attribution["odd_one_out"] == "vm"
        assert attribution["agreement"] == {
            "vm==c": False, "vm==spec": False, "c==spec": True}

    def test_three_way_votes_on_everything_the_diff_compares(self):
        """A backend that returns a different value under the same
        signature is the odd one out too: the vote compares what the
        vm-vs-c oracle reports, not the signatures alone."""
        psig = (("boot", ()), ("A", ()))

        def result(backend, value):
            return RunResult(backend, done=True, result=value, psig=psig)

        attribution = three_way_attribution(
            result("vm", 25), result("c", 10), result("spec", 25))
        assert attribution["odd_one_out"] == "c"
        assert attribution["agreement"] == {
            "vm==c": False, "vm==spec": True, "c==spec": False}


# ---------------------------------------------------------------------------
# the shrinker when exactly one of three oracles disagrees
# ---------------------------------------------------------------------------

class TestOneOfThreeShrink:
    @requires_gcc
    def test_c_fault_is_attributed_and_shrunk_by_its_own_oracle(
            self, tmp_path):
        """`--inject-fault drop-emit` breaks only the C backend: the
        vm-vs-c oracle fires, vm-vs-spec stays green, the three-way
        vote blames C, and shrinking on the failing oracle converges
        without the other two oracles vetoing candidates."""
        runner = FuzzRunner(seed=0, use_c=True, fault="drop-emit",
                            do_shrink=True, profile="emit",
                            use_semantics=True, log=lambda msg: None)
        stats = runner.run(n=12)
        oracles = {f.oracle for f in stats.failures}
        assert "vm-vs-c" in oracles
        assert "vm-vs-spec" not in oracles
        blamed = [f.details["three_way"]["odd_one_out"]
                  for f in stats.failures
                  if f.oracle == "vm-vs-c" and "three_way" in f.details]
        assert blamed and set(blamed) == {"c"}
        assert stats.shrunk, "failures were found but none shrunk"
        smallest = min(stats.shrunk, key=lambda r: r.src_lines())
        assert smallest.src_lines() <= 20


# ---------------------------------------------------------------------------
# trivial-case rejection (the vacuous-pass fix)
# ---------------------------------------------------------------------------

class TestTrivialRejection:
    def test_boot_only_target_cases_are_rejected_and_rerolled(self):
        runner = FuzzRunner(seed=0, use_c=False, target="return 0;\n",
                            use_semantics=True, log=lambda msg: None)
        stats = runner.run(n=2)
        # a program that terminates at boot can never produce a
        # non-boot reaction: every draw and every re-roll is trivial
        assert stats.trivial >= 2
        assert stats.failures == []
        recs = [r for r in runner.exporter.records
                if r["ev"] == "fuzz_case"]
        assert recs and all(r["trivial"] for r in recs)
        assert all(r["reactions"] == 1 for r in recs)

    def test_generated_cases_are_not_trivial(self):
        runner = FuzzRunner(seed=0, use_c=False, use_semantics=False,
                            log=lambda msg: None)
        stats = runner.run(n=25)
        recs = [r for r in runner.exporter.records
                if r["ev"] == "fuzz_case" and not r["trivial"]]
        assert len(recs) == stats.cases - stats.trivial
        assert recs, "every generated case came out trivial?"

    def test_check_case_reports_reaction_coverage(self):
        case = GenCase(seed=0, src="input void I;\nawait I;\nreturn 1;\n",
                       script=[("E", "I", None)])
        coverage: dict = {}
        verdict, fails = check_case(case, use_c=False,
                                    stats_out=coverage)
        assert fails == []
        assert coverage["reactions"] == 2
        assert coverage["nonboot_reactions"] == 1


# ---------------------------------------------------------------------------
# unit corners
# ---------------------------------------------------------------------------

class TestSpecMachine:
    def test_canon_sig_renumbers_async_triggers(self):
        sig = (("boot", (), ()), ("async:7", (), ()),
               ("async:9", (), ()), ("async:7", (), ()))
        assert canon_sig(sig) == (("boot", (), ()),
                                  ("async:#1", (), ()),
                                  ("async:#2", (), ()),
                                  ("async:#1", (), ()))
        assert canon_sig(None) is None

    def test_async_signature_is_machine_local(self):
        src = "int r = 0;\nr = async do\n   return 4;\nend;\nreturn r;\n"
        first = run_script(src, [])
        second = run_script(src, [])
        assert first.signature() == second.signature()
        assert first.result == 4
        assert any(t.startswith("async:")
                   for t, _s, _e in first.signature())
        # ... and async triggers are excluded from the portable view
        assert all(not t.startswith("async:")
                   for t, _e in first.portable_signature())

    def test_run_semantics_reports_crash_not_raises(self):
        res = run_semantics("int v = ;\n", [])
        assert not res.ok
        assert res.error is not None

    def test_transcript_records_rules(self):
        machine = run_script(
            "internal void e;\npar/and do\n   await e;\nwith\n"
            "   emit e;\nend\nreturn 3;\n", [], transcript=True)
        text = machine.transcript()
        assert "[par-spawn] trail1" in text
        assert "[emit-push] e" in text
        assert "[emit-wake] trail1 <- e" in text
        assert "[join-and]" in text
        assert "[terminate] result=3" in text
        assert machine.result == 3

    def test_spec_rejects_backwards_time(self):
        from repro.lang.errors import RuntimeCeuError

        machine = run_script("input void I;\nawait I;\nreturn 1;\n",
                             [("T", 100)])
        with pytest.raises(RuntimeCeuError):
            machine.at(50)

    def test_spec_rejects_undeclared_input(self):
        from repro.lang.errors import RuntimeCeuError

        machine = run_script("input void I;\nawait I;\nreturn 1;\n", [])
        with pytest.raises(RuntimeCeuError):
            machine.send("Nope")
