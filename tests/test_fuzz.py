"""The conformance-fuzzing subsystem tested on itself: generator
invariants, oracle behaviour, the shrinker, fault injection, and the
CLI front end (docs/FUZZING.md)."""

import json

import pytest

from helpers import requires_gcc
from repro.cli import main
from repro.fuzz import (CORPUS_PROFILES, FAULTS, PRIO, PROFILES,
                        FuzzRunner, GenCase, check_case, generate_case,
                        parse_script_text, script_text, shrink)
from repro.fuzz.gen import ROUND_US
from repro.fuzz.oracles import analyses_verdict, canon_psig, has_gcc, \
    run_vm
from repro.lang import parse
from repro.sema import bind, check_bounded


# ---------------------------------------------------------------------------
# generator invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_generated_programs_are_well_formed(seed):
    case = generate_case(seed)
    check_bounded(bind(parse(case.src)))          # §2.5
    assert analyses_verdict(case.src) in ("accept", "refuse")


@pytest.mark.parametrize("seed", range(30))
def test_generated_programs_terminate_under_their_script(seed):
    case = generate_case(seed)
    vm = run_vm(case.src, case.script)
    assert vm.ok, vm.error
    assert vm.done, f"seed {seed} did not finish its script"


def test_generation_is_deterministic():
    a, b = generate_case(7), generate_case(7)
    assert a.src == b.src and a.script == b.script
    assert generate_case(8).src != a.src


@pytest.mark.parametrize("profile", sorted(CORPUS_PROFILES))
def test_profiles_generate_well_formed_programs(profile):
    from repro.fuzz.gen import ProgramGen
    for seed in range(5):
        case = ProgramGen(seed, CORPUS_PROFILES[profile], profile).case()
        check_bounded(bind(parse(case.src)))


def test_script_is_monotone_and_rendered():
    case = generate_case(11)
    times = [item[1] for item in case.script if item[0] == "T"]
    assert times == sorted(times)
    assert all(t % ROUND_US == 0 for t in times)
    text = script_text(case.script)
    assert text.count("\n") == len(case.script)


def test_script_text_round_trips():
    case = generate_case(11)
    assert parse_script_text(script_text(case.script)) == case.script
    assert parse_script_text("# note\n\nE A\n") == [("E", "A", 0)]
    with pytest.raises(ValueError):
        parse_script_text("Q what\n")


def test_profile_registry_covers_the_cli_choices():
    assert set(PROFILES) == {"diff", "deep", "emit", "timer", "prio"}
    assert PROFILES["prio"] is PRIO and PRIO.prio_gadgets > 0


@pytest.mark.parametrize("seed", range(8))
def test_prio_profile_programs_are_well_formed_and_terminate(seed):
    case = generate_case(seed, PRIO, "prio")
    check_bounded(bind(parse(case.src)))
    assert "par/or do" in case.src  # the gadgets made it in
    vm = run_vm(case.src, case.script)
    assert vm.ok and vm.done, vm.error


def test_prio_gadget_emits_in_glitch_free_order():
    """Every gadget shape emits g*a, then g*b, in one reaction under §4.1
    join priorities: the nested rejoin's continuation (g0b) runs after
    the direct branch's emit (g0a) instead of being killed, and the
    deeper of two escapes — a ``break`` (g1a) or a value-block
    ``return`` (g2a) through a ``par`` under two ``do … end`` blocks —
    runs before the escape from a loop nested in a loop (g1b, g2b)."""
    fired = set()
    for seed in range(8):
        case = generate_case(seed, PRIO, "prio")
        if analyses_verdict(case.src) != "accept":
            continue
        vm = run_vm(case.src, case.script)
        gadget_reactions = [e for _t, e in vm.psig
                            if any(x.startswith("g") for x in e)]
        assert gadget_reactions, f"seed {seed}: gadgets never fired"
        for emits in gadget_reactions:
            pairs = [x for x in emits if x.startswith("g")]
            gadget = pairs[0][:-1]
            assert pairs == [gadget + "a", gadget + "b"], (seed, emits)
            fired.add(gadget)
    assert fired == {"g0", "g1", "g2"}


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_oracles_agree_without_c(seed):
    verdict, failures = check_case(generate_case(seed), use_c=False)
    assert not failures, failures[0].summary()
    assert verdict in ("accept", "refuse")


def test_vm_crash_is_reported_not_raised():
    case = GenCase(seed=0, src="input void A;\nawait A;",
                   script=[("E", "Missing", 0)])
    verdict, failures = check_case(case, use_c=False)
    assert [f.oracle for f in failures] == ["vm-crash"]


def test_ill_formed_program_is_reported():
    case = GenCase(seed=0, src="int v;\nloop do\nv = 1;\nend", script=[])
    verdict, failures = check_case(case, use_c=False)
    assert verdict == "ill-formed"
    assert failures and failures[0].oracle == "well-formed"


@requires_gcc
@pytest.mark.parametrize("fault", ["minus-to-plus", "drop-emit"])
def test_injected_faults_are_caught(fault, tmp_path):
    caught = False
    for seed in range(8):
        _v, failures = check_case(generate_case(seed), workdir=tmp_path,
                                  mutate=FAULTS[fault])
        if any(f.oracle == "vm-vs-c" for f in failures):
            caught = True
            break
    assert caught, f"fault {fault} survived 8 seeds"


@requires_gcc
def test_flat_prio_fault_is_caught_by_the_prio_profile(tmp_path):
    """ISSUE acceptance: the §4.1 flat-priority miscompilation was a
    blind spot of the plain profiles; the schedule-diverse `prio`
    profile must expose it within a handful of seeds."""
    caught = 0
    for seed in range(6):
        case = generate_case(seed, PRIO, "prio")
        _v, failures = check_case(case, workdir=tmp_path,
                                  mutate=FAULTS["flat-prio"])
        if any(f.oracle == "vm-vs-c" for f in failures):
            caught += 1
    assert caught, "flat-prio fault survived 6 prio seeds"
    # …and without the fault the same seeds are conflict-free
    for seed in range(6):
        case = generate_case(seed, PRIO, "prio")
        _v, failures = check_case(case, workdir=tmp_path)
        assert not failures, failures[0].summary()


def test_static_bounds_oracle_flags_an_unsound_bound():
    """Feed the comparison a deliberately understated bound."""
    from repro.analysis import ResourceBounds
    from repro.fuzz.oracles import bounds_violations

    case = generate_case(0)
    vm = run_vm(case.src, case.script, observe=True)
    assert vm.ok
    fake = ResourceBounds(
        max_trails=0, max_armed_timers=0, max_async_jobs=0,
        max_internal_emits=0, mem_slots=0, mem_bytes_host=0,
        mem_bytes_target16=0, dfa_states=0, dfa_transitions=0)
    violations = bounds_violations(fake, vm.stats)
    assert "max_trails" in violations and "mem_slots" in violations
    assert violations["mem_slots"]["observed"] > 0


def test_schedule_oracle_reverse_seeds_changes_no_observable():
    """Accepted programs must agree under the reversed seeding order
    (the oracle inside check_case); spot-check the mechanism directly."""
    for seed in range(5):
        case = generate_case(seed)
        if analyses_verdict(case.src) != "accept":
            continue
        fwd = run_vm(case.src, case.script)
        rev = run_vm(case.src, case.script, reverse_seeds=True)
        assert fwd.ok and rev.ok
        assert (fwd.done, fwd.result, fwd.output) == \
               (rev.done, rev.result, rev.output)
        assert canon_psig(fwd.psig) == canon_psig(rev.psig)
        assert fwd.memory == rev.memory


# ---------------------------------------------------------------------------
# shrinker
# ---------------------------------------------------------------------------

def test_shrinker_on_synthetic_predicate():
    """gcc-free shrinker check: 'output contains p1' as the failure."""
    case = generate_case(2)
    vm = run_vm(case.src, case.script)
    marker = next((line.split('"')[1].split()[0]
                   for line in case.src.splitlines()
                   if "_printf" in line and '"' in line), None)
    if marker is None or marker not in vm.output:
        pytest.skip("seed 2 prints nothing — generator changed")

    def predicate(src, script):
        res = run_vm(src, script, trace=False)
        return res.ok and marker in res.output

    result = shrink(case.src, case.script, predicate)
    assert predicate(result.src, result.script)
    assert result.src_lines() < case.src_lines()
    assert len(result.script) <= len(case.script)


def test_shrinker_returns_input_when_not_failing():
    case = generate_case(3)
    result = shrink(case.src, case.script, lambda s, sc: False)
    assert result.src == case.src and result.script == case.script
    assert result.rounds == 0


@requires_gcc
def test_injected_fault_shrinks_to_small_reproducer(tmp_path):
    """The ISSUE acceptance bar: a deliberate codegen fault must land as
    a failing reproducer of at most 15 lines."""
    fault = FAULTS["minus-to-plus"]
    failing = None
    for seed in range(8):
        case = generate_case(seed)
        _v, failures = check_case(case, workdir=tmp_path, mutate=fault)
        if any(f.oracle == "vm-vs-c" for f in failures):
            failing = case
            break
    assert failing is not None, "fault never triggered"

    def predicate(src, script):
        probe = GenCase(seed=failing.seed, src=src, script=list(script))
        _v, fails = check_case(probe, workdir=tmp_path, mutate=fault)
        return any(f.oracle == "vm-vs-c" for f in fails)

    result = shrink(failing.src, failing.script, predicate)
    assert predicate(result.src, result.script)
    assert result.src_lines() <= 15, result.src


# ---------------------------------------------------------------------------
# runner + CLI
# ---------------------------------------------------------------------------

def test_runner_reports_jsonl(tmp_path):
    report = tmp_path / "report.jsonl"
    runner = FuzzRunner(seed=0, use_c=False, report=str(report),
                        log=lambda msg: None)
    stats = runner.run(n=5)
    assert stats.cases == 5 and stats.ok()
    records = [json.loads(line) for line in
               report.read_text().splitlines()]
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert sum(r["ev"] == "fuzz_case" for r in records) == 5
    assert records[-1]["ev"] == "fuzz_summary"


def test_cli_fuzz_smoke(tmp_path, capsys):
    report = tmp_path / "cli.jsonl"
    rc = main(["fuzz", "--seed", "0", "--n", "3", "--no-c",
               "--report", str(report)])
    assert rc == 0
    assert report.exists()


@requires_gcc
def test_cli_fuzz_fault_injection_fails(tmp_path):
    rc = main(["fuzz", "--seed", "3", "--n", "2",
               "--inject-fault", "minus-to-plus"])
    assert rc == 1


def test_cli_fuzz_minutes_budget():
    rc = main(["fuzz", "--seed", "0", "--minutes", "0.02", "--no-c"])
    assert rc == 0
