"""Temporal analysis (§2.6): the paper's acceptance/refusal suite for
variables, internal events and C calls, plus DFA structure checks."""

import hashlib
from pathlib import Path

import pytest

from repro.dfa import build_dfa, check_determinism
from repro.fuzz.gen import PROFILES, generate_case
from repro.lang import parse
from repro.lang.ast import renumber
from repro.lang.errors import (AnalysisBudgetExceeded, BindError,
                               NondeterminismError)
from repro.sema import bind

ROOT = Path(__file__).parent.parent


def dfa_of(src: str, **kw):
    return build_dfa(bind(parse(src)), **kw)


def refuse(src: str, fragment: str = ""):
    dfa = dfa_of(src)
    assert dfa.conflicts, "expected nondeterminism"
    message = dfa.conflicts[0].message()
    assert fragment in message, message
    return dfa


def accept(src: str):
    dfa = dfa_of(src)
    assert not dfa.conflicts, dfa.conflicts[0].message()
    return dfa


#: the repo's programs, analysed under the names ``repro lint`` sessions
#: give them (a span's file name is part of every conflict)
LINT_DIRS = (("examples/ceu", "examples/ceu/"), ("tests/corpus", "corpus/"),
             ("src/repro/apps/ceu", "apps/ceu/"))

#: SHA-256 over the exact DFAs of each group: the repo's programs that
#: bind (22 of 23), and seeds 0-19 of every fuzz profile
DFA_DIGESTS = {
    "lint": "0a084a55e9a3809c3b796025220a1afbee4756773ffcdbe196e2317d61974edd",
    "diff": "b51d6ae0226689d9aa924d4db1df08f6bca6da368f4aeb7f4053a2101737f52f",
    "deep": "f2fbd7ebdfb06c98bc763547bb8a73e28905130553d2f9db03dd06cd82febb6c",
    "emit": "1eefe311aaab3e52870c7b1da444e6728d49147fbb1f608d5a41b53db0121459",
    "timer": "aa71716ebed43a4e368f291373903ac69850deaec7feab46cfdf53206bd11e0b",
    "prio": "e2b207d57426e134c973758b6d60fef9b4db436a4d27b657f6112add3847889c",
}


def _group_sources(group: str):
    if group == "lint":
        for rel, prefix in LINT_DIRS:
            for path in sorted((ROOT / rel).glob("*.ceu")):
                yield prefix + path.name, path.read_text()
        return
    for seed in range(20):
        yield "<ceu>", generate_case(seed, PROFILES[group], group).src


def _dfa_structure(dfa) -> tuple:
    def action(a):
        return a.chain, a.kind, a.key, a.span
    return ([(s.index, s.config, s.terminal) for s in dfa.states],
            dfa.edges,
            [(action(c.first), action(c.second), c.trigger, c.state_index)
             for c in dfa.conflicts],
            dfa.max_internal_emits)


def group_digest(group: str) -> str:
    digest = hashlib.sha256()
    for filename, src in _group_sources(group):
        program = parse(src, filename)
        renumber(program)
        try:
            bound = bind(program)
        except BindError:
            continue
        structure = _dfa_structure(build_dfa(bound))
        digest.update(repr((filename, structure)).encode())
    return digest.hexdigest()


class TestVariableConflicts:
    def test_immediate_concurrent_writes(self):
        refuse("int v;\npar/and do\nv = 1;\nwith\nv = 2;\nend\nreturn v;",
               "variable `v`")

    def test_false_positive_same_value_still_refused(self):
        # §2.6: detection ignores the values being written
        refuse("int v;\npar/and do\nv = 1;\nwith\nv = 1;\nend\nreturn v;")

    def test_write_vs_read(self):
        refuse("""
        input void A;
        int v, w;
        par/and do
           await A;
           v = 1;
        with
           await A;
           w = v;
        end
        """, "variable `v`")

    def test_concurrent_reads_allowed(self):
        accept("""
        input void A;
        int v = 3;
        int a, b;
        par/and do
           await A;
           a = v;
        with
           await A;
           b = v;
        end
        """)

    def test_different_events_no_concurrency(self):
        accept("""
        input void A, B;
        int v;
        par/and do
           await A;
           v = 1;
        with
           await B;
           v = 2;
        end
        """)

    def test_fig_dfa_example_sixth_occurrence(self):
        dfa = refuse("""
        input void A;
        int v;
        par do
           loop do
              await A;
              await A;
              v = 1;
           end
        with
           loop do
              await A;
              await A;
              await A;
              v = 2;
           end
        end
        """, "variable `v`")
        # 2-cycle × 3-cycle: the race fires when both loops complete
        # simultaneously — on the 6th A (lcm(2,3) = 6), paper fig. 2
        assert all("event A" in c.trigger for c in dfa.conflicts)

    def test_sequenced_writes_in_one_trail_fine(self):
        accept("input void A;\nint v;\nloop do\nawait A;\nv = 1;\nv = 2;"
               "\nend")

    def test_address_taken_counts_as_write(self):
        refuse("""
        input void A;
        int v;
        int w;
        par/and do
           await A;
           _poll(&v);
        with
           await A;
           w = v;
        end
        """, "variable `v`")

    def test_spawning_parent_ordered_before_children(self):
        accept("""
        input void A;
        int v;
        loop do
           await A;
           v = 1;
           par/and do
              nothing;
           with
              nothing;
           end
        end
        """)

    def test_check_determinism_raises(self):
        with pytest.raises(NondeterminismError) as err:
            check_determinism(bind(parse(
                "int v;\npar/and do\nv = 1;\nwith\nv = 2;\nend")))
        assert err.value.witness is not None


class TestInternalEventConflicts:
    def test_concurrent_emits(self):
        refuse("""
        input void A;
        internal void e;
        par/and do
           await A;
           emit e;
        with
           await A;
           emit e;
        end
        """, "event `e`")

    def test_emit_vs_concurrent_arming(self):
        refuse("""
        input void A;
        internal void e;
        int v;
        par do
           loop do
              await A;
              emit e;
           end
        with
           loop do
              await A;
              await e;
           end
        end
        """, "event `e`")

    def test_emit_to_already_armed_await_fine(self):
        accept("""
        input void A;
        internal void e;
        par do
           loop do
              await e;
           end
        with
           loop do
              await A;
              emit e;
           end
        end
        """)

    def test_stack_policy_chains_are_ordered(self):
        # the §2.2 dataflow network: emitter and awakened trails interleave
        # deterministically, so all the shared variables are fine
        accept("""
        input int Set;
        int v1, v2, v3;
        internal void v1_evt, v2_evt;
        par do
           loop do
              await v1_evt;
              v2 = v1 + 1;
              emit v2_evt;
           end
        with
           loop do
              await v2_evt;
              v3 = v2 * 2;
           end
        with
           loop do
              v1 = await Set;
              emit v1_evt;
           end
        end
        """)

    def test_mutual_dependency_no_cycle(self):
        accept("""
        input int SetC, SetF;
        int tc, tf;
        internal void tc_evt, tf_evt;
        par do
           loop do
              await tc_evt;
              tf = 9 * tc / 5 + 32;
              emit tf_evt;
           end
        with
           loop do
              await tf_evt;
              tc = 5 * (tf - 32) / 9;
              emit tc_evt;
           end
        with
           loop do
              tc = await SetC;
              emit tc_evt;
           end
        end
        """)

    def test_two_trails_awakened_by_same_emit_conflict(self):
        refuse("""
        input void A;
        internal void e;
        int v;
        par do
           loop do
              await e;
              v = 1;
           end
        with
           loop do
              await e;
              v = 2;
           end
        with
           loop do
              await A;
              emit e;
           end
        end
        """, "variable `v`")


class TestCCallConflicts:
    def test_concurrent_calls_refused_by_default(self):
        refuse("par/and do\n_led1On();\nwith\n_led2On();\nend",
               "C function")

    def test_deterministic_annotation_accepts(self):
        accept("deterministic _led1On, _led2On;\npar/and do\n_led1On();"
               "\nwith\n_led2On();\nend")

    def test_pure_runs_with_anything(self):
        accept("pure _abs;\nint a, b;\npar/and do\na = _abs(1);\nwith"
               "\nb = _abs(2);\nend")

    def test_pure_with_unannotated_other(self):
        accept("pure _abs;\nint a;\npar/and do\na = _abs(1);\nwith"
               "\n_led1On();\nend")

    def test_same_function_twice_needs_annotation(self):
        refuse("par/and do\n_beep();\nwith\n_beep();\nend", "C function")

    def test_groups_do_not_leak(self):
        refuse("deterministic _a, _b;\ndeterministic _c, _d;\npar/and do"
               "\n_a();\nwith\n_c();\nend")

    def test_method_style_call_names(self):
        refuse("par/and do\n_lcd.write(1);\nwith\n_lcd.write(2);\nend",
               "lcd.write")

    def test_ship_annotations(self):
        accept("""
        pure _analog2key;
        deterministic _analogRead, _map_generate;
        par/and do
           _map_generate();
        with
           int k = _analog2key(_analogRead(0));
        end
        """)


class TestGalsBoundary:
    def test_async_vs_timer_accepted(self):
        # §2.9: nondeterminism from asyncs is allowed (locally deterministic)
        accept("""
        int ret;
        par/or do
           async do
              int i = 0;
              loop do
                 i = i + 1;
                 if i == 10 then
                    break;
                 end
              end
              return i;
           end
           ret = 1;
        with
           await 1s;
           ret = 2;
        end
        return ret;
        """)


class TestDfaStructure:
    def test_terminal_state(self):
        dfa = accept("input int X;\nint v = await X;\nreturn v;")
        assert any(s.terminal for s in dfa.states)

    def test_boot_edge_present(self):
        dfa = accept("input void A;\nloop do\nawait A;\nend")
        assert any(src == -1 and lbl == "boot" for src, lbl, _ in dfa.edges)

    def test_loop_states_cycle(self):
        dfa = accept("input void A, B;\nloop do\nawait A;\nawait B;\nend")
        # two awaiting configurations, cycling A→B→A
        assert dfa.state_count() == 2

    def test_dot_output(self):
        dfa = accept("input void A;\nloop do\nawait A;\nend")
        dot = dfa.to_dot()
        assert dot.startswith("digraph")
        assert 's-1 -> s0 [label="boot"]' in dot

    def test_conflicting_state_marked_in_dot(self):
        dfa = refuse("int v;\npar/and do\nv = 1;\nwith\nv = 2;\nend")
        dot = dfa.to_dot()
        assert "color=red" in dot or dfa.conflicts[0].state_index == 0

    def test_guiding_example_deterministic(self):
        dfa = accept("""
        input int A, B, C;
        int ret;
        loop do
           par/or do
              int a = await A;
              int b = await B;
              ret = a + b;
              break;
           with
              par/and do
                 await C;
              with
                 await A;
              end
           end
        end
        """)
        assert dfa.state_count() >= 3
        assert dfa.transition_count() >= dfa.state_count()

    def test_tight_loop_names_the_missing_await(self):
        with pytest.raises(AnalysisBudgetExceeded, match="await"):
            dfa_of("int x = 0;\nloop do\nx = x + 1;\nend")

    def test_tight_loop_through_a_fork_is_refused_at_once(self,
                                                          monkeypatch):
        """Each pass of this loop forks at the ``if``; the chain that
        takes ``then`` comes back to it within one run, which is refused
        on the second visit, not after the step budget's 12,500 forks."""
        from repro.dfa.abstract import MidState

        forks = []
        copy = MidState.copy
        monkeypatch.setattr(MidState, "copy",
                            lambda ms: forks.append(ms) or copy(ms))
        with pytest.raises(AnalysisBudgetExceeded, match="tight loop"):
            dfa_of("int x = 0; loop do if x then x = 1; end end")
        assert len(forks) <= 2

    @pytest.mark.parametrize("group", ["lint", *PROFILES])
    def test_exact_structure_is_pinned(self, group):
        """States, edges, both sides of every conflict and the emit bound
        are byte-identical to the digests minted for them."""
        assert group_digest(group) == DFA_DIGESTS[group]

