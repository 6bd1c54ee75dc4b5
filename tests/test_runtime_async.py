"""Asynchronous blocks (§2.7) and in-language simulation (§2.8) on the VM."""

from helpers import run_program
from repro.runtime import Program


class TestAsyncBasics:
    def test_arithmetic_progression(self):
        p = run_program("""
        int ret;
        ret = async do
           int sum = 0;
           int i = 1;
           loop do
              sum = sum + i;
              if i == 100 then
                 break;
              else
                 i = i + 1;
              end
           end
           return sum;
        end;
        return ret;
        """)
        assert p.done and p.result == 5050

    def test_watchdog_kills_async(self):
        p = Program("""
        int ret = 0 - 1;
        par/or do
           ret = async do
              int i = 0;
              loop do
                 i = i + 1;
              end
              return i;
           end;
        with
           await 10ms;
           ret = 0;
        end
        return ret;
        """)
        p.sched.go_init()
        for _ in range(50):           # the async never finishes on its own
            p.sched.go_async()
        p.at("10ms")
        assert p.done and p.result == 0

    def test_async_reads_outer_vars(self):
        p = run_program("""
        int base = 40;
        int r;
        r = async do
           int v = base + 2;
           return v;
        end;
        return r;
        """)
        assert p.result == 42

    def test_round_robin_fairness(self):
        p = Program("""
        par/and do
           int a;
           a = async do
              int i = 0;
              loop do
                 _tick(0);
                 i = i + 1;
                 if i == 10 then
                    break;
                 end
              end
              return i;
           end;
        with
           int b;
           b = async do
              int j = 0;
              loop do
                 _tick(1);
                 j = j + 1;
                 if j == 10 then
                    break;
                 end
              end
              return j;
           end;
        end
        return 1;
        """)
        order = []
        p.cenv.define("tick", lambda who: order.append(who))
        p.start()
        assert p.done
        # strict alternation: one loop iteration per go_async, round robin
        first_ten = order[:10]
        assert first_ten == [0, 1] * 5

    def test_async_without_return_yields_none(self):
        p = run_program("""
        int r = 5;
        r = async do
           int x = 1;
        end;
        return r;
        """)
        assert p.result is None

    def test_output_emit_inside_async_reaches_the_output_path(self):
        """An async's output emit is delivered as an output, not stepped
        as an input, identically on the VM and the spec machine."""
        from repro.semantics.machine import run_script

        src = """
        output int O;
        int r = async do
           int i = 0;
           loop do
              i = i + 1;
              emit O = i;
              if i == 3 then
                 break;
              end
           end
           return i;
        end;
        emit O = r * 10;
        return r;
        """
        p = Program(src)
        outputs = []
        p.sched.output_handler = lambda name, value: \
            outputs.append((name, value))
        p.start()
        spec = run_script(src, [])
        assert (p.done, p.result) == (spec.done, spec.result) == (True, 3)
        assert outputs == spec.outputs == [("O", 1), ("O", 2), ("O", 3),
                                           ("O", 30)]


class TestSimulation:
    def test_paper_simulation_template(self):
        """§2.8: simulate Start and the passage of 1h35min; v must be 19
        and the enclosing par/or must terminate before `_assert(0)`."""
        p = run_program("""
        input int Start;
        par/or do
           int v = await Start;
           par/or do
              loop do
                 await 10min;
                 v = v + 1;
              end
           with
              await 1h35min;
              _assert(v == 19);
           end
        with
           async do
              emit Start = 10;
              emit 1h35min;
           end
           _assert(0);
        end
        """)
        assert p.done

    def test_simulated_time_is_logical(self):
        # the simulation "does not take one hour": no wall clock involved,
        # but the program's logical clock does advance
        p = run_program("""
        par/or do
           await 1h;
        with
           async do
              emit 2h;
           end
        end
        return 1;
        """)
        assert p.done and p.result == 1
        assert p.clock == 7_200_000_000

    def test_async_emits_value_events(self):
        p = run_program("""
        input int X;
        int total = 0;
        par/or do
           loop do
              int v = await X;
              total = total + v;
           end
        with
           async do
              emit X = 1;
              emit X = 2;
              emit X = 39;
           end
        end
        return total;
        """)
        assert p.result == 42

    def test_sync_side_has_priority(self):
        """§2.8 step list: the original code awaits Start before the async
        even begins."""
        p = Program("""
        input void Start;
        int order = 0;
        par/or do
           await Start;
           order = order * 10 + 2;
        with
           async do
              emit Start;
           end
           order = order * 10 + 3;
           await 1us;
        end
        return order;
        """, trace=True)
        p.start()
        assert p.trace.reactions[0].trigger == "boot"
        # the async's emit is reaction #1; the async completion follows
        assert p.trace.reactions[1].trigger == "event:Start"

    def test_replayed_simulation_is_identical(self):
        src = """
        input int Seed;
        int acc = 0;
        par/or do
           loop do
              await 10ms;
              acc = acc * 31 + _rand() % 100;
           end
        with
           int s = await Seed;
           _srand(s);
           await 500ms;
        end
        return acc;
        """
        results = {run_program(src, ("ev", "Seed", 99),
                               ("adv", "500ms")).result
                   for _ in range(3)}
        assert len(results) == 1

    def test_async_killed_before_completing(self):
        p = Program("""
        input void Kill;
        int r = 7;
        par/or do
           r = async do
              int i = 0;
              loop do
                 i = i + 1;
                 if i == 1000000 then
                    break;
                 end
              end
              return i;
           end;
        with
           await Kill;
        end
        return r;
        """)
        p.sched.go_init()
        for _ in range(10):
            p.sched.go_async()   # a few iterations, nowhere near done
        p.sched.go_event("Kill")
        assert p.done and p.result == 7

    def test_input_queue_processed_before_asyncs(self):
        p = Program("""
        input void A;
        int n = 0;
        par/or do
           loop do
              await A;
              n = n + 1;
           end
        with
           async do
              int i = 0;
              loop do
                 i = i + 1;
                 if i == 3 then
                    break;
                 end
              end
              return i;
           end
        end
        return n;
        """)
        p.sched.go_init()
        p.sched.queue_input("A")
        p.sched.queue_input("A")
        p.run()
        # both queued events are handled before the async may run (§2.7),
        # then the async completes and the par/or rejoins
        assert p.done
        assert p.result == 2
