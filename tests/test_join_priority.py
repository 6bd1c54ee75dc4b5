"""§4.1 join priority: rejoins and escapes run inner-first, by the join
depth the binder records for every ``par``, ``loop``, ``do … end`` and
``async`` — how many of those constructs enclose it.

Each program below is accepted by the temporal analysis and, driven by
one ``A``, returns a value that depends on which of two continuations of
the same reaction runs first.  The expected results are literals, so
they check the rule itself, not agreement between backends: the VM, the
reference semantics and the generated C must all produce them.  A
backend that leaves ``do … end`` out of the depth returns 10, 21 and 21.

They stay out of ``tests/corpus/``: that directory is an input of the
``lint`` benchmark workload, and its size is pinned.
"""

import pytest

from helpers import bound_of, dfa_of, requires_gcc
from repro.fuzz.oracles import run_c, run_semantics, run_vm

#: the inner ``par/or`` (depth 1) rejoins before the ``return 1`` escape
#: to the value block (depth 0) runs, so the block sets ``v = 5`` and
#: returns 2: 2 * 10 + 5
VALUE_BLOCK_ESCAPE = """
input int A;
int v = 0;
int r = do
   par/or do
      await A;
      return 1;
   with
      await A;
   end
   v = 5;
   return 2;
end;
return r * 10 + v;
"""

#: two ``break``s through a ``par`` on the same ``A``: the first loop
#: sits under ``par/and``, two ``do … end`` blocks (depth 3), the second
#: under ``par/and`` and an outer loop (depth 2), so the first runs first
BREAK_UNDER_DO_BLOCKS = """
input int A;
int v = 0;
par/and do
   do
      do
         loop do
            par do
               await A;
               break;
            with
               await forever;
            end
         end
      end
   end
   v = v * 10 + 1;
with
   loop do
      loop do
         par do
            await A;
            break;
         with
            await forever;
         end
      end
      v = v * 10 + 2;
      break;
   end
end
return v;
"""

#: the same race, the first branch leaving a value block (depth 3) by
#: ``return`` through a ``par``
RETURN_UNDER_DO_BLOCKS = """
input int A;
int v = 0;
par/and do
   do
      do
         int r = do
            par do
               await A;
               return 1;
            with
               await forever;
            end
         end;
         v = v * 10 + r;
      end
   end
with
   loop do
      loop do
         par do
            await A;
            break;
         with
            await forever;
         end
      end
      v = v * 10 + 2;
      break;
   end
end
return v;
"""

CASES = [("value_block_escape", VALUE_BLOCK_ESCAPE, 25),
         ("break_under_do_blocks", BREAK_UNDER_DO_BLOCKS, 12),
         ("return_under_do_blocks", RETURN_UNDER_DO_BLOCKS, 12)]
IDS = [name for name, _, _ in CASES]
SCRIPT = [("E", "A", 1)]


@pytest.mark.parametrize("name,src,expected", CASES, ids=IDS)
def test_analysis_accepts(name, src, expected):
    assert not dfa_of(src).conflicts


@pytest.mark.parametrize("name,src,expected", CASES, ids=IDS)
def test_vm(name, src, expected):
    res = run_vm(src, SCRIPT)
    assert (res.done, res.result) == (True, expected)


@pytest.mark.parametrize("name,src,expected", CASES, ids=IDS)
def test_reference_semantics(name, src, expected):
    res = run_semantics(src, SCRIPT)
    assert (res.done, res.result) == (True, expected)


@requires_gcc
@pytest.mark.parametrize("name,src,expected", CASES, ids=IDS)
def test_c(name, src, expected, tmp_path):
    res = run_c(src, SCRIPT, tmp_path, name=name)
    assert res.ok, res.error
    assert (res.done, res.result) == (True, expected)


def test_binder_records_join_depths_in_binding_order():
    bound = bound_of("""
input int A;
int v = 0;
par/and do
   do
      loop do
         await A;
         break;
      end
   end
with
   v = async do
      loop do
         return 1;
      end
   end;
end
""")
    nodes = {n.nid: n for n in bound.program.walk()}
    assert [(type(nodes[nid]).__name__, depth)
            for nid, depth in bound.join_depth.items()] == [
        ("ParStmt", 0), ("DoBlock", 1), ("Loop", 2),
        ("AsyncBlock", 1), ("Loop", 2)]
