"""Binder tests: resolution, scoping, contextual rules, async restrictions."""

import pytest

from repro.lang import ast, parse
from repro.lang.errors import AsyncError, BindError
from repro.sema import bind


class TestEventResolution:
    def test_await_resolves_input(self):
        bound = bind(parse("input int X;\nint v = await X;"))
        awaits = [n for n in bound.program.walk()
                  if isinstance(n, ast.AwaitExt)]
        assert bound.event_of[awaits[0].nid].name == "X"

    def test_await_undeclared_event(self):
        with pytest.raises(BindError):
            bind(parse("await X;"))

    def test_await_output_event_refused(self):
        with pytest.raises(BindError):
            bind(parse("output int O;\nawait O;"))

    def test_event_redeclaration(self):
        with pytest.raises(BindError):
            bind(parse("input void A;\ninput int A;"))

    def test_emit_undeclared_internal(self):
        with pytest.raises(BindError):
            bind(parse("emit nope;"))

    def test_emit_value_on_void_event(self):
        with pytest.raises(BindError):
            bind(parse("internal void e;\nemit e = 3;"))

    def test_emit_input_outside_async_refused(self):
        with pytest.raises(BindError):
            bind(parse("input void A;\nemit A;"))

    def test_emit_time_outside_async_refused(self):
        with pytest.raises(BindError):
            bind(parse("emit 10ms;"))

    def test_output_event_emitted_outside_async(self):
        bound = bind(parse("output int O;\nasync do\nemit O = 1;\nend"))
        assert bound.events["O"].kind == "output"


class TestVariableScoping:
    def test_use_before_declaration_refused(self):
        with pytest.raises(BindError):
            bind(parse("v = 1;\nint v;"))

    def test_initializer_cannot_see_itself(self):
        with pytest.raises(BindError):
            bind(parse("int v = v + 1;"))

    def test_initializer_sees_earlier_declarator(self):
        bound = bind(parse("int a = 1, b = a + 1;"))
        assert len(bound.variables) == 2

    def test_shadowing_in_nested_block(self):
        bound = bind(parse("""
            int v = 1;
            do
               int v = 2;
               v = 3;
            end
            v = 4;
        """))
        assigns = [n for n in bound.program.walk()
                   if isinstance(n, ast.Assign)]
        inner, outer = assigns
        assert bound.var_of[inner.target.nid] is not \
            bound.var_of[outer.target.nid]

    def test_block_scope_ends(self):
        with pytest.raises(BindError):
            bind(parse("do\nint v;\nend\nv = 1;"))

    def test_par_branches_are_scopes(self):
        with pytest.raises(BindError):
            bind(parse("par/and do\nint v;\nwith\nv = 1;\nend"))

    def test_redeclaration_same_block(self):
        with pytest.raises(BindError):
            bind(parse("int v;\nint v;"))

    def test_vector_size_must_be_literal(self):
        with pytest.raises(BindError):
            bind(parse("int n = 3;\nint[n] xs;"))

    def test_vector_size_positive(self):
        with pytest.raises(BindError):
            bind(parse("int[0] xs;"))

    def test_sym_of_decl_mapping(self):
        bound = bind(parse("int a, b;"))
        decl = bound.program.body.stmts[0]
        assert [bound.sym_of_decl[d.nid].name for d in decl.decls] == \
            ["a", "b"]


class TestBreakReturnBinding:
    def test_break_outside_loop(self):
        with pytest.raises(BindError):
            bind(parse("break;"))

    def test_break_binds_innermost_loop(self):
        bound = bind(parse("""
            loop do
               loop do
                  break;
               end
               break;
            end
        """))
        breaks = [n for n in bound.program.walk() if isinstance(n, ast.Break)]
        loops = [n for n in bound.program.walk() if isinstance(n, ast.Loop)]
        assert bound.break_target[breaks[0].nid] is loops[1]
        assert bound.break_target[breaks[1].nid] is loops[0]

    def test_return_at_top_level_has_no_boundary(self):
        bound = bind(parse("return 1;"))
        ret = bound.program.body.stmts[0]
        assert bound.ret_boundary[ret.nid] is None

    def test_return_binds_value_par(self):
        bound = bind(parse("""
            int v;
            v = par do
               return 1;
            with
               return 0;
            end;
        """))
        rets = [n for n in bound.program.walk() if isinstance(n, ast.Return)]
        par = next(n for n in bound.program.walk()
                   if isinstance(n, ast.ParStmt))
        assert all(bound.ret_boundary[r.nid] is par for r in rets)
        assert par.nid in bound.value_boundaries

    def test_return_binds_value_do(self):
        bound = bind(parse("int v;\nv = do\nreturn 5;\nend;"))
        ret = next(n for n in bound.program.walk()
                   if isinstance(n, ast.Return))
        assert isinstance(bound.ret_boundary[ret.nid], ast.DoBlock)

    def test_plain_do_is_not_a_boundary(self):
        bound = bind(parse("do\nreturn 5;\nend"))
        ret = next(n for n in bound.program.walk()
                   if isinstance(n, ast.Return))
        assert bound.ret_boundary[ret.nid] is None


class TestAsyncRestrictions:
    def test_no_await_inside_async(self):
        with pytest.raises(AsyncError):
            bind(parse("input void A;\nasync do\nawait A;\nend"))

    def test_no_await_forever_inside_async(self):
        with pytest.raises(AsyncError, match="`await` is not allowed"):
            bind(parse("async do\nawait forever;\nend"))

    @pytest.mark.parametrize("body", [
        "int x = do\nreturn 5;\nend;",
        "int x;\nx = do\nreturn 5;\nend;",
    ], ids=["declaration", "assignment"])
    def test_no_value_block_inside_async(self, body):
        with pytest.raises(AsyncError, match="plain expressions"):
            bind(parse(f"int r = async do\n{body}\nreturn x;\nend;"))

    def test_no_par_inside_async(self):
        with pytest.raises(AsyncError):
            bind(parse("async do\npar do\nnothing;\nwith\nnothing;"
                       "\nend\nend"))

    def test_no_internal_emit_inside_async(self):
        with pytest.raises(AsyncError):
            bind(parse("internal void e;\nasync do\nemit e;\nend"))

    def test_no_outer_assignment_inside_async(self):
        with pytest.raises(AsyncError):
            bind(parse("int v;\nasync do\nv = 1;\nend"))

    def test_local_assignment_inside_async_ok(self):
        bind(parse("async do\nint v;\nv = 1;\nend"))

    def test_outer_read_inside_async_ok(self):
        bind(parse("int v = 3;\nasync do\nint w = v + 1;\nend"))

    def test_nested_async_refused(self):
        with pytest.raises(AsyncError):
            bind(parse("async do\nasync do\nnothing;\nend\nend"))

    def test_no_event_decl_inside_async(self):
        with pytest.raises(AsyncError):
            bind(parse("async do\ninput void A;\nend"))

    def test_return_inside_async_binds_async(self):
        bound = bind(parse("int r;\nr = async do\nreturn 7;\nend;"))
        ret = next(n for n in bound.program.walk()
                   if isinstance(n, ast.Return))
        assert isinstance(bound.ret_boundary[ret.nid], ast.AsyncBlock)

    def test_statement_async_return_also_binds_async(self):
        bound = bind(parse("async do\nreturn 7;\nend"))
        ret = next(n for n in bound.program.walk()
                   if isinstance(n, ast.Return))
        assert isinstance(bound.ret_boundary[ret.nid], ast.AsyncBlock)


class TestLvalues:
    def test_deref_assignment(self):
        bind(parse("input int* P;\nint* p = await P;\n*p = 3;"))

    def test_index_assignment(self):
        bind(parse("int[4] xs;\nxs[2] = 1;"))

    def test_c_global_assignment(self):
        bind(parse("_G = 3;"))

    def test_literal_not_lvalue(self):
        with pytest.raises(BindError):
            bind(parse("3 = 4;"))

    def test_annotations_collected(self):
        bound = bind(parse("pure _abs;\ndeterministic _a, _b;"))
        assert bound.annotations.compatible("abs", "anything")
        assert bound.annotations.compatible("a", "b")
        assert not bound.annotations.compatible("a", "c")
