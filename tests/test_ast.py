"""``Node.children`` and ``Node.walk`` against reference implementations.

``children()`` reads a per-class table of the fields that can hold
nodes, and ``walk()`` is an explicit-stack iterator.  Both must agree,
node for node, with the obvious definitions below: a ``children`` that
inspects every attribute of the node, and a recursive pre-order walk.
A new AST field that holds nodes but is missing from the table shows
up here as a missing child.
"""

import inspect
from pathlib import Path

import pytest

from repro.lang import ast, parse

ROOT = Path(__file__).parent.parent
SOURCES = sorted([*ROOT.glob("tests/corpus/*.ceu"),
                  *ROOT.glob("examples/ceu/*.ceu"),
                  *ROOT.glob("src/repro/apps/ceu/*.ceu")])

#: the node kinds no repo program contains
RARE = """\
C do int f(int x) { return x; } end
nothing;
int x = <int> sizeof<int>;
call _f(x);
_f(null, "s");
async do
   emit 10ms;
end
"""


def ref_children(node):
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, ast.Node):
                            yield sub


def ref_walk(node):
    yield node
    for child in ref_children(node):
        yield from ref_walk(child)


def programs():
    yield "rare", RARE
    for path in SOURCES:
        yield path.relative_to(ROOT).as_posix(), path.read_text()


@pytest.mark.parametrize("name,source", list(programs()),
                         ids=[name for name, _ in programs()])
def test_children_and_walk_match_the_references(name, source):
    program = parse(source, name)
    expected = list(ref_walk(program))
    assert [id(n) for n in program.walk()] == [id(n) for n in expected]
    for node in expected:
        assert ([id(c) for c in node.children()]
                == [id(c) for c in ref_children(node)]), type(node).__name__


def test_every_node_kind_is_exercised():
    concrete = {cls for cls in vars(ast).values()
                if inspect.isclass(cls) and issubclass(cls, ast.Node)
                and cls not in (ast.Node, ast.Exp, ast.Stmt)}
    seen = {type(node) for _, source in programs()
            for node in parse(source).walk()}
    assert concrete - seen == set()
