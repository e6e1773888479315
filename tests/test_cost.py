"""Setup cost in exact counts: what parse_program and layout do for a
program whose forms repeat, as big_program's do, does not grow with the
number of repeats."""
from __future__ import annotations

from collections import Counter

import pytest

from instants import Environment, dsl, parse_program
from instants import program as program_module
from instants.dsl import compile_expr
from instants.program import BasicNode
from instants.world import Print, SetCell, build_action

BRANCHES = 4


def _big_program(steps: int) -> str:
    """big_program's shape: a (par ...) of rexp bodies, body i a seq of one
    set/print/stop step on cell ci, repeated steps times."""
    branches = []
    for i in range(BRANCHES):
        step = f'(set c{i} (+ (cell c{i}) (value v))) (print "c{i}={{cell:c{i}}}") (stop)'
        branches.append("(rexp (seq\n  " + "\n  ".join([step] * steps) + "))")
    return "(par\n" + "\n".join(branches) + ")\n"


@pytest.mark.parametrize("steps", [50, 100, 200])
def test_setup_costs_what_is_distinct_not_what_repeats(monkeypatch, steps):
    """_build is entered once per distinct (form, kind) pair that stands in
    an argument's place, plus the root: a last argument is built by the
    chain, with no entry. Here those pairs are each branch's (set ...),
    (cell ci) and (print ...), the shared (stop), and the rexp of every
    branch but the last. Layout compiles each body's distinct specs once,
    and lays out three ops per step."""
    entered = []
    build = dsl._build
    monkeypatch.setattr(dsl, "_build", lambda node, kind, built: entered.append((id(node), kind))
                        or build(node, kind, built))
    ast = parse_program(_big_program(steps))
    assert len(entered) == len(set(entered)) == 4 * BRANCHES + 1
    assert Counter(kind for _, kind in entered) == {
        "expression": BRANCHES, "program": 2 * BRANCHES + 1, "integer": BRANCHES}

    compiled = []
    monkeypatch.setattr(program_module, "build_action", lambda spec: compiled.append(spec) or build_action(spec))
    env = Environment()
    compile_expr(ast, env)
    specs = [{id(item) for item in body.program.items if isinstance(item, (Print, SetCell))}
             for body in ast.children]
    assert list(map(len, specs)) == [2] * BRANCHES
    assert sorted(map(id, compiled)) == sorted(key for body in specs for key in body)
    bodies = [node for node in env.nodes.values() if isinstance(node, BasicNode)]
    assert [len(node.ops) for node in bodies] == [3 * steps] * BRANCHES
