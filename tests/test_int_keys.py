"""Run-length keys as ints, stepped by arithmetic, against the definition.

``runs.run_successors`` steps an int key by additions of powers and
shift-and-mask splices, and rebuilds it from its fields only when the pins
change.  For every reachable key, each successor must decode to
``rep_min`` of a concrete successor of the decoded key: the same processes
fired in the same order (the pins by rank, then the first process of each
run), with the same actions, ``"i/j"`` in the quotient and
``"<record>/<j>"`` in the counter abstraction.
"""

import random

import pytest

from orbitmc import builtin_example, full_symmetric, rep_min
from orbitmc.program import render_local
from orbitmc.runs import run_successors

from oracles import successors_by_definition
from test_differential import random_pid_program, random_program


def expected_successors(program, key, counter):
    runs = program.table.runs
    state, group = runs.decode(key), full_symmetric(program.n)
    _, pins, _, counts, _ = runs.parts(key)
    fired, h = list(range(len(pins))), len(pins)
    for m in counts:  # the head of each run
        fired.append(h)
        h += m
    out = []
    for action, t in successors_by_definition(program, state, fired):
        if counter:
            i, j = action.split("/")
            action = f"{render_local(program, state.locals[int(i)])}/{j}"
        out.append((action, rep_min(group, t, witness=False)[0]))
    return out


def assert_kernel_matches_definition(program, counter=False):
    runs = program.table.runs
    first = runs.encode(rep_min(full_symmetric(program.n), program.initial_state(),
                                witness=False)[0])
    keys, seen = [first], {first}
    for key in keys:
        got = run_successors(program, key, counter)
        assert all(type(target) is int for _, target in got)
        decoded = [(action, runs.decode(target)) for action, target in got]
        assert decoded == expected_successors(program, key, counter), runs.decode(key)
        for _, target in got:
            if target not in seen:
                seen.add(target)
                keys.append(target)
    return len(keys)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("seed", range(12))
def test_random_programs_step_as_the_definition(seed, n):
    program = random_program(random.Random(31000 + 10 * seed + n), n)
    assert_kernel_matches_definition(program)
    assert_kernel_matches_definition(program, counter=True)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("seed", range(12))
def test_random_pid_programs_step_as_the_definition(seed, n):
    assert_kernel_matches_definition(random_pid_program(random.Random(32000 + 10 * seed + n), n))


@pytest.mark.parametrize("name", ["mutex", "allocator"])
def test_300_processes_step_as_the_definition(name):
    # counts past 255 take two bytes, so every count field is wider than a code
    program = builtin_example(name, 300)
    assert program.table.runs.pair_size == 3
    assert assert_kernel_matches_definition(program) == 601
    if name == "mutex":
        assert assert_kernel_matches_definition(program, counter=True) == 601
