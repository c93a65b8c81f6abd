"""The lift of a quotient path, ``ctl.lift_counterexample``, against its
first rule (``oracles.lift_by_canonicalizing_every_candidate``): the
least ``(key, action)`` among the concrete successors whose representative
is the next path state, each successor canonicalized on its own.  The
lift canonicalizes one successor per orbit class instead, and must return
an equal ``Path`` on every structure and group, and raise
``InternalError`` exactly where no successor matches."""

import random

import pytest

from orbitmc import (
    GlobalState,
    InternalError,
    Path,
    build_quotient,
    builtin_example,
    from_counter,
    generated_group,
    lift_counterexample,
    parse_program,
    rotation,
    shortest_path,
    transposition,
)
from orbitmc.explore import explore

from oracles import lift_by_canonicalizing_every_candidate
from test_differential import random_pid_program, random_program
from test_internal_errors import unmatched_quotient_path

# ``*`` branches, and a move of the b record that writes only the shared
# value: every process at one b record reaches the same key, and processes
# at the two b records reach one key too, so the action string breaks the
# tie ("10/1" before "2/1" at n > 10)
STARS = """
processes {n};
shared s : bool;
local x : bool;
pc {{a, b}};
init pc=a, s=0, x=0;
a -> b : true / x := *, s := *;
b -> b : s == 0 / s := 1;
b -> a : true / x := 0, s := 0;
label bad := count(pc=b) >= 2;
"""

# a pid cell that a process at b claims with ``self`` without leaving its
# record, so the class of such a move reads the firer's index as "self"
# and its members' keys differ in the shared value only
CLAIM = """
processes {n};
shared g : pid;
pc {{a, b}};
init pc=a, g=none;
a -> b : true / ;
b -> b : g == none / g := self;
b -> a : g == self / g := none;
label bad := count(pc=b) >= 2;
"""


def spread_paths(structure, count=8):
    """Shortest paths from the initial state to up to ``count`` states
    spread over the ids, the last one included."""
    n = structure.num_states
    for sid in sorted({n - 1, *range(0, n, max(1, n // count))}):
        flags = bytearray(n)
        flags[sid] = 1
        path = shortest_path(structure, structure.init, flags)
        assert path is not None
        yield path


def quotient_paths(program, group=None):
    yield from spread_paths(build_quotient(program, group=group).structure)


def counter_paths(program):
    structure, _ = explore(program, "counter")
    structure.totalize()
    for path in spread_paths(structure):
        yield Path(tuple(map(from_counter, path.states)), path.actions)


def assert_lift_matches_reference(program, paths, group=None):
    lifted = 0
    for path in paths:
        expected = lift_by_canonicalizing_every_candidate(program, path, group)
        assert expected is not None
        assert lift_counterexample(program, path, group) == expected
        lifted += 1
    assert lifted


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("name", ["mutex", "broken-mutex", "allocator"])
def test_lift_matches_reference_on_builtin_quotients(name, n):
    program = builtin_example(name, n)
    assert_lift_matches_reference(program, quotient_paths(program))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("name", ["mutex", "broken-mutex"])
def test_lift_matches_reference_on_builtin_counter_structures(name, n):
    program = builtin_example(name, n)
    assert_lift_matches_reference(program, counter_paths(program))


@pytest.mark.parametrize("seed", range(20))
def test_lift_matches_reference_on_random_programs(seed):
    rng = random.Random(seed)
    program = random_program(rng, rng.randint(2, 4))
    assert_lift_matches_reference(program, quotient_paths(program))


@pytest.mark.parametrize("seed", range(20))
def test_lift_matches_reference_on_random_pid_programs(seed):
    rng = random.Random(seed)
    program = random_pid_program(rng, rng.randint(2, 4))
    assert_lift_matches_reference(program, quotient_paths(program))


@pytest.mark.parametrize("generator", [rotation, lambda n: transposition(n, 0, 1)],
                         ids=["rotation", "transposition"])
@pytest.mark.parametrize("name, n", [("mutex", 4), ("broken-mutex", 3), ("allocator", 3),
                                     ("random", 3), ("random-pid", 3)])
def test_lift_matches_reference_under_generated_subgroups(name, n, generator):
    if name == "random":
        program = random_program(random.Random(7), n)
    elif name == "random-pid":
        program = random_pid_program(random.Random(7), n)
    else:
        program = builtin_example(name, n)
    group = generated_group([generator(n)])
    assert_lift_matches_reference(program, quotient_paths(program, group), group)


@pytest.mark.parametrize("text", [STARS, CLAIM], ids=["stars", "claim"])
@pytest.mark.parametrize("n", [3, 12])
def test_lift_matches_reference_on_ties_and_shared_only_moves(text, n):
    program = parse_program(text.format(n=n))
    assert_lift_matches_reference(program, quotient_paths(program))


def test_ties_break_on_action_strings():
    # both processes at b (one with x=0, one with x=1) write s := 1 to one
    # key; "10/1" is less than "2/1" as a string
    program = parse_program(STARS.format(n=12))
    a, b0, b1 = (0, 0), (1, 0), (1, 1)
    path = Path((
        GlobalState((0,), (a,) * 12),
        GlobalState((0,), (a,) * 11 + (b0,)),
        GlobalState((0,), (a,) * 10 + (b0, b1)),
        GlobalState((1,), (a,) * 10 + (b0, b1)),
    ), ("x",) * 3)
    lifted = lift_counterexample(program, path)
    assert lifted == lift_by_canonicalizing_every_candidate(program, path)
    firers = [action.partition("/")[0] for action in lifted.actions]
    assert lifted.actions[-1] == f"{min(firers[:2], key=str)}/1"
    assert lifted.states[-2] != lifted.states[-1] and lifted.states[-1].shared == (1,)


def pinned_unmatched_path(program):
    """A quotient path of the allocator to a state whose grant holder is
    pinned, then a representative no successor of it has: two processes
    at ``exec``."""
    structure = build_quotient(program).structure
    held = bytes(structure.payload(sid).shared[0] != program.n for sid in structure.states())
    path = shortest_path(structure, structure.init, held)
    exec_, ready = (2,), (0,)
    bogus = GlobalState((0,), (exec_, ready, exec_), program.pid_slots)
    return Path(path.states + (bogus,), path.actions + ("x",))


@pytest.mark.parametrize("case", ["class member", "own class: generated group",
                                  "own class: pinned process"])
def test_an_unmatched_step_raises_internal_error(case):
    group = None
    if case == "class member":
        program = builtin_example("mutex", 2)
        path = unmatched_quotient_path(program)
    elif case == "own class: generated group":
        program = builtin_example("mutex", 2)
        group = generated_group([rotation(2)])
        path = unmatched_quotient_path(program)
    else:
        program = builtin_example("allocator", 3)
        path = pinned_unmatched_path(program)
    assert lift_by_canonicalizing_every_candidate(program, path, group) is None
    with pytest.raises(InternalError, match="no concrete successor"):
        lift_counterexample(program, path, group)


def test_the_lift_canonicalizes_once_per_class():
    """Lifting the counterexample of broken-mutex canonicalizes as often at
    n = 60 as at n = 30: at most one successor per orbit class (at most 3
    classes a step on this path) and the path state itself, not each of
    the n successors."""

    def canonical_calls(n):
        program = builtin_example("broken-mutex", n)
        quotient = build_quotient(program)
        quotient.structure.totalize()
        flags = bytes("bad" in quotient.structure.label_of(sid) for sid in quotient.structure.states())
        path = shortest_path(quotient.structure, quotient.structure.init, flags)
        runs = program.table.runs
        calls = [0]

        def canonical(key, _canonical=runs.canonical):
            calls[0] += 1
            return _canonical(key)

        runs.canonical = canonical
        try:
            lifted = lift_counterexample(program, path)
        finally:
            del runs.canonical
        assert lifted.steps == path.steps == 4
        return calls[0]

    small = canonical_calls(30)
    assert small == canonical_calls(60)
    assert small <= 4 * 4
