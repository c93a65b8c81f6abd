"""The run-length kernel on pid-typed programs, list for list.

``runs.run_successors`` steps every successor from its parent key by
arithmetic, or rebuilds it when the pins change.  For every reachable representative its list must equal, in order
and with the same ``"h/j"`` actions, the language definition's successors
of the decoded representative, firing the same processes in the kernel's
order (pins by rank, then the first process of each run), each
canonicalized by the pinned sort written out below.  Hand-built keys pin
down each class of move on its own.  The firing plans both kernels share
must not depend on which layout filled them first.
"""

import random

import pytest

from orbitmc import GlobalState, InternalError, builtin_example, parse_program, successors
from orbitmc.parser import BUILTIN_NAMES, builtin_source
from orbitmc.runs import run_successors

from oracles import successors_by_definition
from test_differential import random_pid_program


def representative(state):
    """The pinned sort by its definition: the processes the pid slots name,
    by first appearance, then the others by record, pid values renamed."""
    n, slots = state.n, state.pid_slots
    pins = []
    for slot in slots:
        if state.shared[slot] != n and state.shared[slot] not in pins:
            pins.append(state.shared[slot])
    order = pins + sorted((i for i in range(n) if i not in pins), key=state.locals.__getitem__)
    rank = {old: new for new, old in enumerate(order)}
    shared = tuple(rank.get(v, n) if s in slots else v for s, v in enumerate(state.shared))
    return GlobalState(shared, tuple(state.locals[i] for i in order), slots)


def fired(runs, key):
    """The kernel's firing order on a key: the pins, then each run's head."""
    _, pins, _, counts, _ = runs.parts(key)
    heads, h = [], len(pins)
    for m in counts:
        heads.append(h)
        h += m
    return list(range(len(pins))) + heads


def expected_successors(program, key):
    runs = program.table.runs
    state = runs.decode(key)
    return [
        (action, runs.encode(representative(t)))
        for action, t in successors_by_definition(program, state, fired(runs, key))
    ]


def assert_kernel_matches_definition(program):
    runs = program.table.runs
    first = runs.encode(representative(program.initial_state()))
    keys, seen = [first], {first}
    for key in keys:
        got = run_successors(program, key)
        assert got == expected_successors(program, key), (program.name, runs.decode(key))
        for _, target in got:
            if target not in seen:
                seen.add(target)
                keys.append(target)
    return len(keys)


def broken_allocator(n):
    source = builtin_source("allocator", n)
    source = source.replace("grant == none / grant := self", "true / grant := self")
    return parse_program(source, name=f"broken-allocator:{n}")


@pytest.mark.parametrize("n", range(2, 10))
def test_allocators_match_the_definition_list_for_list(n):
    assert assert_kernel_matches_definition(builtin_example("allocator", n)) == 2 * n + 1
    assert assert_kernel_matches_definition(broken_allocator(n)) > 2 * n + 1


@pytest.mark.parametrize("seed", range(50))
def test_random_pid_programs_match_the_definition_list_for_list(seed):
    rng = random.Random(16000 + seed)
    assert_kernel_matches_definition(random_pid_program(rng, 2 + seed % 5))


# -- one plan memo for both key layouts -----------------------------------


def reachable(step, first):
    keys, seen = [first], {first}
    for key in keys:
        for _, target in step(key):
            if target not in seen:
                seen.add(target)
                keys.append(target)
    return keys


LAYOUT_CASES = [builtin_example(name, n) for name in BUILTIN_NAMES for n in (2, 3, 4)]
LAYOUT_CASES += [random_pid_program(random.Random(18000 + seed), 2 + seed % 3) for seed in range(20)]


@pytest.mark.parametrize(
    "program", LAYOUT_CASES, ids=[f"{p.name}-{k}" for k, p in enumerate(LAYOUT_CASES)]
)
def test_plans_do_not_depend_on_the_key_layout(program):
    # each expected list comes from a fresh table that only one layout filled
    full, quotient = program._replace(), program._replace()
    full_keys = reachable(lambda key: successors(full, key),
                          full.table.codec.encode(full.initial_state()))
    run_keys = reachable(lambda key: run_successors(quotient, key),
                         quotient.table.runs.canonical(full_keys[0]))
    # full mode on plans a quotient build made first, and the other way round
    mixed = program._replace()
    for key in run_keys:
        run_successors(mixed, key)
    assert [successors(mixed, key) for key in full_keys] == [
        successors(full, key) for key in full_keys
    ]
    mixed = program._replace()
    for key in full_keys:
        successors(mixed, key)
    assert [run_successors(mixed, key) for key in run_keys] == [
        run_successors(quotient, key) for key in run_keys
    ]


# -- one hand-built key per class of move ---------------------------------


def state(shared, locals_):
    # every shared variable of the programs below is pid-typed
    return GlobalState(shared, tuple((pc,) for pc in locals_), tuple(range(len(shared))))


def moves(source, shared, locals_):
    """The kernel's successors of one representative, decoded."""
    program = parse_program(source)
    runs = program.table.runs
    key = runs.encode(state(shared, locals_))
    return [(action, runs.decode(target)) for action, target in run_successors(program, key)]


ONE_CELL = "processes 4;\nshared g : pid;\npc {A, B, C};\ninit pc=A, g=none;\n"
TWO_CELLS = (
    "processes 4;\nshared g : pid;\nshared h : pid;\npc {A, B};\ninit pc=A, g=none, h=none;\n"
)


def test_a_pin_that_stays_pinned_rewrites_its_own_code():
    got = moves(ONE_CELL + "B -> C : g == self / ;", (0,), (1, 0, 0, 1))
    assert got == [("0/0", state((0,), (2, 0, 0, 1)))]


def test_a_head_that_stays_unpinned_moves_one_unit_between_runs():
    source = ONE_CELL + "A -> B : true / ;\nB -> C : !(g == self) / ;"
    got = moves(source, (0,), (1, 0, 0, 1))
    assert got == [
        ("1/0", state((0,), (1, 0, 1, 1))),
        ("3/1", state((0,), (1, 0, 0, 2))),  # the run of B is dropped, C is inserted
    ]


def test_a_head_that_stays_on_its_record_leaves_the_key_as_it_was():
    got = moves(ONE_CELL + "A -> A : true / ;", (4,), (0, 0, 0, 0))
    assert got == [("0/0", state((4,), (0, 0, 0, 0)))]


def test_a_head_that_writes_self_becomes_the_pin():
    got = moves(ONE_CELL + "A -> B : g == none / g := self;", (4,), (0, 0, 1, 1))
    assert got == [("0/0", state((0,), (1, 0, 1, 1)))]


def test_a_pin_that_releases_itself_joins_the_runs():
    got = moves(ONE_CELL + "B -> A : g == self / g := none;", (0,), (1, 0, 1, 2))
    assert got == [("0/0", state((4,), (0, 0, 1, 2)))]


def test_a_take_over_pins_the_head_and_releases_the_holder():
    got = moves(ONE_CELL + "A -> B : !(g == self) / g := self;", (0,), (2, 0, 0, 1))
    assert got == [("1/0", state((0,), (1, 0, 1, 2)))]


def test_swapping_two_cells_reorders_the_pins_and_keeps_the_runs():
    got = moves(TWO_CELLS + "B -> B : g == self / g := h, h := g;", (0, 1), (1, 0, 0, 1))
    assert got == [("0/0", state((0, 1), (0, 1, 0, 1)))]


def test_a_head_that_empties_both_cells_releases_both_pins_at_once():
    got = moves(TWO_CELLS + "B -> A : !(g == self) & !(h == self) / g := none, h := none;",
                (0, 1), (1, 0, 1, 1))
    assert got == [("2/0", state((4, 4), (0, 0, 1, 1)))]


def test_census_of_a_key_short_of_a_process_is_an_internal_error():
    program = parse_program(ONE_CELL + "A -> B : true / ;")
    runs = program.table.runs
    key = runs.encode(state((0,), (1, 0, 0, 1)))
    shared, pins, codes, counts, _ = runs.parts(key)
    assert counts == (2, 1)
    short = runs.pack(shared, pins, [(codes[0], 1), (codes[1], 1)])  # the first run less one
    with pytest.raises(InternalError, match="lost a process"):
        runs.census(short)
