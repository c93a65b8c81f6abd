import math
import random

import pytest

from orbitmc import (
    CounterState,
    GlobalState,
    UnsupportedModelError,
    build_counter_structure,
    build_full_structure,
    build_quotient,
    builtin_example,
    counter_successors,
    from_counter,
    parse_program,
    rep_sort,
    to_counter,
)

from oracles import all_permutations, random_state
from test_differential import assert_counter_is_quotient
from orbitmc.symmetry import apply

FREE_CYCLE = "processes {n}; pc {{A,B,C}}; init pc=A; A->B:true/; B->C:true/; C->A:true/;"


def locs(*pcs):
    return GlobalState((), tuple((pc,) for pc in pcs))


def counts(*pairs, shared=()):
    return CounterState(tuple(shared), tuple(sorted(((pc,), c) for pc, c in pairs)))


# -- abstraction map ------------------------------------------------------------


def test_to_counter_counts_occupancy():
    assert to_counter(locs(0, 0, 2)) == counts((0, 2), (2, 1))


def test_to_counter_single_process_is_a_unit_vector():
    assert to_counter(locs(1)) == counts((1, 1))


def test_to_counter_invariant_under_permutations():
    rng = random.Random(20)
    for n in range(1, 5):
        perms = all_permutations(n)
        for _ in range(15):
            s = random_state(rng, n)
            expected = to_counter(s)
            for p in perms:
                assert to_counter(apply(p, s)) == expected


def test_to_counter_refuses_pid_state():
    s = GlobalState((0,), ((0,), (1,)), pid_slots=(0,))
    with pytest.raises(UnsupportedModelError):
        to_counter(s)


def test_from_counter_emits_sorted_records():
    assert from_counter(counts((0, 2), (2, 1))) == locs(0, 0, 2)


def test_round_trip_on_all_reachable_counter_states():
    structure = build_counter_structure(builtin_example("mutex", 4))
    for sid in structure.states():
        cstate = structure.payload(sid)
        assert to_counter(from_counter(cstate)) == cstate


def test_from_counter_of_to_counter_is_rep_sort():
    rng = random.Random(21)
    for n in range(1, 7):
        for _ in range(20):
            s = random_state(rng, n)
            assert from_counter(to_counter(s)) == rep_sort(s)


def test_counter_state_validation():
    with pytest.raises(ValueError):
        CounterState((), (((0,), 0),))
    with pytest.raises(ValueError):
        CounterState((), (((1,), 1), ((0,), 1)))


def test_counter_state_rejects_duplicate_records():
    # two forms of one occupancy vector would compare unequal and split a state
    with pytest.raises(ValueError, match="sorted"):
        CounterState((), (((0,), 1), ((0,), 2)))
    with pytest.raises(ValueError, match="sorted"):
        CounterState((0,), (((0, 0), 1), ((1, 0), 1), ((1, 0), 1)))


def test_counter_state_validation_reports_a_zero_count_first():
    with pytest.raises(ValueError, match="positive"):
        CounterState((), (((1,), 1), ((0,), 1), ((2,), 0)))


def test_counter_states_of_another_process_count_are_refused():
    # like a positional key that does not fit the layout: no key, so no
    # successors, and no state of the structure
    program = builtin_example("mutex", 3)
    structure = build_counter_structure(program)
    assert structure.has_state(counts((0, 3)))
    for total in (1, 5):
        with pytest.raises(ValueError, match="3 processes"):
            counter_successors(program, counts((0, total)))
        assert not structure.has_state(counts((0, total)))


# -- the one-unit splice -----------------------------------------------------------

MOVER = "processes {n}; shared g : bool; pc {{A,B,C,D}}; init pc=A, g=0; {cmds}"
A, B, C, D = range(4)


def mover(*cmds, n=3):
    return parse_program(MOVER.format(n=n, cmds=" ".join(f"{c} : true / ;" for c in cmds)))


def test_splice_shared_only_command_keeps_counts():
    program = parse_program(MOVER.format(n=3, cmds="B -> B : true / g := 1;"))
    before = counts((A, 1), (B, 2), shared=(0,))
    [(action, after)] = counter_successors(program, before)
    assert action == "1/0"
    assert after == counts((A, 1), (B, 2), shared=(1,))
    assert after.counts == before.counts


def test_splice_drops_the_entry_of_the_last_leaving_unit():
    program = mover("B -> C")
    assert counter_successors(mover("B -> C", n=2), counts((B, 1), (C, 1), shared=(0,))) == [
        ("0/0", counts((C, 2), shared=(0,)))
    ]
    assert counter_successors(program, counts((A, 1), (B, 1), (D, 1), shared=(0,))) == [
        ("1/0", counts((A, 1), (C, 1), (D, 1), shared=(0,)))
    ]


def test_splice_inserts_a_new_record_at_the_front():
    program = mover("D -> A")
    assert counter_successors(program, counts((B, 1), (D, 2), shared=(0,))) == [
        ("1/0", counts((A, 1), (B, 1), (D, 1), shared=(0,)))
    ]
    assert counter_successors(mover("D -> A", n=2), counts((C, 1), (D, 1), shared=(0,))) == [
        ("1/0", counts((A, 1), (C, 1), shared=(0,)))
    ]


def test_splice_inserts_a_new_record_in_the_middle():
    # from a record before the gap, and from one after it
    assert counter_successors(mover("A -> C"), counts((A, 2), (D, 1), shared=(0,))) == [
        ("0/0", counts((A, 1), (C, 1), (D, 1), shared=(0,)))
    ]
    assert counter_successors(mover("D -> B"), counts((A, 1), (C, 1), (D, 1), shared=(0,))) == [
        ("2/0", counts((A, 1), (B, 1), (C, 1), shared=(0,)))
    ]


def test_splice_inserts_a_new_record_at_the_end():
    program = mover("A -> D")
    assert counter_successors(program, counts((A, 1), (B, 2), shared=(0,))) == [
        ("0/0", counts((B, 2), (D, 1), shared=(0,)))
    ]
    assert counter_successors(program, counts((A, 3), shared=(0,))) == [
        ("0/0", counts((A, 2), (D, 1), shared=(0,)))
    ]


def test_splice_increments_an_existing_record():
    assert counter_successors(mover("B -> D"), counts((B, 2), (D, 1), shared=(0,))) == [
        ("0/0", counts((B, 1), (D, 2), shared=(0,)))
    ]
    assert counter_successors(mover("D -> A"), counts((A, 1), (C, 1), (D, 1), shared=(0,))) == [
        ("2/0", counts((A, 2), (C, 1), shared=(0,)))
    ]


def test_splice_keeps_records_with_locals_in_order():
    program = parse_program(
        "processes 4; local x : bool; pc {A,B}; init pc=A, x=0;"
        " A -> B : true / x := 1; B -> A : true / x := 0;"
    )
    before = CounterState((), (((0, 0), 2), ((0, 1), 1), ((1, 1), 1)))
    assert counter_successors(program, before) == [
        ("0/0", CounterState((), (((0, 0), 1), ((0, 1), 1), ((1, 1), 2)))),
        ("2/0", CounterState((), (((0, 0), 2), ((1, 1), 2)))),
        ("3/1", CounterState((), (((0, 0), 3), ((0, 1), 1)))),
    ]


def test_cached_hash_agrees_with_equality():
    program = mover("A -> C")
    [(_, spliced)] = counter_successors(program, counts((A, 2), (D, 1), shared=(0,)))
    built = CounterState((0,), (((A,), 1), ((C,), 1), ((D,), 1)))
    abstracted = to_counter(GlobalState((0,), ((D,), (A,), (C,))))
    assert spliced == built == abstracted
    assert hash(spliced) == hash(built) == hash(abstracted)
    table = {spliced: "found"}
    assert table[built] == "found" and table[abstracted] == "found"
    assert counts((A, 1), (C, 1), (D, 1), shared=(1,)) not in table


# -- guard evaluation against decremented counts -------------------------------


def test_all_others_excludes_the_firing_process():
    program = builtin_example("mutex", 2)
    # one waiter next to one critical process: entry must stay blocked
    blocked = counts((1, 1), (2, 1))
    moves = {target for _, target in counter_successors(program, blocked)}
    assert counts((2, 2)) not in moves
    # two waiters and no critical process: entry fires
    open_ = counts((1, 2))
    moves = {target for _, target in counter_successors(program, open_)}
    assert counts((1, 1), (2, 1)) in moves


def test_broken_mutex_counter_reaches_double_critical():
    program = builtin_example("broken-mutex", 2)
    blocked = counts((1, 1), (2, 1))
    moves = {target for _, target in counter_successors(program, blocked)}
    assert counts((2, 2)) in moves


def test_exists_other_excludes_the_firing_process():
    program = parse_program(
        "processes 2; pc {A,B}; init pc=A;"
        " A -> B : true / ;"
        " B -> A : exists_other(pc == B) / ;"
    )
    # a single process at B must not see itself
    alone = counts((0, 1), (1, 1))
    moves = {t for _, t in counter_successors(program, alone)}
    assert counts((0, 2)) not in moves
    both = counts((1, 2))
    moves = {t for _, t in counter_successors(program, both)}
    assert counts((0, 1), (1, 1)) in moves


# -- structure construction ------------------------------------------------------


def test_mutex2_counter_structure_has_five_states():
    structure = build_counter_structure(builtin_example("mutex", 2))
    assert structure.num_states == 5


def test_free_cycling_counter_matches_stars_and_bars():
    for n, k in [(4, 3), (2, 3), (6, 3)]:
        program = parse_program(FREE_CYCLE.format(n=n))
        structure = build_counter_structure(program)
        assert structure.num_states == math.comb(n + k - 1, k - 1)


def test_single_process_counter_is_isomorphic_to_full():
    program = builtin_example("mutex", 1)
    counter = build_counter_structure(program)
    quotient = build_quotient(program)
    full = build_full_structure(program)
    assert counter.num_states == full.num_states
    assert_counter_is_quotient(counter, quotient)


def test_conservation_on_every_reachable_state():
    for name, n in [("mutex", 4), ("broken-mutex", 3)]:
        program = builtin_example(name, n)
        structure = build_counter_structure(program)
        for sid in structure.states():
            assert structure.payload(sid).n == n


def test_counter_size_law():
    for n in (2, 4, 7):
        program = builtin_example("mutex", n)
        structure = build_counter_structure(program)
        domain = program.local_domain_size()
        bound = math.comb(n + domain - 1, domain - 1)
        assert structure.num_states <= bound


def test_counter_refuses_pid_programs():
    with pytest.raises(UnsupportedModelError) as err:
        build_counter_structure(builtin_example("allocator", 3))
    assert "grant" in str(err.value)


def test_counter_successors_refuses_pid_programs_directly():
    # without the entry check, `grant == none` and `grant := self` would be
    # evaluated against a counter state that has no process identities
    program = builtin_example("allocator", 3)
    none = program.none_value
    for cstate in (counts((1, 3), shared=(none,)), counts((0, 2), (2, 1), shared=(0,))):
        with pytest.raises(UnsupportedModelError) as err:
            counter_successors(program, cstate)
        assert "grant" in str(err.value)


def test_counter_build_is_deterministic():
    program = builtin_example("mutex", 5)
    one = build_counter_structure(program)
    two = build_counter_structure(program)
    assert [one.payload(s) for s in one.states()] == [two.payload(s) for s in two.states()]
    assert list(one.edges()) == list(two.edges())


# -- isomorphism with the quotient ------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10])
def test_counter_isomorphic_to_quotient_mutex(n):
    program = builtin_example("mutex", n)
    assert_counter_is_quotient(build_counter_structure(program), build_quotient(program))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_counter_isomorphic_to_quotient_broken_mutex(n):
    program = builtin_example("broken-mutex", n)
    assert_counter_is_quotient(build_counter_structure(program), build_quotient(program))


def test_counter_isomorphic_to_quotient_with_shared_and_stars():
    program = parse_program(
        "processes 3; shared g : bool; local x : bool; pc {A,B};"
        " init pc=A, g=0, x=0;"
        " A -> B : g == 0 / x := *, g := 1;"
        " B -> A : exists_other(pc == B) | g == 1 / g := *, x := 0;"
        " label busy := g == 1;"
    )
    assert_counter_is_quotient(build_counter_structure(program), build_quotient(program))
