import math

import pytest

from orbitmc import (
    GlobalState,
    KripkeStructure,
    ResourceLimitError,
    build_counter_structure,
    build_full_structure,
    build_quotient,
    builtin_example,
    check_bisimulation,
    full_symmetric,
    generated_group,
    orbit,
    orbit_size_sorted,
    parse_program,
    rotation,
)

from oracles import asymmetric_mutex, mutex_count_closed_form
from test_differential import assert_counter_is_quotient


def locs(*pcs):
    return GlobalState((), tuple((pc,) for pc in pcs))


def test_mutex2_quotient_is_the_five_multisets():
    quotient = build_quotient(builtin_example("mutex", 2))
    payloads = {quotient.structure.payload(sid) for sid in quotient.structure.states()}
    assert payloads == {locs(0, 0), locs(0, 1), locs(1, 1), locs(0, 2), locs(1, 2)}


def test_single_process_quotient_is_the_full_structure():
    program = builtin_example("mutex", 1)
    quotient = build_quotient(program)
    full = build_full_structure(program)
    assert quotient.structure.num_states == full.num_states
    for sid in full.states():
        assert quotient.structure.payload(sid) == full.payload(sid)
    assert all(size == 1 for size in quotient.orbit_sizes.values())


def test_mutex10_quotient_has_21_states_covering_6144():
    quotient = build_quotient(builtin_example("mutex", 10))
    assert quotient.structure.num_states == 21
    assert quotient.total_covered() == mutex_count_closed_form(10)


def test_quotient_scales_where_full_exploration_cannot():
    # 41 representatives stand for ~11.5 million concrete states; the
    # closed-form orbit sizes keep the accounting exact without ever
    # touching the full graph
    quotient = build_quotient(builtin_example("mutex", 20))
    assert quotient.structure.num_states == 41
    assert quotient.total_covered() == mutex_count_closed_form(20) == 11_534_336


def test_pid_quotient_scales_by_the_closed_form_orbit_size():
    # the grant holder is pinned: 2^100 states with grant none plus 100 * 2^99
    # with one process granted, far beyond any enumeration of an orbit
    quotient = build_quotient(builtin_example("allocator", 100))
    assert quotient.structure.num_states == 201
    assert quotient.total_covered() == 2**100 + 100 * 2**99


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_sizes_sum_to_full_count(n):
    program = builtin_example("mutex", n)
    quotient = build_quotient(program)
    full = build_full_structure(program)
    assert quotient.total_covered() == full.num_states
    assert quotient.structure.num_states <= full.num_states


def test_orbit_size_closed_form_matches_enumeration():
    for name, n in [("mutex", 3), ("mutex", 4)]:
        quotient = build_quotient(builtin_example(name, n))
        group = full_symmetric(n)
        for sid in quotient.structure.states():
            payload = quotient.structure.payload(sid)
            assert orbit_size_sorted(quotient.program, payload) == len(orbit(group, payload))


def test_orbit_sizes_divide_group_order():
    for n in (3, 4, 5):
        quotient = build_quotient(builtin_example("mutex", n))
        for size in quotient.orbit_sizes.values():
            assert math.factorial(n) % size == 0


def test_allocator_quotient_uses_orbit_minimum():
    program = builtin_example("allocator", 3)
    quotient = build_quotient(program)
    full = build_full_structure(program)
    assert quotient.total_covered() == full.num_states
    for sid in quotient.structure.states():
        payload = quotient.structure.payload(sid)
        assert quotient.rep(payload) == payload


def test_quotient_build_is_deterministic():
    program = builtin_example("allocator", 3)
    one = build_quotient(program)
    two = build_quotient(program)
    assert [one.structure.payload(s) for s in one.structure.states()] == [
        two.structure.payload(s) for s in two.structure.states()
    ]
    assert list(one.structure.edges()) == list(two.structure.edges())
    assert one.orbit_sizes == two.orbit_sizes


def test_quotient_bad_reachability_matches_full():
    for name in ("mutex", "broken-mutex", "allocator"):
        for n in (2, 3, 4):
            program = builtin_example(name, n)
            quotient = build_quotient(program)
            full = build_full_structure(program)
            quotient_bad = any(
                "bad" in quotient.structure.label_of(s) for s in quotient.structure.states()
            )
            full_bad = any("bad" in full.label_of(s) for s in full.states())
            assert quotient_bad == full_bad


def test_quotient_respects_bound():
    with pytest.raises(ResourceLimitError):
        build_quotient(builtin_example("mutex", 6), state_bound=3)


@pytest.mark.parametrize("group", [full_symmetric(4), generated_group([rotation(4)])])
def test_quotient_refuses_a_group_of_another_degree(group):
    with pytest.raises(ValueError, match="degree"):
        build_quotient(builtin_example("mutex", 3), group=group)


# -- label symmetry ------------------------------------------------------------


def test_quotient_build_detects_asymmetric_labels():
    # building the program's table refuses the label, in every mode
    for build in (build_full_structure, build_quotient, build_counter_structure):
        with pytest.raises(ValueError, match="'first_critical'"):
            build(asymmetric_mutex(3))


# -- bisimulation ------------------------------------------------------------


# a model whose labels are count thresholds alone
THRESHOLDS = (
    "processes {n}; pc {{A,B}}; init pc=A; A -> B : true / ; B -> A : true / ;"
    " label most := count(pc=B) >= 2; label some := count(pc=A) >= 1;"
)


def totalized_pair(name, n):
    if name == "thresholds":
        program = parse_program(THRESHOLDS.format(n=n))
    else:
        program = builtin_example(name, n)
    full = build_full_structure(program)
    quotient = build_quotient(program)
    full.totalize()
    quotient.structure.totalize()
    return full, quotient


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in ("mutex", "broken-mutex", "allocator") for n in (2, 3, 4)]
    + [("thresholds", 3)],
)
def test_bisimulation_certificate(name, n):
    full, quotient = totalized_pair(name, n)
    assert check_bisimulation(full, quotient)


def test_bisimulation_trivial_for_one_process():
    full, quotient = totalized_pair("mutex", 1)
    assert check_bisimulation(full, quotient)


def copy_structure_without_pair(structure, src, dst):
    """Rebuild the structure with every src->dst edge removed."""
    clone = KripkeStructure(structure.props())
    for sid in structure.states():
        clone.add_state(
            structure.payload(sid), structure.label_of(sid), initial=sid in structure.init
        )
    for s, action, d in structure.edges():
        if (s, d) != (src, dst):
            clone.add_edge(s, action, d)
    return clone


def test_corrupted_quotient_fails_bisimulation():
    full, quotient = totalized_pair("mutex", 3)
    q = quotient.structure
    # pick a state pair whose source keeps another successor, so the
    # corrupted structure stays total and only the simulation breaks
    src, dst = next(
        (s, d)
        for s, action, d in q.edges()
        if action != "stutter" and len({t for _, t in q.successors(s)} - {d}) > 0
    )
    quotient.structure = copy_structure_without_pair(q, src, dst)
    assert quotient.structure.is_total()
    assert not check_bisimulation(full, quotient)


def test_bisimulation_requires_totalized_structures():
    program = builtin_example("mutex", 2)
    full = build_full_structure(program)
    quotient = build_quotient(program)
    quotient.structure.totalize()
    # mutex has no deadlocks, so drop totalization by rebuilding an edgeless full
    bare = KripkeStructure(full.props())
    bare.add_state(full.payload(0), full.label_of(0), initial=True)
    with pytest.raises(ValueError):
        check_bisimulation(bare, quotient)


def test_bisimulation_size_cap():
    full, quotient = totalized_pair("mutex", 2)
    with pytest.raises(ResourceLimitError):
        check_bisimulation(full, quotient, size_cap=3)


def test_quotient_edges_are_the_counter_edges_at_scale():
    # one process fires per distinct record, so mutex:200 has the counter
    # abstraction's 2n + 1 states and 4n - 1 edges rather than ~n^2 / 2 edges
    program = builtin_example("mutex", 200)
    quotient = build_quotient(program)
    counter = build_counter_structure(program)
    assert quotient.structure.num_states == counter.num_states == 401
    assert quotient.structure.num_edges == counter.num_edges == 799


def test_counter_isomorphism_holds_at_fifty_processes():
    program = builtin_example("mutex", 50)
    assert_counter_is_quotient(build_counter_structure(program), build_quotient(program))
