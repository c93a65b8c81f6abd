import math
import random

import pytest

from orbitmc import (
    GlobalState,
    PermGroup,
    Permutation,
    ResourceLimitError,
    UnsupportedModelError,
    apply,
    build_full_structure,
    builtin_example,
    compose,
    full_symmetric,
    generated_group,
    group_elements,
    identity,
    inverse,
    is_automorphism,
    orbit,
    orbit_size_sorted,
    pinned_processes,
    rep_min,
    rep_sort,
    transposition,
)
from orbitmc.program import Guard, GuardedCommand, Program

from oracles import (
    all_permutations,
    min_image_by_full_enumeration,
    orbit_by_full_enumeration,
    random_pid_state,
    random_state,
)


def random_perm(rng, n):
    mapping = list(range(n))
    rng.shuffle(mapping)
    return Permutation(tuple(mapping))


def locs(*pcs):
    return GlobalState((), tuple((pc,) for pc in pcs))


# -- group operations ------------------------------------------------------------


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_identity_apply_is_noop():
    rng = random.Random(1)
    for n in range(1, 6):
        s = random_state(rng, n)
        assert apply(identity(n), s) == s


def test_compose_with_inverse_is_identity():
    rng = random.Random(2)
    for n in range(1, 9):
        for _ in range(20):
            p = random_perm(rng, n)
            assert compose(p, inverse(p)) == identity(n)
            assert compose(inverse(p), p) == identity(n)
    assert inverse(identity(4)) == identity(4)


def test_compose_associative_on_random_triples():
    rng = random.Random(3)
    for _ in range(100):
        p, q, r = (random_perm(rng, 5) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_compose_agrees_with_action():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 6)
        p, q = random_perm(rng, n), random_perm(rng, n)
        s = random_state(rng, n)
        assert apply(compose(p, q), s) == apply(p, apply(q, s))


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))
    with pytest.raises(ValueError):
        apply(identity(3), locs(0, 1))


# -- the action --------------------------------------------------------------


def test_swap_moves_local_records():
    swapped = apply(transposition(3, 0, 1), locs(2, 0, 0))
    assert swapped == locs(0, 2, 0)


def test_pid_shared_values_follow_the_permutation():
    # allocator-style state: grant held by process 0, which sits at exec
    s = GlobalState((0,), ((2,), (0,)), pid_slots=(0,))
    t = apply(transposition(2, 0, 1), s)
    assert t == GlobalState((1,), ((0,), (2,)), pid_slots=(0,))


def test_none_value_is_fixed_by_the_action():
    s = GlobalState((2,), ((0,), (1,)), pid_slots=(0,))  # grant = none
    t = apply(transposition(2, 0, 1), s)
    assert t.shared == (2,)


# -- orbits --------------------------------------------------------------


def test_orbit_trivial_for_one_process():
    s = locs(1)
    assert orbit(full_symmetric(1), s) == {s}


def test_orbit_of_single_critical_process():
    got = orbit(full_symmetric(3), locs(2, 0, 0))
    assert got == {locs(2, 0, 0), locs(0, 2, 0), locs(0, 0, 2)}


def test_orbit_by_generators_equals_full_enumeration():
    rng = random.Random(5)
    for n in range(1, 6):
        group = full_symmetric(n)
        for _ in range(10):
            s = random_state(rng, n)
            assert orbit(group, s) == orbit_by_full_enumeration(s)


def test_orbit_sizes_divide_group_order():
    rng = random.Random(6)
    for n in range(1, 7):
        for _ in range(10):
            size = len(orbit(full_symmetric(n), random_state(rng, n)))
            assert math.factorial(n) % size == 0


def test_orbits_partition_the_reachable_set():
    program = builtin_example("mutex", 3)
    structure = build_full_structure(program)
    reachable = {structure.payload(sid) for sid in structure.states()}
    group = full_symmetric(3)
    seen = set()
    covered = 0
    for s in sorted(reachable, key=GlobalState.encode):
        if s in seen:
            continue
        o = orbit(group, s)
        assert not (o & seen), "orbits must be disjoint"
        assert o <= reachable
        seen |= o
        covered += len(o)
    assert covered == len(reachable)


# -- canonical representatives ---------------------------------------------------


def test_rep_sort_sorts_by_pc_order():
    assert rep_sort(locs(2, 0, 1)) == locs(0, 1, 2)


def test_rep_sort_idempotent():
    rng = random.Random(7)
    for n in range(1, 8):
        for _ in range(20):
            s = random_state(rng, n)
            once = rep_sort(s)
            assert rep_sort(once) == once


def test_rep_sort_refuses_pid_state():
    s = GlobalState((0,), ((0,), (1,)), pid_slots=(0,))
    with pytest.raises(UnsupportedModelError):
        rep_sort(s)


def test_rep_sort_equals_min_over_all_permutations():
    rng = random.Random(8)
    for n in range(2, 7):
        for _ in range(30):
            s = random_state(rng, n)
            assert rep_sort(s) == min_image_by_full_enumeration(s)


def test_rep_sort_invariant_under_the_action():
    rng = random.Random(9)
    for n in range(2, 5):
        perms = all_permutations(n)
        for _ in range(10):
            s = random_state(rng, n)
            expected = rep_sort(s)
            for p in perms:
                assert rep_sort(apply(p, s)) == expected
    for n in (6, 8):
        for _ in range(20):
            s = random_state(rng, n)
            assert rep_sort(apply(random_perm(rng, n), s)) == rep_sort(s)


def test_rep_min_trivial_degree_one():
    s = locs(1)
    rep, perm = rep_min(full_symmetric(1), s)
    assert rep == s and perm == identity(1)


def test_rep_min_allocator_state():
    # grant=1 with holder at exec; the minimum re-grants to process 0
    s = GlobalState((1,), ((0,), (2,)), pid_slots=(0,))
    rep, perm = rep_min(full_symmetric(2), s)
    assert rep == GlobalState((0,), ((2,), (0,)), pid_slots=(0,))
    assert apply(perm, s) == rep


def test_rep_min_witness_and_invariance():
    rng = random.Random(10)
    for n in range(2, 6):
        group = full_symmetric(n)
        perms = all_permutations(n)
        for _ in range(8):
            s = random_state(rng, n)
            rep, perm = rep_min(group, s)
            assert apply(perm, s) == rep
            assert rep == min_image_by_full_enumeration(s)
            for p in perms:
                assert rep_min(group, apply(p, s))[0] == rep


def test_rep_min_agrees_with_rep_sort_on_pid_free_states():
    rng = random.Random(11)
    for n in range(2, 7):
        group = full_symmetric(n)
        for _ in range(10):
            s = random_state(rng, n)
            assert rep_min(group, s)[0] == rep_sort(s)


def test_pinned_processes_in_order_of_first_appearance():
    s = GlobalState((1, 3, 2, 3, 1), ((0,),) * 3, pid_slots=(1, 2, 3, 4))
    # slot 3 holds none (n = 3); slot 4 names process 1 a second time
    assert pinned_processes(s) == [2, 1]
    assert pinned_processes(locs(0, 1)) == []


def test_rep_min_on_pid_states_matches_the_oracles():
    rng = random.Random(12)
    for n in range(1, 6):
        group = full_symmetric(n)
        perms = all_permutations(n)
        for num_pid_slots in (1, 2, 3):
            for _ in range(12):
                s = random_pid_state(rng, n, num_pid_slots)
                rep, perm = rep_min(group, s)
                assert rep == min_image_by_full_enumeration(s)
                assert apply(perm, s) == rep
                for p in perms:
                    assert rep_min(group, apply(p, s))[0] == rep
                orbit_size = len(orbit_by_full_enumeration(s))
                assert orbit_size_sorted(None, s) == orbit_size
                assert orbit_size_sorted(None, rep) == orbit_size


def test_rep_min_pins_grant_holders_before_sorting():
    # processes 3 and 1 are named by the two slots; 0 and 2 are sorted after them
    s = GlobalState((3, 1), ((2,), (1,), (0,), (2,)), pid_slots=(0, 1))
    rep, perm = rep_min(full_symmetric(4), s)
    assert rep == GlobalState((0, 1), ((2,), (1,), (0,), (2,)), pid_slots=(0, 1))
    assert perm.mapping == (3, 1, 2, 0)


def test_representative_without_witness_is_the_pinned_minimum(monkeypatch):
    # the quotient's canonicalization must not build (and validate) a
    # witness permutation it would throw away; pid-free states are sorted
    rng = random.Random(13)
    cases = []
    for n in range(1, 6):
        group = full_symmetric(n)
        for num_pid_slots in (0, 1, 2, 3):
            for _ in range(12):
                cases.append((group, random_pid_state(rng, n, num_pid_slots)))

    validated = []
    real_init = Permutation.__init__

    def counting_init(self, mapping):
        validated.append(mapping)
        real_init(self, mapping)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    results = [rep_min(group, s, witness=False) for group, s in cases]
    monkeypatch.undo()
    assert validated == []

    for (group, s), (rep, perm) in zip(cases, results):
        assert rep == rep_min(group, s)[0] == min_image_by_full_enumeration(s)
        assert perm is None
        if not s.pid_slots:
            assert rep == rep_sort(s)


def test_full_symmetric_kind_requires_its_own_generators():
    assert PermGroup(4, full_symmetric(4).generators, "full-symmetric") == full_symmetric(4)
    with pytest.raises(ValueError):
        PermGroup(4, (transposition(4, 0, 1),), "full-symmetric")
    with pytest.raises(ValueError):
        PermGroup(3, (transposition(3, 0, 1), transposition(3, 1, 2)), "full-symmetric")


# -- generated groups --------------------------------------------------------


def test_generated_group_enumeration():
    group = generated_group([transposition(3, 0, 1)])
    elements = group_elements(group)
    assert elements == {identity(3), transposition(3, 0, 1)}


def test_generated_group_orbit_is_the_subgroup_orbit():
    group = generated_group([transposition(3, 0, 1)])
    assert orbit(group, locs(2, 0, 0)) == {locs(2, 0, 0), locs(0, 2, 0)}


def test_rep_min_under_generated_subgroup():
    group = generated_group([transposition(3, 0, 1)])
    rep, perm = rep_min(group, locs(1, 0, 2))
    assert rep == locs(0, 1, 2)
    assert apply(perm, locs(1, 0, 2)) == rep


def test_group_enumeration_cap():
    gens = full_symmetric(5).generators
    group = PermGroup(5, gens, "generated")
    with pytest.raises(ResourceLimitError):
        group_elements(group, cap=50)
    with pytest.raises(ResourceLimitError):
        rep_min(group, locs(0, 1, 2, 1, 0), enum_cap=50)


def test_full_symmetric_generator_shape():
    assert full_symmetric(1).generators == ()
    assert full_symmetric(2).generators == (transposition(2, 0, 1),)
    gens = full_symmetric(4).generators
    assert gens[0] == transposition(4, 0, 1)
    assert gens[1].mapping == (1, 2, 3, 0)
    assert len(group_elements(PermGroup(4, gens, "generated"))) == 24


# -- automorphism checking ----------------------------------------------------


def sample_states(name, n):
    program = builtin_example(name, n)
    structure = build_full_structure(program)
    return program, [structure.payload(sid) for sid in structure.states()]


def test_identity_is_always_an_automorphism():
    program, sample = sample_states("mutex", 3)
    assert is_automorphism(identity(3), program, sample)


def test_every_permutation_is_an_automorphism_of_mutex():
    program, sample = sample_states("mutex", 3)
    for perm in all_permutations(3):
        assert is_automorphism(perm, program, sample)


def test_every_permutation_is_an_automorphism_of_allocator():
    program, sample = sample_states("allocator", 3)
    for perm in all_permutations(3):
        assert is_automorphism(perm, program, sample)


class _PidIsZero(Guard):
    """Asymmetric guard only a test harness can build: g == literal 0."""

    def __init__(self, slot):
        self.slot = slot

    def eval(self, shared, rec, i, occ, n):
        return shared[self.slot] == 0


def test_asymmetric_program_fails_the_automorphism_check():
    base = builtin_example("allocator", 2)
    # replace the release command's guard with one naming process 0
    commands = list(base.commands)
    commands[2] = GuardedCommand(commands[2].from_pc, commands[2].to_pc, _PidIsZero(0), ())
    program = Program(
        n=base.n,
        shared_names=base.shared_names,
        shared_kinds=base.shared_kinds,
        pc_names=base.pc_names,
        local_names=base.local_names,
        commands=tuple(commands),
        label_defs=base.label_defs,
        init_shared=base.init_shared,
        init_pc=base.init_pc,
        init_locals=base.init_locals,
    )
    structure = build_full_structure(program)
    sample = [structure.payload(sid) for sid in structure.states()]
    assert not is_automorphism(transposition(2, 0, 1), program, sample)
