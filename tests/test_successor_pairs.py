"""Successor lists: each (action, successor) pair at most once per state,
and the full-mode rule's census cache against a fresh table.

``kripke.breadth_first_build`` counts a tree build's edges as the length
of each expansion's list, which is sound only while every successor rule
gives each pair once: ``program.successors`` in full mode,
``runs.run_successors`` in the quotient, ``counter.counter_successors`` in
counter mode, and the canonicalized full-mode rule of a generated
subgroup.  The tests read the rule each build expanded with, so they
check what the builder sees.

In a pid-free program, ``program._key_successors`` keeps the last census
(shared values and per-pc counts) and its enabled moves by record code.
With a local boolean, two states of one census can hold different
records, so a state may find the entry lacking some of its codes.
"""

import random
import sys
import threading

import pytest

import orbitmc.explore as explore_module
from orbitmc import BUILTIN_NAMES, builtin_example, generated_group, rotation
from orbitmc.explore import MODES, explore
from orbitmc.kripke import breadth_first_build
from orbitmc.program import successors

from test_differential import random_pid_program, random_program


def assert_pairs_distinct(monkeypatch, program):
    rules = []

    def spy(props, initial, expand, *args, **kwargs):
        rules.append(expand)
        return breadth_first_build(props, initial, expand, *args, **kwargs)

    monkeypatch.setattr(explore_module, "breadth_first_build", spy)
    modes = ("full", "quotient") if program.pid_slots else MODES
    builds = [(mode, None) for mode in modes]
    builds.append(("quotient", generated_group([rotation(program.n)])))
    for mode, group in builds:
        structure, stats = explore(program, mode, 50_000, _group=group)
        expand = rules.pop()
        for sid in structure.states():
            pairs = expand(structure.key(sid))
            assert len(set(pairs)) == len(pairs), (program.name, mode, group, sid)
        tree_stats = explore(program, mode, 50_000, _tree=True, _group=group)[1]
        assert tree_stats.edges == stats.edges == structure.num_edges, (program.name, mode)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("n", range(2, 6))
def test_builtin_successor_pairs_are_distinct(monkeypatch, name, n):
    assert_pairs_distinct(monkeypatch, builtin_example(name, n))


@pytest.mark.parametrize("seed", range(40))
def test_random_successor_pairs_are_distinct(monkeypatch, seed):
    rng = random.Random(13000 + seed)
    assert_pairs_distinct(monkeypatch, random_program(rng, rng.randint(2, 5)))


@pytest.mark.parametrize("seed", range(40))
def test_random_pid_successor_pairs_are_distinct(monkeypatch, seed):
    rng = random.Random(14000 + seed)
    assert_pairs_distinct(monkeypatch, random_pid_program(rng, rng.randint(2, 3)))


def program_with_a_local(seed):
    rng = random.Random(15000 + seed)
    program = random_program(rng, rng.randint(2, 5))
    while not program.local_names:
        program = random_program(rng, rng.randint(2, 5))
    return rng, program


def full_keys(program):
    structure, _ = explore(program, "full", 50_000)
    return [structure.key(sid) for sid in structure.states()]


@pytest.mark.parametrize("seed", range(20))
def test_census_cache_gives_what_a_fresh_table_gives(seed):
    rng, program = program_with_a_local(seed)
    keys = full_keys(program)
    expected = [successors(program._replace(), key) for key in keys]
    shuffled = list(range(len(keys)))
    rng.shuffle(shuffled)
    cached = program._replace()
    for order in (range(len(keys)), shuffled):
        for k in order:
            assert successors(cached, keys[k]) == expected[k], (seed, k)


def test_census_repeats_with_other_records_in_breadth_first_order():
    # the cache test above reaches the branch that plans the codes the
    # entry lacks: consecutive keys of one census but other record codes
    repeats = 0
    for seed in range(20):
        _, program = program_with_a_local(seed)
        codec = program.table.codec
        keys = full_keys(program)
        for before, key in zip(keys, keys[1:]):
            same = codec.census(before) == codec.census(key)
            repeats += same and not set(codec.split(key)[1]) <= set(codec.split(before)[1])
    assert repeats > 0


def test_threads_sharing_a_table_step_every_key_right():
    """Threads stepping one table's keys in their own orders race on its
    one census entry; each must still get what a fresh table gives."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(4):
            rng, program = program_with_a_local(seed)
            keys = full_keys(program)
            expected = [successors(program._replace(), key) for key in keys]
            shared = program._replace()
            got = []

            def step(order):
                got.append([(k, successors(shared, keys[k])) for k in order])

            orders = [rng.sample(range(len(keys)), len(keys)) for _ in range(4)]
            threads = [threading.Thread(target=step, args=(order,)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert len(got) == len(threads)
            for results in got:
                assert all(succs == expected[k] for k, succs in results), seed
    finally:
        sys.setswitchinterval(switch)
