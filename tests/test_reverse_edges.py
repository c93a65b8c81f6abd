"""Reverse edges built on the first reverse read, and structures freed by
reference counting once a check returns.

``KripkeStructure`` stores successor lists only; ``predecessors``,
``preimage`` and ``in_degree`` read lists derived from them, so every
read here is compared with ``edges()`` reversed, whatever the writes
before and after the first read.  The first read orders each target's
pairs as ``edges()`` does; edges added later follow in insertion order.
"""

import copy
import gc
import pickle
import random
import weakref

import pytest

from orbitmc import KripkeStructure, builtin_example, check, parse_ctl
from orbitmc.explore import explore
from orbitmc.kripke import STUTTER_ACTION

BAD = "bad"


def reversed_edges(structure):
    """Per target, its (source, action) pairs in ``edges()`` order."""
    expected = {sid: [] for sid in structure.states()}
    for src, action, dst in structure.edges():
        expected[dst].append((src, action))
    return expected


def assert_reverse_reads(structure, rng, first=False):
    """Every reverse read against ``edges()`` reversed: in its order on a
    first read, as a set after (a (source, action) pair enters a target once)."""
    expected = reversed_edges(structure)
    for sid in structure.states():
        got = structure.predecessors(sid)
        assert got == expected[sid] if first else sorted(got) == sorted(expected[sid])
        assert structure.in_degree(sid) == len(expected[sid])
    for _ in range(3):
        chosen = rng.sample(list(structure.states()), rng.randint(0, structure.num_states))
        assert structure.preimage(chosen) == {s for t in chosen for s, _ in expected[t]}
    assert sum(map(structure.in_degree, structure.states())) == structure.num_edges


def random_structure(rng, states, edges):
    k = KripkeStructure([BAD])
    for i in range(states):
        k.add_state(i, {"bad"} if rng.random() < 0.2 else ())
    for _ in range(edges):
        k.add_edge(rng.randrange(states), rng.choice("abc"), rng.randrange(states))
    return k


@pytest.mark.parametrize("seed", range(40))
def test_reverse_reads_interleaved_with_writes(seed):
    rng = random.Random(seed)
    k = random_structure(rng, rng.randint(1, 8), rng.randint(0, 12))
    first = True
    for _ in range(30):
        op = rng.random()
        if op < 0.2:
            k.add_state(("extra", rng.randrange(4)))  # sometimes one already present
        elif op < 0.7:
            k.add_edge(rng.randrange(k.num_states), rng.choice("ab"), rng.randrange(k.num_states))
        elif op < 0.75:
            k.totalize()
        else:
            assert_reverse_reads(k, rng, first)
            first = False
    assert_reverse_reads(k, rng, first)


def test_predecessors_order_is_by_source_then_edge_order():
    k = KripkeStructure()
    for name in "abcd":
        k.add_state(name)
    k.add_edge(3, "x", 0)
    k.add_edge(1, "y", 0)
    k.add_edge(1, "x", 0)
    k.add_edge(2, "z", 0)
    k.totalize()  # the deadlock 0 gets a stutter loop, added last
    assert k.predecessors(0) == [(0, STUTTER_ACTION), (1, "y"), (1, "x"), (2, "z"), (3, "x")]
    k.add_edge(0, "w", 0)
    k.add_edge(2, "w", 0)
    assert k.predecessors(0)[-2:] == [(0, "w"), (2, "w")]  # after the first read, writes append


def test_reads_after_the_first_see_new_states_and_edges():
    k = KripkeStructure()
    s = k.add_state("s")
    assert k.predecessors(s) == [] and k.in_degree(s) == 0
    t = k.add_state("t")
    k.add_edge(s, "a", t)
    k.add_edge(s, "a", t)  # a repeat stores nothing in either direction
    assert k.predecessors(t) == [(s, "a")]
    assert k.preimage({s, t}) == {s}
    assert k.in_degree(t) == 1


@pytest.mark.parametrize(
    "copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
)
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_copies_before_and_after_the_first_reverse_read(copy_of, read_first):
    rng = random.Random(7)
    original = random_structure(rng, 9, 20)
    if read_first:
        assert_reverse_reads(original, rng, first=True)
    copied = copy_of(original)
    assert list(copied.edges()) == list(original.edges())
    assert_reverse_reads(copied, rng, first=True)
    copied.add_edge(0, "new", 8)  # the copy owns its lists
    assert not original.has_edge(0, "new", 8)
    assert (0, "new") not in original.predecessors(8)
    assert copied.predecessors(8)[-1] == (0, "new")
    assert_reverse_reads(original, rng)
    assert_reverse_reads(copied, rng)


@pytest.mark.parametrize("mode", ["full", "quotient", "counter"])
def test_explored_structure_is_freed_when_its_check_returns(mode):
    program = builtin_example("broken-mutex", 3)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for prop in ("AG !bad", "AF !bad", "EF bad", "EX bad", "A[!bad U bad]"):
            structure, _ = explore(program, mode)
            structure.totalize()
            ref = weakref.ref(structure)
            result = check(structure, parse_ctl(prop))
            del structure
            assert ref() is None, (mode, prop)
            assert result.verdict in ("holds", "fails")
    finally:
        if enabled:
            gc.enable()
