"""Reverse edges built on the first reverse read, every read against a
list reference, and structures freed by reference counting once a check
returns.

``KripkeStructure`` stores each source's edges as a block of flat arrays,
written once, before the first read, and derives the reverse arrays on
the first reverse read (``predecessors``, ``preimage``, ``in_degree``).
``ListReference`` states the same contract as plain lists, per source its
(action, target) pairs in the order added, a repeat as often as it was
added, and a stutter loop for each state dead when ``totalize`` ran.  It hands its edges to the
structure in source order, so every read here, forward and reverse, is
compared with it whatever the order the edges were drawn in, and every
write after the first read is refused.  Predecessors come in ``edges()``
order: by source id, then by the source's edge order.
"""

import copy
import gc
import pickle
import random
import sys
import threading
import weakref
from operator import itemgetter

import pytest

from orbitmc import KripkeStructure, builtin_example, check, parse_ctl
from orbitmc.explore import explore
from orbitmc.kripke import STUTTER_ACTION

BAD = "bad"


def add_in_source_order(structure, triples):
    """Add (source, action, target) ``triples`` to ``structure``, stably
    sorted by source: each source's edges as one block, in id order."""
    for src, action, dst in sorted(triples, key=itemgetter(0)):
        structure.add_edge(src, action, dst)


class ListReference:
    """A structure as per-source lists of (action, target) pairs.  Its
    edges wait in ``triples`` until ``build`` adds them all."""

    def __init__(self):
        self.structure = KripkeStructure([BAD])
        self.out = []
        self.triples = []

    def add_state(self, payload, labels=()):
        sid = self.structure.add_state(payload, labels)
        if sid == len(self.out):
            self.out.append([])
        return sid

    def add_edge(self, src, action, dst):
        self.triples.append((src, action, dst))
        self.out[src].append((action, dst))

    def build(self):
        add_in_source_order(self.structure, self.triples)
        return self

    def totalize(self):
        _, dead = self.structure.totalize()
        assert dead == [sid for sid, out in enumerate(self.out) if not out]
        for sid in dead:
            self.out[sid].append((STUTTER_ACTION, sid))

    def assert_reads(self, rng):
        k, out = self.structure, self.out
        edges = [(src, action, dst) for src, pairs in enumerate(out) for action, dst in pairs]
        assert list(k.edges()) == edges
        assert k.num_edges == len(edges)
        assert k.is_total() == all(out)
        assert k.deadlocked_states() == [sid for sid, pairs in enumerate(out) if not pairs]
        for sid in k.states():
            assert k.successors(sid) == out[sid]
            assert list(k.successor_ids(sid)) == [dst for _, dst in out[sid]]
            assert list(k.predecessors(sid)) == [src for src, _, dst in edges if dst == sid]
            assert k.out_degree(sid) == len(out[sid])
            assert k.in_degree(sid) == sum(dst == sid for _, _, dst in edges)
            for action, dst in out[sid]:
                assert k.has_edge(sid, action, dst)
            assert not k.has_edge(sid, "never", sid)
        for _ in range(3):
            chosen = rng.sample(list(k.states()), rng.randint(0, k.num_states))
            assert k.image(chosen) == {dst for src in chosen for _, dst in out[src]}
            assert k.preimage(chosen) == {src for src, _, dst in edges if dst in chosen}
        assert k.export_dot().count(" -> ") == len(edges)


def random_reference(rng, states, edges):
    """A built reference: its edges drawn in random source order, repeats
    and an occasional stored stutter edge among them."""
    ref = ListReference()
    for i in range(states):
        ref.add_state(i, {"bad"} if rng.random() < 0.2 else ())
    for _ in range(edges):
        action = STUTTER_ACTION if rng.random() < 0.1 else rng.choice("abc")
        ref.add_edge(rng.randrange(states), action, rng.randrange(states))
    return ref.build()


@pytest.mark.parametrize("seed", range(40))
def test_reverse_reads_interleaved_with_writes(seed):
    """After the first read every write is refused and changes no read;
    ``totalize`` may still run, and a known payload is still a lookup."""
    rng = random.Random(seed)
    ref = random_reference(rng, rng.randint(1, 8), rng.randint(0, 12))
    k = ref.structure
    ref.assert_reads(rng)
    for _ in range(30):
        op = rng.random()
        n = k.num_states
        if op < 0.2:
            with pytest.raises(ValueError):
                k.add_state(("extra", rng.randrange(4)))
        elif op < 0.3:
            assert k.add_state(n - 1, k.label_of(n - 1)) == n - 1
        elif op < 0.6:
            with pytest.raises(ValueError):
                k.add_edge(rng.randrange(n), rng.choice([STUTTER_ACTION, "a", "b"]), rng.randrange(n))
        elif op < 0.7:
            ref.totalize()
        else:
            ref.assert_reads(rng)
    assert k.num_states == len(ref.out)
    ref.assert_reads(rng)


def test_predecessors_order_is_by_source_then_edge_order():
    k = KripkeStructure()
    for name in "abcde":
        k.add_state(name)
    add_in_source_order(k, [(3, "x", 0), (1, "y", 0), (1, "x", 0), (2, "z", 0), (2, "w", 0),
                            (4, "v", 0)])
    assert list(k.predecessors(0)) == [1, 1, 2, 2, 3, 4]
    k.totalize()  # the deadlock 0 reads as having a stutter loop, its source's one edge
    assert list(k.predecessors(0)) == [0, 1, 1, 2, 2, 3, 4]
    assert k.successors(0) == [(STUTTER_ACTION, 0)]
    assert k.successors(2) == [("z", 0), ("w", 0)]


def test_reads_after_the_first_read_the_same():
    k = KripkeStructure()
    s, t, u = k.add_state("s"), k.add_state("t"), k.add_state("u")
    k.add_edge(s, "a", t)
    k.add_edge(s, "a", t)  # a repeat is stored again, in both directions
    k.add_edge(u, "b", s)
    first = [(list(k.predecessors(x)), k.in_degree(x), k.successors(x)) for x in k.states()]
    assert first == [([u], 1, [("a", t), ("a", t)]), ([s, s], 2, []), ([], 0, [("b", s)])]
    assert k.preimage({s, t}) == {s, u}
    with pytest.raises(ValueError):
        k.add_state("v")
    with pytest.raises(ValueError):
        k.add_edge(u, "b", t)
    assert [(list(k.predecessors(x)), k.in_degree(x), k.successors(x)) for x in k.states()] == first


@pytest.mark.parametrize(
    "copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
)
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_copies_before_and_after_the_first_reverse_read(copy_of, read_first):
    rng = random.Random(7)
    original = random_reference(rng, 9, 20)
    if read_first:
        original.assert_reads(rng)
    copied = copy_of(original)
    assert list(copied.structure.edges()) == list(original.structure.edges())
    copied.assert_reads(rng)
    for ref in (original, copied):  # the copy refuses writes as the original does
        with pytest.raises(ValueError):
            ref.structure.add_edge(0, "new", 8)
        assert not ref.structure.has_edge(0, "new", 8)
        ref.assert_reads(rng)
        with pytest.raises(ValueError):
            ref.structure.add_state("new")


def test_a_shallow_copy_reads_the_same():
    rng = random.Random(8)
    ref = random_reference(rng, 9, 20)
    shallow = copy.copy(ref.structure)
    assert list(shallow.edges()) == list(ref.structure.edges())
    assert [list(shallow.predecessors(s)) for s in shallow.states()] == [
        list(ref.structure.predecessors(s)) for s in shallow.states()
    ]
    ref.assert_reads(rng)
    for k in (shallow, ref.structure):
        with pytest.raises(ValueError):
            k.add_edge(0, "new", 8)
        with pytest.raises(ValueError):
            k.add_state("new")


def test_concurrent_first_reads_agree():
    """Threads that all make the first reads of a built structure, so each
    may build its read arrays and the reverse arrays itself, all read what
    the list reference says: every other round ``totalize`` has made the
    first forward read, and the threads race on the reverse one only."""
    rng = random.Random(9)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(10):
            ref = random_reference(rng, 300, 1200)
            if round_ % 2:
                ref.totalize()
            ids = list(ref.structure.states())
            want = (
                [[dst for _, dst in ref.out[sid]] for sid in ids],
                [[src for src in ids for _, dst in ref.out[src] if dst == sid] for sid in ids],
            )
            got = []

            def read(k=copy.deepcopy(ref.structure)):
                forward = [list(k.successor_ids(sid)) for sid in ids]
                got.append((forward, [list(k.predecessors(sid)) for sid in ids]))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert got == [want] * len(threads)
    finally:
        sys.setswitchinterval(switch)


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
