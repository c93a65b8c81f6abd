import gc
import random
import tracemalloc
from pathlib import Path

import pytest

from orbitmc import (
    KripkeStructure,
    ResourceLimitError,
    build_full_structure,
    builtin_example,
    parse_program,
    successors,
)
from orbitmc.explore import explore
from orbitmc.kripke import STUTTER_ACTION, breadth_first_build

BAD = "bad"
DATA = Path(__file__).parent / "data"


def two_cycle():
    k = KripkeStructure()
    s = k.add_state("s")
    t = k.add_state("t")
    k.add_edge(s, "a", t)
    k.add_edge(t, "b", s)
    return k, s, t


def mutex_full(n):
    return builtin_example("mutex", n), build_full_structure(builtin_example("mutex", n))


def test_add_state_first_insertion():
    k = KripkeStructure()
    assert k.add_state("p") == 0
    assert k.num_states == 1


def test_add_state_idempotent_on_payload():
    k = KripkeStructure()
    first = k.add_state(("p", 1))
    again = k.add_state(("p", 1))
    assert first == again == 0
    assert k.num_states == 1


def test_add_state_with_label():
    k = KripkeStructure([BAD])
    k.add_state("p")
    q = k.add_state("q", {"bad"})
    assert q == 1
    assert k.label_of(q) == frozenset({"bad"})


def test_add_state_rejects_unknown_label():
    k = KripkeStructure()
    with pytest.raises(ValueError):
        k.add_state("p", {"bad"})


def test_add_state_rejects_label_change():
    k = KripkeStructure([BAD])
    k.add_state("p", {"bad"})
    with pytest.raises(ValueError):
        k.add_state("p", set())


def test_image_empty():
    k, _, _ = two_cycle()
    assert k.image(set()) == set()


def test_image_two_cycle():
    k, s, t = two_cycle()
    assert k.image({s}) == {t}
    assert k.preimage({t}) == {s}


def test_preimage_empty():
    k, _, _ = two_cycle()
    assert k.preimage(set()) == set()


def test_image_matches_per_state_successor_union_on_mutex2():
    program = builtin_example("mutex", 2)
    structure = build_full_structure(program)
    init_ids = set(structure.init)
    expected = set()
    for sid in init_ids:
        for _, target in successors(program, structure.payload(sid)):
            expected.add(structure.state_of(target))
    assert structure.image(init_ids) == expected


def test_image_preimage_duality_exhaustive_on_mutex2():
    _, structure = mutex_full(2)
    for s in structure.states():
        img = structure.image({s})
        for t in structure.states():
            assert (s in structure.preimage({t})) == (t in img)


def test_image_monotone_and_distributes_over_union():
    _, structure = mutex_full(3)
    rng = random.Random(7)
    ids = list(structure.states())
    for _ in range(25):
        a = {s for s in ids if rng.random() < 0.4}
        b = {s for s in ids if rng.random() < 0.4}
        assert structure.image(a | b) == structure.image(a) | structure.image(b)
        assert structure.image(a) <= structure.image(a | b)


def test_degrees_on_self_loop():
    k = KripkeStructure()
    s = k.add_state("s")
    k.totalize()
    assert k.out_degree(s) == 1
    assert k.in_degree(s) == 1


def test_degrees_on_two_cycle():
    k, s, t = two_cycle()
    assert k.out_degree(s) == k.in_degree(s) == 1
    assert k.out_degree(t) == k.in_degree(t) == 1


def test_degree_sum_equals_edge_count():
    _, structure = mutex_full(2)
    assert sum(structure.out_degree(s) for s in structure.states()) == structure.num_edges
    assert sum(structure.in_degree(s) for s in structure.states()) == structure.num_edges


def test_degree_unknown_state():
    k = KripkeStructure()
    with pytest.raises(KeyError):
        k.out_degree(0)
    with pytest.raises(KeyError):
        k.in_degree(3)


def test_totalize_noop_without_deadlocks():
    k, _, _ = two_cycle()
    edges_before = set(k.edges())
    _, dead = k.totalize()
    assert dead == []
    assert set(k.edges()) == edges_before


def test_totalize_single_state():
    k = KripkeStructure()
    s = k.add_state("s")
    _, dead = k.totalize()
    assert dead == [s]
    assert k.has_edge(s, "stutter", s)
    assert k.is_total()


def test_totalize_matches_independent_deadlock_scan():
    # terminating protocol: both processes step A -> B once, then halt
    program = parse_program("processes 2; pc {A,B}; init pc=A; A -> B : true / ;")
    structure = build_full_structure(program)
    expected = sum(
        1 for sid in structure.states() if not successors(program, structure.payload(sid))
    )
    _, dead = structure.totalize()
    assert len(dead) == expected == 1
    assert structure.is_total()


def test_min_out_degree_after_totalize():
    program = builtin_example("mutex", 3)
    structure = build_full_structure(program)
    structure.totalize()
    assert all(structure.out_degree(s) >= 1 for s in structure.states())


def test_export_dot_empty():
    k = KripkeStructure()
    assert k.export_dot() == "digraph M {\n}\n"


def test_export_dot_single_self_loop():
    k = KripkeStructure()
    s = k.add_state("s")
    k.add_edge(s, "a", s)
    lines = k.export_dot().strip().splitlines()
    assert len(lines) == 4
    assert lines[1].strip().startswith("0 [")
    assert lines[2].strip() == '0 -> 0 [label="a"];'


def test_export_dot_deterministic():
    _, structure = mutex_full(3)
    assert structure.export_dot() == structure.export_dot()


def test_path_validation():
    from orbitmc import Path

    k, s, t = two_cycle()
    good = Path(("s", "t"), ("a",))
    assert good.is_path_of(k)
    assert good.steps == 1
    wrong_action = Path(("s", "t"), ("zzz",))
    assert not wrong_action.is_path_of(k)
    looping = Path(("s", "t"), ("a",), lasso=0)
    assert looping.is_path_of(k)  # t -> s closes the loop
    with pytest.raises(ValueError):
        Path((), ())
    with pytest.raises(ValueError):
        Path(("s", "t"), ())
    with pytest.raises(ValueError):
        Path(("s",), (), lasso=3)


def test_payload_keying_preserves_state_count():
    program = builtin_example("mutex", 2)
    structure = build_full_structure(program)
    count = structure.num_states
    init = program.initial_state()
    structure.add_state(init, structure.label_of(structure.state_of(init)))
    assert structure.num_states == count


# -- store contract: flat arrays per direction, each edge as it was given, --
# -- each source's block written once, in id order, before the first read --


def test_repeated_add_edge_is_stored_again():
    k = KripkeStructure()
    s, t = k.add_state("s"), k.add_state("t")
    k.add_edge(s, "a", t)
    k.add_edge(s, "b", s)
    k.add_edge(s, "a", t)  # a repeat within the open block, appended as any edge
    k.add_edge(t, "b", s)
    k.add_edge(t, "b", s)
    assert k.num_edges == 5
    assert k.out_degree(s) == 3 and k.in_degree(t) == 2
    assert k.successors(s) == [("a", t), ("b", s), ("a", t)]
    assert list(k.predecessors(t)) == [s, s] and list(k.predecessors(s)) == [s, t, t]
    assert k.has_edge(s, "a", t) and k.has_edge(t, "b", s) and not k.has_edge(t, "a", s)


def test_same_endpoints_with_two_actions_are_two_edges():
    k = KripkeStructure()
    s, t = k.add_state("s"), k.add_state("t")
    k.add_edge(s, "a", t)
    k.add_edge(s, "c", t)
    k.add_edge(t, "b", s)
    assert k.num_edges == 3
    assert k.out_degree(s) == k.in_degree(t) == 2
    assert k.has_edge(s, "a", t) and k.has_edge(s, "c", t)
    assert list(k.edges()) == [(s, "a", t), (s, "c", t), (t, "b", s)]


def test_has_edge_on_unknown_ids():
    k, s, t = two_cycle()
    assert not k.has_edge(7, "a", t)
    assert not k.has_edge(-1, "a", t)
    assert not k.has_edge("s", "a", t)
    assert not k.has_edge(s, "a", 7)
    assert not k.has_edge(s, "b", t)


def test_unknown_ids_raise_key_error():
    k, s, _ = two_cycle()
    # the block of s is closed, and from the second round on every block is:
    # an unknown id is a KeyError before the order is checked
    for bad in (2, -1, "s"):
        with pytest.raises(KeyError):
            k.add_edge(s, "a", bad)
        with pytest.raises(KeyError):
            k.add_edge(bad, "a", s)
        with pytest.raises(KeyError):
            k.image({s, bad})
        with pytest.raises(KeyError):
            k.preimage({bad})
    assert k.num_edges == 2


def test_out_of_order_and_repeated_writes_read_in_source_order():
    k = KripkeStructure()
    for name in "abcd":
        k.add_state(name)
    k.add_edge(2, "x", 3)  # opens the block of 2, closing those of 0 and 1 empty
    k.add_edge(2, "y", 3)
    k.add_edge(2, "x", 3)  # a repeat within the open block, stored again
    for src in (0, 1):  # out of order: into a closed block
        with pytest.raises(ValueError, match="one block, in id order"):
            k.add_edge(src, "x", 1)
    k.add_edge(2, "z", 0)
    k.add_edge(3, "x", 0)
    with pytest.raises(ValueError, match="block"):
        k.add_edge(2, "y", 3)  # a repeat of an edge in a closed block
    assert k.num_edges == 5
    assert list(k.edges()) == [(2, "x", 3), (2, "y", 3), (2, "x", 3), (2, "z", 0), (3, "x", 0)]
    assert [list(k.predecessors(s)) for s in k.states()] == [[2, 3], [], [], [2, 2, 2]]
    assert list(k.successor_ids(2)) == [3, 3, 3, 0] and k.successors(1) == []


@pytest.mark.parametrize("read", ["successor_ids", "predecessors", "totalize"])
def test_no_edge_after_the_first_read(read):
    k, s, t = two_cycle()
    u = k.add_state("u")  # the block of t, the last one written, is still open
    if read == "totalize":
        k.totalize()
    else:
        getattr(k, read)(s)
    for src, action, dst in ((t, "c", s), (t, "b", s), (u, "a", s), (u, STUTTER_ACTION, u)):
        with pytest.raises(ValueError, match="block"):
            k.add_edge(src, action, dst)
    assert list(k.edges()) == [(s, "a", t), (t, "b", s)] + (
        [(u, STUTTER_ACTION, u)] if read == "totalize" else []
    )


def test_no_new_state_after_the_first_read():
    k = KripkeStructure([BAD])
    s = k.add_state("s", {BAD})
    k.add_edge(s, "a", s)
    assert k.add_state("t") == 1  # before the first read a new state is welcome
    k.successor_ids(s)
    with pytest.raises(ValueError, match="first read"):
        k.add_state("u")
    with pytest.raises(ValueError, match="different labels"):
        k.add_state("s")
    assert k.add_state("s", {BAD}, initial=True) == s  # a known payload is a lookup
    assert k.add_state("t") == 1 and k.num_states == 2 and k.init == {s}




def test_a_dead_state_reads_one_stutter_loop_from_totalize_on():
    k = KripkeStructure()
    s, t = k.add_state("s"), k.add_state("t")
    k.add_edge(s, "a", t)
    assert k.successors(t) == [] and k.out_degree(t) == 0
    assert not k.has_edge(t, STUTTER_ACTION, t) and not k.is_total()
    assert k.deadlocked_states() == [t]
    assert list(k.predecessors(t)) == [s]  # reverse arrays from before the loop
    _, dead = k.totalize()
    assert dead == [t] and k.is_total() and k.deadlocked_states() == []
    assert k.successors(t) == [(STUTTER_ACTION, t)] and list(k.successor_ids(t)) == [t]
    assert k.has_edge(t, STUTTER_ACTION, t) and k.num_edges == 2
    assert list(k.predecessors(t)) == [s, t] and k.in_degree(t) == 2
    assert k.image({t}) == {t} and k.preimage({t}) == {s, t}
    assert list(k.edges()) == [(s, "a", t), (t, STUTTER_ACTION, t)]
    with pytest.raises(ValueError):
        k.add_edge(t, STUTTER_ACTION, t)  # the loop reads as stored, but takes no write
    assert k.totalize()[1] == [] and k.num_edges == 2 and k.out_degree(t) == 1


def test_a_tree_build_stores_no_edge_for_its_leaves():
    program = builtin_example("mutex", 4)
    structure, _ = explore(program, "full", _tree=True)
    _, dead = structure.totalize()
    assert len(dead) > structure.num_states // 4  # every leaf of the tree is dead in it
    stored = sum(map(structure.out_degree, structure.states())) - len(dead)
    assert stored == structure.num_states - 1  # one tree edge into each state but 0
    assert structure.num_edges == stored + len(dead)
    assert all(structure.successors(sid) == [(STUTTER_ACTION, sid)] for sid in dead)


def test_label_flags_mark_each_labeled_state():
    k = KripkeStructure(["p", "q"])
    for name, labels in (("a", {"p"}), ("b", set()), ("c", {"p", "q"})):
        k.add_state(name, labels)
    assert k.label_flags("p") == b"\1\0\1" and k.label_flags("q") == b"\0\0\1"
    with pytest.raises(ValueError):
        k.label_flags("r")
    assert KripkeStructure(["p"]).label_flags("p") == b""


def test_edge_counts_count_parallel_edges_and_stutter_loops_per_edge():
    k = KripkeStructure()
    a, b, c, d = (k.add_state(name) for name in "abcd")
    k.add_edge(a, "x", b)
    k.add_edge(a, "y", b)
    k.add_edge(a, "z", c)
    k.add_edge(b, "x", a)
    k.add_edge(c, "x", c)
    k.totalize()  # d reads one stutter loop
    assert k.edge_counts(b"\0\1\1\1") == [3, 0, 1, 1]
    assert k.edge_counts(b"\1\0\0\0") == [0, 1, 0, 0]
    assert k.edge_counts(bytes(4)) == [0, 0, 0, 0]
    assert KripkeStructure().edge_counts(b"") == []


def test_structures_hold_a_few_bytes_per_edge():
    """Edges cost a few bytes each, in both directions: the bytes a counter
    build of pipeline:8 holds after its totalize and a predecessors read of
    every state, less those of its discovery tree, per extra edge.  An
    ``(action, id)`` tuple per edge in each direction holds about 110 bytes
    per edge here, so the bound catches their return."""
    program = parse_program((DATA / "pipeline_8.gcl").read_text())
    explore(program, "counter")  # fills the firing plans, which both builds share

    def held(tree):
        gc.collect()
        tracemalloc.start()
        try:
            structure, _ = explore(program, "counter", _tree=tree)
            structure.totalize()
            for sid in structure.states():
                structure.predecessors(sid)
            gc.collect()
            return tracemalloc.get_traced_memory()[0], structure.num_edges
        finally:
            tracemalloc.stop()

    (tree_bytes, tree_edges), (full_bytes, full_edges) = held(True), held(False)
    assert (tree_edges, full_edges) == (1616, 3961)
    assert (full_bytes - tree_bytes) / (full_edges - tree_edges) < 40


def test_export_dot_edges_sorted_on_mutex3():
    _, structure = mutex_full(3)
    triples = []
    for line in structure.export_dot().splitlines():
        if "->" in line:
            arrow, label = line.strip().split(" [label=")
            src, dst = arrow.split(" -> ")
            triples.append((int(src), label[1:-3], int(dst)))
    assert len(triples) == structure.num_edges
    assert triples == sorted(triples) == sorted(structure.edges())


# -- worklist builder --------------------------------------------------------------


def test_build_labels_each_state_once_and_keeps_init():
    labeled = []

    def labeler(payload):
        labeled.append(payload)
        return {"bad"} if payload == 3 else set()

    def expand(payload):
        return [("inc", (payload + 1) % 4), ("back", 0)]

    structure, stats = breadth_first_build([BAD], 0, expand, labeler)
    assert structure.num_states == stats.states_reached == 4
    assert sorted(labeled) == [0, 1, 2, 3]
    assert structure.init == {0}
    assert structure.label_of(0) == frozenset({"init"})
    assert structure.label_of(3) == frozenset({"bad"})
    assert structure.num_edges == stats.edges == 8


@pytest.mark.parametrize("stop_at_bad", [False, True])
def test_build_leaves_the_last_expanded_block_open(stop_at_bad):
    # the builder writes its blocks without add_edge; add_edge must then act
    # on the result as on a structure it wrote itself
    def expand(payload):
        return [("inc", (payload + 1) % 4), ("back", 0), ("skip", 1)]

    structure, _ = breadth_first_build(
        [BAD], 0, expand, lambda p: {BAD} if p == 3 and stop_at_bad else set(),
        stop_at_bad=stop_at_bad,
    )
    last = 2 if stop_at_bad else 3  # stop_at_bad halts after the edge into 3
    stored = structure.num_edges
    pairs = expand(last)[: 1 if stop_at_bad else 3]  # the pairs its block holds
    for action, target in pairs:
        structure.add_edge(last, action, target)  # each a repeat: appended again
    structure.add_edge(last, "new", 2)
    with pytest.raises(ValueError, match="block closed"):
        structure.add_edge(last - 1, "new", 2)
    assert structure.num_edges == stored + len(pairs) + 1
    assert structure.successors(last) == pairs + pairs + [("new", 2)]


def test_build_state_bound_and_stop_at_bad():
    def expand(payload):
        return [("inc", payload + 1)] if payload < 5 else []

    def labeler(payload):
        return {"bad"} if payload == 2 else set()

    structure, _ = breadth_first_build([BAD], 0, expand, labeler, state_bound=6)
    assert structure.num_states == 6
    with pytest.raises(ResourceLimitError) as err:
        breadth_first_build([BAD], 0, expand, labeler, state_bound=5)
    assert err.value.partial_stats.states_reached == 5
    structure, stats = breadth_first_build([BAD], 0, expand, labeler, stop_at_bad=True)
    assert stats.bad_reached
    assert structure.num_states == 3


def test_build_reports_bad_without_stopping():
    def expand(payload):
        return [("inc", payload + 1)] if payload < 5 else []

    def labeler(payload):
        return {"bad"} if payload == 2 else set()

    structure, stats = breadth_first_build([BAD], 0, expand, labeler)
    assert stats.bad_reached
    assert structure.num_states == stats.states_reached == 6
    _, stats = breadth_first_build([BAD], 0, expand, lambda payload: set())
    assert not stats.bad_reached


def test_build_labels_a_state_after_its_expansion():
    # each state's labeler call comes right after its successors, state 0's
    # (labeled when inserted) before them
    calls = []

    def expand(payload):
        calls.append(("expand", payload))
        return [("inc", payload + 1)] if payload < 3 else []

    def labeler(payload):
        calls.append(("label", payload))
        return set()

    breadth_first_build([BAD], 0, expand, labeler)
    assert calls == [("label", 0), ("expand", 0)] + [
        (step, k) for k in (1, 2, 3) for step in ("expand", "label")
    ]
    calls.clear()
    breadth_first_build([BAD], 0, expand, labeler, stop_at_bad=True)
    assert calls == [("label", 0)] + [
        step for k in (0, 1, 2) for step in (("expand", k), ("label", k + 1))
    ] + [("expand", 3)]


@pytest.mark.parametrize("tree", [False, True])
def test_bound_overrun_reports_a_bad_state_it_inserted_last(tree):
    def expand(payload):
        return [("inc", payload + 1), ("inc", payload + 2)]

    def labeler(payload):
        return {BAD} if payload == 4 else set()

    # states 0..4 fit, 4 inserted last and never expanded
    with pytest.raises(ResourceLimitError) as err:
        breadth_first_build([BAD], 0, expand, labeler, state_bound=5, tree=tree)
    assert err.value.partial_stats.states_reached == 5
    assert err.value.partial_stats.bad_reached
    with pytest.raises(ResourceLimitError) as err:
        breadth_first_build([BAD], 0, expand, labeler, state_bound=4, tree=tree)
    assert not err.value.partial_stats.bad_reached


def test_build_checks_each_label_set_against_the_props():
    def expand(payload):
        return [("inc", payload + 1)] if payload < 3 else []

    with pytest.raises(ValueError, match="'odd' is not in the AP set"):
        breadth_first_build([BAD], 0, expand, lambda p: {"odd"} if p % 2 else set())
    structure, _ = breadth_first_build([BAD], 0, expand, lambda p: {BAD} if p % 2 else set())
    # the states of one label set share its one frozenset
    assert structure.label_of(1) is structure.label_of(3) == frozenset({BAD})


def test_successors_read_as_the_edges_of_their_source():
    k = KripkeStructure()
    for name in "abc":
        k.add_state(name)
    k.add_edge(0, "x", 1)
    k.add_edge(1, "x", 2)
    k.add_edge(1, "y", 0)
    k.totalize()  # c is dead
    _, mutex = mutex_full(3)
    counter, _ = explore(builtin_example("broken-mutex", 4), "counter")
    counter.totalize()
    for structure in (k, mutex, counter):
        edges = list(structure.edges())
        for sid in structure.states():
            assert structure.successors(sid) == [(a, t) for s, a, t in edges if s == sid]
