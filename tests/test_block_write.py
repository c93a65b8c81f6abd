"""The builder's block write against a build that stores every edge
through ``add_edge``.

``kripke.breadth_first_build`` writes each expanded state's edges
straight into the store's open block, with no ``add_edge`` call and no
repeat check.  ``edge_by_edge`` below is the same breadth-first build
over the public interface: it hands each state to ``add_state`` and each
pair to ``add_edge``, which dedupes within the open block.  The two must
agree on every build the package makes, in every mode, to the byte of
``export_dot`` and to every ``BuildStats`` counter but the duration;
that also holds when the state bound is overrun, on the partial
structure and its partial stats, and on a ``stop_at_bad`` build.
"""

import random
from collections import deque

import pytest

import orbitmc.explore as explore_module
import orbitmc.kripke as kripke_module
from orbitmc import BUILTIN_NAMES, KripkeStructure, ResourceLimitError, builtin_example
from orbitmc import generated_group, rotation
from orbitmc.explore import MODES, explore
from orbitmc.kripke import INIT_PROP, BuildStats

from test_differential import random_pid_program, random_program

COUNTED = [slot for slot in BuildStats.__slots__ if slot != "duration_ms"]


def edge_by_edge(props, initial, expand, labeler, *, codec=None, state_bound, stop_at_bad=False,
                 tree=False):
    """(structure, stats) of the breadth-first build, every edge through
    ``add_edge``; a bound overrun raises with the partial structure as
    ``partial_structure``."""
    assert not tree
    structure = KripkeStructure({*props, INIT_PROP}, codec)
    stats = BuildStats()
    labels = frozenset(labeler(initial)) | {INIT_PROP}
    ids = {initial: structure.add_state(initial, labels, initial=True)}
    stats.bad_reached = "bad" in labels
    queue, stats.frontier_peak = deque([0]), 1
    while queue and not (stop_at_bad and stats.bad_reached):
        sid = queue.popleft()
        succs = expand(structure.key(sid))
        stats.deadlocks += not succs
        for action, target in succs:
            tid = ids.get(target)
            if tid is None:
                if structure.num_states >= state_bound:
                    stats.states_reached, stats.edges = structure.num_states, structure.num_edges
                    stats.frontier_peak = max(stats.frontier_peak, len(queue))
                    exc = ResourceLimitError("state bound exceeded", partial_stats=stats)
                    exc.partial_structure = structure
                    raise exc
                labels = frozenset(labeler(target))
                tid = ids[target] = structure.add_state(target, labels)
                stats.bad_reached |= "bad" in labels
                queue.append(tid)
            structure.add_edge(sid, action, tid)
            if stop_at_bad and stats.bad_reached:
                break
        stats.frontier_peak = max(stats.frontier_peak, len(queue))
    stats.states_reached, stats.edges = structure.num_states, structure.num_edges
    return structure, stats


def assert_same_structure(built, ref):
    assert built.num_states == ref.num_states
    assert built.num_edges == ref.num_edges
    assert list(built.edges()) == list(ref.edges())
    for sid in ref.states():
        assert built.key(sid) == ref.key(sid)
        assert built.successors(sid) == ref.successors(sid)
        assert list(built.predecessors(sid)) == list(ref.predecessors(sid))
    assert built.export_dot() == ref.export_dot()


def assert_same_stats(built, ref):
    assert [getattr(built, slot) for slot in COUNTED] == [getattr(ref, slot) for slot in COUNTED]


def assert_block_write_matches(monkeypatch, program):
    builds, made = [], []

    def spy(*args, **kwargs):
        builds.append((args, kwargs))
        return real_build(*args, **kwargs)

    class Recorded(KripkeStructure):  # the structure a build made, partial ones too
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    real_build = kripke_module.breadth_first_build
    monkeypatch.setattr(explore_module, "breadth_first_build", spy)
    monkeypatch.setattr(kripke_module, "KripkeStructure", Recorded)
    modes = ("full", "quotient") if program.pid_slots else MODES
    runs = [(mode, None) for mode in modes]
    runs.append(("quotient", generated_group([rotation(program.n)])))
    for mode, group in runs:
        structure, stats = explore(program, mode, 50_000, _group=group)
        args, kwargs = builds.pop()
        ref, ref_stats = edge_by_edge(*args, **kwargs)
        assert_same_structure(structure, ref)
        assert_same_stats(stats, ref_stats)

        structure, stats = explore(program, mode, 50_000, stop_at_bad=True, _group=group)
        args, kwargs = builds.pop()
        ref, ref_stats = edge_by_edge(*args, **kwargs)
        assert_same_structure(structure, ref)
        assert_same_stats(stats, ref_stats)

        bound = max(1, ref.num_states // 2)
        if bound < ref.num_states:
            with pytest.raises(ResourceLimitError) as err:
                explore(program, mode, bound, _group=group)
            args, kwargs = builds.pop()
            with pytest.raises(ResourceLimitError) as ref_err:
                edge_by_edge(*args, **kwargs)
            assert_same_structure(made[-1], ref_err.value.partial_structure)
            assert_same_stats(err.value.partial_stats, ref_err.value.partial_stats)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("n", range(2, 6))
def test_builtin_block_write_matches_edge_by_edge(monkeypatch, name, n):
    assert_block_write_matches(monkeypatch, builtin_example(name, n))


@pytest.mark.parametrize("seed", range(20))
def test_random_block_write_matches_edge_by_edge(monkeypatch, seed):
    rng = random.Random(16000 + seed)
    assert_block_write_matches(monkeypatch, random_program(rng, rng.randint(2, 5)))


@pytest.mark.parametrize("seed", range(20))
def test_random_pid_block_write_matches_edge_by_edge(monkeypatch, seed):
    rng = random.Random(17000 + seed)
    assert_block_write_matches(monkeypatch, random_pid_program(rng, rng.randint(2, 3)))
