"""Run-length keys (``runs.RunCodec``): round trips, canonical form, wide counts.

Under the full symmetric group every state is stored as one int: the
shared values, the pinned records in pin-rank order and sorted ``(record
code, count)`` pairs as fixed-width little-endian fields, lowest first.
A key exists only for a representative, and each count is one byte wide
up to n = 255 and two bytes past that.
"""

import io
import itertools
import random

import pytest

from orbitmc import (
    CounterState,
    GlobalState,
    InternalError,
    Permutation,
    apply,
    build_counter_structure,
    build_quotient,
    builtin_example,
    full_symmetric,
    rep_min,
)
from orbitmc.cli import build_config, run
from orbitmc.counter import CounterView

from test_codec import random_state
from test_differential import random_pid_program, random_program


def programs():
    for seed in range(20):
        rng = random.Random(4000 + seed)
        yield random_program(rng, rng.randint(2, 6))
        yield random_pid_program(rng, rng.randint(2, 4))
    yield builtin_example("allocator", 300)
    yield builtin_example("mutex", 300)


@pytest.mark.parametrize("program", list(programs()), ids=lambda p: p.name)
def test_representatives_round_trip_and_only_they_encode(program):
    runs = program.table.runs
    group = full_symmetric(program.n)
    rng = random.Random(program.name)
    for state in [random_state(rng, program) for _ in range(40)] + [program.initial_state()]:
        rep = rep_min(group, state, witness=False)[0]
        key = runs.encode(rep)
        assert runs.decode(key) == rep
        assert runs.canonical(program.table.codec.encode(state)) == key
        if state != rep:
            with pytest.raises(ValueError):
                runs.encode(state)


def test_non_representatives_raise_value_errors():
    runs = builtin_example("allocator", 3).table.runs
    assert runs.decode(runs.encode(GlobalState((0,), ((2,), (0,), (1,)), (0,)))).shared == (0,)
    misfits = [
        GlobalState((1,), ((0,), (2,), (1,)), (0,)),  # the pid value names process 1, not rank 0
        GlobalState((0,), ((2,), (1,), (0,)), (0,)),  # unpinned records out of order
        GlobalState((3,), ((1,), (0,), (0,)), (0,)),  # no pins, records out of order
        GlobalState((3,), ((0,), (0,)), (0,)),  # a process short
        GlobalState((3,), ((0,), (0,), (3,)), (0,)),  # no such pc
    ]
    for state in misfits:
        with pytest.raises(ValueError):
            runs.encode(state)


def test_every_other_image_of_a_representative_is_refused():
    # encode compares the positional key of the canonical form with the
    # state's own, so a state differing from its representative only in a
    # pid value or in the order of two records must still raise
    program = builtin_example("allocator", 4)
    runs = program.table.runs
    rep = GlobalState((0,), ((2,), (0,), (1,), (1,)), (0,))
    assert runs.decode(runs.encode(rep)) == rep
    images = {apply(Permutation(m), rep) for m in itertools.permutations(range(4))}
    assert len(images) == 12  # 4! over the two interchangeable (1,) records
    for image in images - {rep}:
        with pytest.raises(ValueError, match="not its own representative"):
            runs.encode(image)
    mutex = builtin_example("mutex", 100)
    locs = ((0,),) * 97 + ((1,), (2,), (1,))
    with pytest.raises(ValueError, match="not its own representative"):
        mutex.table.runs.encode(GlobalState((), locs, ()))
    rep = GlobalState((), tuple(sorted(locs)), ())
    assert mutex.table.runs.decode(mutex.table.runs.encode(rep)) == rep


def test_keys_that_do_not_fit_raise_value_errors():
    program = builtin_example("mutex", 3)
    runs = program.table.runs
    key = runs.encode(program.initial_state())
    assert key == 3 << 8  # one run: record code 0, then its count 3 above it
    misfits = (
        key - (1 << 8),  # a process short
        key + (1 << 8),  # a process too many
        key + (1 << 16),  # a second run, of code 1, with no process in it
        1 | 1 << 8 | 2 << 24,  # runs (1, 1) and (0, 2): codes out of order
        7 | 3 << 8,  # record code 7 names no pc
        -key,
    )
    for bad in misfits:
        with pytest.raises(ValueError):
            runs.decode(bad)
    with pytest.raises(ValueError):
        CounterView(program).encode(program.initial_state())


def test_a_key_that_lost_a_process_is_an_internal_error():
    program = builtin_example("mutex", 3)
    runs = program.table.runs
    with pytest.raises(InternalError, match="lost a process"):
        runs.census(2 << 8)


def test_count_fields_widen_past_255_processes():
    assert builtin_example("mutex", 255).table.runs.pair_size == 2
    assert builtin_example("mutex", 256).table.runs.pair_size == 3
    runs = builtin_example("allocator", 300).table.runs
    assert runs.pair_size == 3
    rep = GlobalState((0,), ((2,),) + ((0,),) * 150 + ((1,),) * 149, (0,))
    key = runs.encode(rep)
    # little-endian fields, lowest first: the shared value (2 bytes), the
    # pinned record, then two (code, count) pairs, each count 2 bytes wide
    assert key.to_bytes(9, "little") == b"\x00\x00" + b"\x02" + b"\x00\x96\x00" + b"\x01\x95\x00"
    assert runs.decode(key) == rep


@pytest.mark.parametrize("build", [build_quotient, build_counter_structure])
def test_mutex_300_with_two_byte_counts(build):
    built = build(builtin_example("mutex", 300))
    structure = getattr(built, "structure", built)
    # the counter abstraction's 2n + 1 states and 4n - 1 edges
    assert (structure.num_states, structure.num_edges) == (601, 1199)
    payloads = [structure.payload(sid) for sid in structure.states()]
    if build is build_counter_structure:
        assert CounterState((), (((0,), 300),)) in payloads
        assert all(c.n == 300 for c in payloads)
    else:
        assert sum(built.orbit_sizes.values()) == 2**300 + 300 * 2**299


@pytest.mark.parametrize("mode", ["quotient", "counter"])
def test_mutex_300_reports(mode):
    out, err = io.StringIO(), io.StringIO()
    argv = ["check", "--builtin", "mutex:300", "--mode", mode, "--prop", "AG !bad"]
    assert run(build_config(argv), out=out, err=err) == 0
    assert "  states_reached: 601\n  edges: 1199\n" in out.getvalue()
