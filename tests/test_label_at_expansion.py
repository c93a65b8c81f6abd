"""A build labels each state when it expands it, from one parse of its key.

``kripke.breadth_first_build`` labels a state right after its successors
(at insertion under ``stop_at_bad``), and ``program.labeling`` reads back
the parse the successor rule just made: ``RunCodec.parts`` and
``StateCodec.census`` keep their last key and its result.  These tests pin
the labels of finished and partial builds against a labeling of each
state's own decoded form, count the parses of a build, and check that the
one-entry memos never answer for another key.
"""

import random
from collections import Counter

import pytest

from orbitmc import (
    InternalError,
    ResourceLimitError,
    builtin_example,
    from_counter,
    labeling,
)
from orbitmc.explore import explore

from test_differential import random_pid_program, random_program

MODES = ("full", "quotient", "counter")


def programs():
    yield builtin_example("mutex", 4)
    yield builtin_example("broken-mutex", 4)
    yield builtin_example("allocator", 3)
    for seed in range(6):
        rng = random.Random(2500 + seed)
        yield random_program(rng, rng.randint(2, 4))
        yield random_pid_program(rng, rng.randint(2, 3))


def modes_of(program):
    return MODES if not program.pid_slots else ("full", "quotient")


def assert_labeled_by_payload(program, structure, mode):
    """Every state carries the labels of its decoded form, state 0 ``init`` too."""
    for sid in structure.states():
        state = structure.payload(sid)
        if mode == "counter":
            state = from_counter(state)
        expected = labeling(program, state) | ({"init"} if sid == 0 else set())
        assert structure.label_of(sid) == expected, (program.name, mode, sid)


@pytest.mark.parametrize("tree", [False, True])
def test_every_state_of_a_finished_build_carries_its_labels(tree):
    for program in programs():
        for mode in modes_of(program):
            structure, _ = explore(program, mode, _tree=tree)
            assert_labeled_by_payload(program, structure, mode)


def test_every_state_of_a_stop_at_bad_build_carries_its_labels():
    halted = 0
    for program in programs():
        for mode in modes_of(program):
            structure, stats = explore(program, mode, stop_at_bad=True)
            assert_labeled_by_payload(program, structure, mode)
            assert stats.bad_reached == any("bad" in structure.label_of(s)
                                            for s in structure.states())
            halted += stats.bad_reached
    assert halted >= 3  # broken-mutex in each mode at least


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("tree", [False, True])
def test_a_bound_overrun_after_a_bad_state_reports_it(mode, tree):
    program = builtin_example("broken-mutex", 4)
    structure, _ = explore(program, mode)
    first_bad = min(s for s in structure.states() if "bad" in structure.label_of(s))
    # the first bad state is the last one the bound lets in: it is never expanded
    with pytest.raises(ResourceLimitError) as err:
        explore(program, mode, state_bound=first_bad + 1, _tree=tree)
    assert err.value.partial_stats.states_reached == first_bad + 1
    assert err.value.partial_stats.bad_reached
    with pytest.raises(ResourceLimitError) as err:
        explore(program, mode, state_bound=first_bad, _tree=tree)
    assert not err.value.partial_stats.bad_reached


def count_parses(monkeypatch, program, mode):
    """The keys the codec a build of ``mode`` labels through parses from now
    on, one entry per parse: each unpack of the run codes in
    ``RunCodec.parts``, or each ``StateCodec.split`` of ``StateCodec.parts``."""
    parsed = []
    if mode == "full":
        codec = program.table.codec
        split = codec.split

        def counted(key):
            parsed.append(key)
            return split(key)

        monkeypatch.setattr(codec, "split", counted)
        return parsed
    runs = program.table.runs
    for head, (size, fields, codes, counts, s) in list(runs._heads.items()):

        def counted(data, codes=codes):
            parsed.append(int.from_bytes(data, "little"))
            return codes(data)

        monkeypatch.setitem(runs._heads, head, (size, fields, counted, counts, s))
    return parsed


@pytest.mark.parametrize(
    "name, n, mode",
    [
        ("mutex", 5, "full"),
        ("allocator", 3, "full"),
        ("mutex", 6, "quotient"),
        ("allocator", 5, "quotient"),
        ("broken-mutex", 6, "counter"),
    ],
)
@pytest.mark.parametrize("tree", [False, True])
def test_a_build_parses_each_key_once(monkeypatch, name, n, mode, tree):
    program = builtin_example(name, n)
    explore(program, mode)  # fills the firing plans and the codec's per-layout memos
    parsed = count_parses(monkeypatch, program, mode)
    structure, _ = explore(program, mode, _tree=tree)
    assert parsed == [structure.key(sid) for sid in structure.states()]


def occupancy(program, state):
    pcs = Counter(rec[0] for rec in state.locals)
    return tuple(pcs[pc] for pc in range(len(program.pc_names)))


@pytest.mark.parametrize("name, n", [("mutex", 4), ("allocator", 3)])
def test_a_key_the_kernel_did_not_just_parse_parses_afresh(monkeypatch, name, n):
    program = builtin_example(name, n)
    for mode, codec in (("full", program.table.codec), ("quotient", program.table.runs)):
        structure, _ = explore(program, mode)
        keys = [structure.key(sid) for sid in structure.states()]
        expected = {key: (structure.payload(sid).shared, occupancy(program, structure.payload(sid)))
                    for sid, key in enumerate(keys)}
        parsed = count_parses(monkeypatch, program, mode)
        order = keys + keys[::-1] + random.Random(n).sample(keys, len(keys))
        for key in order:
            census = codec.census(key)
            assert census == expected[key] and type(census[1]) is tuple
            # an equal key that is not the one last read is parsed, and so is
            # the key when read again after it; CPython keeps one object for
            # each int up to 256, so such a key has no equal other
            other = int(str(key))
            assert other == key and (other is not key or key <= 256)
            for again in (other, key) if other is not key else ():
                count = len(parsed)
                assert codec.census(again) == expected[key] and len(parsed) == count + 1
        monkeypatch.undo()


def test_census_checks_every_key_it_reads_back():
    runs = builtin_example("mutex", 3).table.runs
    short = 2 << 8  # one run of record code 0, one process short
    assert runs.parts(short)[4] == (2, 0, 0)
    for _ in range(2):
        with pytest.raises(InternalError, match="lost a process"):
            runs.census(short)
