import sys

import pytest

import orbitmc.kripke
from orbitmc import (
    MODES,
    ResourceLimitError,
    UnsupportedModelError,
    atomic_props,
    builtin_example,
    compare_modes,
    labeling,
    lift_counterexample,
    parse_ctl,
    parse_program,
    reach,
)
from orbitmc import build_quotient, check
from orbitmc.explore import explore

from oracles import mutex_count_closed_form


def test_full_reach_counts():
    reached, stats = reach(builtin_example("mutex", 2), "full")
    assert stats.states_reached == len(reached) == 8
    assert stats.deadlocks == 0
    assert stats.frontier_peak >= 1
    assert not stats.bad_reached


def test_quotient_reach_mutex10():
    reached, stats = reach(builtin_example("mutex", 10), "quotient")
    assert stats.states_reached == len(reached) == 21


def test_counter_reach_mutex10():
    _, stats = reach(builtin_example("mutex", 10), "counter")
    assert stats.states_reached == 21


def test_counter_mode_unsupported_for_pid_programs():
    with pytest.raises(UnsupportedModelError):
        reach(builtin_example("allocator", 3), "counter")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        reach(builtin_example("mutex", 2), "sideways")


def test_bad_reached_agrees_across_modes():
    for name in ("mutex", "broken-mutex", "allocator"):
        for n in (1, 2, 3, 4):
            program = builtin_example(name, n)
            verdicts = set()
            for mode in ("full", "quotient", "counter"):
                if mode == "counter" and program.pid_slots:
                    continue
                _, stats = reach(program, mode)
                verdicts.add(stats.bad_reached)
            assert len(verdicts) == 1, (name, n)


def test_bad_reached_agrees_at_scale():
    for name in ("mutex", "broken-mutex"):
        program = builtin_example(name, 10)
        results = {mode: reach(program, mode)[1].bad_reached for mode in ("full", "quotient", "counter")}
        assert len(set(results.values())) == 1


def test_stop_at_bad_halts_early():
    program = builtin_example("broken-mutex", 3)
    full_reached, full_stats = reach(program, "full")
    partial_reached, partial_stats = reach(program, "full", stop_at_bad=True)
    assert full_stats.bad_reached and partial_stats.bad_reached
    assert partial_stats.states_reached <= full_stats.states_reached
    assert partial_reached <= full_reached
    assert any("bad" in labeling(program, s) for s in partial_reached)


def test_stop_at_bad_in_every_mode():
    program = builtin_example("broken-mutex", 3)
    for mode in ("full", "quotient", "counter"):
        _, stats = reach(program, mode, stop_at_bad=True)
        assert stats.bad_reached


def test_stop_at_bad_never_false_positive():
    for name, n in [("mutex", 4), ("allocator", 3)]:
        program = builtin_example(name, n)
        _, stats = reach(program, "full", stop_at_bad=True)
        assert not stats.bad_reached


def test_stop_at_bad_without_a_bad_label():
    program = parse_program("processes 2; pc {A,B}; init pc=A; A -> B : true / ; B -> A : true / ;")
    reached, stats = reach(program, "full", stop_at_bad=True)
    assert not stats.bad_reached
    assert stats.states_reached == len(reached) == 4


def test_stop_at_bad_is_backed_by_a_replayable_path():
    # a bad verdict from the quotient must lift to a concrete execution
    program = builtin_example("broken-mutex", 3)
    _, stats = reach(program, "quotient", stop_at_bad=True)
    assert stats.bad_reached
    quotient = build_quotient(program)
    quotient.structure.totalize()
    result = check(quotient.structure, parse_ctl("AG !bad"))
    lifted = lift_counterexample(program, result.counterexample)
    assert "bad" in labeling(program, lifted.states[-1])


def test_monotone_counts_across_modes():
    for name in ("mutex", "broken-mutex"):
        for n in (1, 2, 3, 4, 6):
            program = builtin_example(name, n)
            full = reach(program, "full")[1].states_reached
            quotient = reach(program, "quotient")[1].states_reached
            counter = reach(program, "counter")[1].states_reached
            assert quotient <= full
            assert counter == quotient


def test_reach_bound_exceeded_reports_partial_stats():
    with pytest.raises(ResourceLimitError) as err:
        reach(builtin_example("mutex", 4), "full", state_bound=7)
    assert err.value.partial_stats is not None
    assert err.value.partial_stats.states_reached <= 7


def test_reach_deterministic():
    program = builtin_example("allocator", 3)
    one_set, one_stats = reach(program, "quotient")
    two_set, two_stats = reach(program, "quotient")
    assert one_set == two_set
    one_stats.duration_ms = two_stats.duration_ms = 0.0
    assert one_stats == two_stats


def test_deadlock_counting():
    program = parse_program("processes 2; pc {A,B}; init pc=A; A -> B : true / ;")
    _, stats = reach(program, "full")
    assert stats.deadlocks == 1
    _, qstats = reach(program, "quotient")
    assert qstats.deadlocks == 1


# -- compare_modes ------------------------------------------------------------


def test_compare_modes_mutex10():
    comparison = compare_modes(builtin_example("mutex", 10))
    assert comparison.stats["full"].states_reached == mutex_count_closed_form(10)
    assert comparison.stats["quotient"].states_reached == 21
    assert comparison.stats["counter"].states_reached == 21
    assert comparison.reduction_factor == pytest.approx(6144 / 21)
    assert comparison.reduction_factor >= 100


def test_compare_modes_trivial_for_one_process():
    comparison = compare_modes(builtin_example("mutex", 1))
    assert comparison.reduction_factor == 1.0


def test_compare_modes_allocator_marks_counter_unsupported():
    comparison = compare_modes(builtin_example("allocator", 3))
    assert "counter" in comparison.unsupported
    assert "full" in comparison.stats and "quotient" in comparison.stats
    assert comparison.reduction_factor > 1.0


@pytest.mark.parametrize("name, n", [("mutex", 4), ("allocator", 3)])
def test_compare_modes_builds_full_and_sym_once_each(monkeypatch, name, n):
    # counter mode is the quotient's build, so its row needs no third one
    builds = []
    real = orbitmc.kripke.breadth_first_build

    def counted(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("orbitmc") and hasattr(module, "breadth_first_build"):
            monkeypatch.setattr(module, "breadth_first_build", counted)
    compare_modes(builtin_example(name, n))
    assert len(builds) == 2


def test_orbit_accounting_through_compare():
    for n in (2, 3, 4):
        program = builtin_example("mutex", n)
        quotient = build_quotient(program)
        full_states = reach(program, "full")[1].states_reached
        assert quotient.total_covered() == full_states


@pytest.mark.parametrize("name", ["mutex", "broken-mutex", "allocator"])
@pytest.mark.parametrize("n", range(1, 5))
def test_one_initial_state_in_every_mode(name, n):
    program = builtin_example(name, n)
    for mode in MODES:
        try:
            structure, _ = explore(program, mode)
        except UnsupportedModelError:  # counter mode refuses pid-typed programs
            assert (mode, name) == ("counter", "allocator")
            continue
        assert structure.init == {0}
        # the initial state alone carries init, also where the structure cycles back to it
        assert [sid for sid in structure.states() if "init" in structure.label_of(sid)] == [0]
        if name == "mutex":
            assert len(structure.predecessors(0)) > 0
        assert structure.props() == frozenset(atomic_props(program))
