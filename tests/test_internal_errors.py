"""Internal invariant checks raise InternalError, also under ``python -O``."""

import io
import os
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

import orbitmc
from orbitmc import (
    GlobalState,
    InternalError,
    Path,
    build_counter_structure,
    build_quotient,
    builtin_example,
    lift_counterexample,
)
from orbitmc.cli import EXIT_INTERNAL, build_config, run

from oracles import asymmetric_mutex


def break_orbit_sizes(monkeypatch):
    # 4 does not divide 3! = 6
    monkeypatch.setattr("orbitmc.quotient.orbit_size_sorted", lambda program, state: 4)


def mismatch_permutation_degree(monkeypatch):
    # a canonicalization that applies a permutation of the wrong degree:
    # symmetry.apply rejects it with a ValueError, which is a bug, not bad input
    def rep_sort(state):
        return orbitmc.symmetry.apply(orbitmc.symmetry.identity(state.n + 1), state)

    monkeypatch.setattr("orbitmc.symmetry.rep_sort", rep_sort)


def lose_a_process(monkeypatch):
    # the counter build steps run-length keys; the fault drops one unit of
    # the first run and hands the key kernel's caller that key
    def counter_successors(program, key):
        runs = program.table.runs
        shared, pins, codes, counts, _ = runs.parts(key)
        pairs = [(codes[0], counts[0] - 1)] if counts[0] > 1 else []
        return [("p0:vanish", runs.pack(shared, pins, pairs + list(zip(codes, counts))[1:]))]

    monkeypatch.setattr("orbitmc.explore.counter_successors", counter_successors)


def raise_from(target, exc):
    # an exception no handler of the CLI names: a bug like any other
    def breaker(monkeypatch):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(target, broken)

    return breaker


def label_process_zero(monkeypatch):
    # mutex with a label that permuting processes changes: building the
    # program's table raises ValueError, in every mode
    monkeypatch.setattr("orbitmc.cli.builtin_example", lambda name, n: asymmetric_mutex(n))


def unmatched_quotient_path(program):
    # both processes critical at once: no concrete successor of the
    # initial state has that representative
    both_critical = GlobalState((), ((2,), (2,)))
    return Path((program.initial_state(), both_critical), ("p0:enter",))


def test_orbit_size_not_dividing_n_factorial(monkeypatch):
    break_orbit_sizes(monkeypatch)
    with pytest.raises(InternalError, match="does not divide"):
        build_quotient(builtin_example("mutex", 3))


def test_counter_state_losing_a_process(monkeypatch):
    lose_a_process(monkeypatch)
    with pytest.raises(InternalError, match="lost a process"):
        build_counter_structure(builtin_example("mutex", 3))


def test_lift_without_a_matching_concrete_successor():
    program = builtin_example("mutex", 2)
    with pytest.raises(InternalError, match="no concrete successor"):
        lift_counterexample(program, unmatched_quotient_path(program))


@pytest.mark.parametrize(
    "argv, breaker",
    [
        (["export-dot", "--builtin", "mutex:3", "--mode", "quotient"],
         mismatch_permutation_degree),
        (["compare", "--builtin", "mutex:3"], mismatch_permutation_degree),
        (["reach", "--builtin", "mutex:3", "--mode", "counter"], lose_a_process),
        (["check", "--builtin", "mutex:3", "--mode", "counter", "--prop", "AG !first_critical"],
         label_process_zero),
        (["check", "--builtin", "mutex:3", "--mode", "quotient", "--prop", "AG !bad"],
         mismatch_permutation_degree),
        (["check", "--builtin", "mutex:3", "--prop", "AG !bad"],
         raise_from("orbitmc.ctl.sat_set", KeyError(7))),
        (["reach", "--builtin", "mutex:3"],
         raise_from("orbitmc.explore.labeling", TypeError("no label protocol"))),
        (["check", "--builtin", "mutex:3", "--mode", "quotient", "--prop", "AG !bad"],
         label_process_zero),
        (["check", "--builtin", "mutex:3", "--prop", "AG !first_critical"], label_process_zero),
    ],
)
def test_cli_reports_internal_errors_with_exit_4(monkeypatch, argv, breaker):
    breaker(monkeypatch)
    out, err = io.StringIO(), io.StringIO()
    assert run(build_config(argv), out=out, err=err) == EXIT_INTERNAL == 4
    assert err.getvalue().startswith("internal error:")


_UNDER_O = """
import sys
from orbitmc import (
    InternalError,
    build_counter_structure,
    build_quotient,
    builtin_example,
    lift_counterexample,
)
import test_internal_errors as t

class Patch:
    def setattr(self, target, value):
        module, attr = target.rsplit(".", 1)
        setattr(sys.modules[module], attr, value)

if sys.flags.optimize < 1:
    sys.exit("not running under -O")
program = builtin_example("mutex", 2)
cases = [
    lambda: lift_counterexample(program, t.unmatched_quotient_path(program)),
    lambda: (t.break_orbit_sizes(Patch()), build_quotient(builtin_example("mutex", 3))),
    lambda: (t.lose_a_process(Patch()), build_counter_structure(builtin_example("mutex", 3))),
]
for i, case in enumerate(cases):
    try:
        case()
    except InternalError:
        continue
    sys.exit(f"check {i} did not fire")
"""


def test_checks_still_fire_under_python_O():
    here = FsPath(__file__).resolve().parent
    src = FsPath(orbitmc.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
