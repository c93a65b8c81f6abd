"""Value semantics of the package's records, and what importing the CLI loads.

Every record class derives from ``value.Value``: it compares equal to an
instance of the same class with equal fields, hashes as its field tuple,
prints as ``Name(field=value, ...)`` and, when frozen, refuses
``setattr``.  The repr literals below were printed by the dataclass
records this base replaced, so a change in any of them shows here.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import orbitmc
from orbitmc import cli, counter, ctl, explore, kripke, program, quotient, symmetry
from orbitmc.counter import CounterState
from orbitmc.ctl import Atom, CheckResult, EG, EU, EX, parse_ctl
from orbitmc.kripke import BuildStats, Path
from orbitmc.parser import builtin_example, builtin_source, parse_program
from orbitmc.program import (
    AllOthersNotAt,
    CountAtLeast,
    ExistsOtherAt,
    GAnd,
    GFalse,
    GlobalState,
    GNot,
    GOr,
    GTrue,
    GuardedCommand,
    LocalEq,
    PidEqNone,
    PidEqSelf,
    Program,
    SharedEq,
    Update,
    ValueExpr,
)
from orbitmc.symmetry import Permutation, PermGroup, full_symmetric, rotation
from orbitmc.value import Value

ALLOCATOR_2 = (
    "Program(n=2, shared_names=('grant',), shared_kinds=('pid',), pc_names=('ready', 'req',"
    " 'exec'), local_names=(), commands=(GuardedCommand(from_pc=0, to_pc=1, guard=GTrue(),"
    " updates=()), GuardedCommand(from_pc=1, to_pc=2, guard=PidEqNone(slot=0),"
    " updates=(Update(target='shared', slot=0, value=ValueExpr(tag='self', arg=0)),)),"
    " GuardedCommand(from_pc=2, to_pc=0, guard=GTrue(), updates=(Update(target='shared',"
    " slot=0, value=ValueExpr(tag='none', arg=0)),))), label_defs=(('bad', CountAtLeast(pc=2,"
    " k=2)),), init_shared=(2,), init_pc=0, init_locals=(), name='<input>')"
)

BAD_LEADS_BACK = (
    "GNot(inner=EU(left=GTrue(), right=GNot(inner=GOr(left=GNot(inner=Atom(name='bad')),"
    " right=GNot(inner=EG(inner=Atom(name='bad')))))))"
)

BUILD_STATS = (
    "BuildStats(states_reached=0, edges=0, deadlocks=0, frontier_peak=0, bad_reached=False,"
    " duration_ms=0.0)"
)


def test_repr_of_a_parsed_program():
    assert repr(parse_program(builtin_source("allocator", 2))) == ALLOCATOR_2


def test_repr_of_a_parsed_formula():
    assert repr(parse_ctl("AG (bad -> AF !bad)")) == BAD_LEADS_BACK


def test_reprs_of_records():
    cases = [
        (
            GlobalState((1, 0), ((0, 1), (2, 0)), (1,)),
            "GlobalState(shared=(1, 0), locals=((0, 1), (2, 0)), pid_slots=(1,))",
        ),
        (
            CounterState((0,), (((0, 0), 2), ((1, 1), 1))),
            "CounterState(shared=(0,), counts=(((0, 0), 2), ((1, 1), 1)))",
        ),
        (
            Path(("s", "t", "u"), ("a", "b"), lasso=1),
            "Path(states=('s', 't', 'u'), actions=('a', 'b'), lasso=1)",
        ),
        (BuildStats(), BUILD_STATS),
        (
            CheckResult(False, Path((1, 2), ("a",))),
            "CheckResult(holds=False,"
            " counterexample=Path(states=(1, 2), actions=('a',), lasso=None))",
        ),
        (
            explore.ModeComparison({"full": BuildStats(3)}, {"counter": "no"}, 1.5),
            "ModeComparison(stats={'full': BuildStats(states_reached=3, edges=0, deadlocks=0,"
            " frontier_peak=0, bad_reached=False, duration_ms=0.0)},"
            " unsupported={'counter': 'no'}, reduction_factor=1.5)",
        ),
        (
            cli.RunConfig("check", builtin="mutex:4", prop="AG !bad"),
            "RunConfig(command='check', builtin='mutex:4', model_path=None, prop='AG !bad',"
            " mode='full', bound=None, fmt='text', stop_at_bad=False, dot_name='M', examples_n=2)",
        ),
        (
            full_symmetric(3),
            "PermGroup(degree=3, generators=(Permutation(mapping=(1, 0, 2)),"
            " Permutation(mapping=(1, 2, 0))), kind='full-symmetric')",
        ),
        (
            PermGroup(3, (rotation(3),)),
            "PermGroup(degree=3, generators=(Permutation(mapping=(1, 2, 0)),), kind='generated')",
        ),
        (
            GuardedCommand(
                0, 1, GAnd(LocalEq(0, 1), ExistsOtherAt(2)), (Update("local", 0, ValueExpr("s")),)
            ),
            "GuardedCommand(from_pc=0, to_pc=1, guard=GAnd(left=LocalEq(slot=0, value=1),"
            " right=ExistsOtherAt(pc=2)), updates=(Update(target='local', slot=0,"
            " value=ValueExpr(tag='s', arg=0)),))",
        ),
        (
            GOr(SharedEq(1, 0), GNot(PidEqSelf(0))),
            "GOr(left=SharedEq(slot=1, value=0), right=GNot(inner=PidEqSelf(slot=0)))",
        ),
        (AllOthersNotAt(3), "AllOthersNotAt(pc=3)"),
        (GFalse(), "GFalse()"),
        (EX(Atom("p")), "EX(inner=Atom(name='p'))"),
    ]
    for value, text in cases:
        assert repr(value) == text


def test_repr_of_build_stats_after_a_build():
    _, stats = explore.explore(builtin_example("mutex", 3), "quotient")
    stats.duration_ms = 1.5
    assert repr(stats) == (
        "BuildStats(states_reached=7, edges=11, deadlocks=0, frontier_peak=3, bad_reached=False,"
        " duration_ms=1.5)"
    )


PROGRAM_FIELDS = (
    *("n", "shared_names", "shared_kinds", "pc_names", "local_names", "commands"),
    *("label_defs", "init_shared", "init_pc", "init_locals", "name"),
)
BUILD_STATS_FIELDS = (
    *("states_reached", "edges", "deadlocks", "frontier_peak", "bad_reached"),
    "duration_ms",
)
RUN_CONFIG_FIELDS = (
    *("command", "builtin", "model_path", "prop", "mode", "bound", "fmt"),
    *("stop_at_bad", "dot_name", "examples_n"),
)


def samples():
    """(class, field names, frozen, one instance) for every record class of the package."""
    mutex = builtin_example("mutex", 3)
    quotient_structure = explore.build_quotient(mutex)
    rows = [
        (GlobalState, ("shared", "locals", "pid_slots"), True, mutex.initial_state()),
        (GTrue, (), True, GTrue()),
        (GFalse, (), True, GFalse()),
        (GNot, ("inner",), True, GNot(GTrue())),
        (GAnd, ("left", "right"), True, GAnd(GTrue(), GFalse())),
        (GOr, ("left", "right"), True, GOr(GTrue(), GFalse())),
        (SharedEq, ("slot", "value"), True, SharedEq(0, 1)),
        (LocalEq, ("slot", "value"), True, LocalEq(0, 1)),
        (PidEqSelf, ("slot",), True, PidEqSelf(0)),
        (PidEqNone, ("slot",), True, PidEqNone(0)),
        (AllOthersNotAt, ("pc",), True, AllOthersNotAt(2)),
        (ExistsOtherAt, ("pc",), True, ExistsOtherAt(2)),
        (CountAtLeast, ("pc", "k"), True, CountAtLeast(2, 2)),
        (ValueExpr, ("tag", "arg"), True, ValueExpr("const", 1)),
        (Update, ("target", "slot", "value"), True, Update("shared", 0, ValueExpr("star"))),
        (GuardedCommand, ("from_pc", "to_pc", "guard", "updates"), True, mutex.commands[1]),
        (Program, PROGRAM_FIELDS, True, mutex),
        (Atom, ("name",), True, Atom("bad")),
        (EX, ("inner",), True, EX(Atom("bad"))),
        (EU, ("left", "right"), True, EU(GTrue(), Atom("bad"))),
        (EG, ("inner",), True, EG(Atom("bad"))),
        (CheckResult, ("holds", "counterexample"), False, CheckResult(True)),
        (Path, ("states", "actions", "lasso"), True, Path(("s", "t"), ("a",), 0)),
        (BuildStats, BUILD_STATS_FIELDS, False, BuildStats()),
        (CounterState, ("shared", "counts"), True, CounterState((), (((0,), 3),))),
        (Permutation, ("mapping",), True, rotation(3)),
        (PermGroup, ("degree", "generators", "kind"), True, full_symmetric(3)),
        (
            quotient.QuotientStructure,
            ("structure", "orbit_sizes", "program", "group"),
            False,
            quotient_structure,
        ),
        (explore.ModeComparison, ("stats", "unsupported", "reduction_factor"), False,
         explore.compare_modes(mutex)),
        (cli.RunConfig, RUN_CONFIG_FIELDS, False, cli.RunConfig("reach")),
    ]
    return rows


def test_field_names_are_those_of_the_dataclasses():
    fields = {cls: names for cls, names, _, _ in samples()}
    assert len(fields) == 30
    for cls, names in fields.items():
        assert cls._fields == names, cls


@pytest.mark.parametrize("row", samples(), ids=lambda row: row[0].__name__)
def test_eq_hash_and_mutability(row):
    cls, names, frozen, value = row
    assert type(value) is cls
    values = tuple(getattr(value, name) for name in names)
    assert value._values == values
    twin = cls(*values)
    assert twin == value and not twin != value
    assert cls(**dict(zip(names, values))) == value
    assert value != object() and value != values
    if frozen:
        assert hash(value) == hash(values) == hash(twin)
        with pytest.raises(AttributeError):
            setattr(value, names[0] if names else "x", None)
        with pytest.raises(AttributeError):
            delattr(value, names[0] if names else "x")
        assert tuple(getattr(value, name) for name in names) == values
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value
    else:
        with pytest.raises(TypeError):
            hash(value)
        setattr(value, names[-1], "changed")
        assert getattr(value, names[-1]) == "changed" and value != twin
        assert value._values == values[:-1] + ("changed",)


def test_equality_needs_the_same_class():
    a, b = Atom("a"), Atom("b")
    assert GAnd(a, b) != GOr(a, b)
    assert GAnd(a, b) == GAnd(Atom("a"), Atom("b"))
    assert GTrue() != GFalse() and GTrue() == GTrue()
    assert EU(a, b) != GAnd(a, b)
    assert PidEqNone(0) != PidEqSelf(0)
    assert symmetry._Bijection((1, 0)) != Permutation((1, 0))
    assert hash(GTrue()) == hash(GFalse()) == hash(())
    assert len({GAnd(a, b), GAnd(a, b), GOr(a, b)}) == 2


def test_frozen_records_refuse_setattr_of_any_name():
    state = GlobalState((0,), ((1,),))
    for name in ("shared", "n", "other"):
        with pytest.raises(AttributeError):
            setattr(state, name, 1)
    with pytest.raises(AttributeError):
        del state.locals
    assert state == GlobalState((0,), ((1,),), ())


def test_validation_still_raises():
    with pytest.raises(ValueError, match="only positive counts"):
        CounterState((), (((0,), 0),))
    with pytest.raises(ValueError, match="sorted by local record"):
        CounterState((), (((1,), 1), ((0,), 1)))
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError, match="at least one state"):
        Path((), ())
    with pytest.raises(ValueError, match="generator degree mismatch"):
        PermGroup(3, (rotation(4),))


def test_counter_state_keeps_its_cached_hash():
    state = CounterState((1,), (((0,), 2), ((1,), 1)))
    assert state._hash == hash(state) == hash(((1,), (((0,), 2), ((1,), 1))))


def test_keywords_defaults_and_replace():
    mutex = builtin_example("mutex", 3)
    fields = dict(zip(Program._fields, mutex._values))
    assert Program(**fields) == mutex
    assert Program(*mutex._values[:-1]).name == "program"
    renamed = mutex._replace(name="other")
    assert renamed.name == "other" and renamed.commands is mutex.commands and renamed != mutex
    assert GAnd(GTrue(), GFalse())._replace(right=GTrue()) == GAnd(GTrue(), GTrue())
    assert GlobalState((0,), ((1,),)).pid_slots == ()
    assert ValueExpr("star") == ValueExpr("star", 0)
    assert Update(target="shared", slot=0, value=ValueExpr("star")) == Update(
        "shared", 0, ValueExpr("star")
    )
    assert BuildStats(edges=3).edges == 3
    assert EU(left=Atom("p"), right=Atom("q")) == EU(Atom("p"), right=Atom("q"))
    assert SharedEq(slot=0, value=1) == SharedEq(0, 1) and GNot(inner=GTrue()) == GNot(GTrue())
    bad_calls = [
        lambda: GAnd(GTrue()),
        lambda: GAnd(GTrue(), GTrue(), GTrue()),
        lambda: GAnd(GTrue(), left=GTrue()),
        lambda: GNot(inner=GTrue(), other=GTrue()),
        lambda: GTrue(1),
        lambda: GTrue(x=1),
        lambda: Program(n=3),
        lambda: Program(*mutex._values, extra=1),
        lambda: Update("shared", 0, ValueExpr("star"), target="local"),
        lambda: mutex._replace(size=3),
    ]
    for bad in bad_calls:
        with pytest.raises(TypeError):
            bad()


def test_a_copied_quotient_keeps_its_canonicalization():
    allocator = builtin_example("allocator", 3)
    built = explore.build_quotient(allocator)
    state = GlobalState((2,), ((0,), (1,), (2,)), allocator.pid_slots)
    assert copy.copy(built).rep(state) == built.rep(state) != state


def test_reprs_evaluate_back_to_equal_values():
    names = {**vars(program), **vars(ctl)}
    for value in (
        parse_ctl("AG (bad -> AF !bad) & E[p U q] & EX r"),
        parse_program(builtin_source("allocator", 2)),
    ):
        assert eval(repr(value), names) == value


def test_formula_atoms_read_the_field_tuples():
    formula = parse_ctl("AG (bad -> AF !bad) & E[p U q] & EX r")
    assert ctl.atoms(formula) == {"bad", "p", "q", "r"}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(orbitmc.__file__))
    probe = "import sys, orbitmc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_every_package_module_is_covered():
    modules = {cli, counter, ctl, explore, kripke, program, quotient, symmetry}
    records = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Value)
        and value.__module__ == module.__name__ and not value.__name__.startswith("_")
    }
    assert records == {cls for cls, _, _, _ in samples()}
