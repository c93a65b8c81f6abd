import pytest

from orbitmc import (
    GlobalState,
    ParseError,
    ResourceLimitError,
    build_full_structure,
    builtin_example,
    labeling,
    parse_program,
    successors,
)
from orbitmc.program import AllOthersNotAt, CountAtLeast, GAnd, GNot, GTrue, PidEqNone, SharedEq
from orbitmc.symmetry import apply

from oracles import all_permutations, mutex_count_closed_form, mutex_reachable_states


def state(*pcs, shared=(), pid_slots=()):
    return GlobalState(tuple(shared), tuple((pc,) for pc in pcs), tuple(pid_slots))


# -- parsing -----------------------------------------------------------------


def test_parse_minimal_program():
    program = parse_program("processes 1; pc {A}; init pc=A;")
    assert program.n == 1
    assert program.pc_names == ("A",)
    assert program.commands == ()
    assert program.shared_names == ()


def test_parse_mutex_golden():
    program = builtin_example("mutex", 3)
    assert program.n == 3
    assert program.pc_names == ("T", "W", "C")
    assert program.local_names == ()
    assert len(program.commands) == 3
    t_w, w_c, c_t = program.commands
    assert (t_w.from_pc, t_w.to_pc) == (0, 1)
    assert t_w.guard == GTrue()
    assert t_w.updates == ()
    assert (w_c.from_pc, w_c.to_pc) == (1, 2)
    assert w_c.guard == AllOthersNotAt(2)
    assert (c_t.from_pc, c_t.to_pc) == (2, 0)
    assert program.label_defs == (("bad", CountAtLeast(2, 2)),)
    assert program.init_pc == 0


def test_parse_allocator_golden():
    program = builtin_example("allocator", 2)
    assert program.shared_names == ("grant",)
    assert program.shared_kinds == ("pid",)
    assert program.pid_slots == (0,)
    assert program.init_shared == (2,)  # none encodes as n
    req_exec = program.commands[1]
    assert req_exec.guard == PidEqNone(0)


def test_label_atoms_are_the_guard_atoms():
    program = parse_program(
        "processes 2; shared x : bool; shared g : pid; pc {A};"
        " init pc=A, x=0, g=none; A -> A : x == 1 & g == none / ;"
        " label on := x == 1; label free := !(g == none & x == 0);"
    )
    assert program.commands[0].guard == GAnd(SharedEq(0, 1), PidEqNone(1))
    assert program.label_defs == (
        ("on", SharedEq(0, 1)),
        ("free", GNot(GAnd(PidEqNone(1), SharedEq(0, 0)))),
    )


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("processes 0; pc {A}; init pc=A;", "process count"),
        ("processes 2; pc {A}; init pc=B;", "undeclared pc"),
        ("processes 2; pc {A,A}; init pc=A;", "duplicate pc"),
        ("processes 2; shared g : pid; pc {A}; init pc=A, g=none; A -> A : true / g := *;", "'*' only assigns bool"),
        ("processes 2; shared g : pid; pc {A}; init pc=A, g=none; A -> A : g == 1 / ;", "pid-typed"),
        ("processes 2; shared x : bool; pc {A}; init pc=A, x=0; A -> A : x == self / ;", "is bool"),
        ("processes 2; pc {A}; init pc=A; A -> A : y == 1 / ;", "unknown variable"),
        ("processes 2; shared x : bool; pc {A}; init pc=A;", "init must assign"),
        ("processes 2; shared g : pid; pc {A}; init pc=A, g=0;", "only be initialized to 'none'"),
        ("processes 2; local x : pid; pc {A}; init pc=A, x=0;", "local variables must be bool"),
        ("processes 2; pc {A}; init pc=A; A -> A : true / ; label init := true;", "keyword"),
        ("processes 2; local x : bool; pc {A}; init pc=A, x=0; label l := x == 1;", "not permutation invariant"),
        ("processes 2; pc {A}; init pc=A; label l := count(pc=A) >= 0;", "threshold"),
        ("processes 2; pc {A}; init pc=A; A -> A : true / pc := A;", "keyword"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert fragment in str(err.value)
    assert err.value.line is not None


_DECLS = (
    "processes 2;\nshared g : pid;\nshared b : bool;\nlocal x : bool;\npc {A, B};\n"
    "init pc=A, g=none, b=0, x=0;\n"
)


def _in_guard(text):
    return _DECLS + f"A -> B : {text} / ;\n"


def _in_label(text):
    return _DECLS + "A -> B : true / ;\n" + f"label l := {text};\n"


# guards start at line 7 column 10, labels at line 8 column 12; the table
# pins each error's full message and position, for the boolean rule the
# two share and for the atoms each of them refuses
@pytest.mark.parametrize(
    "source, message, line, col",
    [
        (_in_guard("()"), "expected guard atom", 7, 11),
        (_in_guard("(b == 1"), "expected ')'", 7, 18),
        (_in_guard("b == 1 &"), "expected guard atom", 7, 19),
        (_in_guard("b == 1 |"), "expected guard atom", 7, 19),
        (_in_guard("!"), "expected guard atom", 7, 12),
        (_in_guard("count(pc=A) >= 1"), "'count' is a keyword, not a valid guard atom", 7, 10),
        (_in_guard("true true"), "expected '/'", 7, 15),
        (_in_guard("b == none"), "'b' is bool, cannot compare against none", 7, 10),
        (_in_label("()"), "expected label atom", 8, 13),
        (_in_label("(b == 1"), "expected ')'", 8, 19),
        (_in_label("b == 1 &"), "expected label atom", 8, 20),
        (_in_label("b == 1 |"), "expected label atom", 8, 20),
        (_in_label("!"), "expected label atom", 8, 13),
        (_in_label("all_others(pc != A)"), "'all_others' is a keyword, not a valid label atom", 8, 12),
        (_in_label("exists_other(pc == A)"), "'exists_other' is a keyword, not a valid label atom", 8, 12),
        (_in_label("g == self"), "expected 0, 1 or none in label atom", 8, 17),
        (_in_label("self"), "'self' is a keyword, not a valid label atom", 8, 12),
        (_in_label("x == 1"), "local variable 'x' is not permutation invariant; "
         "label atoms are shared literals and count thresholds", 8, 12),
        (_in_label("!(b == 1 & x == 0)"), "local variable 'x' is not permutation invariant; "
         "label atoms are shared literals and count thresholds", 8, 23),
        (_in_label("count(pc A) >= 1"), "expected '=' in count atom", 8, 21),
        (_in_label("true true"), "expected ';'", 8, 17),
    ],
)
def test_malformed_guards_and_labels_golden(source, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    assert str(err.value) == f"{line}:{col}: {message}"


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_program("processes 2;\npc {A};\ninit pc=Oops;")
    assert err.value.line == 3


# -- initial states ------------------------------------------------------------


def test_initial_states_mutex3():
    program = builtin_example("mutex", 3)
    assert program.initial_state() == state(0, 0, 0)


def test_initial_states_singleton_and_sorted():
    for name, n in [("mutex", 1), ("mutex", 4), ("allocator", 3)]:
        program = builtin_example(name, n)
        init = program.initial_state()
        assert init.locals == tuple(sorted(init.locals))


# -- successors ------------------------------------------------------------


def test_successors_mutex2_from_init():
    program = builtin_example("mutex", 2)
    succ = successors(program, state(0, 0))
    assert set(succ) == {("0/0", state(1, 0)), ("1/0", state(0, 1))}


def test_successors_empty_when_no_guard_holds():
    program = parse_program("processes 2; pc {A,B}; init pc=A; A -> B : true / ;")
    assert successors(program, state(1, 1)) == []


def test_star_update_yields_both_branches():
    program = parse_program(
        "processes 1; local x : bool; pc {A,B}; init pc=A, x=0; A -> B : true / x := *;"
    )
    succ = successors(program, program.initial_state())
    assert len(succ) == 2
    targets = {t for _, t in succ}
    assert targets == {
        GlobalState((), ((1, 0),)),
        GlobalState((), ((1, 1),)),
    }


def test_two_star_updates_yield_four_branches():
    program = parse_program(
        "processes 1; local x : bool; local y : bool; pc {A,B};"
        " init pc=A, x=0, y=0; A -> B : true / x := *, y := *;"
    )
    succ = successors(program, program.initial_state())
    assert len({t for _, t in succ}) == 4


def test_updates_read_the_pre_state():
    program = parse_program(
        "processes 1; shared a : bool; shared b : bool; pc {A};"
        " init pc=A, a=0, b=1; A -> A : true / a := b, b := a;"
    )
    ((_, target),) = successors(program, program.initial_state())
    assert target.shared == (1, 0)


# -- labeling ------------------------------------------------------------


def test_labeling_counts_critical_processes():
    program = builtin_example("mutex", 3)
    assert labeling(program, state(2, 2, 0)) == {"bad"}
    assert labeling(program, state(0, 0, 0)) == frozenset()
    assert labeling(program, state(2, 0, 0)) == frozenset()


def test_labeling_permutation_invariant_exhaustively():
    for name, n in [("mutex", 3), ("mutex", 4), ("allocator", 3)]:
        program = builtin_example(name, n)
        structure = build_full_structure(program)
        perms = all_permutations(n)
        for sid in structure.states():
            s = structure.payload(sid)
            expected = labeling(program, s)
            for perm in perms:
                assert labeling(program, apply(perm, s)) == expected


# -- builtins and full exploration -----------------------------------------------


def test_mutex2_reachable_set_matches_enumeration():
    program = builtin_example("mutex", 2)
    structure = build_full_structure(program)
    reached = {structure.payload(sid) for sid in structure.states()}
    assert reached == mutex_reachable_states(2)
    assert structure.num_states == 8
    assert len(structure.init) == 1


def test_broken_mutex2_reaches_double_critical():
    program = builtin_example("broken-mutex", 2)
    structure = build_full_structure(program)
    assert structure.has_state(state(2, 2))
    # witnessed by an explicit 4-step replay
    path = [state(0, 0), state(1, 0), state(2, 0), state(2, 1), state(2, 2)]
    for current, following in zip(path, path[1:]):
        assert following in {t for _, t in successors(program, current)}


def test_allocator1_cycles_through_three_states():
    program = builtin_example("allocator", 1)
    structure = build_full_structure(program)
    assert structure.num_states == 3
    reached = {structure.payload(sid) for sid in structure.states()}
    assert reached == {
        state(0, shared=(1,), pid_slots=(0,)),
        state(1, shared=(1,), pid_slots=(0,)),
        state(2, shared=(0,), pid_slots=(0,)),
    }
    assert all("bad" not in structure.label_of(sid) for sid in structure.states())


def test_mutex10_count_matches_closed_form_and_enumeration():
    program = builtin_example("mutex", 10)
    structure = build_full_structure(program)
    assert structure.num_states == mutex_count_closed_form(10) == 6144
    reached = {structure.payload(sid) for sid in structure.states()}
    assert reached == mutex_reachable_states(10)


def test_single_state_program_builds_trivial_structure():
    program = parse_program("processes 1; pc {A}; init pc=A;")
    structure = build_full_structure(program)
    assert structure.num_states == 1
    assert structure.num_edges == 0


def test_build_full_structure_is_deterministic():
    program = builtin_example("mutex", 3)
    one = build_full_structure(program)
    two = build_full_structure(program)
    assert [one.payload(s) for s in one.states()] == [two.payload(s) for s in two.states()]
    assert list(one.edges()) == list(two.edges())
    assert one.init == two.init


def test_build_full_structure_respects_bound():
    program = builtin_example("mutex", 3)
    with pytest.raises(ResourceLimitError) as err:
        build_full_structure(program, state_bound=5)
    assert "frontier" in str(err.value)


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        builtin_example("peterson", 2)
    with pytest.raises(ValueError):
        builtin_example("mutex", 0)


# -- equivariance: the load-bearing symmetry property -------------------------------


def equivariant_on_all_reachable(name, n):
    program = builtin_example(name, n)
    structure = build_full_structure(program)
    perms = all_permutations(n)
    for sid in structure.states():
        s = structure.payload(sid)
        succ = {t for _, t in successors(program, s)}
        for perm in perms:
            mapped = {apply(perm, t) for t in succ}
            direct = {t for _, t in successors(program, apply(perm, s))}
            assert mapped == direct, (name, n, s, perm)


def test_successor_equivariance_mutex():
    equivariant_on_all_reachable("mutex", 3)


def test_successor_equivariance_allocator_with_pid_state():
    equivariant_on_all_reachable("allocator", 2)
    equivariant_on_all_reachable("allocator", 3)


def test_successor_equivariance_with_star_updates():
    program = parse_program(
        "processes 3; shared g : bool; local x : bool; pc {A,B};"
        " init pc=A, g=0, x=0;"
        " A -> B : g == 0 / x := *, g := 1;"
        " B -> A : exists_other(pc == B) | g == 1 / g := *, x := 0;"
    )
    structure = build_full_structure(program)
    perms = all_permutations(3)
    for sid in structure.states():
        s = structure.payload(sid)
        succ = {t for _, t in successors(program, s)}
        for perm in perms:
            assert {apply(perm, t) for t in succ} == {
                t for _, t in successors(program, apply(perm, s))
            }
