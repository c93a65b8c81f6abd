"""Differential testing over randomly generated pid-free programs.

Every generated program stays inside the parser-expressible fragment, so
the symmetric group acts by automorphisms and all three explorations
must agree: the counter structure is the quotient, the
quotient is bisimilar to the full structure, and CTL verdicts coincide.
A disagreement on any seed is a real bug somewhere in the pipeline, with
the counter abstraction's guard decrement being the usual suspect.
"""

import random

import pytest

from orbitmc import (
    build_counter_structure,
    build_full_structure,
    build_quotient,
    builtin_example,
    check,
    check_bisimulation,
    counter_successors,
    from_counter,
    full_symmetric,
    generated_group,
    labeling,
    orbit,
    parse_ctl,
    parse_program,
    rep_min,
    rep_sort,
    rotation,
    sat_set,
    successors,
    to_counter,
)
from orbitmc.symmetry import Permutation, transposition
from orbitmc.program import (
    AllOthersNotAt,
    CountAtLeast,
    ExistsOtherAt,
    GAnd,
    GFalse,
    GNot,
    GOr,
    GTrue,
    GuardedCommand,
    LocalEq,
    PidEqNone,
    Program,
    SharedEq,
    Update,
    ValueExpr,
    V_CONST,
    V_LOCAL,
    V_SHARED,
    V_STAR,
    render_local,
)

from oracles import flagged, label_by_definition, successors_by_definition


def random_guard(rng, num_pcs, num_shared, num_locals, depth=2):
    atoms = [lambda: GTrue()]
    atoms.append(lambda: AllOthersNotAt(rng.randrange(num_pcs)))
    atoms.append(lambda: ExistsOtherAt(rng.randrange(num_pcs)))
    if num_shared:
        atoms.append(lambda: SharedEq(rng.randrange(num_shared), rng.randint(0, 1)))
    if num_locals:
        atoms.append(lambda: LocalEq(rng.randrange(num_locals), rng.randint(0, 1)))
    roll = rng.random()
    if depth == 0 or roll < 0.5:
        return rng.choice(atoms)()
    sub = lambda: random_guard(rng, num_pcs, num_shared, num_locals, depth - 1)
    if roll < 0.65:
        return GNot(sub())
    if roll < 0.85:
        return GAnd(sub(), sub())
    return GOr(sub(), sub())


def random_value(rng, num_shared, num_locals):
    choices = [ValueExpr(V_CONST, rng.randint(0, 1)), ValueExpr(V_STAR)]
    if num_shared:
        choices.append(ValueExpr(V_SHARED, rng.randrange(num_shared)))
    if num_locals:
        choices.append(ValueExpr(V_LOCAL, rng.randrange(num_locals)))
    return rng.choice(choices)


def random_updates(rng, num_shared, num_locals):
    targets = []
    for slot in range(num_shared):
        if rng.random() < 0.4:
            targets.append(Update("shared", slot, random_value(rng, num_shared, num_locals)))
    for slot in range(num_locals):
        if rng.random() < 0.4:
            targets.append(Update("local", slot, random_value(rng, num_shared, num_locals)))
    return tuple(targets)


def random_program(rng, n):
    num_pcs = rng.randint(2, 3)
    num_shared = rng.randint(0, 2)
    num_locals = rng.randint(0, 1)
    commands = []
    # a guarded ring first, so exploration leaves the initial state and
    # most generated programs have a state space worth diffing
    for pc in range(num_pcs):
        guard = (
            GTrue()
            if rng.random() < 0.6
            else random_guard(rng, num_pcs, num_shared, num_locals, depth=1)
        )
        commands.append(
            GuardedCommand(pc, (pc + 1) % num_pcs, guard, random_updates(rng, num_shared, num_locals))
        )
    for _ in range(rng.randint(0, 2)):
        commands.append(
            GuardedCommand(
                from_pc=rng.randrange(num_pcs),
                to_pc=rng.randrange(num_pcs),
                guard=random_guard(rng, num_pcs, num_shared, num_locals),
                updates=random_updates(rng, num_shared, num_locals),
            )
        )
    label_defs = [("bad", CountAtLeast(rng.randrange(num_pcs), rng.randint(1, n)))]
    if num_shared:
        label_defs.append(("good", SharedEq(rng.randrange(num_shared), rng.randint(0, 1))))
    return Program(
        n=n,
        shared_names=tuple(f"s{k}" for k in range(num_shared)),
        shared_kinds=("bool",) * num_shared,
        pc_names=tuple(f"P{k}" for k in range(num_pcs)),
        local_names=tuple(f"x{k}" for k in range(num_locals)),
        commands=tuple(commands),
        label_defs=tuple(label_defs),
        init_shared=(0,) * num_shared,
        init_pc=0,
        init_locals=(0,) * num_locals,
        name=f"random-{n}",
    )


FORMULAS = ["AG !bad", "EF bad", "AF bad", "EG !bad", "E[!bad U bad]", "AX !bad", "EX bad"]


def assert_counter_is_quotient(counter, quotient):
    """The counter structure and the quotient of one pid-free program are
    one build: the same keys, labels, initial ids and edges in the same
    order, and each counter payload concretizes to the quotient's."""
    qstruct = quotient.structure
    assert list(counter.states()) == list(qstruct.states())
    for sid in counter.states():
        assert counter.key(sid) == qstruct.key(sid)
        assert counter.label_of(sid) == qstruct.label_of(sid)
        assert from_counter(counter.payload(sid)) == qstruct.payload(sid)
    assert counter.init == qstruct.init
    assert [(s, d) for s, _, d in counter.edges()] == [(s, d) for s, _, d in qstruct.edges()]


@pytest.mark.parametrize("seed", range(40))
def test_three_representations_agree_on_random_programs(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(2, 4)
    program = random_program(rng, n)

    full = build_full_structure(program, state_bound=50_000)
    quotient = build_quotient(program, state_bound=50_000)
    counter = build_counter_structure(program, state_bound=50_000)

    assert_counter_is_quotient(counter, quotient)

    full.totalize()
    quotient.structure.totalize()
    counter.totalize()
    assert check_bisimulation(full, quotient), (seed, program)

    for text in FORMULAS:
        formula = parse_ctl(text)
        verdicts = {
            check(full, formula).holds,
            check(quotient.structure, formula).holds,
            check(counter, formula).holds,
        }
        assert len(verdicts) == 1, (seed, text)


# -- random CTL formulas: verdicts and sat sets across the three modes --

CTL_UNARY = ("!", "EX", "AX", "EF", "AF", "EG", "AG")
CTL_BINARY = ("&", "|", "->")
CTL_UNTIL = ("E", "A")
CTL_OPERATORS = CTL_UNARY + CTL_BINARY + CTL_UNTIL


def random_ctl(rng, atoms, depth, op=None):
    """Surface CTL text nested ``depth`` operators deep over ``atoms``;
    ``op`` fixes the outermost operator."""
    if depth == 0:
        return rng.choice(atoms)
    op = op or rng.choice(CTL_OPERATORS)
    sub = lambda: random_ctl(rng, atoms, rng.randrange(depth), None)
    if op in CTL_UNARY:
        return f"{op} ({sub()})"
    if op in CTL_BINARY:
        return f"({sub()}) {op} ({sub()})"
    return f"{op}[{sub()} U {sub()}]"


@pytest.mark.parametrize("seed", range(40))
def test_random_ctl_formulas_agree_across_modes(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(2, 4)
    program = random_program(rng, n)
    full = build_full_structure(program, state_bound=50_000)
    quotient = build_quotient(program, state_bound=50_000).structure
    counter = build_counter_structure(program, state_bound=50_000)
    for structure in (full, quotient, counter):
        structure.totalize()
    full_reps = {sid: rep_sort(full.payload(sid)) for sid in full.states()}
    counter_reps = {cid: from_counter(counter.payload(cid)) for cid in counter.states()}

    atoms = ["init"] + [name for name, _ in program.label_defs]
    # every surface operator once at the top, random ones below it
    for op in CTL_OPERATORS:
        text = random_ctl(rng, atoms, 3, op)
        formula = parse_ctl(text)
        quotient_sat = {quotient.payload(q) for q in flagged(sat_set(quotient, formula))}
        full_sat = flagged(sat_set(full, formula))
        counter_sat = flagged(sat_set(counter, formula))
        for sid, rep in full_reps.items():
            assert (sid in full_sat) == (rep in quotient_sat), (seed, text, full.payload(sid))
        for cid, rep in counter_reps.items():
            assert (cid in counter_sat) == (rep in quotient_sat), (seed, text, rep)
        verdicts = {check(s, formula).holds for s in (full, quotient, counter)}
        assert len(verdicts) == 1, (seed, text)


BROKEN_ALLOCATOR = """
processes 3;
shared grant : pid;
pc {ready, req, exec};
init pc=ready, grant=none;
ready -> req : true / ;
req -> exec : true / grant := self;
exec -> ready : grant == self / grant := none;
label bad := count(pc=exec) >= 2;
"""


def test_pid_program_counterexample_lifts_through_orbit_minimum():
    # missing grant check makes bad reachable; the whole reduced pipeline
    # (rep_min canonicalization, quotient check, witness-based lifting)
    # must produce a replayable concrete execution
    from orbitmc import labeling, lift_counterexample, parse_program, successors
    from oracles import shortest_distance

    program = parse_program(BROKEN_ALLOCATOR, name="broken-alloc:3")
    quotient = build_quotient(program)
    full = build_full_structure(program)
    assert quotient.total_covered() == full.num_states == 53
    full.totalize()
    quotient.structure.totalize()
    assert check_bisimulation(full, quotient)

    result = check(quotient.structure, parse_ctl("AG !bad"))
    assert not result.holds
    lifted = lift_counterexample(program, result.counterexample)
    current = program.initial_state()
    for action, nxt in zip(lifted.actions, lifted.states[1:]):
        assert (action, nxt) in successors(program, current)
        current = nxt
    assert "bad" in labeling(program, current)
    bad = flagged(full.label_flags("bad"))
    assert lifted.steps == shortest_distance(full, full.init, bad) == 4


def test_quotient_under_cyclic_subgroup():
    # quotienting by a proper automorphism subgroup (rotations only) is
    # coarser than nothing and finer than full symmetry, and must still
    # be bisimilar to the full structure
    program = builtin_example("mutex", 3)
    cyclic = generated_group([rotation(3)])
    quotient = build_quotient(program, group=cyclic)
    full = build_full_structure(program)
    sym_quotient = build_quotient(program)

    assert (
        sym_quotient.structure.num_states
        <= quotient.structure.num_states
        <= full.num_states
    )
    assert quotient.total_covered() == full.num_states
    for sid in quotient.structure.states():
        payload = quotient.structure.payload(sid)
        assert len(orbit(cyclic, payload)) == quotient.orbit_sizes[sid]

    full.totalize()
    quotient.structure.totalize()
    assert check_bisimulation(full, quotient)

    formula = parse_ctl("AG !bad")
    assert check(full, formula).holds == check(quotient.structure, formula).holds


def test_cyclic_quotient_counts_necklaces():
    # free cycling over 2 pc values with 4 processes: rotation orbits of
    # binary strings are counted by the necklace numbers; for length 4
    # there are 6 necklaces vs 5 sorted multisets
    from orbitmc import parse_program

    program = parse_program(
        "processes 4; pc {A,B}; init pc=A; A->B:true/; B->A:true/;"
    )
    cyclic = generated_group([rotation(4)])
    necklace_quotient = build_quotient(program, group=cyclic)
    sym_quotient = build_quotient(program)
    full = build_full_structure(program)
    assert full.num_states == 16
    assert sym_quotient.structure.num_states == 5
    assert necklace_quotient.structure.num_states == 6
    assert necklace_quotient.total_covered() == 16


# -- the quotient kernel: one process per class of interchangeable processes --


def random_pid_program(rng, n):
    """A random pid-typed program, written in the input language.

    One or two pid cells are claimed with ``self``, released with
    ``none``, copied into each other and tested against ``self``/``none``
    in guards, next to the usual pc quantifiers, so the pinned processes
    of a state change along most runs.
    """
    pcs = [f"P{k}" for k in range(rng.randint(2, 3))]
    pids = [f"g{k}" for k in range(rng.randint(1, 2))]
    bools = [f"s{k}" for k in range(rng.randint(0, 1))]
    local = ["x"] if rng.random() < 0.5 else []

    def atom():
        choices = [
            "true",
            f"all_others(pc != {rng.choice(pcs)})",
            f"exists_other(pc == {rng.choice(pcs)})",
            f"{rng.choice(pids)} == self",
            f"{rng.choice(pids)} == none",
        ]
        choices += [f"{b} == {rng.randint(0, 1)}" for b in bools + local]
        text = rng.choice(choices)
        return "!" + text if rng.random() < 0.3 else text

    def guard():
        if rng.random() < 0.4:
            return atom()
        return f"{atom()} {rng.choice('&|')} {atom()}"

    def updates():
        out = []
        for g in pids:
            if rng.random() < 0.5:
                out.append(f"{g} := {rng.choice(['self', 'none'] + [h for h in pids if h != g])}")
        for b in bools + local:
            if rng.random() < 0.4:
                out.append(f"{b} := {rng.choice(['0', '1', '*'])}")
        return ", ".join(out)

    lines = [f"processes {n};"]
    lines += [f"shared {g} : pid;" for g in pids]
    lines += [f"shared {b} : bool;" for b in bools]
    lines += [f"local {x} : bool;" for x in local]
    lines.append("pc {" + ",".join(pcs) + "};")
    lines.append("init " + ", ".join([f"pc={pcs[0]}"] + [f"{g}=none" for g in pids]
                                     + [f"{b}=0" for b in bools + local]) + ";")
    for k, pc in enumerate(pcs):
        # an open first step, so exploration leaves the initial state
        ring_guard = "true" if k == 0 or rng.random() < 0.5 else guard()
        lines.append(f"{pc} -> {pcs[(k + 1) % len(pcs)]} : {ring_guard} / {updates()};")
    for _ in range(rng.randint(1, 3)):
        lines.append(f"{rng.choice(pcs)} -> {rng.choice(pcs)} : {guard()} / {updates()};")
    lines.append(f"label bad := count(pc={rng.choice(pcs)}) >= {rng.randint(1, n)};")
    lines.append(f"label free := {pids[0]} == none;")
    return parse_program("\n".join(lines), name=f"random-pid-{n}")


def assert_fired_subset_gives_every_canonical_successor(program, group=None):
    """For every reachable representative, the quotient's edges, from the
    processes the kernel fires, reach exactly the canonical successors of
    firing all n."""
    quotient = build_quotient(program, group=group, state_bound=50_000)
    structure = quotient.structure
    for sid in structure.states():
        rep = structure.payload(sid)
        from_all = {quotient.rep(t) for _, t in successors(program, rep)}
        assert {structure.payload(d) for _, d in structure.successors(sid)} == from_all, rep
    return quotient


@pytest.mark.parametrize("seed", range(40))
def test_fired_subset_matches_firing_every_process_on_random_programs(seed):
    rng = random.Random(5000 + seed)
    n = rng.randint(2, 5)
    assert_fired_subset_gives_every_canonical_successor(random_program(rng, n))


@pytest.mark.parametrize("seed", range(40))
def test_fired_subset_on_random_pid_programs(seed):
    rng = random.Random(7000 + seed)
    n = rng.randint(2, 3)
    program = random_pid_program(rng, n)
    quotient = assert_fired_subset_gives_every_canonical_successor(program)

    full = build_full_structure(program, state_bound=50_000)
    assert quotient.total_covered() == full.num_states
    full.totalize()
    quotient.structure.totalize()
    assert check_bisimulation(full, quotient), seed
    for text in FORMULAS:
        formula = parse_ctl(text)
        assert check(full, formula).holds == check(quotient.structure, formula).holds


@pytest.mark.parametrize(
    "name, n", [(name, 5) for name in ("mutex", "broken-mutex", "allocator")]
)
def test_fired_subset_quotient_is_bisimilar_at_five_processes(name, n):
    program = builtin_example(name, n)
    quotient = assert_fired_subset_gives_every_canonical_successor(program)
    full = build_full_structure(program)
    full.totalize()
    quotient.structure.totalize()
    assert check_bisimulation(full, quotient)


@pytest.mark.parametrize("seed", range(10))
def test_generated_subgroup_still_fires_every_process(seed):
    rng = random.Random(9000 + seed)
    n = rng.randint(3, 4)
    program = random_program(rng, n) if seed % 2 else random_pid_program(rng, 3)
    cyclic = generated_group([rotation(program.n)])
    quotient = assert_fired_subset_gives_every_canonical_successor(program, cyclic)
    full = build_full_structure(program, state_bound=50_000)
    full.totalize()
    quotient.structure.totalize()
    assert check_bisimulation(full, quotient), seed


# -- random subgroups: the generated-group path against full mode and Sym(n) --


def random_generator(rng, n):
    """A transposition, a cycle through a random subset, or a swap of two
    disjoint blocks of processes."""
    kind = rng.choice(("transposition", "cycle", "blocks"))
    if kind == "transposition":
        return transposition(n, *rng.sample(range(n), 2))
    mapping = list(range(n))
    if kind == "cycle":
        points = rng.sample(range(n), rng.randint(2, n))
        for a, b in zip(points, points[1:] + points[:1]):
            mapping[a] = b
    else:
        size = rng.randint(1, n // 2)
        points = rng.sample(range(n), 2 * size)
        for a, b in zip(points[:size], points[size:]):
            mapping[a], mapping[b] = b, a
    return Permutation(tuple(mapping))


def random_case(seed):
    """A random program, pid-free on even seeds and pid-typed on odd ones."""
    rng = random.Random(11000 + seed)
    if seed % 2:
        return rng, random_pid_program(rng, rng.randint(2, 3))
    return rng, random_program(rng, rng.randint(2, 4))


@pytest.mark.parametrize("seed", range(40))
def test_random_subgroup_quotients_are_bisimilar_to_full(seed):
    rng, program = random_case(seed)
    group = generated_group(
        [random_generator(rng, program.n) for _ in range(rng.randint(1, 2))]
    )
    quotient = build_quotient(program, group=group, state_bound=50_000)
    full = build_full_structure(program, state_bound=50_000)
    assert quotient.total_covered() == full.num_states, seed
    for sid in quotient.structure.states():
        rep = quotient.structure.payload(sid)
        assert quotient.orbit_sizes[sid] == len(orbit(group, rep))
        assert rep_min(group, rep, witness=False)[0] == rep
    full.totalize()
    quotient.structure.totalize()
    assert check_bisimulation(full, quotient), seed


@pytest.mark.parametrize("seed", range(40))
def test_symmetric_group_given_by_generators_matches_full_symmetric(seed):
    # enumerating Sym(n) from its generators must find the pinned sort's
    # representatives, state for state, with the same edges between them
    _, program = random_case(seed)
    sym = build_quotient(program, state_bound=50_000)
    generators = full_symmetric(program.n).generators
    enumerated = build_quotient(program, group=generated_group(generators), state_bound=50_000)
    one, two = sym.structure, enumerated.structure
    assert [one.payload(s) for s in one.states()] == [two.payload(s) for s in two.states()]
    assert [one.label_of(s) for s in one.states()] == [two.label_of(s) for s in two.states()]
    assert one.init == two.init
    assert {(s, d) for s, _, d in one.edges()} == {(s, d) for s, _, d in two.edges()}
    assert sym.orbit_sizes == enumerated.orbit_sizes


@pytest.mark.parametrize("seed", range(40))
def test_random_ctl_formulas_agree_on_random_pid_programs(seed):
    rng = random.Random(7000 + seed)
    program = random_pid_program(rng, rng.randint(2, 3))
    full = build_full_structure(program, state_bound=50_000)
    quotient = build_quotient(program, state_bound=50_000).structure
    full.totalize()
    quotient.totalize()
    group = full_symmetric(program.n)
    full_reps = {sid: rep_min(group, full.payload(sid))[0] for sid in full.states()}

    atoms = ["init"] + [name for name, _ in program.label_defs]
    for op in CTL_OPERATORS:
        text = random_ctl(rng, atoms, 3, op)
        formula = parse_ctl(text)
        quotient_sat = {quotient.payload(q) for q in flagged(sat_set(quotient, formula))}
        full_sat = flagged(sat_set(full, formula))
        for sid, rep in full_reps.items():
            assert (sid in full_sat) == (rep in quotient_sat), (seed, text, full.payload(sid))
        assert check(full, formula).holds == check(quotient, formula).holds, (seed, text)


# -- random labels: the boolean layer labels share with guards --


def random_label(rng, leaves, depth):
    """A label nested ``depth`` connectives deep along its first operand."""
    if depth == 0:
        return rng.choice(leaves)()
    op = rng.choice((GNot, GAnd, GOr))
    if op is GNot:
        return GNot(random_label(rng, leaves, depth - 1))
    return op(random_label(rng, leaves, depth - 1), random_label(rng, leaves, rng.randrange(depth)))


def node_types(expr):
    children = [getattr(expr, name) for name in expr._fields]
    return {type(expr)}.union(*(node_types(c) for c in children if not isinstance(c, int)))


def random_labels(rng, program):
    """Four depth-3 labels over every label atom the program's shared
    variables allow, redrawn until together they use every connective and
    every such atom."""
    n, pcs = program.n, len(program.pc_names)
    leaves = [GTrue, GFalse, lambda: CountAtLeast(rng.randrange(pcs), rng.randint(1, n + 1))]
    bools = [k for k, kind in enumerate(program.shared_kinds) if kind == "bool"]
    pids = [k for k, kind in enumerate(program.shared_kinds) if kind == "pid"]
    if bools:
        leaves.append(lambda: SharedEq(rng.choice(bools), rng.randint(0, 1)))
    if pids:
        leaves.append(lambda: PidEqNone(rng.choice(pids)))
    wanted = {GTrue, GFalse, GNot, GAnd, GOr, CountAtLeast}
    wanted |= {SharedEq} if bools else set()
    wanted |= {PidEqNone} if pids else set()
    while True:
        labels = [random_label(rng, leaves, 3) for _ in range(4)]
        if set().union(*map(node_types, labels)) == wanted:
            return tuple((f"l{k}", expr) for k, expr in enumerate(labels))


@pytest.mark.parametrize("pid_typed", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_random_labels_match_definition_and_agree_across_modes(seed, pid_typed):
    if pid_typed:
        rng = random.Random(7000 + seed)
        program = random_pid_program(rng, rng.randint(2, 3))
    else:
        rng = random.Random(1000 + seed)
        program = random_program(rng, rng.randint(2, 4))
    labels = random_labels(random.Random(3000 + seed), program)
    program = program._replace(label_defs=program.label_defs + labels)

    full = build_full_structure(program, state_bound=50_000)
    for sid in full.states():
        state = full.payload(sid)
        expected = {name for name, expr in program.label_defs if label_by_definition(expr, state)}
        assert labeling(program, state) == expected, (seed, state)

    structures = [full, build_quotient(program, state_bound=50_000).structure]
    if not pid_typed:
        structures.append(build_counter_structure(program, state_bound=50_000))
    for structure in structures:
        structure.totalize()
    for name, _ in labels:
        for text in (f"AG !{name}", f"EF {name}"):
            formula = parse_ctl(text)
            verdicts = {check(structure, formula).holds for structure in structures}
            assert len(verdicts) == 1, (seed, text)


# -- the successor kernel against the language's definition --


def counter_successors_by_definition(program, cstate):
    """The definition's successors of the sorted concretization, fired by
    the first process of each record and mapped through ``to_counter``."""
    state = from_counter(cstate)
    locs = state.locals
    heads = [i for i, rec in enumerate(locs) if i == 0 or locs[i - 1] != rec]
    out = []
    for action, t in successors_by_definition(program, state, heads):
        i, j = action.split("/")
        out.append((f"{render_local(program, locs[int(i)])}/{j}", to_counter(t)))
    return out


def assert_kernel_matches_definition(program):
    """``successors`` and ``counter_successors`` against the oracle on every
    reachable state: same list, same order, same actions."""
    full = build_full_structure(program, state_bound=50_000)
    for sid in full.states():
        state = full.payload(sid)
        assert successors(program, state) == successors_by_definition(program, state)
    if program.pid_slots:
        return
    counter = build_counter_structure(program, state_bound=50_000)
    for cid in counter.states():
        cstate = counter.payload(cid)
        expected = counter_successors_by_definition(program, cstate)
        assert counter_successors(program, cstate) == expected, (program.name, cstate)


@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_definition_on_random_programs(seed):
    rng = random.Random(5000 + seed)
    assert_kernel_matches_definition(random_program(rng, rng.randint(2, 5)))


@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_definition_on_random_pid_programs(seed):
    rng = random.Random(7000 + seed)
    assert_kernel_matches_definition(random_pid_program(rng, rng.randint(2, 3)))


STAR_AND_SELF = """
processes 3;
shared g : pid;
shared b : bool;
local x : bool;
pc {A, B};
init pc=A, g=none, b=0, x=0;
A -> B : true / g := self, b := *, x := *;
B -> A : g == self / g := none, x := b;
B -> B : !(g == self) & exists_other(pc == B) / b := *;
label bad := count(pc=B) >= 3;
"""


def test_effect_memo_neither_aliases_nor_leaks_between_processes():
    program = parse_program(STAR_AND_SELF, name="star-and-self:3")
    first = build_full_structure(program)
    # the second build reads every firing plan from the memo the first one filled
    second = build_full_structure(program)
    fresh = build_full_structure(parse_program(STAR_AND_SELF, name="star-and-self:3"))
    payloads = [first.payload(s) for s in first.states()]
    assert payloads == [second.payload(s) for s in second.states()]
    assert payloads == [fresh.payload(s) for s in fresh.states()]
    assert list(first.edges()) == list(second.edges()) == list(fresh.edges())
    for state in payloads:
        assert successors(program, state) == successors_by_definition(program, state)

    # from the initial state, every process claims g for itself, under all
    # four star branches, although all three fire from the same record
    init = program.initial_state()
    claims = [(action, t.shared) for action, t in successors(program, init)]
    assert claims == [(f"{i}/0", (i, b)) for i in range(3) for b in (0, 0, 1, 1)]
    for i in range(3):
        fired = [t for action, t in successors(program, init) if action.startswith(f"{i}/")]
        assert [t.locals[i][1] for t in fired] == [0, 1, 0, 1]
