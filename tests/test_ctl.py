import gc
import random
import tracemalloc
from pathlib import Path

import pytest

from orbitmc import (
    KripkeStructure,
    ParseError,
    build_full_structure,
    build_quotient,
    builtin_example,
    check,
    generated_group,
    labeling,
    lift_counterexample,
    parse_ctl,
    parse_program,
    rep_min,
    rotation,
    sat_set,
    shortest_path,
    successors,
    transposition,
)
from orbitmc.ctl import And, Atom, EG, EU, EX, FalseF, Not, Or, TrueF, neg
from orbitmc.explore import explore

from oracles import backward_bfs, flagged, shortest_distance

DATA = Path(__file__).parent / "data"


# -- parsing and normalization ---------------------------------------------------


def test_ag_normalizes_to_negated_reachability():
    assert parse_ctl("AG !bad") == Not(EU(TrueF(), Atom("bad")))


def test_inv_is_an_alias_for_ag():
    assert parse_ctl("INV good") == parse_ctl("AG good")


def test_ef_normalizes_to_until():
    assert parse_ctl("EF bad") == EU(TrueF(), Atom("bad"))


def test_ax_af_dualities_in_the_ast():
    assert parse_ctl("AX p") == Not(EX(Not(Atom("p"))))
    assert parse_ctl("AF p") == Not(EG(Not(Atom("p"))))


def test_au_normalization():
    expected = Not(
        Or(
            EU(Not(Atom("q")), And(Not(Atom("p")), Not(Atom("q")))),
            EG(Not(Atom("q"))),
        )
    )
    assert parse_ctl("A[p U q]") == expected


def test_eu_surface_form():
    assert parse_ctl("E[p U q]") == EU(Atom("p"), Atom("q"))


def test_precedence():
    assert parse_ctl("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))
    assert parse_ctl("EX a & b") == And(EX(Atom("a")), Atom("b"))
    assert parse_ctl("!a -> b") == Or(Atom("a"), Atom("b"))
    assert parse_ctl("a -> b -> c") == Or(Not(Atom("a")), Or(Not(Atom("b")), Atom("c")))


def test_double_negation_cleanup():
    assert neg(neg(Atom("p"))) == Atom("p")
    assert parse_ctl("!!p") == Atom("p")


def test_nested_formula_parses():
    parse_ctl("EF (bad & EX bad)")


def test_nested_until_forms():
    assert parse_ctl("E[E[a U b] U c]") == EU(EU(Atom("a"), Atom("b")), Atom("c"))
    assert parse_ctl("E[a U b] & c") == And(EU(Atom("a"), Atom("b")), Atom("c"))


def test_init_is_a_checkable_atom():
    structure = build_full_structure(builtin_example("mutex", 2))
    structure.totalize()
    assert flagged(sat_set(structure, Atom("init"))) == structure.init
    assert check(structure, parse_ctl("EF init")).holds


@pytest.mark.parametrize("text", ["(p", "p)", "E[p U", "EX", "p q", "&", "A[p q]"])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_ctl(text)


# -- sat sets on hand-built structures ---------------------------------------------


def two_cycle_with_bad():
    k = KripkeStructure(["bad"])
    s = k.add_state("s", initial=True)
    t = k.add_state("t", {"bad"})
    k.add_edge(s, "a", t)
    k.add_edge(t, "b", s)
    return k, s, t


def test_sat_true_is_everything():
    k, s, t = two_cycle_with_bad()
    assert sat_set(k, TrueF()) == b"\1\1"
    assert sat_set(k, FalseF()) == b"\0\0"


def test_sat_on_two_cycle():
    k, s, t = two_cycle_with_bad()
    assert flagged(sat_set(k, parse_ctl("EF bad"))) == {s, t}
    assert flagged(sat_set(k, parse_ctl("AG !bad"))) == frozenset()
    assert flagged(sat_set(k, parse_ctl("EX bad"))) == {s}
    assert flagged(sat_set(k, parse_ctl("EG !bad"))) == frozenset()


def test_sat_needs_total_structure():
    k = KripkeStructure()
    k.add_state("s")
    with pytest.raises(ValueError):
        sat_set(k, TrueF())


def test_unknown_atom_rejected():
    k, _, _ = two_cycle_with_bad()
    with pytest.raises(ValueError):
        sat_set(k, Atom("nope"))


# -- random structures: dualities and oracles ------------------------------------


def random_structure(rng, size):
    k = KripkeStructure(
        ["p", "q"]
    )
    for sid in range(size):
        labels = set()
        if rng.random() < 0.4:
            labels.add("p")
        if rng.random() < 0.3:
            labels.add("q")
        k.add_state(sid, labels, initial=(sid == 0))
    for src in range(size):
        for dst in range(size):
            if rng.random() < 2.0 / size:
                k.add_edge(src, f"{src}->{dst}", dst)
    k.totalize()
    return k


FORMULA_POOL = [
    "p",
    "!p",
    "p & q",
    "p | !q",
    "EX p",
    "EF q",
    "EG p",
    "E[p U q]",
]


def test_extensional_dualities_on_random_structures():
    rng = random.Random(30)
    for _ in range(25):
        k = random_structure(rng, rng.randint(2, 12))
        everything = frozenset(k.states())
        for text in FORMULA_POOL:
            f = parse_ctl(text)
            for dual, core in (("AG", EU(TrueF(), neg(f))), ("AX", EX(neg(f))),
                               ("AF", EG(neg(f)))):
                got = flagged(sat_set(k, parse_ctl(f"{dual} ({text})")))
                assert got == everything - flagged(sat_set(k, core)), (dual, text)


def test_ef_matches_backward_bfs_on_random_structures():
    rng = random.Random(31)
    for _ in range(30):
        k = random_structure(rng, rng.randint(2, 15))
        for atom in ("p", "q"):
            expected = backward_bfs(k, flagged(k.label_flags(atom)))
            assert flagged(sat_set(k, parse_ctl(f"EF {atom}"))) == expected


def au_oracle(structure, left, right):
    """Direct least fixpoint for A[left U right], independent of the dualities."""
    sat = set(right)
    changed = True
    while changed:
        changed = False
        for s in structure.states():
            if s in sat or s not in left:
                continue
            succ = [t for _, t in structure.successors(s)]
            if succ and all(t in sat for t in succ):
                sat.add(s)
                changed = True
    return frozenset(sat)


def test_au_normalization_matches_direct_fixpoint():
    rng = random.Random(32)
    for _ in range(25):
        k = random_structure(rng, rng.randint(2, 12))
        got = flagged(sat_set(k, parse_ctl("A[p U q]")))
        expected = au_oracle(k, flagged(k.label_flags("p")), flagged(k.label_flags("q")))
        assert got == expected


def eg_oracle(structure, inner):
    """EG by reachability of a cycle inside the candidate set."""
    inner = set(inner)
    # a state survives iff it can reach, inside `inner`, a cycle inside `inner`
    on_cycle = set()
    for start in inner:
        seen = set()
        stack = [start]
        while stack:
            s = stack.pop()
            for _, t in structure.successors(s):
                if t not in inner:
                    continue
                if t == start:
                    on_cycle.add(start)
                    stack = []
                    break
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return frozenset(backward_bfs_within(structure, on_cycle, inner))


def backward_bfs_within(structure, targets, allowed):
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        t = frontier.pop()
        for s in structure.predecessors(t):
            if s in allowed and s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen


def test_eg_matches_cycle_oracle():
    rng = random.Random(33)
    for _ in range(25):
        k = random_structure(rng, rng.randint(2, 10))
        assert flagged(sat_set(k, parse_ctl("EG p"))) == eg_oracle(k, flagged(k.label_flags("p")))


# -- one flag per state: edge cases and set oracles -------------------------------


def labeled_with(structure, name):
    return frozenset(s for s in structure.states() if name in structure.label_of(s))


@pytest.mark.parametrize("text", FORMULA_POOL + ["AF p", "AX !q", "A[p U q]", "true"])
def test_sat_on_an_empty_structure(text):
    k = KripkeStructure(["p", "q"])
    k.totalize()
    assert sat_set(k, parse_ctl(text)) == b""
    result = check(k, parse_ctl(text))
    assert result.holds and result.counterexample is None


@pytest.mark.parametrize("stored_loop", [False, True])
@pytest.mark.parametrize("labels", [set(), {"p"}, {"q"}, {"p", "q"}])
def test_sat_on_a_one_state_structure(labels, stored_loop):
    # the one state's only path stays put, so every temporal operator reads
    # the state's own labels
    k = KripkeStructure(["p", "q"])
    k.add_state("s", labels, initial=True)
    if stored_loop:
        k.add_edge(0, "loop", 0)
    k.totalize()
    p, q = "p" in labels, "q" in labels
    expected = {
        "p": p, "!p": not p, "p & q": p and q, "p | !q": p or not q,
        "EX p": p, "EF q": q, "EG p": p, "E[p U q]": q, "AF p": p, "AX !q": not q,
    }
    for text, holds in expected.items():
        assert sat_set(k, parse_ctl(text)) == bytes((holds,)), text
        assert check(k, parse_ctl(text)).holds == holds, text


def test_boolean_and_ex_flags_match_set_oracles():
    rng = random.Random(35)
    for size in list(range(1, 20)) + [63, 64, 65, 300]:
        k = random_structure(rng, size)
        everything = frozenset(k.states())
        p, q = labeled_with(k, "p"), labeled_with(k, "q")

        def ex(inner):
            return frozenset(s for s in k.states() if set(k.successor_ids(s)) & inner)

        expected = {
            "!p": everything - p,
            "p & q": p & q,
            "p | q": p | q,
            "!(p & !q)": everything - (p - q),
            "EX p": ex(p),
            "EX !q": ex(everything - q),
            "EX (p | q)": ex(p | q),
            "!EX (p & q)": everything - ex(p & q),
        }
        for text, want in expected.items():
            got = sat_set(k, parse_ctl(text))
            assert type(got) is bytes and len(got) == size
            assert flagged(got) == want, (size, text)


def test_shortest_path_reads_target_flags():
    structure = totalized_full("broken-mutex", 2)
    flags = structure.label_flags("bad")
    expected = shortest_path(structure, structure.init, flags)
    assert expected is not None and expected.is_path_of(structure)
    assert expected.steps == shortest_distance(structure, structure.init, flagged(flags))
    assert shortest_path(structure, structure.init, bytearray(flags)) == expected
    assert shortest_path(structure, structure.init, bytes(structure.num_states)) is None


# -- verdicts on the protocols ---------------------------------------------------


def totalized_full(name, n):
    structure = build_full_structure(builtin_example(name, n))
    structure.totalize()
    return structure


def test_mutex_never_reaches_bad():
    structure = totalized_full("mutex", 3)
    assert not any(sat_set(structure, parse_ctl("EF bad")))
    assert check(structure, parse_ctl("AG !bad")).holds


def test_broken_mutex_reaches_bad_from_init():
    structure = totalized_full("broken-mutex", 3)
    (init,) = structure.init
    assert sat_set(structure, parse_ctl("EF bad"))[init]
    assert not check(structure, parse_ctl("AG !bad")).holds


def test_check_on_quotient_agrees_with_full():
    for name in ("mutex", "broken-mutex", "allocator"):
        for n in (2, 3):
            full = totalized_full(name, n)
            quotient = build_quotient(builtin_example(name, n))
            quotient.structure.totalize()
            formula = parse_ctl("AG !bad")
            assert check(full, formula).holds == check(quotient.structure, formula).holds


def test_empty_init_holds_vacuously():
    k, _, _ = two_cycle_with_bad()
    k.init.clear()
    assert check(k, parse_ctl("AG bad")).holds
    assert check(k, parse_ctl("false")).holds


def test_counterexample_is_shortest():
    structure = totalized_full("broken-mutex", 2)
    result = check(structure, parse_ctl("AG !bad"))
    assert not result.holds
    path = result.counterexample
    assert path is not None
    assert path.steps == 4
    expected = shortest_distance(structure, structure.init, flagged(structure.label_flags("bad")))
    assert path.steps == expected
    assert path.is_path_of(structure)
    assert "bad" in structure.label_of(structure.state_of(path.states[-1]))


def test_counterexample_deterministic():
    one = check(totalized_full("broken-mutex", 3), parse_ctl("AG !bad")).counterexample
    two = check(totalized_full("broken-mutex", 3), parse_ctl("AG !bad")).counterexample
    assert one == two


def test_ef_witness_path():
    structure = totalized_full("broken-mutex", 2)
    result = check(structure, parse_ctl("EF bad"))
    assert result.holds
    witness = result.counterexample
    assert witness is not None
    assert witness.is_path_of(structure)
    assert "bad" in structure.label_of(structure.state_of(witness.states[-1]))


def test_check_runs_one_fixpoint_pass():
    # the counterexample or witness target comes from the verdict's own evaluation
    for text, holds in (("AG !bad", False), ("EF bad", True)):
        structure = totalized_full("broken-mutex", 3)
        scans = [0]
        is_total = structure.is_total

        def counted():
            scans[0] += 1
            return is_total()

        structure.is_total = counted
        result = check(structure, parse_ctl(text))
        assert result.holds == holds
        assert result.counterexample is not None
        assert scans[0] == 1


def test_no_counterexample_for_other_shapes():
    structure = totalized_full("mutex", 2)
    result = check(structure, parse_ctl("AG !bad"))
    assert result.holds and result.counterexample is None
    result = check(structure, parse_ctl("EX true"))
    assert result.counterexample is None


# -- lifting --------------------------------------------------------------


def quotient_counterexample(name, n):
    program = builtin_example(name, n)
    quotient = build_quotient(program)
    quotient.structure.totalize()
    result = check(quotient.structure, parse_ctl("AG !bad"))
    assert not result.holds
    return program, result.counterexample


def test_lift_zero_length_path():
    program = builtin_example("mutex", 3)
    from orbitmc.kripke import Path

    lifted = lift_counterexample(program, Path((program.initial_state(),), ()))
    assert lifted.states == (program.initial_state(),)


def test_lifted_counterexample_replays_and_ends_bad():
    for n in (2, 3, 4):
        program, qpath = quotient_counterexample("broken-mutex", n)
        lifted = lift_counterexample(program, qpath)
        assert lifted.steps == qpath.steps
        current = program.initial_state()
        assert lifted.states[0] == current
        for action, nxt in zip(lifted.actions, lifted.states[1:]):
            assert (action, nxt) in successors(program, current)
            current = nxt
        assert "bad" in labeling(program, current)


def test_lift_tracks_representatives():
    from orbitmc import rep_sort

    program, qpath = quotient_counterexample("broken-mutex", 3)
    lifted = lift_counterexample(program, qpath)
    for concrete, rep in zip(lifted.states, qpath.states):
        assert rep_sort(concrete) == rep


@pytest.mark.parametrize("name, n, text, steps", [
    ("broken-mutex", 3, "AG !bad", 4),
    ("broken-mutex", 4, "AG !bad", 4),
    ("allocator", 3, "AG init", 1),
])
@pytest.mark.parametrize("generator", [rotation, lambda n: transposition(n, 0, 1)])
def test_lift_under_a_generated_subgroup(name, n, text, steps, generator):
    program = builtin_example(name, n)
    group = generated_group([generator(n)])
    quotient = build_quotient(program, group=group)
    result = check(quotient.structure, parse_ctl(text))
    assert not result.holds and result.counterexample.steps == steps
    lifted = lift_counterexample(program, result.counterexample, group)
    assert lifted.steps == steps
    assert lifted.is_path_of(build_full_structure(program))
    reps = [rep_min(group, state, witness=False)[0] for state in lifted.states]
    assert reps == list(result.counterexample.states)


def test_lift_single_enabled_move():
    from orbitmc.kripke import Path

    program = builtin_example("mutex", 3)
    start = program.initial_state()
    follow = sorted(
        {t for _, t in successors(program, start)}, key=lambda s: s.encode()
    )[0]
    from orbitmc import rep_sort

    lifted = lift_counterexample(program, Path((start, rep_sort(follow)), ("x",)))
    assert lifted.states[0] == start
    assert rep_sort(lifted.states[1]) == rep_sort(follow)
    assert lifted.states[1] in {t for _, t in successors(program, start)}


def test_lift_rejects_wrong_start():
    from orbitmc.kripke import Path

    program = builtin_example("mutex", 2)
    wrong = successors(program, program.initial_state())[0][1]
    with pytest.raises(ValueError):
        lift_counterexample(program, Path((wrong,), ()))


# -- fixpoints do linear work ------------------------------------------------------


def count_reads(structure):
    """Count successor/predecessor reads on one instance: calls plus edges returned."""
    reads = [0]

    def counted(method):
        def read(sid):
            out = method(sid)
            reads[0] += 1 + len(out)
            return out

        return read

    structure.successors = counted(structure.successors)
    structure.successor_ids = counted(structure.successor_ids)
    structure.predecessors = counted(structure.predecessors)
    return reads


def chain(n, gap):
    """States 0..n-1 in a line, the last one looping; p everywhere but ``gap``, q at the end."""
    k = KripkeStructure(
        ["p", "q"]
    )
    for sid in range(n):
        labels = set() if sid == gap else {"p"}
        if sid == n - 1:
            labels.add("q")
        k.add_state(sid, labels, initial=(sid == 0))
    for sid in range(n - 1):
        k.add_edge(sid, "step", sid + 1)
    k.totalize()
    return k


def linear_reads(k, text):
    """States satisfying ``text`` and the reads it took, asserted to be at most 2·(|S| + |E|)."""
    size = k.num_states + k.num_edges
    reads = count_reads(k)
    got = sat_set(k, parse_ctl(text))
    assert reads[0] <= 2 * size, (text, reads[0], size)
    return flagged(got), reads[0]


def eu_oracle(structure):
    """E[p U q] by backward search through p-states, independent of the fixpoint code."""
    return frozenset(
        backward_bfs_within(
            structure, flagged(structure.label_flags("q")), flagged(structure.label_flags("p"))
        )
    )


@pytest.mark.parametrize("n", [300, 3000])
def test_eg_and_eu_reads_are_linear_on_a_chain(n):
    # the gap sits at the far end, so EG must peel the whole chain off state by state
    got, reads = linear_reads(chain(n, gap=n - 2), "EG p")
    assert got == {n - 1}
    assert reads >= n
    got, reads = linear_reads(chain(n, gap=n - 2), "E[p U q]")
    assert got == {n - 1}
    got, reads = linear_reads(chain(n, gap=0), "E[p U q]")
    assert got == frozenset(range(1, n))
    assert reads >= n


def test_eg_and_eu_reads_are_linear_on_random_structures():
    rng = random.Random(34)
    for _ in range(25):
        k = random_structure(rng, rng.randint(2, 15))
        expected = eg_oracle(k, flagged(k.label_flags("p")))
        assert linear_reads(k, "EG p")[0] == expected
        k = random_structure(rng, rng.randint(2, 15))
        expected = eu_oracle(k)
        assert linear_reads(k, "E[p U q]")[0] == expected


def test_eg_counts_parallel_edges_per_edge():
    # a reaches b by two actions and also loops on itself; b leaves p for good
    k = KripkeStructure(["p"])
    a = k.add_state("a", {"p"})
    b = k.add_state("b", {"p"})
    c = k.add_state("c")
    k.add_edge(a, "x", b)
    k.add_edge(a, "y", b)
    k.add_edge(a, "w", a)
    k.add_edge(b, "z", c)
    k.totalize()
    assert flagged(sat_set(k, parse_ctl("EG p"))) == {a}
    assert flagged(sat_set(k, parse_ctl("AF !p"))) == {b, c}


def test_eg_on_a_long_chain():
    n = 10**5
    k = chain(n, gap=n // 2)
    assert sat_set(k, parse_ctl("EG p")) == bytes(n // 2 + 1) + b"\1" * (n - n // 2 - 1)


def test_ef_witness_on_a_long_chain():
    # the witness is read back from its target and reversed once, so a
    # 2·10^5-step path takes linear time, not quadratic
    n = 2 * 10**5
    result = check(chain(n, gap=0), parse_ctl("EF q"))
    assert result.holds
    assert result.counterexample.states == tuple(range(n))
    assert result.counterexample.actions == ("step",) * (n - 1)


def test_check_holds_a_few_bytes_per_state():
    """The tracemalloc peak of ``check`` over the totalized counter
    structure of pipeline:8, per state, for a few formulas of the liveness
    shapes.  One flag per state id per subformula keeps it near 180 bytes;
    a frozenset of ids per subformula held about 350, so the bound catches
    a return of per-state sets."""
    program = parse_program((DATA / "pipeline_8.gcl").read_text())
    for text in ("AF done", "EF done", "AG !bad", "AX AF done"):
        structure, _ = explore(program, "counter")
        structure.totalize()
        formula = parse_ctl(text)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = check(structure, formula)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert result.holds, text
        assert structure.num_states == 1287
        assert peak / structure.num_states < 250, (text, peak / structure.num_states)


def test_a_check_result_holds_no_per_state_memory():
    """What ``check``'s result holds, for ``AF done`` over the totalized
    counter structure of pipeline:12 (6188 states): the memory traced
    across the check with the result alive, after a first check has built
    the reverse relation that the structure keeps.  A verdict and a path
    need no set of states; a frozenset of the satisfying ids held about
    115 bytes per state."""
    text = (DATA / "pipeline_8.gcl").read_text().replace("8", "12")  # n is its only 8
    structure, _ = explore(parse_program(text), "counter")
    structure.totalize()
    formula = parse_ctl("AF done")
    assert check(structure, formula).holds
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = check(structure, formula)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert result.holds and result.counterexample is None
    assert structure.num_states == 6188
    assert held / structure.num_states < 1, held / structure.num_states
