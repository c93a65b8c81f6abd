"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Wall
times are printed for inspection but never asserted, so the suite stays
reproducible on slow machines.
"""

import functools
import io
import json
import math
import random
import time

from orbitmc import (
    build_counter_structure,
    build_full_structure,
    build_quotient,
    builtin_example,
    check,
    check_bisimulation,
    compare_modes,
    labeling,
    lift_counterexample,
    parse_ctl,
    parse_program,
    rep_sort,
    sat_set,
    successors,
)
from orbitmc.cli import build_config, run
from orbitmc.ctl import EU, TrueF

from oracles import (
    all_permutations,
    backward_bfs,
    flagged,
    min_image_by_full_enumeration,
    mutex_count_closed_form,
    random_state,
    shortest_distance,
)

BUILTINS = ("mutex", "broken-mutex", "allocator")


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run_criterion():
            started = time.perf_counter()
            ok = False
            try:
                fn()
                ok = True
            finally:
                elapsed = time.perf_counter() - started
                verdict = "PASS" if ok else "FAIL"
                print(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.2f}s)")

        return run_criterion

    return wrap


# -- 1: canonical representative laws --------------------------------------------


@criterion(1, "rep-laws")
def test_criterion_1_rep_laws():
    rng = random.Random(101)
    for n in range(2, 9):
        perms_small = all_permutations(n) if n <= 6 else None
        for _ in range(1000):
            s = random_state(rng, n)
            rep = rep_sort(s)
            assert rep_sort(rep) == rep
            mapping = list(range(n))
            rng.shuffle(mapping)
            from orbitmc import Permutation, apply

            assert rep_sort(apply(Permutation(tuple(mapping)), s)) == rep
            if perms_small is not None:
                assert rep == min_image_by_full_enumeration(s)


# -- 2: orbit accounting -----------------------------------------------------------


@criterion(2, "orbit-partition")
def test_criterion_2_orbit_partition():
    for n in (2, 3, 4):
        program = builtin_example("mutex", n)
        quotient = build_quotient(program)
        full = build_full_structure(program)
        assert quotient.total_covered() == full.num_states


# -- 3: closed-form counts ---------------------------------------------------------


@criterion(3, "closed-form-counts")
def test_criterion_3_closed_form_counts():
    program = builtin_example("mutex", 10)
    assert build_full_structure(program).num_states == mutex_count_closed_form(10) == 6144
    assert build_quotient(program).structure.num_states == 21
    assert build_counter_structure(program).num_states == 21
    free_cycle = parse_program(
        "processes 4; pc {A,B,C}; init pc=A; A->B:true/; B->C:true/; C->A:true/;"
    )
    assert build_counter_structure(free_cycle).num_states == 15 == math.comb(6, 2)


# -- 4: reduction factor -----------------------------------------------------------


@criterion(4, "reduction-factor")
def test_criterion_4_reduction_factor():
    comparison = compare_modes(builtin_example("mutex", 10))
    assert comparison.reduction_factor >= 100
    assert abs(comparison.reduction_factor - 6144 / 21) < 1e-9


# -- 5: bisimulation certificates ---------------------------------------------------


@criterion(5, "bisimulation-certificates")
def test_criterion_5_bisimulation():
    for name in BUILTINS:
        for n in (2, 3, 4):
            program = builtin_example(name, n)
            full = build_full_structure(program)
            quotient = build_quotient(program)
            full.totalize()
            quotient.structure.totalize()
            assert check_bisimulation(full, quotient), (name, n)


# -- 6: verdict agreement over a generated formula pool ------------------------------

EXTRA_LABELS = {
    "mutex": " label good := count(pc=T) >= 1; label crit := count(pc=C) >= 1;"
    " label busy := count(pc=W) >= 2;",
    "broken-mutex": " label good := count(pc=T) >= 1; label crit := count(pc=C) >= 1;"
    " label busy := count(pc=W) >= 2;",
    "allocator": " label good := grant == none; label working := count(pc=exec) >= 1;"
    " label queued := count(pc=req) >= 2;",
}


def labeled_builtin(name, n):
    from orbitmc.parser import builtin_source

    return parse_program(builtin_source(name, n) + EXTRA_LABELS[name], name=f"{name}:{n}")


def formula_pool(rng, atoms, count=60):
    unary = ["!", "EX ", "AX ", "EF ", "AF ", "EG ", "AG "]
    pool = []

    def gen(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            return rng.choice(atoms)
        if roll < 0.65:
            return rng.choice(unary) + "(" + gen(depth - 1) + ")"
        left, right = gen(depth - 1), gen(depth - 1)
        op = rng.choice([" & ", " | ", " -> ", "U", "AU"])
        if op == "U":
            return f"E[({left}) U ({right})]"
        if op == "AU":
            return f"A[({left}) U ({right})]"
        return f"({left}){op}({right})"

    while len(pool) < count:
        pool.append(gen(3))
    return pool


@criterion(6, "verdict-agreement")
def test_criterion_6_verdict_agreement():
    rng = random.Random(606)
    for name in BUILTINS:
        for n in (2, 3, 4):
            program = labeled_builtin(name, n)
            structures = {}
            full = build_full_structure(program)
            full.totalize()
            structures["full"] = full
            quotient = build_quotient(program)
            quotient.structure.totalize()
            structures["quotient"] = quotient.structure
            if not program.pid_slots:
                counter = build_counter_structure(program)
                counter.totalize()
                structures["counter"] = counter
            atoms = [label for label, _ in program.label_defs]
            pool = formula_pool(rng, atoms)
            assert len(pool) >= 50
            for text in pool:
                formula = parse_ctl(text)
                verdicts = {mode: check(s, formula).holds for mode, s in structures.items()}
                assert len(set(verdicts.values())) == 1, (name, n, text, verdicts)
            for atom in atoms:
                for structure in structures.values():
                    expected = backward_bfs(structure, flagged(structure.label_flags(atom)))
                    got = flagged(sat_set(structure, EU(TrueF(), parse_ctl(atom))))
                    assert got == expected, (name, n, atom)


# -- 7: counterexample soundness -----------------------------------------------------


@criterion(7, "counterexample-soundness")
def test_criterion_7_counterexamples():
    for n in (2, 3, 4):
        program = builtin_example("broken-mutex", n)
        quotient = build_quotient(program)
        quotient.structure.totalize()
        result = check(quotient.structure, parse_ctl("AG !bad"))
        assert not result.holds
        lifted = lift_counterexample(program, result.counterexample)
        current = program.initial_state()
        assert lifted.states[0] == current
        for action, nxt in zip(lifted.actions, lifted.states[1:]):
            assert (action, nxt) in successors(program, current), (n, action)
            current = nxt
        assert "bad" in labeling(program, current)
        full = build_full_structure(program)
        expected = shortest_distance(full, full.init, flagged(full.label_flags("bad")))
        assert lifted.steps == expected
        if n == 2:
            assert lifted.steps == 4


# -- 8: safety verdicts through the CLI ------------------------------------------------


@criterion(8, "safety-verdicts")
def test_criterion_8_safety_verdicts():
    for name in ("mutex", "allocator"):
        for n in range(2, 7):
            for mode in ("full", "quotient"):
                out, err = io.StringIO(), io.StringIO()
                code = run(
                    build_config(
                        [
                            "check",
                            "--builtin",
                            f"{name}:{n}",
                            "--prop",
                            "AG !bad",
                            "--mode",
                            mode,
                            "--json",
                        ]
                    ),
                    out=out,
                    err=err,
                )
                assert code == 0, (name, n, mode, err.getvalue())
                assert json.loads(out.getvalue())["verdict"] == "holds"


# -- 9: deterministic reports ----------------------------------------------------------

CRITERION_COMMANDS = [
    ["check", "--builtin", "mutex:4", "--prop", "AG !bad", "--mode", "quotient", "--json"],
    ["check", "--builtin", "mutex:6", "--prop", "AG !bad", "--mode", "full", "--json"],
    ["check", "--builtin", "allocator:4", "--prop", "AG !bad", "--mode", "quotient", "--json"],
    ["check", "--builtin", "broken-mutex:2", "--prop", "AG !bad", "--mode", "quotient", "--json"],
    ["check", "--builtin", "broken-mutex:4", "--prop", "AG !bad", "--mode", "counter", "--json"],
    ["reach", "--builtin", "mutex:10", "--mode", "counter", "--json"],
    ["reach", "--builtin", "broken-mutex:3", "--stop-at-bad", "--json"],
    ["compare", "--builtin", "mutex:10", "--json"],
    ["export-dot", "--builtin", "mutex:3", "--mode", "quotient"],
    ["examples"],
]


def scrub_durations(text):
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return text  # non-JSON commands must match byte for byte

    def scrub(node):
        if isinstance(node, dict):
            return {k: (0 if k == "duration_ms" else scrub(v)) for k, v in node.items()}
        return node

    return json.dumps(scrub(report))


@criterion(9, "deterministic-reports")
def test_criterion_9_determinism():
    for argv in CRITERION_COMMANDS:
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            run(build_config(list(argv)), out=out, err=io.StringIO())
            outputs.append(scrub_durations(out.getvalue()))
        assert outputs[0] == outputs[1], argv
