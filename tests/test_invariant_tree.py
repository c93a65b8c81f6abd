"""``AG p`` and ``EF p`` checked on the breadth-first discovery tree.

For an invariant or a reachability formula over a propositional target,
``check`` builds a structure that keeps only the edge that first reached
each state, while the stats count every edge.  Every check here runs
through that tree build and through a full build of the same program and
must give the same verdict, path, actions and stats; every other shape,
and every other command, must still build every edge.
"""

import io
import json
import random

import pytest

import orbitmc.cli as cli
import orbitmc.explore as explore_module
from orbitmc import BUILTIN_NAMES, ResourceLimitError, builtin_example, check, parse_ctl
from orbitmc.cli import build_config, run
from orbitmc.ctl import decided_by_tree
from orbitmc.explore import MODES, explore
from orbitmc.kripke import STUTTER_ACTION
from orbitmc.parser import parse_program

from test_differential import random_pid_program, random_program

TREE_FORMULAS = [
    "AG !bad",  # holds on the safe builtins, fails on broken-mutex
    "AG !init",  # fails at the initial state
    "AG (init | !bad)",
    "INV !bad",
    "!EF bad",
    "EF bad",  # holds on broken-mutex only
    "E[true U bad]",
    "EF !init",  # holds wherever the initial state has a successor
    "EF (bad & init)",  # fails
    "AG true",
    "EF false",
]
FULL_FORMULAS = [
    "AG (bad -> AF !bad)",
    "AF bad",
    "EG !bad",
    "AG EF init",
    "EF AG !bad",
    "AG AX !bad",
    "E[!bad U bad]",
    "EX bad",
    "!bad",
]

PIPELINE = """
processes 3;
pc {p0, p1, p2};
init pc=p0;
p0 -> p1 : true / ;
p1 -> p2 : true / ;
label done := count(pc=p2) >= 3;
"""


def counts(stats):
    return (stats.states_reached, stats.edges, stats.deadlocks, stats.frontier_peak,
            stats.bad_reached)


def checked(program, mode, formula, tree):
    structure, stats = explore(program, mode, _tree=tree)
    stored = structure.num_edges
    structure.totalize()
    result = check(structure, formula)
    return result.holds, result.counterexample, counts(stats), stored


def assert_tree_matches_full(program, mode, texts):
    """Returns the number of formulas that failed or had a path."""
    paths = 0
    for text in texts:
        formula = parse_ctl(text)
        assert decided_by_tree(formula), text
        tree = checked(program, mode, formula, True)
        full = checked(program, mode, formula, False)
        assert tree[:3] == full[:3], (program.name, mode, text)
        assert tree[3] == tree[2][0] - 1, "one stored edge per state but the initial one"
        paths += tree[1] is not None
    return paths


def modes_of(program):
    return ("full", "quotient") if program.pid_slots else MODES


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("n", range(2, 6))
def test_builtins_check_the_same_on_the_tree(name, n):
    program = builtin_example(name, n)
    paths = sum(assert_tree_matches_full(program, mode, TREE_FORMULAS) for mode in modes_of(program))
    assert paths > 0


@pytest.mark.parametrize("seed", range(30))
def test_random_programs_check_the_same_on_the_tree(seed):
    rng = random.Random(4100 + seed)
    program = random_program(rng, rng.randint(2, 4))
    atoms = ["init"] + [name for name, _ in program.label_defs]
    texts = [f"AG !{a}" for a in atoms] + [f"EF {a}" for a in atoms]
    texts += [f"AG ({atoms[-1]} | !{atoms[0]})", f"EF ({atoms[-1]} & !{atoms[0]})"]
    for mode in modes_of(program):
        assert_tree_matches_full(program, mode, texts)


@pytest.mark.parametrize("seed", range(30))
def test_random_pid_programs_check_the_same_on_the_tree(seed):
    rng = random.Random(4200 + seed)
    program = random_pid_program(rng, rng.randint(2, 4))
    texts = ["AG !bad", "EF bad", "AG free", "EF !free", "AG (bad -> free)", "EF (bad & !free)"]
    for mode in modes_of(program):
        assert_tree_matches_full(program, mode, texts)


def test_shape_rule():
    for text in TREE_FORMULAS:
        assert decided_by_tree(parse_ctl(text)), text
    for text in FULL_FORMULAS + ["AF done", "EG done"]:
        assert not decided_by_tree(parse_ctl(text)), text


def report_lines(argv):
    _, out = cli_run(argv)
    return [line for line in out.splitlines() if "duration_ms" not in line]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("n", range(2, 5))
def test_check_reports_match_a_full_build(monkeypatch, name, n):
    builtin = f"{name}:{n}"
    argvs = [
        ["check", "--builtin", builtin, "--mode", mode, "--prop", text, *fmt]
        for mode in modes_of(builtin_example(name, n))
        for text in TREE_FORMULAS
        for fmt in ([], ["--json"])
    ]
    tree = [report_lines(argv) for argv in argvs]
    monkeypatch.setattr(cli, "decided_by_tree", lambda formula: False)
    assert [report_lines(argv) for argv in argvs] == tree


def spy_builds(monkeypatch):
    """Records (tree flag, structure, stored edges) of every build."""
    built = []
    build = explore_module.breadth_first_build

    def spy(*args, tree, **kwargs):
        structure, stats = build(*args, tree=tree, **kwargs)
        built.append((tree, structure, structure.num_edges))
        return structure, stats

    monkeypatch.setattr(explore_module, "breadth_first_build", spy)
    return built


def cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(build_config(argv), out, err)
    assert err.getvalue() == ""
    return code, out.getvalue()


def cli_check(monkeypatch, argv):
    """Runs ``check`` and returns (code, report, the edges the build stored,
    the built structure's edges other than stutter loops at the end)."""
    built = spy_builds(monkeypatch)
    code, out = cli_run(["check", *argv, "--json"])
    (_, structure, stored), = built
    real_edges = sum(action != STUTTER_ACTION for _, action, _ in structure.edges())
    return code, json.loads(out), stored, real_edges


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("text", FULL_FORMULAS)
def test_other_shapes_build_every_edge(monkeypatch, mode, text):
    _, report, stored, real_edges = cli_check(
        monkeypatch, ["--builtin", "broken-mutex:3", "--mode", mode, "--prop", text])
    assert stored == real_edges == report["stats"]["edges"]


@pytest.mark.parametrize("text", ["AF done", "EG !done", "AG (done -> AF done)"])
def test_liveness_on_a_model_file_builds_every_edge(monkeypatch, tmp_path, text):
    path = tmp_path / "pipeline.gcl"
    path.write_text(PIPELINE)
    for mode in MODES:
        _, report, stored, _ = cli_check(
            monkeypatch, ["--model", str(path), "--mode", mode, "--prop", text])
        assert stored == report["stats"]["edges"] > report["stats"]["states_reached"] - 1


def test_mutex_invariant_stores_the_tree_and_counts_every_edge(monkeypatch):
    code, report, stored, _ = cli_check(
        monkeypatch, ["--builtin", "mutex:4", "--mode", "full", "--prop", "AG !bad"])
    _, full = explore(builtin_example("mutex", 4), "full")
    assert code == 0 and report["verdict"] == "holds"
    assert report["stats"]["states_reached"] == full.states_reached == 48
    assert stored == 48 - 1
    assert report["stats"]["edges"] == full.edges == 4 * 2**4 + 4 * 2**3 + 4 * 3 * 2**4 // 4


@pytest.mark.parametrize("name", ["mutex", "broken-mutex", "allocator"])
@pytest.mark.parametrize("mode", ["full", "quotient"])
def test_bound_overrun_reports_the_counted_edges(name, mode):
    program = builtin_example(name, 4)
    total, _ = explore(program, mode)
    for bound in range(1, total.num_states):
        partial = []
        for tree in (True, False):
            with pytest.raises(ResourceLimitError) as info:
                explore(program, mode, bound, _tree=tree)
            partial.append(counts(info.value.partial_stats)[:4])
        assert partial[0] == partial[1], bound
    assert explore(program, mode, total.num_states, _tree=True)[1].states_reached == total.num_states


def test_tree_build_needs_one_initial_payload_and_no_stop_at_bad():
    program = builtin_example("mutex", 2)
    with pytest.raises(ValueError):
        explore(program, "full", stop_at_bad=True, _tree=True)


@pytest.mark.parametrize("argv", [
    ["reach", "--builtin", "broken-mutex:3"],
    ["reach", "--builtin", "broken-mutex:3", "--mode", "quotient", "--stop-at-bad"],
    ["reach", "--builtin", "mutex:3", "--mode", "counter"],
    ["compare", "--builtin", "mutex:3"],
    ["export-dot", "--builtin", "mutex:3", "--mode", "quotient"],
])
def test_other_commands_build_every_edge(monkeypatch, argv):
    built = spy_builds(monkeypatch)
    cli_run(argv)
    assert built and not any(tree for tree, _, _ in built)


def test_public_api_builds_every_edge():
    program = builtin_example("mutex", 3)
    for mode in MODES:
        structure, stats = explore(program, mode)
        assert structure.num_edges == stats.edges > structure.num_states
