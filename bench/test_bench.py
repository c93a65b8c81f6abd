"""Self-test of the benchmark: ``python3 -m pytest bench/test_bench.py -q``.

Checks that the independent oracle agrees with brute force, that the
seed changes the models but not the expected values, that a wrong
expectation makes a run fail, and that the traced run covers every layer
with repeatable counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
from workloads import FAMILIES, WORKLOADS, Check, make_model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def shortest_to(model, role):
    """States on a shortest run from the initial state to a ``role`` state."""
    start = oracle.initial(model)
    depth = {start: 1}
    queue = [start]
    for state in queue:
        if oracle.has_label(model, role, state):
            return depth[state]
        for _, _, nxt in oracle.moves(model, state):
            if nxt not in depth:
                depth[nxt] = depth[state] + 1
                queue.append(nxt)
    return None


@pytest.mark.parametrize("key", sorted(oracle.CLOSED_FORMS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_forms_match_brute_force(key, n):
    family, mode, prop = key
    exp = oracle.expected(Check(family, n, mode, prop))
    model = make_model(family, n, seed=0)
    full_states, full_edges, orbits, counter_edges = oracle.enumerate_counts(model)
    if mode == "full":
        assert (exp.states, exp.edges) == (full_states, full_edges)
    else:
        assert exp.states == orbits
    if mode == "counter":
        assert exp.edges == counter_edges
    if exp.path_states is not None:
        assert exp.path_states == shortest_to(model, exp.path_end)
    if prop == "AG !{bad}":
        assert (shortest_to(model, "bad") is None) == (exp.verdict == "holds")


def test_seed_changes_models_not_expected_values():
    for workload in WORKLOADS.values():
        for check in workload.checks:
            first, second = make_model(check.family, check.n, 1), make_model(check.family, check.n, 2)
            assert first.text() != second.text()
            assert oracle.enumerate_counts(make_model(check.family, 4, 1)) == (
                oracle.enumerate_counts(make_model(check.family, 4, 2))
            )


def test_replay_accepts_a_run_and_rejects_a_skipped_step():
    model = make_model("broken-mutex", 3, seed=5)
    states, actions = [oracle.initial(model)], []
    for proc, role in [(0, "W"), (0, "C"), (1, "W"), (1, "C")]:
        before = states[-1]
        _, j, nxt = next(m for m in oracle.moves(model, before) if m[0] == proc and m[2][1][proc] == role)
        states.append(nxt)
        actions.append(f"{proc}/{j}")
    rendered = ["[" + ",".join(model.names[p] for p in pcs) + "]" for _, pcs in states]
    assert oracle.replay(model, {"states": rendered, "actions": actions}, "bad") == []
    skipped = {"states": rendered[:1] + rendered[2:], "actions": actions[1:]}
    assert oracle.replay(model, skipped, "bad")


def test_wrappers_reach_every_importing_namespace():
    import orbitmc.cli  # noqa: F401
    from spans import FUNCTIONS, Tracer

    modules = [m for k, m in sys.modules.items() if k.startswith("orbitmc")]
    originals = {span: getattr(sys.modules[mod], attr) for span, (mod, attr) in FUNCTIONS.items()}
    holders = {span: [m for m in modules if fn in vars(m).values()] for span, fn in originals.items()}
    assert len(holders["program.successors"]) >= 5  # program, quotient, symmetry, ctl, package
    with Tracer().installed():
        for span, fn in originals.items():
            for module in holders[span]:
                assert fn not in vars(module).values(), (span, module.__name__)
    for span, fn in originals.items():
        assert all(fn in vars(m).values() for m in holders[span])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert set(FAMILIES) == {c.family for w in WORKLOADS.values() for c in w.checks}


@pytest.mark.parametrize("what", ["verdict", "states"])
def test_wrong_expectation_fails_the_run(what):
    code, result = run_bench(
        "--workload", "quotient-pid", "--seed", "1", "--seconds", "0", "--corrupt", what
    )
    assert code == 1
    assert result["failed"] > 0 and not result["correct"]


@pytest.mark.parametrize("seed", [1, 2])
def test_every_workload_passes_on_two_seeds(seed):
    code, result = run_bench("--workload", "all", "--seed", str(seed), "--seconds", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in names}


def test_traced_run_reports_every_layer_with_repeatable_counts():
    runs = [run_bench("--workload", "quotient-pid", "--seed", "3", "--seconds", "0", "--trace", "1")
            for _ in range(2)]
    for code, result in runs:
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith("_calls")} for _, r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["symmetry.canon_calls"] > 0
