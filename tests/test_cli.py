import functools
import io
import json
import os
import subprocess
import sys

import pytest

import orbitmc
from orbitmc import build_counter_structure, build_quotient, parse_program
from orbitmc.cli import BOUND_ENV_VAR, build_config, run
from orbitmc.counter import render_action
from orbitmc.program import render_local


def invoke(*argv, env=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    code = run(build_config(list(argv)), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    assert out, err
    return code, json.loads(out)


def strip_durations(report):
    def scrub(node):
        if isinstance(node, dict):
            return {k: (0 if k == "duration_ms" else scrub(v)) for k, v in node.items()}
        return node

    return scrub(report)


# -- check ------------------------------------------------------------


def test_check_holds_exit_zero():
    code, report = invoke_json(
        "check", "--builtin", "mutex:4", "--prop", "AG !bad", "--mode", "quotient", "--json"
    )
    assert code == 0
    assert report["verdict"] == "holds"
    assert report["model"] == "mutex:4"
    assert report["mode"] == "quotient"
    assert "counterexample" not in report
    assert set(report["stats"]) == {
        "states_reached",
        "edges",
        "deadlocks",
        "frontier_peak",
        "duration_ms",
        "bad_reached",
    }


def test_check_failure_emits_lifted_counterexample():
    code, report = invoke_json(
        "check", "--builtin", "broken-mutex:2", "--prop", "AG !bad", "--mode", "quotient", "--json"
    )
    assert code == 1
    assert report["verdict"] == "fails"
    cex = report["counterexample"]
    assert len(cex["states"]) == 5
    assert len(cex["actions"]) == 4
    assert cex["states"][0] == "[T,T]"
    assert cex["states"][-1] == "[C,C]"


def test_check_counter_mode_also_lifts_concretely():
    code, report = invoke_json(
        "check", "--builtin", "broken-mutex:2", "--prop", "AG !bad", "--mode", "counter", "--json"
    )
    assert code == 1
    assert len(report["counterexample"]["states"]) == 5
    assert report["counterexample"]["states"][-1] == "[C,C]"


def test_check_modes_agree_on_exit_status():
    for builtin in ("mutex:3", "broken-mutex:3", "allocator:3"):
        codes = set()
        for mode in ("full", "quotient"):
            code, _, _ = invoke(
                "check", "--builtin", builtin, "--prop", "AG !bad", "--mode", mode
            )
            codes.add(code)
        assert len(codes) == 1, builtin


def test_check_ef_witness():
    code, report = invoke_json(
        "check", "--builtin", "broken-mutex:2", "--prop", "EF bad", "--json"
    )
    assert code == 0
    assert report["verdict"] == "holds"
    assert report["counterexample"]["states"][-1] == "[C,C]"


def test_check_text_format():
    code, out, _ = invoke("check", "--builtin", "mutex:2", "--prop", "AG !bad")
    assert code == 0
    assert "verdict: holds" in out


# -- usage and resource errors ----------------------------------------------------


def test_unknown_builtin_is_usage_error():
    code, _, err = invoke("check", "--builtin", "petersons:2", "--prop", "AG !bad")
    assert code == 2
    assert "unknown builtin" in err


def test_malformed_builtin_spec():
    code, _, err = invoke("reach", "--builtin", "mutex")
    assert code == 2


def test_bad_property_syntax():
    code, _, err = invoke("check", "--builtin", "mutex:2", "--prop", "AG (bad")
    assert code == 2


def test_unknown_atom_is_usage_error():
    code, _, err = invoke("check", "--builtin", "mutex:2", "--prop", "AG !worse")
    assert code == 2
    assert "worse" in err


def test_counter_mode_on_pid_program_is_usage_error():
    code, _, err = invoke("reach", "--builtin", "allocator:2", "--mode", "counter")
    assert code == 2
    assert "grant" in err


def test_bound_exceeded_is_resource_error():
    code, _, err = invoke("check", "--builtin", "mutex:6", "--prop", "AG !bad", "--bound", "5")
    assert code == 3
    assert "resource limit" in err


@pytest.mark.parametrize("prop", ["AG !(", "AG !nosuch"])
def test_property_is_validated_before_exploration(prop):
    # mutex:8 exceeds a bound of 5 states: only an early check reports the property error
    code, _, err = invoke("check", "--builtin", "mutex:8", "--prop", prop, "--bound", "5")
    assert code == 2
    assert "resource limit" not in err


@pytest.mark.parametrize("where", ["builtin", "env", "model"])
def test_superscript_digit_is_usage_error(where, tmp_path, monkeypatch):
    # "²".isdigit() holds but int("²") fails
    argv = ["check", "--builtin", "mutex:2", "--prop", "AG !bad"]
    if where == "builtin":
        argv[2] = "mutex:\u00b2"
    elif where == "env":
        monkeypatch.setenv(BOUND_ENV_VAR, "\u00b2")
    else:
        model = tmp_path / "sup.gcl"
        text = "processes \u00b2; pc {A}; init pc=A; A -> A : true / ;\n"
        model.write_text(text, encoding="utf-8")
        argv[1:3] = ["--model", str(model)]
    code, _, err = invoke(*argv)
    assert code == 2, err
    assert err.startswith("error:")


def test_bound_env_var_override(monkeypatch):
    monkeypatch.setenv(BOUND_ENV_VAR, "5")
    code, _, _ = invoke("reach", "--builtin", "mutex:6")
    assert code == 3
    monkeypatch.setenv(BOUND_ENV_VAR, "100000")
    code, _, _ = invoke("reach", "--builtin", "mutex:6")
    assert code == 0
    monkeypatch.setenv(BOUND_ENV_VAR, "zero")
    code, _, _ = invoke("reach", "--builtin", "mutex:6")
    assert code == 2


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as err:
        build_config(["check", "--builtin", "mutex:2"])  # missing --prop
    assert err.value.code == 2


def test_successive_configs_are_independent(capsys):
    first = build_config(["check", "--builtin", "mutex:3", "--prop", "AG !bad", "--json",
                          "--mode", "counter", "--bound", "7"])
    second = build_config(["check", "--builtin", "mutex:3", "--prop", "EF bad"])
    assert (first.fmt, first.mode, first.bound) == ("json", "counter", 7)
    assert (second.fmt, second.mode, second.bound, second.prop) == ("text", "full", None, "EF bad")
    with pytest.raises(SystemExit) as err:
        build_config(["compare", "--builtin", "mutex:3", "--format", "xml"])
    assert err.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    after = build_config(["compare", "--builtin", "mutex:3"])
    assert (after.command, after.fmt, after.bound, after.mode) == ("compare", "text", None, "full")
    assert build_config(["compare", "--model", "m.om", "--json"]).fmt == "json"
    assert build_config(["reach", "--builtin", "mutex:2", "--stop-at-bad"]).stop_at_bad
    assert not build_config(["reach", "--builtin", "mutex:2"]).stop_at_bad


def test_model_file_roundtrip(tmp_path):
    model = tmp_path / "cycle.gcl"
    model.write_text(
        "processes 3; pc {A,B}; init pc=A; A -> B : true / ; B -> A : true / ;\n"
        "label allb := count(pc=B) >= 3;\n"
    )
    code, report = invoke_json("reach", "--model", str(model), "--json")
    assert code == 0
    assert report["stats"]["states_reached"] == 8
    assert report["model"] == str(model)


def test_check_model_file_with_custom_labels(tmp_path):
    model = tmp_path / "pulse.gcl"
    model.write_text(
        "processes 4;\n"
        "shared on : bool;\n"
        "pc {idle, run};\n"
        "init pc=idle, on=0;\n"
        "idle -> run : on == 0 / on := 1;\n"
        "run -> idle : true / on := 0;\n"
        "label lit := on == 1;\n"
        "label crowded := count(pc=run) >= 2;\n"
    )
    code, report = invoke_json(
        "check", "--model", str(model), "--prop", "AG !crowded", "--mode", "quotient", "--json"
    )
    assert code == 0
    assert report["verdict"] == "holds"
    code, report = invoke_json(
        "check", "--model", str(model), "--prop", "AG !lit", "--mode", "counter", "--json"
    )
    assert code == 1
    assert report["counterexample"]["states"][-1].startswith("on=1")


@pytest.mark.parametrize("mode", ["full", "quotient", "counter"])
def test_stop_at_bad_on_a_bad_initial_state(tmp_path, mode):
    # the build stops at its first state, before expanding anything
    model = tmp_path / "bad_init.gcl"
    model.write_text(
        "processes 3; pc {T, C}; init pc=T; T -> C : true / ; C -> T : true / ;\n"
        "label bad := count(pc=T) >= 1;\n"
    )
    code, report = invoke_json("reach", "--model", str(model), "--mode", mode, "--stop-at-bad", "--json")
    stats = report["stats"]
    assert code == 1
    assert (stats["states_reached"], stats["edges"], stats["frontier_peak"]) == (1, 0, 1)
    assert stats["bad_reached"]


def test_malformed_model_file_reports_position(tmp_path):
    model = tmp_path / "broken.gcl"
    model.write_text("processes 2;\npc {A};\ninit pc=A;\nA -> Z : true / ;\n")
    code, _, err = invoke("reach", "--model", str(model))
    assert code == 2
    assert "4:" in err and "Z" in err


def test_missing_model_file(tmp_path):
    code, _, err = invoke("reach", "--model", str(tmp_path / "nope.gcl"))
    assert code == 2


def test_model_file_not_utf8(tmp_path):
    path = tmp_path / "latin1.gcl"
    path.write_bytes(b"processes 2; pc {A}; init pc=A; # caf\xe9\n")
    code, out, err = invoke("check", "--model", str(path), "--prop", "AG !bad")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read model file:")


# -- reach / compare ------------------------------------------------------------


def test_reach_counter_json_counts():
    code, report = invoke_json("reach", "--builtin", "mutex:10", "--mode", "counter", "--json")
    assert code == 0
    assert report["stats"]["states_reached"] == 21
    assert report["stats"]["bad_reached"] is False


def test_reach_stop_at_bad_exit_one():
    code, report = invoke_json(
        "reach", "--builtin", "broken-mutex:3", "--stop-at-bad", "--json"
    )
    assert code == 1
    assert report["stats"]["bad_reached"] is True


def test_reach_stop_at_bad_on_safe_model_exit_zero():
    code, _, _ = invoke("reach", "--builtin", "mutex:3", "--stop-at-bad")
    assert code == 0


def test_compare_reports_reduction():
    code, report = invoke_json("compare", "--builtin", "mutex:10", "--json")
    assert code == 0
    comparison = report["comparison"]
    assert comparison["full"]["states_reached"] == 6144
    assert comparison["quotient"]["states_reached"] == 21
    assert comparison["counter"]["states_reached"] == 21
    assert comparison["reduction_factor"] >= 100


def test_compare_quotient_and_counter_report_equal_edges():
    # the quotient fires one process per distinct record: 23 edges, not the
    # 63 of firing all six processes of every representative
    code, report = invoke_json("compare", "--builtin", "mutex:6", "--json")
    assert code == 0
    comparison = report["comparison"]
    assert comparison["quotient"]["states_reached"] == comparison["counter"]["states_reached"] == 13
    assert comparison["quotient"]["edges"] == comparison["counter"]["edges"] == 23


def test_compare_allocator_counter_unsupported():
    code, report = invoke_json("compare", "--builtin", "allocator:3", "--json")
    assert code == 0
    assert isinstance(report["comparison"]["counter"], str)
    assert report["comparison"]["counter"].startswith("unsupported")
    assert report["comparison"]["full"]["states_reached"] == 20


# -- export-dot and examples ------------------------------------------------------


def test_export_dot_deterministic_and_wellformed():
    code, one, _ = invoke("export-dot", "--builtin", "mutex:2", "--mode", "quotient")
    code2, two, _ = invoke("export-dot", "--builtin", "mutex:2", "--mode", "quotient")
    assert code == code2 == 0
    assert one == two
    assert one.startswith("digraph M {")
    assert one.rstrip().endswith("}")
    assert '[label="[T,C] {bad?}"]' not in one  # sanity: no stray rendering


def test_export_dot_counter_mode():
    code, out, _ = invoke("export-dot", "--builtin", "mutex:2", "--mode", "counter")
    assert code == 0
    assert "[T,T]" in out


@pytest.mark.parametrize("name", ['a b"c', "graph", "DiGraph", "STRICT", "1abc", "", "M\n", "n\u00e9"])
def test_export_dot_rejects_a_name_that_is_not_a_dot_identifier(name):
    code, out, err = invoke("export-dot", "--builtin", "mutex:1", "--name", name)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --name must be a DOT identifier")


@pytest.mark.parametrize("name", ["_", "graph_1", "Nodes", "M2"])
def test_export_dot_accepts_an_identifier_name(name):
    code, out, _ = invoke("export-dot", "--builtin", "mutex:1", "--name", name)
    assert code == 0
    assert out.startswith(f"digraph {name} {{\n")


def test_examples_prints_all_builtin_sources():
    code, out, _ = invoke("examples")
    assert code == 0
    for name in ("mutex", "broken-mutex", "allocator"):
        assert f"# ---- {name} ----" in out
    assert "processes 2;" in out
    assert "grant : pid" in out


def test_examples_with_n():
    code, out, _ = invoke("examples", "--n", "7")
    assert code == 0
    assert "processes 7;" in out


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ("examples", "--n", "20000"),
        ("check", "--builtin", "broken-mutex:3", "--prop", "AG !bad"),
        ("export-dot", "--builtin", "mutex:3"),
    ],
)
def test_closed_stdout_exits_141_silently(argv):
    err = io.StringIO()
    assert run(build_config(list(argv)), out=ClosedPipe(), err=err) == 141
    assert err.getvalue() == ""


def test_closed_stdout_points_stdout_at_devnull(monkeypatch):
    closed = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", closed)
    err = io.StringIO()
    assert run(build_config(["examples"]), err=err) == 141
    assert err.getvalue() == ""
    assert sys.stdout is not closed and sys.stdout.name == os.devnull
    sys.stdout.close()


class ClosedAtFlush(io.StringIO):
    """A buffered stream whose reader left: writes succeed, the flush fails."""

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_seen_at_the_flush_exits_141():
    err = io.StringIO()
    argv = ["check", "--builtin", "mutex:3", "--prop", "AG !bad"]
    assert run(build_config(argv), out=ClosedAtFlush(), err=err) == 141
    assert err.getvalue() == ""


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_pipe_ends_the_process_with_141(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(orbitmc.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitmc", "check", "--builtin", "mutex:3", "--prop", "AG !bad"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # before the child has started, so its first write fails
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


# -- golden counter-mode output: action order and action text ----------------------

GOLDEN_COUNTER_DOT = """\
digraph M {
  0 [label="[T,T,T] {init}", peripheries=2];
  1 [label="[T,T,W]"];
  2 [label="[T,W,W]"];
  3 [label="[T,T,C]"];
  4 [label="[W,W,W]"];
  5 [label="[T,W,C]"];
  6 [label="[W,W,C]"];
  0 -> 1 [label="T/0"];
  1 -> 2 [label="T/0"];
  1 -> 3 [label="W/1"];
  2 -> 4 [label="T/0"];
  2 -> 5 [label="W/1"];
  3 -> 0 [label="C/2"];
  3 -> 5 [label="T/0"];
  4 -> 6 [label="W/1"];
  5 -> 1 [label="C/2"];
  5 -> 6 [label="T/0"];
  6 -> 2 [label="C/2"];
}
"""

GOLDEN_COUNTER_CHECK = """\
{
  "tool_version": "0.1.0",
  "command": "check",
  "model": "broken-mutex:3",
  "mode": "counter",
  "verdict": "fails",
  "stats": {
    "states_reached": 10,
    "edges": 18,
    "deadlocks": 0,
    "frontier_peak": 3,
    "bad_reached": true
  },
  "counterexample": {
    "states": [
      "[T,T,T]",
      "[T,T,W]",
      "[T,W,W]",
      "[T,W,C]",
      "[T,C,C]"
    ],
    "actions": [
      "2/0",
      "1/0",
      "2/1",
      "1/1"
    ]
  }
}
"""


def test_counter_mode_export_dot_is_pinned():
    code, out, _ = invoke("export-dot", "--builtin", "mutex:3", "--mode", "counter")
    assert code == 0
    assert out == GOLDEN_COUNTER_DOT


# two local booleans, a ``*`` branch and a move that writes only shared
# values; the builtins have no locals, so their golden files print no record
# with booleans
LOCALS_MODEL = """
processes 3; shared g : bool; local x : bool; local y : bool; pc {A,B};
init pc=A, g=0, x=0, y=0;
A -> B : true / x := *;
B -> A : g == 0 / y := 1, x := 0;
B -> B : x == 1 / g := 1;
A -> A : y == 1 & g == 1 / g := 0;
"""


def test_counter_dot_names_each_edge_by_its_firing_record(tmp_path):
    model = tmp_path / "locals.gcl"
    model.write_text(LOCALS_MODEL)
    code, out, _ = invoke("export-dot", "--model", str(model), "--mode", "counter")
    assert code == 0
    program = parse_program(LOCALS_MODEL)
    quotient = build_quotient(program).structure
    expected = []
    for src, action, dst in quotient.edges():
        i, j = action.split("/")
        record = render_local(program, quotient.payload(src).locals[int(i)])
        expected.append((src, f"{record}/{j}", dst))
    assert any("(x=1,y=" in text for _, text, _ in expected)
    lines = [f'  {src} -> {dst} [label="{text}"];' for src, text, dst in sorted(expected)]
    assert [line for line in out.splitlines() if " -> " in line] == lines


def test_counter_dot_prints_stutter_loops_unchanged():
    program = parse_program("processes 2; local x : bool; pc {A,B}; init pc=A, x=0;"
                            " A -> B : true / x := *;")
    structure = build_counter_structure(program)
    _, dead = structure.totalize()
    assert dead
    dot = structure.export_dot(action_renderer=functools.partial(render_action, program))
    for sid in dead:
        assert f'  {sid} -> {sid} [label="stutter"];' in dot.splitlines()
    assert '[label="A(x=0)/0"]' in dot


GOLDEN_FULL_DOT = """\
digraph M {
  0 [label="[T,T,T] {init}", peripheries=2];
  1 [label="[W,T,T]"];
  2 [label="[T,W,T]"];
  3 [label="[T,T,W]"];
  4 [label="[C,T,T]"];
  5 [label="[W,W,T]"];
  6 [label="[W,T,W]"];
  7 [label="[T,C,T]"];
  8 [label="[T,W,W]"];
  9 [label="[T,T,C]"];
  10 [label="[C,W,T]"];
  11 [label="[C,T,W]"];
  12 [label="[W,C,T]"];
  13 [label="[W,W,W]"];
  14 [label="[W,T,C]"];
  15 [label="[T,C,W]"];
  16 [label="[T,W,C]"];
  17 [label="[C,W,W]"];
  18 [label="[W,C,W]"];
  19 [label="[W,W,C]"];
  0 -> 1 [label="0/0"];
  0 -> 2 [label="1/0"];
  0 -> 3 [label="2/0"];
  1 -> 4 [label="0/1"];
  1 -> 5 [label="1/0"];
  1 -> 6 [label="2/0"];
  2 -> 5 [label="0/0"];
  2 -> 7 [label="1/1"];
  2 -> 8 [label="2/0"];
  3 -> 6 [label="0/0"];
  3 -> 8 [label="1/0"];
  3 -> 9 [label="2/1"];
  4 -> 0 [label="0/2"];
  4 -> 10 [label="1/0"];
  4 -> 11 [label="2/0"];
  5 -> 10 [label="0/1"];
  5 -> 12 [label="1/1"];
  5 -> 13 [label="2/0"];
  6 -> 11 [label="0/1"];
  6 -> 13 [label="1/0"];
  6 -> 14 [label="2/1"];
  7 -> 12 [label="0/0"];
  7 -> 0 [label="1/2"];
  7 -> 15 [label="2/0"];
  8 -> 13 [label="0/0"];
  8 -> 15 [label="1/1"];
  8 -> 16 [label="2/1"];
  9 -> 14 [label="0/0"];
  9 -> 16 [label="1/0"];
  9 -> 0 [label="2/2"];
  10 -> 2 [label="0/2"];
  10 -> 17 [label="2/0"];
  11 -> 3 [label="0/2"];
  11 -> 17 [label="1/0"];
  12 -> 1 [label="1/2"];
  12 -> 18 [label="2/0"];
  13 -> 17 [label="0/1"];
  13 -> 18 [label="1/1"];
  13 -> 19 [label="2/1"];
  14 -> 19 [label="1/0"];
  14 -> 1 [label="2/2"];
  15 -> 18 [label="0/0"];
  15 -> 3 [label="1/2"];
  16 -> 19 [label="0/0"];
  16 -> 2 [label="2/2"];
  17 -> 8 [label="0/2"];
  18 -> 6 [label="1/2"];
  19 -> 5 [label="2/2"];
}
"""

GOLDEN_QUOTIENT_DOT = """\
digraph M {
  0 [label="[T,T,T] {init}", peripheries=2];
  1 [label="[T,T,W]"];
  2 [label="[T,W,W]"];
  3 [label="[T,T,C]"];
  4 [label="[W,W,W]"];
  5 [label="[T,W,C]"];
  6 [label="[W,W,C]"];
  0 -> 1 [label="0/0"];
  1 -> 2 [label="0/0"];
  1 -> 3 [label="2/1"];
  2 -> 4 [label="0/0"];
  2 -> 5 [label="1/1"];
  3 -> 5 [label="0/0"];
  3 -> 0 [label="2/2"];
  4 -> 6 [label="0/1"];
  5 -> 6 [label="0/0"];
  5 -> 1 [label="2/2"];
  6 -> 2 [label="2/2"];
}
"""


@pytest.mark.parametrize(
    "mode, golden", [("full", GOLDEN_FULL_DOT), ("quotient", GOLDEN_QUOTIENT_DOT)]
)
def test_export_dot_is_pinned(mode, golden):
    code, out, _ = invoke("export-dot", "--builtin", "mutex:3", "--mode", mode)
    assert code == 0
    assert out == golden


def test_counter_mode_check_report_is_pinned():
    code, out, _ = invoke(
        "check", "--builtin", "broken-mutex:3", "--mode", "counter", "--prop", "AG !bad", "--json"
    )
    assert code == 1
    kept = [line for line in out.splitlines(keepends=True) if '"duration_ms"' not in line]
    assert "".join(kept) == GOLDEN_COUNTER_CHECK


# -- determinism of reports --------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--builtin", "mutex:4", "--prop", "AG !bad", "--mode", "quotient", "--json"),
        ("check", "--builtin", "broken-mutex:2", "--prop", "AG !bad", "--mode", "quotient", "--json"),
        ("reach", "--builtin", "mutex:10", "--mode", "counter", "--json"),
        ("compare", "--builtin", "mutex:4", "--json"),
        ("reach", "--builtin", "allocator:3", "--mode", "quotient", "--json"),
    ],
)
def test_json_reports_are_deterministic(argv):
    _, one, _ = invoke(*argv)
    _, two, _ = invoke(*argv)
    assert json.dumps(strip_durations(json.loads(one)), sort_keys=False) == json.dumps(
        strip_durations(json.loads(two)), sort_keys=False
    )
