"""Process counts past ``parser.MAX_PROCESSES`` and numerals past
``parser.MAX_DIGITS`` in CLI options are input errors (exit 2), found
before any O(n) work: building the state codec or the initial state."""

import io

import pytest

from orbitmc.cli import BOUND_ENV_VAR, build_config, run
from orbitmc.parser import MAX_DIGITS, MAX_PROCESSES, ParseError, builtin_source, parse_program


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(build_config(list(argv)), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def mutex_with(count):
    return builtin_source("mutex", 2).replace("processes 2;", f"processes {count};")


def test_the_cap_itself_parses():
    assert parse_program(mutex_with(MAX_PROCESSES)).n == MAX_PROCESSES


def test_a_count_past_the_cap_is_a_positioned_parse_error():
    with pytest.raises(ParseError) as info:
        parse_program("# n\n" + mutex_with(MAX_PROCESSES + 1))
    assert (info.value.line, info.value.col) == (4, 11)
    assert f"process count must be at most {MAX_PROCESSES}" in str(info.value)


@pytest.mark.parametrize("count", ["1000000000000000000000", "100000000"])
def test_a_model_past_the_cap_is_exit_2(tmp_path, count):
    path = tmp_path / "big.gcl"
    path.write_text(mutex_with(count), encoding="utf-8")
    code, out, err = invoke("reach", "--model", str(path), "--bound", "10")
    assert (code, out) == (2, "")
    assert "process count must be at most" in err
    assert "internal error" not in err


@pytest.mark.parametrize("count", [str(MAX_PROCESSES + 1), "1" * 5000])
def test_a_builtin_past_the_cap_is_a_usage_error(count):
    code, out, err = invoke("check", "--builtin", f"mutex:{count}", "--prop", "AG !bad")
    assert (code, out) == (2, "")
    assert err.startswith("error: --builtin takes NAME:N with 1 <= N <= ")
    assert "internal error" not in err


def test_a_builtin_at_the_cap_loads(monkeypatch):
    monkeypatch.setenv(BOUND_ENV_VAR, "1")
    code, _, err = invoke("reach", "--builtin", f"mutex:{MAX_PROCESSES}")
    assert code == 3, err  # the bound, not the count, stops it


def test_a_bound_past_the_digit_limit_is_a_usage_error(monkeypatch):
    monkeypatch.setenv(BOUND_ENV_VAR, "1" * 5000)
    code, out, err = invoke("reach", "--builtin", "mutex:3")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {BOUND_ENV_VAR} must be a positive integer")
    assert "internal error" not in err


def test_a_bound_at_the_digit_limit_is_read(monkeypatch):
    monkeypatch.setenv(BOUND_ENV_VAR, "1" * MAX_DIGITS)
    code, _, err = invoke("reach", "--builtin", "mutex:3")
    assert (code, err) == (0, "")
