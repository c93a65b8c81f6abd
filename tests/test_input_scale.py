"""Inputs that are small as text but large as work or as numbers: nested
until forms, whose normal form shares subformulas, and integer literals
past Python's bound on ``int(str)``."""

import io
import time

import pytest

from orbitmc import builtin_example, builtin_source, check, ctl, parse_ctl, sat_set
from orbitmc.ctl import Atom, atoms
from orbitmc.cli import build_config, run
from orbitmc.explore import explore
from orbitmc.parser import MAX_DIGITS, ParseError, _tokenize

from oracles import flagged


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(build_config(list(argv)), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def nested_until(k, left="bad", inner="bad"):
    return "A[" * k + inner + "".join(f" U {left}]" for _ in range(k))


def right_nested_until(k):
    return "A[bad U " * k + "bad" + "]" * k


def au_by_definition(structure, left, right):
    """A[left U right] as the least fixpoint of right | (left & AX Z), by rounds."""
    z = set(right)
    while True:
        grown = z | {
            s for s in left if all(t in z for _, t in structure.successors(s))
        }
        if grown == z:
            return frozenset(z)
        z = grown


def test_nested_until_sat_sets_match_the_definition():
    structure, _ = explore(builtin_example("broken-mutex", 3), "full")
    structure.totalize()
    bad = flagged(structure.label_flags("bad"))
    expected = bad
    for k in range(1, 13):
        expected = au_by_definition(structure, bad, expected)
        assert flagged(sat_set(structure, parse_ctl(right_nested_until(k)))) == expected


def test_check_of_twelve_nested_untils_takes_linear_time():
    # the normal form of A[f U g] names !g three times: evaluated per
    # occurrence, or hashed as a tree, 12 levels cost about 3**12 times one
    started = time.perf_counter()
    code, out, err = invoke("check", "--builtin", "mutex:3", "--prop", right_nested_until(12))
    assert (code, err) == (1, "")
    assert "verdict: fails" in out
    assert time.perf_counter() - started < 2.0


def test_atoms_visits_a_shared_node_once():
    formula = parse_ctl(right_nested_until(14))
    started = time.perf_counter()
    assert atoms(formula) == {"bad"}
    assert time.perf_counter() - started < 1.0
    assert atoms(parse_ctl(nested_until(3, left="p", inner="q") + " & EX r")) == {"p", "q", "r"}
    assert atoms(Atom("x")) == {"x"}


def test_check_runs_one_fixpoint_per_until(monkeypatch):
    calls = []
    for name in ("_sat_eu", "_sat_eg"):
        original = getattr(ctl, name)
        monkeypatch.setattr(ctl, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    structure, _ = explore(builtin_example("mutex", 3), "full")
    structure.totalize()
    formula = parse_ctl(right_nested_until(12))
    result = check(structure, formula)
    assert not result.holds
    assert sorted(calls) == ["_sat_eg"] * 12 + ["_sat_eu"] * 12
    assert sat_set(structure, formula) == bytes(structure.num_states)


def test_literal_at_the_digit_bound_is_an_integer():
    tokens = _tokenize("1" * MAX_DIGITS)
    assert tokens[0].kind == "int" and tokens[0].value == int("1" * MAX_DIGITS)


@pytest.mark.parametrize("text", ["1" * (MAX_DIGITS + 1), "9" * 5000])
def test_longer_literal_is_a_positioned_parse_error(text):
    with pytest.raises(ParseError) as info:
        _tokenize(f"processes 2;\n  x {text}")
    assert (info.value.line, info.value.col) == (2, 5)
    assert f"longer than {MAX_DIGITS} digits" in str(info.value)


def test_huge_literal_in_a_property_is_exit_2():
    code, out, err = invoke("check", "--builtin", "mutex:3", "--prop", "AG " + "1" * 5000)
    assert code == 2 and out == ""
    assert err.startswith("error: 1:4: integer literal longer than")
    assert "internal error" not in err


def test_huge_literal_in_a_model_is_exit_2(tmp_path):
    source = builtin_source("mutex", 2).replace("processes 2;", "processes " + "1" * 5000 + ";")
    path = tmp_path / "huge.gcl"
    path.write_text(source, encoding="utf-8")
    code, out, err = invoke("reach", "--model", str(path))
    assert code == 2 and out == ""
    assert "integer literal longer than" in err
    assert "internal error" not in err
