"""The CTL front end: formulas parse with the model parser's lexer, boolean
rule, connectives and depth bound."""

import io
import json
import random

import pytest

import orbitmc
from orbitmc import ctl, program as prog
from orbitmc.cli import build_config, run
from orbitmc.ctl import EG, EU, EX, And, Atom, FalseF, Or, TrueF, af, ag, au, ax, ef, neg, parse_ctl
from orbitmc.errors import ParseError
from orbitmc.parser import BROKEN_MUTEX_SOURCE, MAX_DEPTH, PROPERTY_KEYWORDS, parse_program


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(build_config(list(argv)), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def scrubbed_json(*argv):
    code, out, err = invoke(*argv, "--json")
    assert out, err
    report = json.loads(out)
    report["stats"]["duration_ms"] = 0
    report.pop("model")
    return code, report


# -- one set of connectives ----------------------------------------------------


def test_formula_connectives_are_the_guard_connectives():
    pairs = [
        (ctl.TrueF, prog.GTrue),
        (ctl.FalseF, prog.GFalse),
        (ctl.Not, prog.GNot),
        (ctl.And, prog.GAnd),
        (ctl.Or, prog.GOr),
    ]
    for formula_name, guard_node in pairs:
        assert formula_name is guard_node
    assert (orbitmc.TrueF, orbitmc.FalseF, orbitmc.Not, orbitmc.And, orbitmc.Or) == tuple(
        node for _, node in pairs
    )


def test_hash_starts_a_comment_in_formulas():
    assert parse_ctl("AG !bad # never two in C\n") == parse_ctl("AG !bad")
    assert parse_ctl("AG # the invariant\n  !bad") == parse_ctl("AG !bad")


# -- labels may not take property keywords -------------------------------------


@pytest.mark.parametrize("word", sorted(PROPERTY_KEYWORDS))
def test_property_keyword_cannot_name_a_label(word):
    source = f"processes 2;\npc {{T, C}};\ninit pc=T;\nlabel {word} := count(pc=C) >= 2;\n"
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert (err.value.message, err.value.line, err.value.col) == (
        f"{word!r} is a keyword, not a valid label name",
        4,
        7,
    )


def test_property_keywords_still_name_pcs_and_variables():
    program = parse_program(
        "processes 2;\nshared E : bool;\nlocal U : bool;\npc {A, EX, AG};\n"
        "init pc=A, E=0, U=0;\nA -> EX : E == 0 & exists_other(pc == AG) / U := 1;\n"
        "label ok := E == 0;\n"
    )
    assert program.pc_names == ("A", "EX", "AG")
    assert program.shared_names == ("E",)
    assert program.local_names == ("U",)


def test_cli_rejects_keyword_label_with_position(tmp_path):
    model = tmp_path / "u.om"
    model.write_text("processes 2;\npc {T, C};\ninit pc=T;\nT -> C : true / ;\nlabel U := count(pc=C) >= 2;\n")
    code, out, err = invoke("check", "--model", str(model), "--prop", "AG !U")
    assert (code, out) == (2, "")
    assert err == "error: 5:7: 'U' is a keyword, not a valid label name\n"


# -- the depth bound --------------------------------------------------------------


def _chain(op, operand, k):
    return f" {op} ".join([operand] * k)


def _negations(depth, operand):
    """``operand`` under ``depth`` levels of ``!`` and parentheses, an even
    number of them ``!``, so the expression means ``operand``."""
    if depth % 2:
        return "!" * (depth - 1) + "(" + operand + ")"
    return "!" * depth + operand


def _deep_formulas(depth):
    """Formulas of nesting depth ``depth``, each equivalent to ``AG !bad``;
    ``AG`` and ``AG (`` take one and two levels, ``!bad`` one."""
    inner = depth - 2
    return [
        "AG " + "(" * inner + "!bad" + ")" * inner,
        "AG (" + _chain("&", "!bad", inner) + ")",  # k operands of depth 1: depth k
        "AG (" + _chain("|", "!bad", inner) + ")",
        "AG " + _negations(inner, "!bad"),
        "AG (" + _chain("->", "bad", inner - 1) + " -> !bad)",  # bad -> ... -> !bad is !bad
    ]


def _deep_untils(depth):
    """Formulas of nesting depth ``depth`` equivalent to ``EF bad``, as
    nested until forms: ``E[bad U bad]`` and ``A[bad U bad]`` are ``bad``."""
    k = depth - 1
    return [
        "EF " + "E[bad U " * k + "bad" + "]" * k,
        "EF " + "A[" * k + "bad" + " U bad]" * k,
    ]


@pytest.mark.parametrize("mode", ["full", "quotient", "counter"])
def test_formula_at_the_depth_bound_checks_and_lifts(mode):
    common = ("check", "--builtin", "broken-mutex:3", "--mode", mode)
    expected = scrubbed_json(*common, "--prop", "AG !bad")
    assert expected[0] == 1 and "counterexample" in expected[1]
    for text in _deep_formulas(MAX_DEPTH):
        assert scrubbed_json(*common, "--prop", text) == expected
    witness = scrubbed_json(*common, "--prop", "EF bad")
    assert witness[0] == 0 and "counterexample" in witness[1]
    for text in _deep_untils(MAX_DEPTH):
        assert scrubbed_json(*common, "--prop", text) == witness


def test_formula_past_the_depth_bound_is_a_parse_error():
    message = f"expression nested deeper than {MAX_DEPTH} levels"
    cases = _deep_formulas(MAX_DEPTH + 1) + _deep_untils(MAX_DEPTH + 1)
    for text in cases:
        with pytest.raises(ParseError) as err:
            parse_ctl(text)
        assert err.value.message == message
        code, out, stderr = invoke("check", "--builtin", "mutex:2", "--prop", text)
        assert (code, out) == (2, "")
        assert stderr.startswith("error: 1:") and stderr.endswith(f": {message}\n")


def test_depth_errors_point_at_the_construct_past_the_bound():
    bang = "!" * (MAX_DEPTH + 1) + "bad"
    with pytest.raises(ParseError) as err:
        parse_ctl(bang)
    assert (err.value.line, err.value.col) == (1, MAX_DEPTH + 1)
    # k operands of depth 0 nest k - 1 levels: the error is at the
    # operator that makes the chain one level too deep
    chain = _chain("&", "bad", MAX_DEPTH + 2)
    with pytest.raises(ParseError) as err:
        parse_ctl(chain)
    assert (err.value.line, err.value.col) == (1, chain.rindex("&") + 1)


def test_deep_input_that_crashed_is_a_parse_error():
    for text in ["(" * 200 + "bad" + ")" * 200, "!" * 3000 + "bad", _chain("&", "bad", 500)]:
        code, out, err = invoke("check", "--builtin", "mutex:2", "--prop", text)
        assert (code, out) == (2, "")
        assert "nested deeper than" in err


def _broken_mutex_with(guard="true", label="count(pc=C) >= 2"):
    source = BROKEN_MUTEX_SOURCE.format(n=3)
    source = source.replace("W -> C : true / ;", f"W -> C : {guard} / ;")
    return source.replace("label bad := count(pc=C) >= 2;", f"label bad := {label};")


def _deep_guards(depth):
    return [
        "(" * depth + "true" + ")" * depth,
        _chain("&", "true", depth + 1),
        _negations(depth, "true"),
    ]


def _deep_labels(depth):
    return [
        "(" * depth + "count(pc=C) >= 2" + ")" * depth,
        _chain("|", "count(pc=C) >= 2", depth + 1),
        _negations(depth, "count(pc=C) >= 2"),
    ]


def _cases(depth):
    """(kind, model source) with one guard or label nested ``depth`` deep."""
    return [("guard", _broken_mutex_with(guard=g)) for g in _deep_guards(depth)] + [
        ("label", _broken_mutex_with(label=lab)) for lab in _deep_labels(depth)
    ]


@pytest.mark.parametrize("mode", ["full", "quotient", "counter"])
def test_guards_and_labels_at_the_depth_bound_check_and_lift(tmp_path, mode):
    args = ("--mode", mode, "--prop", "AG !bad")
    plain = tmp_path / "plain.om"
    plain.write_text(_broken_mutex_with())
    expected = scrubbed_json("check", "--model", str(plain), *args)
    assert expected[0] == 1 and "counterexample" in expected[1]
    for _, source in _cases(MAX_DEPTH):
        model = tmp_path / "deep.om"
        model.write_text(source)
        assert scrubbed_json("check", "--model", str(model), *args) == expected


def test_guards_and_labels_past_the_depth_bound_are_parse_errors(tmp_path):
    message = f"expression nested deeper than {MAX_DEPTH} levels"
    for kind, source in _cases(MAX_DEPTH + 1):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert err.value.message == message
        assert err.value.line == (6 if kind == "guard" else 8)
        model = tmp_path / "deep.om"
        model.write_text(source)
        code, out, stderr = invoke("check", "--model", str(model), "--prop", "AG !bad")
        assert (code, out) == (2, "")
        assert stderr.endswith(f": {message}\n")


def test_guards_that_crashed_are_parse_errors():
    for guard in ["(" * 1500 + "true" + ")" * 1500, _chain("&", "true", 3000)]:
        with pytest.raises(ParseError) as err:
            parse_program(_broken_mutex_with(guard=guard))
        assert "nested deeper than" in err.value.message


# -- round trip: random surface formulas against directly built ASTs ------------

_ATOMS = ("bad", "init", "p_1", "q")
_PREFIX_BUILDERS = {"EX": EX, "AX": ax, "EF": ef, "AF": af, "EG": EG, "AG": ag, "INV": ag}
# binding strength of the binary operators; prefixes bind tighter than all
_LEVEL = {"->": 1, "|": 2, "&": 3}


def _random_formula(rng, depth):
    """A random surface tree: ("atom", name) | ("const", bool) | ("!", f) |
    (prefix, f) | ("E"/"A", f, g) | (binary op, f, g)."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.2:
            return ("const", rng.random() < 0.5)
        return ("atom", rng.choice(_ATOMS))
    kind = rng.choice(["!", "prefix", "until", "binary", "binary"])
    if kind == "!":
        return ("!", _random_formula(rng, depth - 1))
    if kind == "prefix":
        return (rng.choice(sorted(_PREFIX_BUILDERS)), _random_formula(rng, depth - 1))
    if kind == "until":
        return (rng.choice("EA"), _random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    op = rng.choice(sorted(_LEVEL))
    return (op, _random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def _expected(tree):
    kind = tree[0]
    if kind == "atom":
        return Atom(tree[1])
    if kind == "const":
        return TrueF() if tree[1] else FalseF()
    if kind == "!":
        return neg(_expected(tree[1]))
    if kind in _PREFIX_BUILDERS:
        return _PREFIX_BUILDERS[kind](_expected(tree[1]))
    left, right = _expected(tree[1]), _expected(tree[2])
    if kind == "E":
        return EU(left, right)
    if kind == "A":
        return au(left, right)
    if kind == "&":
        return And(left, right)
    if kind == "|":
        return Or(left, right)
    return Or(neg(left), right)


def _needs_parens(child, parent_op, side):
    """Whether ``child`` must be parenthesized as operand ``side`` of ``parent_op``."""
    if child[0] not in _LEVEL:
        return False
    if parent_op is None:  # prefix operand: binds tightest
        return True
    child_level, parent_level = _LEVEL[child[0]], _LEVEL[parent_op]
    if child_level != parent_level:
        return child_level < parent_level
    # -> is right-associative, | and & are left-associative
    return side != ("right" if parent_op == "->" else "left")


def _tokens(tree, rng):
    kind = tree[0]
    if kind == "atom":
        out = [tree[1]]
    elif kind == "const":
        out = ["true" if tree[1] else "false"]
    elif kind == "!" or kind in _PREFIX_BUILDERS:
        out = [kind] + _operand(tree[1], None, "right", rng)
    elif kind in ("E", "A"):
        out = [kind, "["] + _tokens(tree[1], rng) + ["U"] + _tokens(tree[2], rng) + ["]"]
    else:
        out = _operand(tree[1], kind, "left", rng) + [kind] + _operand(tree[2], kind, "right", rng)
    if rng.random() < 0.15:
        out = ["("] + out + [")"]
    return out


def _operand(child, parent_op, side, rng):
    inner = _tokens(child, rng)
    if _needs_parens(child, parent_op, side):
        return ["("] + inner + [")"]
    return inner


def _render(tokens, rng):
    text = ""
    for tok in tokens:
        gap = rng.choice(["", "", " ", "  ", "\t", "\n", " \t\n ", " # note\n"])
        if text and not gap and (text[-1].isalnum() or text[-1] == "_") and tok[0].isalnum():
            gap = " "
        text += gap + tok
    return text + rng.choice(["", " ", "\n", " # end"])


def test_random_surface_formulas_parse_to_the_directly_built_ast():
    rng = random.Random(20111)
    for _ in range(400):
        tree = _random_formula(rng, rng.randint(1, 4))
        text = _render(_tokens(tree, rng), rng)
        assert parse_ctl(text) == _expected(tree), text


# -- malformed formulas ------------------------------------------------------------


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("", "unexpected end of formula", 1, 1),
        ("(bad", "expected ')'", 1, 5),
        ("bad)", "trailing input after formula", 1, 4),
        ("E[bad U", "unexpected end of formula", 1, 8),
        ("EX", "unexpected end of formula", 1, 3),
        ("bad bad", "trailing input after formula", 1, 5),
        ("&", "unexpected token '&'", 1, 1),
        ("A[bad bad]", "expected 'U'", 1, 7),
        ("E bad", "expected '['", 1, 3),
        ("AG ! ! ! U", "unexpected token 'U'", 1, 10),
        ("bad -> ", "unexpected end of formula", 1, 8),
        ("A[bad U bad", "expected ']'", 1, 12),
        ("bad @ bad", "unexpected character '@'", 1, 5),
        ("EF\n  (bad |\n   )", "unexpected token ')'", 3, 4),
        ("AG 3", "unexpected token '3'", 1, 4),
        ("bad == 1", "trailing input after formula", 1, 5),
        ("[bad]", "unexpected token '['", 1, 1),
        ("AG !bad # a comment\n )", "trailing input after formula", 2, 2),
    ],
)
def test_malformed_formulas_golden(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_ctl(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    assert str(err.value) == f"{line}:{col}: {message}"
