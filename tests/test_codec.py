"""Packed state keys (``program.StateCodec``): round trips, order and wide fields.

Exploration stores every state as one ``int`` key.  These tests pin the
three things everything else relies on: a key decodes back to the state
it came from, int order of keys is the order of ``GlobalState.encode``
(which canonicalization minimizes), and fields widen past one byte
without changing any report.
"""

import copy
import io
import pickle
import random

import pytest

from orbitmc import (
    GlobalState,
    build_counter_structure,
    build_full_structure,
    build_quotient,
    builtin_example,
    labeling,
    parse_program,
    successors,
)
from orbitmc.cli import build_config, run
from orbitmc.explore import explore
from orbitmc.program import (
    V_CONST,
    V_NONE,
    V_SELF,
    V_STAR,
    CountAtLeast,
    GAnd,
    GFalse,
    GNot,
    GOr,
    PidEqNone,
    SharedEq,
    StateCodec,
    Update,
    ValueExpr,
)

from oracles import FirstProcessAt
from test_differential import random_pid_program, random_program


def random_state(rng, program):
    shared = tuple(
        rng.randint(0, program.n) if kind == "pid" else rng.randint(0, 1)
        for kind in program.shared_kinds
    )
    locs = tuple(
        (rng.randrange(len(program.pc_names)),)
        + tuple(rng.randint(0, 1) for _ in program.local_names)
        for _ in range(program.n)
    )
    return GlobalState(shared, locs, program.pid_slots)


WIDE = """
processes 2;
shared s : bool;
local a : bool;
local b : bool;
local c : bool;
local d : bool;
local e : bool;
local f : bool;
local g : bool;
pc {P, Q, R};
init pc=P, s=0, a=0, b=0, c=1, d=0, e=0, f=0, g=1;
P -> Q : true / a := *, g := 0;
Q -> R : exists_other(pc == Q) | s == 1 / b := a, s := *, f := 1;
R -> P : f == 1 / g := 1, c := b, f := 0;
Q -> Q : a == 1 & exists_other(pc == Q) / a := 0, e := 1;
label bad := count(pc=R) >= 2;
label done := s == 1;
"""


def programs():
    """Random programs of both kinds, plus layouts whose fields need two bytes."""
    for seed in range(20):
        rng = random.Random(4000 + seed)
        yield random_program(rng, rng.randint(2, 6))
        yield random_pid_program(rng, rng.randint(2, 4))
    yield parse_program(WIDE)
    yield builtin_example("allocator", 300)
    yield builtin_example("mutex", 256)


@pytest.mark.parametrize("program", list(programs()), ids=lambda p: p.name)
def test_keys_round_trip_and_keep_the_encoding_order(program):
    codec = program.table.codec
    rng = random.Random(program.name)
    states = [random_state(rng, program) for _ in range(60)] + [program.initial_state()]
    keys = [codec.encode(s) for s in states]
    for state, key in zip(states, keys):
        assert type(key) is int and 0 <= key < 1 << 8 * codec.size
        assert codec.decode(key) == state
        assert labeling(program, key) == labeling(program, state)
    for state in states[:5]:
        key = codec.encode(state)
        assert [(a, codec.decode(t)) for a, t in successors(program, key)] == successors(
            program, state
        )
    assert sorted(states, key=GlobalState.encode) == sorted(states, key=codec.encode)
    for a, b in zip(keys, keys[1:]):
        assert (a < b) == (codec.decode(a).encode() < codec.decode(b).encode())


def random_fields(rng, codec, count):
    """``count`` random field tuples of the codec's layout, each shared value
    up to the largest one and each record code below ``num_pcs * 2**L``;
    about half of them differ from an earlier one in one field only."""
    tops = ([codec.n if codec.pid_slots else 1] * codec.num_shared
            + [(codec.num_pcs << codec.num_locals) - 1] * codec.n)
    drawn = []
    for _ in range(count):
        if drawn and rng.random() < 0.5:
            fields = list(rng.choice(drawn))
            k = rng.randrange(len(fields))
            fields[k] = rng.randint(0, tops[k])
        else:
            fields = [rng.randint(0, top) for top in tops]
        drawn.append(tuple(fields))
    return drawn


@pytest.mark.parametrize("program", list(programs()), ids=lambda p: p.name)
def test_int_order_of_keys_is_the_encoding_order(program):
    # a key is the int of its fields big-endian, each at its field's width, so
    # int order is byte order of the fields, which is ``GlobalState.encode``'s
    codec = program.table.codec
    widths = [codec.shared_width] * codec.num_shared + [codec.width] * codec.n
    encoded = {}
    for fields in random_fields(random.Random(program.name), codec, 200):
        key = 0
        for value, width in zip(fields, widths):
            key = key << 8 * width | value
        state = codec.decode(key)
        assert state.shared + tuple(map(codec.code, state.locals)) == fields
        assert codec.encode(state) == key
        encoded[key] = state.encode()
    assert len(set(encoded.values())) == len(encoded)
    assert sorted(encoded) == sorted(encoded, key=encoded.get)


def test_field_widths_follow_the_largest_value():
    assert StateCodec.for_program(builtin_example("allocator", 255)).shared_width == 1
    assert StateCodec.for_program(builtin_example("allocator", 256)).shared_width == 2
    # without pid slots shared values are booleans, whatever n is
    assert StateCodec.for_program(builtin_example("mutex", 300)).shared_width == 1
    wide = parse_program(WIDE)
    assert wide.local_domain_size() == 3 * 2**7 > 256
    assert wide.table.codec.width == 2
    assert StateCodec.for_program(builtin_example("mutex", 3)).size == 3


def test_keys_that_do_not_fit_raise_value_errors():
    program = builtin_example("allocator", 3)
    codec = program.table.codec
    good = program.initial_state()
    misfits = [
        GlobalState(good.shared, good.locals[:2], good.pid_slots),  # wrong n
        GlobalState(good.shared, good.locals, ()),  # wrong pid slots
        GlobalState((4,), good.locals, good.pid_slots),  # never a pid value, but fits
        GlobalState((256,), good.locals, good.pid_slots),  # wider than the field
        GlobalState(good.shared, ((3,),) * 3, good.pid_slots),  # no such pc
        GlobalState(good.shared, ((0, 1),) * 3, good.pid_slots),  # a local too many
    ]
    assert codec.decode(codec.encode(misfits[2])) == misfits[2]
    for state in misfits[:2] + misfits[3:]:
        with pytest.raises(ValueError):
            codec.encode(state)
    for key in (1 << 8 * codec.size, -1):  # wider than the layout, or negative
        with pytest.raises(ValueError):
            codec.decode(key)
    with pytest.raises(ValueError):
        codec.decode(7)  # record code 7 names no pc
    with pytest.raises(ValueError):
        parse_program(WIDE).table.codec.encode(
            GlobalState((0,), ((0, 2, 0, 0, 0, 0, 0, 0),) * 2)
        )


# labels only a harness builds: the parser tests a pid-typed variable
# against none alone and writes no node from outside the package; the last,
# ``count(pc=T) >= 0``, it cannot write either, but no permutation changes it
LABEL_CASES = [
    ("allocator", "granted_to_0", SharedEq(0, 0), True),
    ("allocator", "not_granted_to_0", GNot(SharedEq(0, 0)), True),
    ("allocator", "free_and_granted_to_0", GAnd(PidEqNone(0), SharedEq(0, 0)), True),
    ("mutex", "first_critical", GOr(GFalse(), FirstProcessAt(2)), True),
    ("mutex", "always", CountAtLeast(0, 0), False),
]


@pytest.mark.parametrize(
    "model, name, label, refused", LABEL_CASES, ids=[case[1] for case in LABEL_CASES]
)
def test_labels_are_checked_once_when_the_table_is_built(model, name, label, refused):
    base = builtin_example(model, 3)
    builds = [lambda program: program.table, build_full_structure, build_quotient]
    if not base.pid_slots:
        builds.append(build_counter_structure)
    for build in builds:
        # a fresh program per build, so each build is the first to ask for the table
        program = base._replace(label_defs=base.label_defs + ((name, label),))
        if refused:
            with pytest.raises(ValueError, match=f"label '{name}'"):
                build(program)
        else:
            build(program)


# updates only a harness builds: the parser writes each target as "shared"
# or "local", each value with one of the six tags, ``*`` only to booleans,
# and each variable at most once per command
UPDATE_CASES = [
    ("mutex", (Update("global", 0, ValueExpr(V_CONST, 1)),), "update target 'global'"),
    ("allocator", (Update("pc", 0, ValueExpr(V_NONE)),), "update target 'pc'"),
    ("mutex", (Update("local", 0, ValueExpr("s")),), "value expression tag 's'"),
    ("allocator", (Update("shared", 0, ValueExpr("pid")),), "value expression tag 'pid'"),
    ("allocator", (Update("shared", 0, ValueExpr(V_STAR)),), "assigned to pid-typed shared slot 0"),
    ("allocator", (Update("shared", 0, ValueExpr(V_SELF)), Update("shared", 0, ValueExpr(V_NONE))),
     "assigns shared slot 0 twice"),
]


@pytest.mark.parametrize(
    "model, updates, message", UPDATE_CASES, ids=[case[2] for case in UPDATE_CASES]
)
def test_malformed_updates_are_refused_when_the_table_is_built(model, updates, message):
    base = builtin_example(model, 3)
    # command 1 leaves the second pc, which the initial state does not fire,
    # so the refusal is the table's and not that of a firing
    command = base.commands[1]._replace(updates=updates)
    builds = [lambda program: program.table]
    builds += [lambda program, mode=mode: explore(program, mode) for mode in ("full", "quotient")]
    if not base.pid_slots:
        builds.append(lambda program: explore(program, "counter"))
    for build in builds:
        program = base._replace(commands=(base.commands[0], command, *base.commands[2:]))
        with pytest.raises(ValueError, match=f"command 1: .*{message}"):
            build(program)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(build_config(argv), out=out, err=err)
    lines = [line for line in out.getvalue().splitlines(True) if "duration_ms" not in line]
    return code, "".join(lines), err.getvalue()


# reports of ``check --prop 'AG !bad'`` on WIDE, minus their duration line,
# as the checker printed them when every state was a tuple of records
WIDE_REPORTS = {
    'full': (
            'tool_version: 0.1.0\n'
            'command: check\n'
            'model: {model}\n'
            'mode: full\n'
            'property: AG !bad\n'
            'verdict: fails\n'
            'stats:\n'
            '  states_reached: 1054\n'
            '  edges: 3158\n'
            '  deadlocks: 0\n'
            '  frontier_peak: 153\n'
            '  bad_reached: True\n'
            'counterexample:\n'
            '  0: s=0 [P(a=0,b=0,c=1,d=0,e=0,f=0,g=1),P(a=0,b=0,c=1,d=0,e=0,f=0,g=1)]\n'
            '     --0/0-->\n'
            '  1: s=0 [Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0),P(a=0,b=0,c=1,d=0,e=0,f=0,g=1)]\n'
            '     --1/0-->\n'
            '  2: s=0 [Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0),Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0)]\n'
            '     --0/1-->\n'
            '  3: s=1 [R(a=0,b=0,c=1,d=0,e=0,f=1,g=0),Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0)]\n'
            '     --1/1-->\n'
            '  4: s=0 [R(a=0,b=0,c=1,d=0,e=0,f=1,g=0),R(a=0,b=0,c=1,d=0,e=0,f=1,g=0)]\n'
        ),
    'quotient': (
            'tool_version: 0.1.0\n'
            'command: check\n'
            'model: {model}\n'
            'mode: quotient\n'
            'property: AG !bad\n'
            'verdict: fails\n'
            'stats:\n'
            '  states_reached: 549\n'
            '  edges: 1579\n'
            '  deadlocks: 0\n'
            '  frontier_peak: 80\n'
            '  bad_reached: True\n'
            'counterexample:\n'
            '  0: s=0 [P(a=0,b=0,c=1,d=0,e=0,f=0,g=1),P(a=0,b=0,c=1,d=0,e=0,f=0,g=1)]\n'
            '     --1/0-->\n'
            '  1: s=0 [P(a=0,b=0,c=1,d=0,e=0,f=0,g=1),Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0)]\n'
            '     --0/0-->\n'
            '  2: s=0 [Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0),Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0)]\n'
            '     --1/1-->\n'
            '  3: s=1 [Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0),R(a=0,b=0,c=1,d=0,e=0,f=1,g=0)]\n'
            '     --0/1-->\n'
            '  4: s=0 [R(a=0,b=0,c=1,d=0,e=0,f=1,g=0),R(a=0,b=0,c=1,d=0,e=0,f=1,g=0)]\n'
        ),
    'counter': (
            'tool_version: 0.1.0\n'
            'command: check\n'
            'model: {model}\n'
            'mode: counter\n'
            'property: AG !bad\n'
            'verdict: fails\n'
            'stats:\n'
            '  states_reached: 549\n'
            '  edges: 1579\n'
            '  deadlocks: 0\n'
            '  frontier_peak: 80\n'
            '  bad_reached: True\n'
            'counterexample:\n'
            '  0: s=0 [P(a=0,b=0,c=1,d=0,e=0,f=0,g=1),P(a=0,b=0,c=1,d=0,e=0,f=0,g=1)]\n'
            '     --1/0-->\n'
            '  1: s=0 [P(a=0,b=0,c=1,d=0,e=0,f=0,g=1),Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0)]\n'
            '     --0/0-->\n'
            '  2: s=0 [Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0),Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0)]\n'
            '     --1/1-->\n'
            '  3: s=1 [Q(a=0,b=0,c=1,d=0,e=0,f=0,g=0),R(a=0,b=0,c=1,d=0,e=0,f=1,g=0)]\n'
            '     --0/1-->\n'
            '  4: s=0 [R(a=0,b=0,c=1,d=0,e=0,f=1,g=0),R(a=0,b=0,c=1,d=0,e=0,f=1,g=0)]\n'
        ),
}


@pytest.mark.parametrize("mode", ["full", "quotient", "counter"])
def test_two_byte_records_give_the_same_reports(tmp_path, monkeypatch, mode):
    (tmp_path / "wide.gcl").write_text(WIDE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["check", "--model", "wide.gcl", "--mode", mode, "--prop", "AG !bad"])
    assert (code, err) == (1, "")
    assert out == "".join(WIDE_REPORTS[mode]).format(model="wide.gcl")


def test_two_byte_pid_values_in_the_quotient():
    code, out, err = run_cli(
        ["check", "--builtin", "allocator:300", "--mode", "quotient", "--prop", "AG !bad"]
    )
    assert (code, err) == (0, "")
    assert "verdict: holds\n" in out
    assert "  states_reached: 601\n  edges: 1199\n" in out


# -- copies and pickles --------------------------------------------------------


def _structures():
    """A full, a Sym(n) quotient, a pid-typed quotient and a counter structure."""
    quotient = build_quotient(builtin_example("mutex", 4))
    pid_quotient = build_quotient(builtin_example("allocator", 3))
    return [
        build_full_structure(builtin_example("allocator", 3)),
        quotient.structure,
        pid_quotient.structure,
        build_counter_structure(builtin_example("mutex", 4)),
    ], [quotient, pid_quotient]


def _contents(structure):
    return (
        [structure.payload(sid) for sid in structure.states()],
        [structure.label_of(sid) for sid in structure.states()],
        list(structure.edges()),
        structure.init,
    )


@pytest.mark.parametrize(
    "copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
)
def test_structures_deepcopy_and_pickle(copy_of):
    structures, quotients = _structures()
    for structure in structures:
        copied = copy_of(structure)
        assert _contents(copied) == _contents(structure)
        sid = max(structure.states())
        assert copied.has_state(structure.payload(sid))
    for quotient in quotients:
        copied = copy_of(quotient)
        assert _contents(copied.structure) == _contents(quotient.structure)
        assert copied.orbit_sizes == quotient.orbit_sizes
        state = quotient.program.initial_state()
        assert copied.rep(state) == quotient.rep(state)


def test_copied_codecs_are_the_shared_codecs():
    program = builtin_example("allocator", 3)
    codec = program.table.codec
    for copy_of in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert copy_of(codec) is codec
        assert copy_of(program.table.runs) is program.table.runs


@pytest.mark.parametrize("name", ["mutex", "allocator"])
@pytest.mark.parametrize("mode", ["full", "quotient", "counter"])
def test_a_stored_key_is_a_state_of_its_structure(name, mode):
    # a structure's stored form is an int key, positional or run-length;
    # any other payload is encoded, and one that does not fit is no state of it
    program = builtin_example(name, 3)
    if mode == "counter" and program.pid_slots:
        return
    structure, _ = explore(program, mode)
    for sid in structure.states():
        key = structure.key(sid)
        assert type(key) is int
        assert structure.has_state(key) and structure.state_of(key) == sid
        assert structure.state_of(structure.payload(sid)) == sid
        assert structure.add_state(key, structure.label_of(sid)) == sid
    missing = structure.key(0) + (1 << 64)
    assert not structure.has_state(missing)
    with pytest.raises(KeyError):
        structure.state_of(missing)
    assert not structure.has_state(program.initial_state()._replace(shared=(9,) * 5))


@pytest.mark.parametrize("name", ["mutex", "allocator"])
@pytest.mark.parametrize("mode", ["full", "quotient", "counter"])
def test_a_foreign_payload_is_no_state_of_a_structure(name, mode):
    # an int is looked up as a key, so one outside the layout is simply
    # absent; anything else must encode, and one of no state type does not
    program = builtin_example(name, 3)
    if mode == "counter" and program.pid_slots:
        return
    structure, _ = explore(program, mode)
    for payload in (5, -1, 1 << 200, "x", None, b"ab", bytes(4)):
        assert not structure.has_state(payload)
        with pytest.raises(KeyError):
            structure.state_of(payload)
        if not isinstance(payload, int):
            with pytest.raises(ValueError):
                structure.add_state(payload)


@pytest.mark.parametrize("name", ["mutex", "allocator"])
@pytest.mark.parametrize("mode", ["full", "quotient", "counter"])
def test_add_state_refuses_an_int_its_codec_cannot_decode(name, mode):
    # an int is taken as a key, so a new one is decoded once before it is
    # stored; one that does not decode is refused and leaves no state
    program = builtin_example(name, 3)
    if mode == "counter" and program.pid_slots:
        return
    structure, _ = explore(program, mode)
    count = structure.num_states
    keys = [-1, 12345678901234567890, 1 << 200, structure.key(0) + (1 << 64)]
    if mode != "full":
        keys.append(0)  # a run-length key of no process
    for key in keys:
        with pytest.raises(ValueError):
            structure.add_state(key)
        assert not structure.has_state(key)
    assert structure.num_states == count
    assert structure.add_state(structure.key(0), structure.label_of(0)) == 0
