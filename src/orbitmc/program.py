"""Replicated guarded-command programs and their interleaving semantics.

A program runs n identical processes over a shared valuation plus one
local record (pc value and local booleans) per process.  At each step one
process fires one enabled command atomically: the guard and all updates
read the pre-state, nondeterministic ``*`` assignments branch into both
values.  The guard language is deliberately restricted to atoms that are
invariant under permuting process indices, which is what makes every
permutation of {0..n-1} an automorphism of the induced state graph.

State encoding, documented bit-exactly because canonicalization orders
states by it:

* a local record is the tuple ``(pc index, b0, b1, ...)`` with booleans
  in declaration order, so record comparison is pc position first, then
  the booleans read as a binary number with the first-declared local as
  the most significant bit;
* a global state is the shared values in declaration order (a pid-typed
  value ``none`` is stored as n, after all indices 0..n-1) followed by
  the n local records in process order;
* ``GlobalState.encode()`` packs exactly that value sequence as 4-byte
  big-endian unsigned integers, so byte order and tuple order agree.

Exploration stores each state as one ``int`` key instead
(``StateCodec``): the shared values, then one *code* per local record,
``pc * 2**L + bits`` for L locals, read as one big-endian unsigned
integer.  Every field is as wide as its largest value needs, rounded up
to 1, 2, 4 or 8 bytes: shared fields hold values up to n (1 without
pid-typed variables), record fields up to ``local_domain_size() - 1``.
Process i's code is the field ``StateCodec.shifts[i]`` bits up, the last
process's lowest, and the shared fields sit above every code.  Fixed
widths make int order of the keys of one layout the order of
``GlobalState.encode``.  A move of process i from code c to code t adds
``(t - c) << shifts[i]`` to the key, and a write of the shared values
adds their change, shifted past the codes.  Under the full symmetric
group keys are run-length ``int``s instead (``runs.RunCodec``).
This module gives exploration its parts, ``successors`` and ``labeling``
over keys; ``explore`` puts them together into a build.  Commands fire
through one memo, ``CommandTable.record_plan``, into moves that name the
new record code and the new shared fields with their change to a
positional key, so the successor rules over both kinds of key read the
same plans.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from struct import Struct, error as StructError

from .errors import UnsupportedModelError
from .kripke import INIT_PROP
from .value import Value, _keep

BOOL = "bool"
PID = "pid"


class GlobalState(Value):
    """One configuration: shared valuation plus per-process local records.

    ``pid_slots`` lists the shared slots holding process ids so the state
    is self-describing under permutation; it is constant per program.
    """

    __slots__ = ("shared", "locals", "pid_slots")

    def __init__(self, shared, locals, pid_slots=()):
        # unrolled: every decoded state is built here
        _keep(self, (shared, locals, pid_slots))
        set_shared, set_locals, set_pid_slots = self._setters
        set_shared(self, shared)
        set_locals(self, locals)
        set_pid_slots(self, pid_slots)

    @property
    def n(self):
        return len(self.locals)

    def encode(self):
        """Canonical byte encoding (see module docstring)."""
        out = bytearray()
        for v in self.shared:
            out += v.to_bytes(4, "big")
        for rec in self.locals:
            for v in rec:
                out += v.to_bytes(4, "big")
        return bytes(out)


_FIELD_FORMATS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


def _field_format(largest):
    """(width, struct format) of the narrowest field holding 0..largest."""
    for width, fmt in _FIELD_FORMATS:
        if largest < 1 << (8 * width):
            return width, fmt
    raise UnsupportedModelError(f"a state field would need more than 64 bits (value {largest})")


class StateCodec:
    """Packs the states of one layout (n records of ``num_locals`` booleans
    and a pc of ``num_pcs`` values, behind ``num_shared`` shared values of
    at most ``max_shared``) into the int keys of the module docstring and
    back.  ``encode`` and ``decode`` raise ``ValueError`` on a misfit, so
    ``decode(encode(s)) == s``; codes and records convert through memos.
    """

    def __init__(self, n, num_shared, pid_slots, num_locals, num_pcs, max_shared):
        self._layout = (n, num_shared, pid_slots, num_locals, num_pcs, max_shared)
        self.n = n
        self.num_shared = num_shared
        self.pid_slots = pid_slots
        self.num_locals = num_locals
        self.num_pcs = num_pcs
        self.shared_width, self.shared_fmt = _field_format(max_shared)
        self.width, self.code_fmt = _field_format((num_pcs << num_locals) - 1)
        self.shared_size = num_shared * self.shared_width
        self.size = self.shared_size + n * self.width
        # process i's code is the field ``shifts[i]`` bits up; the shared
        # fields sit ``shift`` bits up, above every code
        self.shift = 8 * n * self.width
        self.shifts = tuple(8 * self.width * (n - 1 - i) for i in range(n))
        self._shared = Struct(f">{num_shared}{self.shared_fmt}")
        self._codes = Struct(f">{n}{self.code_fmt}")
        self._whole = Struct(f">{num_shared}{self.shared_fmt}{n}{self.code_fmt}")
        self._record_of = {}
        self._code_of = {}
        self._last = object(), None  # ``parts``' last key and its parts

    def __reduce__(self):  # copies and pickles share the codec of the layout
        return _codec, self._layout

    @staticmethod
    def for_program(program):
        return _codec(
            program.n,
            len(program.shared_names),
            program.pid_slots,
            len(program.local_names),
            len(program.pc_names),
            program.n if program.pid_slots else 1,
        )

    # -- one record --------------------------------------------------------

    def code(self, rec):
        """The code ``pc * 2**L + bits`` of a local record."""
        code = self._code_of.get(rec)
        if code is None:
            if len(rec) != 1 + self.num_locals or not 0 <= rec[0] < self.num_pcs:
                raise ValueError(f"local record {rec!r} does not fit the state layout")
            code = rec[0]
            for bit in rec[1:]:
                if bit not in (0, 1):
                    raise ValueError(f"local record {rec!r} holds a non-boolean local")
                code = code << 1 | bit
            self._code_of[rec] = code
            self._record_of[code] = rec
        return code

    def record(self, code):
        """The local record of a code."""
        rec = self._record_of.get(code)
        if rec is None:
            pc = code >> self.num_locals
            if pc >= self.num_pcs:
                raise ValueError(f"record code {code} names no pc value")
            rec = (pc,) + tuple(code >> k & 1 for k in reversed(range(self.num_locals)))
            self._record_of[code] = rec
            self._code_of[rec] = code
        return rec

    # -- whole keys --------------------------------------------------------

    def encode(self, state):
        if (
            type(state) is not GlobalState
            or len(state.shared) != self.num_shared
            or len(state.locals) != self.n
            or state.pid_slots != self.pid_slots
        ):
            raise ValueError(f"{state!r} is no state of this layout")
        codes = list(map(self._code_of.get, state.locals))
        if None in codes:  # a record not coded yet, which ``code`` checks
            codes = list(map(self.code, state.locals))
        return self.high(state.shared) << self.shift | int.from_bytes(self._codes.pack(*codes), "big")

    def decode(self, key):
        """The state of a key.  The key that ``parts`` read last is not
        read again: a build labels its first key before ``add_state``
        decodes it to check it."""
        last = self._last
        if last[0] is key:
            (shared, _), codes = last[1]
        else:
            shared, codes = self.split(key)
        return GlobalState(shared, tuple(map(self.record, codes)), self.pid_slots)

    def split(self, key):
        """The shared values of a key, as a tuple, and its record codes,
        indexable by process, from one ``to_bytes``."""
        try:
            data = key.to_bytes(self.size, "big")
        except OverflowError:
            raise ValueError(f"{key!r} is no key of this layout") from None
        if self.width == 1:
            return self._shared.unpack_from(data), data[self.shared_size :]
        return self._shared.unpack_from(data), self._codes.unpack_from(data, self.shared_size)

    def high(self, values):
        """The shared fields of the key with these shared values, as an int
        ``shift`` bits down."""
        try:
            return int.from_bytes(self._shared.pack(*values), "big")
        except StructError as exc:
            raise ValueError(f"shared values {values} out of range: {exc}") from None

    def parts(self, key):
        """``((shared values, per-pc process counts), record codes)`` of a
        key.  The last key read and its parts are kept, as one tuple, and a
        call on that same key object returns them again: the builder labels
        a state (``census``) right after the successor rule read it.
        Threads sharing the codec at worst read a key again."""
        last = self._last
        if last[0] is key:
            return last[1]
        shared, codes = self.split(key)
        if not self.num_locals:
            occ = list(map(codes.count, range(self.num_pcs)))
        else:
            occ = [0] * self.num_pcs
            for code in set(codes):
                occ[code >> self.num_locals] += codes.count(code)
        got = (shared, tuple(occ)), codes
        self._last = key, got
        return got

    def census(self, key):
        """The shared values and per-pc process counts of a key, as tuples."""
        return self.parts(key)[0]


@lru_cache(maxsize=None)
def _codec(*layout):
    return StateCodec(*layout)


# --------------------------------------------------------------------------
# Boolean expressions: guards, labels and formulas.
#
# Guards and labels are boolean combinations of atoms that cannot name a
# process index, and every package node evaluates as ``eval(shared, rec, i,
# occ, n)``: the shared values, the acting record ``rec`` and its index
# ``i``, and the per-pc totals ``occ`` of all n processes, acting one
# included.  The counter abstraction fires a record with no index (``i``
# None), and a label has no acting process at all (``rec`` and ``i`` None),
# so the label atoms ``CountAtLeast``, ``SharedEq`` and ``PidEqNone`` read
# only ``shared``, ``occ`` and ``n``.  The connectives ``GTrue``, ``GFalse``,
# ``GNot``, ``GAnd`` and ``GOr`` pass the five arguments on unchanged.  CTL
# formulas are built from the same connectives (``ctl.TrueF`` ... ``ctl.Or``
# name them), which ``ctl.sat_set`` reads structurally and never calls
# ``eval`` on.
#
# The "other process" atoms take the acting process out of ``occ``
# themselves, so every atom is O(1) after one O(n) occupancy pass per state.
# --------------------------------------------------------------------------


class Guard:
    """A boolean node of the package, or a guard from outside it."""

    __slots__ = ()

    def eval(self, shared, rec, i, occ, n):
        raise NotImplementedError


class GTrue(Guard, Value):
    __slots__ = ()

    def eval(self, shared, rec, i, occ, n):
        return True


class GFalse(Guard, Value):
    __slots__ = ()

    def eval(self, shared, rec, i, occ, n):
        return False


class GNot(Guard, Value):
    __slots__ = ("inner",)

    def eval(self, shared, rec, i, occ, n):
        return not self.inner.eval(shared, rec, i, occ, n)


class GAnd(Guard, Value):
    __slots__ = ("left", "right")

    def eval(self, shared, rec, i, occ, n):
        return self.left.eval(shared, rec, i, occ, n) and self.right.eval(shared, rec, i, occ, n)


class GOr(Guard, Value):
    __slots__ = ("left", "right")

    def eval(self, shared, rec, i, occ, n):
        return self.left.eval(shared, rec, i, occ, n) or self.right.eval(shared, rec, i, occ, n)


class SharedEq(Guard, Value):
    """Boolean shared variable compared against 0/1."""

    __slots__ = ("slot", "value")

    def eval(self, shared, rec, i, occ, n):
        return shared[self.slot] == self.value


class LocalEq(Guard, Value):
    """Local boolean of the acting process compared against 0/1."""

    __slots__ = ("slot", "value")

    def eval(self, shared, rec, i, occ, n):
        return rec[1 + self.slot] == self.value


class PidEqSelf(Guard, Value):
    """Pid-typed shared variable equals the acting process index."""

    __slots__ = ("slot",)

    def eval(self, shared, rec, i, occ, n):
        if i is None:
            raise UnsupportedModelError("pid comparisons have no counter semantics")
        return shared[self.slot] == i


class PidEqNone(Guard, Value):
    """Pid-typed shared variable is ``none``."""

    __slots__ = ("slot",)

    def eval(self, shared, rec, i, occ, n):
        return shared[self.slot] == n


class AllOthersNotAt(Guard, Value):
    """Every process other than the acting one is away from this pc value."""

    __slots__ = ("pc",)

    def eval(self, shared, rec, i, occ, n):
        return occ[self.pc] == (rec[0] == self.pc)


class ExistsOtherAt(Guard, Value):
    """Some process other than the acting one sits at this pc value."""

    __slots__ = ("pc",)

    def eval(self, shared, rec, i, occ, n):
        return occ[self.pc] > (rec[0] == self.pc)


class CountAtLeast(Guard, Value):
    """At least ``k`` processes sit at the pc value with this index."""

    __slots__ = ("pc", "k")

    def eval(self, shared, rec, i, occ, n):
        return occ[self.pc] >= self.k


# --------------------------------------------------------------------------
# Updates.
# --------------------------------------------------------------------------

# value expression tags
V_CONST = "const"
V_STAR = "star"
V_SELF = "self"
V_NONE = "none"
V_SHARED = "shared"
V_LOCAL = "local"
_VALUE_TAGS = (V_CONST, V_STAR, V_SELF, V_NONE, V_SHARED, V_LOCAL)


class ValueExpr(Value):
    __slots__ = ("tag", "arg")
    _defaults = (0,)


class Update(Value):
    """One assignment ``target := value``; targets are shared or self-local."""

    __slots__ = ("target", "slot", "value")  # target is "shared" or "local"


class GuardedCommand(Value):
    __slots__ = ("from_pc", "to_pc", "guard", "updates")


# --------------------------------------------------------------------------
# Label definitions: boolean nodes over the atoms above that are invariant
# under process permutations.
# --------------------------------------------------------------------------


_LABEL_ATOMS = (CountAtLeast, SharedEq, PidEqNone)


def _check_label(program, name, expr):
    """Refuse a label definition that permuting processes could change: a
    node other than the connectives and ``_LABEL_ATOMS``, or a ``SharedEq``
    on a pid-typed slot.  The parser writes neither; a harness can."""
    nodes = [expr]
    while nodes:
        node = nodes.pop()
        kind = type(node)
        if kind is GNot:
            nodes.append(node.inner)
        elif kind in (GAnd, GOr):
            nodes += (node.left, node.right)
        elif kind is SharedEq and program.shared_kinds[node.slot] == PID:
            var = program.shared_names[node.slot]
            raise ValueError(
                f"label {name!r}: {var!r} is pid-typed; labels may only test it against none"
            )
        elif kind not in _LABEL_ATOMS and kind not in (GTrue, GFalse):
            raise ValueError(f"label {name!r}: {kind.__name__} is no label atom or connective")


def _check_updates(program, j, cmd):
    """Refuse an update of command j that writes neither a shared nor a
    local slot, whose value has an unknown tag, that writes ``*`` to a
    pid-typed slot, or whose slot an earlier update of j writes too, so
    a command's ``*`` outcomes are distinct successors, even under a
    quotient.  The parser writes none of these; a harness can."""
    written = set()
    for u in cmd.updates:
        if u.target not in ("shared", "local"):
            raise ValueError(f"command {j}: update target {u.target!r} is neither shared nor local")
        if u.value.tag not in _VALUE_TAGS:
            raise ValueError(f"command {j}: unknown value expression tag {u.value.tag!r}")
        if u.value.tag == V_STAR and u.target == "shared" and program.shared_kinds[u.slot] == PID:
            raise ValueError(f"command {j}: '*' assigned to pid-typed shared slot {u.slot}")
        if (u.target, u.slot) in written:
            raise ValueError(f"command {j}: assigns {u.target} slot {u.slot} twice")
        written.add((u.target, u.slot))


# --------------------------------------------------------------------------
# Programs.
# --------------------------------------------------------------------------


class Program(Value):
    # label_defs holds (name, label node) pairs; the __dict__ slot holds the cached table
    __slots__ = ("n", "shared_names", "shared_kinds", "pc_names", "local_names", "commands",
                 "label_defs", "init_shared", "init_pc", "init_locals", "name", "__dict__")
    _defaults = ("program",)

    @property
    def pid_slots(self):
        return tuple(i for i, k in enumerate(self.shared_kinds) if k == PID)

    @property
    def none_value(self):
        return self.n

    def initial_state(self):
        rec = (self.init_pc,) + self.init_locals
        return GlobalState(self.init_shared, (rec,) * self.n, self.pid_slots)

    def local_domain_size(self):
        return len(self.pc_names) * (2 ** len(self.local_names))

    @cached_property
    def table(self):
        """The program's ``CommandTable``, built on first use."""
        return CommandTable(self)


class CommandTable:
    """Per-program lookups for successor generation: ``codec`` and ``runs``
    pack states into keys and run-length keys, ``by_pc[pc]`` lists ``(j,
    guard)`` for the commands leaving ``pc`` in declaration order, and
    ``record_plan`` fires each command once per shared valuation, record
    and acting process into ``plans``, the one memo of firing; a pid-free
    table also keeps the enabled moves of the last census it stepped
    (``_key_successors``), which threads sharing it at worst plan again.
    Building the table refuses, with a ``ValueError``, a label definition that
    permuting processes could change (``_check_label``) and an update the
    firing rule cannot read (``_check_updates``), so no mode checks a
    label or an update per state."""

    def __init__(self, program):
        self.program = program
        self.pid_free = not program.pid_slots
        self.codec = StateCodec.for_program(program)
        self.by_pc = tuple(
            tuple((j, cmd.guard) for j, cmd in enumerate(program.commands) if cmd.from_pc == pc)
            for pc in range(len(program.pc_names))
        )
        for name, expr in program.label_defs:
            _check_label(program, name, expr)
        for j, cmd in enumerate(program.commands):
            _check_updates(program, j, cmd)
        self._branches = tuple(
            tuple(product((0, 1), repeat=sum(u.value.tag == V_STAR for u in cmd.updates)))
            for cmd in program.commands
        )
        # the firing plans of ``record_plan``: per shared valuation, per acting
        # process (None in a pid-free program), by record code
        self.plans = {}
        self._last = None, None  # ``_key_successors``' last census and its enabled moves
        # ``action_names[i][j]`` is the action "i/j" and ``counter_names[code][j]``
        # the action "<record>/<j>"; ``action_row`` and ``counter_row`` fill a
        # row on first use, so a quotient that fires few of n processes never
        # builds the rest
        self.action_names = [None] * program.n
        self.counter_names = {}

    @cached_property
    def runs(self):
        from .runs import run_codec  # the runs module builds on this one

        return run_codec(self.codec)

    def action_row(self, i):
        row = self.action_names[i] = _action_row(i, len(self.program.commands))
        return row

    def counter_row(self, code):
        label = render_local(self.program, self.codec.record(code))
        row = self.counter_names[code] = _action_row(label, len(self.program.commands))
        return row

    def record_plan(self, shared, code, i=None):
        """The record of a code and its firing plan as process i (None in a
        pid-free program), kept in ``plans[shared][i][code]``, so a reader
        finds one acting process's plans once per state and each code's
        without making a tuple: ``(guard, moves)`` per command j leaving the
        record's pc, one move ``(j, t, delta, high)`` per outcome: ``high``
        the new shared fields (``StateCodec.high``) and ``delta`` what their
        write adds to a positional key, 0 if the command leaves the shared
        values unchanged.  Every right-hand side reads the pre-state, and the
        ``*`` assignments branch in increasing binary order of the assigned
        bits.  A plan depends only on the shared values, the record and i,
        since guards and updates compare pid values only with i and
        ``none``, so it holds for any key layout: the full-mode plan of
        process p is the run-length plan of a run head at rank p."""
        codec, n = self.codec, self.program.n
        rec, before = codec.record(code), codec.high(shared)
        plan = []
        for j, guard in self.by_pc[rec[0]]:
            cmd = self.program.commands[j]
            moves = []
            for bits in self._branches[j]:
                stars = iter(bits)
                new_shared, new_rec = list(shared), [cmd.to_pc, *rec[1:]]
                for u in cmd.updates:
                    tag, arg = u.value.tag, u.value.arg
                    value = (next(stars) if tag == V_STAR else arg if tag == V_CONST
                             else i if tag == V_SELF else n if tag == V_NONE
                             else shared[arg] if tag == V_SHARED else rec[1 + arg])
                    if u.target == "shared":
                        new_shared[u.slot] = value
                    else:
                        new_rec[1 + u.slot] = value
                high = codec.high(new_shared)
                moves.append((j, codec.code(tuple(new_rec)), high - before << codec.shift, high))
            plan.append((guard, tuple(moves)))
        got = self.plans.setdefault(shared, {}).setdefault(i, {})[code] = rec, tuple(plan)
        return got


@lru_cache(maxsize=None)
def _action_row(name, commands):
    return tuple(f"{name}/{j}" for j in range(commands))


def successors(program, state):
    """All (action, state) pairs one interleaved step away, processes in
    index order and commands in declaration order; the action is
    ``"<process>/<command>"`` and an empty result is a deadlock.
    ``state`` is a key of the program's codec, and so are the
    successors; given a ``GlobalState``, they are decoded ones."""
    if isinstance(state, GlobalState):
        codec = program.table.codec
        return [
            (action, codec.decode(key))
            for action, key in _key_successors(program.table, codec.encode(state))
        ]
    return _key_successors(program.table, state)


def _key_successors(table, key):
    """The successor rule on keys: process i fires its plan of its code,
    as ``record_plan`` gives it, and a move to code t adds ``(t - code)
    << shifts[i]`` and the move's ``delta`` to the key.  In a pid-free
    program no guard or effect reads the process index, and a guard
    reads only the acting record and the census (shared values and
    per-pc counts), so a record's enabled moves hold for every process
    holding it in every state of that census.  The table keeps the last census and its
    enabled moves by record code as one entry: a state of the same
    census reuses them, planning only the codes the entry lacks (with
    local booleans, two states of one census can hold other records),
    and any other census replaces the entry, so nothing grows with the
    state space.  Threads sharing the table at worst plan again."""
    codec = table.codec
    n = codec.n
    census, codes = codec.parts(key)
    shared, occ = census
    pid_free = table.pid_free
    record_plan = table.record_plan
    if pid_free:
        last, enabled = table._last
        if last != census:
            enabled, fresh = {}, set(codes)
        else:  # without locals, the census names every code the key holds
            fresh = set(codes).difference(enabled) if codec.num_locals else ()
        if fresh:
            by_code = (table.plans.get(shared) or {}).get(None) or {}
            for code in fresh:
                rec, plan = by_code.get(code) or record_plan(shared, code)
                moves = []
                for guard, command_moves in plan:
                    if guard.eval(shared, rec, None, occ, n):
                        moves += command_moves
                enabled[code] = moves
            table._last = census, enabled
    else:
        known = table.plans.get(shared) or {}
    shifts, names = codec.shifts, table.action_names
    out = []
    append = out.append
    for i, code in enumerate(codes):
        if pid_free:
            moves = enabled[code]
        else:
            rec, plan = (known.get(i) or {}).get(code) or record_plan(shared, code, i)
            moves = [
                move
                for guard, command_moves in plan
                if guard.eval(shared, rec, i, occ, n)
                for move in command_moves
            ]
        if not moves:
            continue
        at = shifts[i]
        actions = names[i] or table.action_row(i)
        for j, t, delta, _ in moves:
            append((actions[j], key + ((t - code) << at) + delta))
    return out


def labeling(program, state, codec=None):
    """The names of the label definitions that hold in ``state``: a
    ``GlobalState``, or a key of ``codec`` (by default the program's
    ``StateCodec``).  Every label reads only the shared values and per-pc
    totals, as the program's ``CommandTable`` made sure when it was built.
    """
    table = program.table
    if isinstance(state, GlobalState):
        codec, state = table.codec, table.codec.encode(state)
    codec = codec or table.codec
    shared, occ = codec.census(state)
    n = program.n
    return frozenset(
        [name for name, expr in program.label_defs if expr.eval(shared, None, None, occ, n)]
    )


def atomic_props(program):
    """The proposition names a structure built from this program carries:
    ``init``, then the label names in declaration order."""
    return (INIT_PROP, *(name for name, _ in program.label_defs))


# --------------------------------------------------------------------------
# Rendering (used by counterexample reports and DOT export).
# --------------------------------------------------------------------------


def render_local(program, rec):
    text = program.pc_names[rec[0]]
    if program.local_names:
        bits = ",".join(
            f"{name}={rec[1 + k]}" for k, name in enumerate(program.local_names)
        )
        text += "(" + bits + ")"
    return text


def render_shared_value(program, slot, value):
    if program.shared_kinds[slot] == PID:
        return "none" if value == program.none_value else str(value)
    return str(value)


def render_state(program, state):
    parts = []
    if program.shared_names:
        shared = ",".join(
            f"{name}={render_shared_value(program, k, state.shared[k])}"
            for k, name in enumerate(program.shared_names)
        )
        parts.append(shared)
    parts.append("[" + ",".join(render_local(program, rec) for rec in state.locals) + "]")
    return " ".join(parts)
