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

Exploration stores each state as one packed ``bytes`` key instead
(``StateCodec``): the shared values, then one *code* per local record,
``pc * 2**L + bits`` for L locals.  Every field is a fixed-width
big-endian unsigned integer, as wide as its largest value needs, rounded
up to 1, 2, 4 or 8 bytes: shared fields hold values up to n (1 without
pid-typed variables), record fields up to ``local_domain_size() - 1``.
Fixed widths make byte order of keys the order of ``GlobalState.encode``.
Under the full symmetric group keys are run-length (``runs.RunCodec``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from struct import Struct, error as StructError

from .errors import UnsupportedModelError
from .kripke import AtomicProp, DEFAULT_STATE_BOUND, breadth_first_build
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
    at most ``max_shared``) into the keys of the module docstring and back.
    ``encode`` and ``decode`` raise ``ValueError`` on a misfit, so
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
        self._shared = Struct(f">{num_shared}{self.shared_fmt}")
        self._codes = Struct(f">{n}{self.code_fmt}")
        self._whole = Struct(f">{num_shared}{self.shared_fmt}{n}{self.code_fmt}")
        self._record_of = {}
        self._code_of = {}

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
            len(state.shared) != self.num_shared
            or len(state.locals) != self.n
            or state.pid_slots != self.pid_slots
        ):
            raise ValueError(f"state {state} does not fit the state layout")
        try:
            return self._whole.pack(*state.shared, *map(self.code, state.locals))
        except StructError as exc:
            raise ValueError(f"state {state} has a shared value out of range: {exc}") from None

    def decode(self, key):
        if len(key) != self.size:
            raise ValueError(f"a key of this layout has {self.size} bytes, got {len(key)}")
        values = self._whole.unpack(key)
        k = self.num_shared
        return GlobalState(values[:k], tuple(map(self.record, values[k:])), self.pid_slots)

    def shared(self, key):
        """The shared values of a key, as a tuple."""
        return self._shared.unpack_from(key)

    def codes(self, key):
        """The record codes of a key, indexable by process."""
        if self.width == 1:
            return key[self.shared_size :]
        return self._codes.unpack_from(key, self.shared_size)

    def pack_shared(self, values):
        try:
            return self._shared.pack(*values)
        except StructError as exc:
            raise ValueError(f"shared values {values} out of range: {exc}") from None

    def census(self, key):
        """The shared values and per-pc process counts of a key."""
        codes = self.codes(key)
        if not self.num_locals:
            return self.shared(key), list(map(codes.count, range(self.num_pcs)))
        occ = [0] * self.num_pcs
        for code in set(codes):
            occ[code >> self.num_locals] += codes.count(code)
        return self.shared(key), occ


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


class LabelExpr:
    """A label node from outside the package: it implements ``eval(state)``
    on a decoded ``GlobalState``.  A label definition holding one is
    evaluated that way as a whole, so the node must be the definition's
    root: package nodes derive from ``Guard`` alone, and the connectives
    evaluate their operands as guards."""

    def eval(self, state):
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


# ``LSharedEq`` and ``LPidIsNone`` name the same atoms for callers importing the label names
LSharedEq, LPidIsNone = SharedEq, PidEqNone


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


class ValueExpr(Value):
    __slots__ = ("tag", "arg")
    _defaults = (0,)


class Update(Value):
    """One assignment ``target := value``; targets are shared or self-local."""

    __slots__ = ("target", "slot", "value")  # target is "shared" or "local"


class GuardedCommand(Value):
    __slots__ = ("from_pc", "to_pc", "guard", "updates")


def _resolve_value(expr, n, shared, rec, i):
    if expr.tag == V_CONST:
        return expr.arg
    if expr.tag == V_SELF:
        return i
    if expr.tag == V_NONE:
        return n
    if expr.tag == V_SHARED:
        return shared[expr.arg]
    if expr.tag == V_LOCAL:
        return rec[1 + expr.arg]
    raise ValueError(f"unknown value expression tag {expr.tag!r}")


def command_branches(program, cmd, shared, rec, i, branches):
    """All (new shared, new local record) outcomes of firing ``cmd``.

    All right-hand sides read the pre-state; ``*`` assignments branch, with
    branches enumerated in increasing binary order of the assigned bits
    (star bits keyed by update position).  ``i`` is the acting process
    index, only consulted by ``self`` values; the counter abstraction
    passes None.  ``branches`` lists the star bits of each branch in that
    order, as ``CommandTable`` computes them once per command.
    """
    updates = cmd.updates
    resolved = [
        None if u.value.tag == V_STAR else _resolve_value(u.value, program.n, shared, rec, i)
        for u in updates
    ]
    outcomes = []
    for bits in branches:
        star_bits = iter(bits)
        new_shared, new_rec = list(shared), list(rec)
        new_rec[0] = cmd.to_pc
        for u, value in zip(updates, resolved):
            if u.value.tag == V_STAR:
                value = next(star_bits)
            if u.target == "shared":
                new_shared[u.slot] = value
            else:
                new_rec[1 + u.slot] = value
        outcomes.append((tuple(new_shared), tuple(new_rec)))
    return outcomes


# --------------------------------------------------------------------------
# Label definitions: boolean nodes over the atoms above that are invariant
# under process permutations.
# --------------------------------------------------------------------------


_LABEL_ATOMS = (CountAtLeast, SharedEq, PidEqNone)


def _label_kind(program, expr):
    """How a label definition is evaluated: ``"counts"`` when it is built
    from the package's nodes, ``"asymmetric"`` when one of those tests a
    pid-typed slot against a value (only a harness builds that), and
    ``"state"`` when it holds a node from outside the package."""
    nodes, atoms, foreign = [expr], [], False
    while nodes:
        node = nodes.pop()
        kind = type(node)
        if kind is GNot:
            nodes.append(node.inner)
        elif kind in (GAnd, GOr):
            nodes += (node.left, node.right)
        elif kind in _LABEL_ATOMS:
            atoms.append(node)
        elif kind not in (GTrue, GFalse):
            foreign = True
    if foreign:
        return "state"
    if any(type(a) is SharedEq and program.shared_kinds[a.slot] == PID for a in atoms):
        return "asymmetric"
    return "counts"


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
    guard)`` for the commands leaving ``pc`` in declaration order,
    ``effects`` memoizes ``command_branches`` (whose outcome depends only on
    ``(j, shared, rec)``, plus ``i`` for commands that assign ``self``),
    ``record_plan`` bundles those per record into ``plans``, and
    ``count_labels`` and ``state_labels`` split the labels by how
    ``labeling`` evaluates them."""

    def __init__(self, program):
        self.program = program
        self.pid_free = not program.pid_slots
        self.codec = StateCodec.for_program(program)
        self.by_pc = tuple(
            tuple((j, cmd.guard) for j, cmd in enumerate(program.commands) if cmd.from_pc == pc)
            for pc in range(len(program.pc_names))
        )
        self._assigns_self = tuple(
            any(u.value.tag == V_SELF for u in cmd.updates) for cmd in program.commands
        )
        self._branches = tuple(
            tuple(product((0, 1), repeat=sum(u.value.tag == V_STAR for u in cmd.updates)))
            for cmd in program.commands
        )
        kinds = [(name, expr, _label_kind(program, expr)) for name, expr in program.label_defs]
        self.count_labels = tuple((name, expr) for name, expr, kind in kinds if kind != "state")
        self.state_labels = tuple((name, expr) for name, expr, kind in kinds if kind == "state")
        # labels that permuting processes may change, checked per orbit by the quotient
        self.labels_need_orbit_check = any(kind != "counts" for _, _, kind in kinds)
        self._effects = {}
        # the firing plans of ``record_plan``, a dict per shared valuation
        self.plans = {}
        # ``action_names[i][j]`` is the action "i/j"; row i stays None until
        # ``action_row(i)`` fills it, so a quotient that fires few of n
        # processes never builds the rest
        self.action_names = [None] * program.n

    @cached_property
    def runs(self):
        from .runs import run_codec  # the runs module builds on this one

        return run_codec(self.codec)

    def action_row(self, i):
        row = self.action_names[i] = _action_row(i, len(self.program.commands))
        return row

    def effects(self, j, shared, rec, i):
        """``command_branches`` of command ``j``, computed once per key, as
        ``(j, new shared, packed shared, new code, packed code)``; the packed
        shared values are None when the command leaves them unchanged."""
        key = (j, shared, rec, i) if self._assigns_self[j] else (j, shared, rec)
        out = self._effects.get(key)
        if out is None:
            cmd = self.program.commands[j]
            codec = self.codec
            out = self._effects[key] = tuple(
                (
                    j,
                    new_shared,
                    None if new_shared == shared else codec.pack_shared(new_shared),
                    code := codec.code(new_rec),
                    code.to_bytes(codec.width, "big"),
                )
                for new_shared, new_rec in command_branches(
                    self.program, cmd, shared, rec, i, self._branches[j]
                )
            )
        return out

    def record_plan(self, shared, code, i=None):
        """The record of a code and its firing plan as process i, kept in
        ``plans[shared]`` by code in a pid-free program (i None) or for a
        run head (i the pin count), and by ``(code, i)`` for pin i: ``(guard,
        counter action, moves)`` per command j leaving the record's pc, each
        move of ``effects`` to a code t as ``(j, t, packed t, prefix)``.  The
        prefix of a move that keeps the pins is its packed shared values,
        None if unchanged.  Any other move has packed t None and as prefix
        ``(packed ranked shared values, picks, left, packed t)``, where picks
        and left index the old pinned codes followed by t: picks slices out
        the new pinned section, left pairs each code that joins the runs
        with its slice (``runs.run_successors``)."""
        rec = self.codec.record(code)
        label = render_local(self.program, rec) if i is None else None
        if i is not None:
            p, w = len(self.runs.ranked(shared)[0]), self.codec.width
            cuts = [slice(q * w, q * w + w) for q in range(p + 1)]
        plan = []
        for j, guard in self.by_pc[rec[0]]:
            moves = []
            for _, new_shared, prefix, t, packed_t in self.effects(j, shared, rec, i):
                if i is not None:
                    new_pins, _, _, ranked = self.runs.ranked(new_shared)
                    if new_pins != tuple(range(p)):
                        picks = tuple(cuts[p if q == i else q] for q in new_pins)
                        left = [p if q == i else q for q in range(p + (i == p)) if q not in new_pins]
                        prefix = ranked, picks, tuple((q, cuts[q]) for q in left), packed_t
                        packed_t = None
                moves.append((j, t, packed_t, prefix))
            plan.append((guard, label and f"{label}/{j}", tuple(moves)))
        plans = self.plans.get(shared)
        if plans is None:
            plans = self.plans[shared] = {}
        got = plans[code if i is None or i == p else (code, i)] = rec, tuple(plan)
        return got


@lru_cache(maxsize=None)
def _action_row(i, commands):
    return tuple(f"{i}/{j}" for j in range(commands))


def initial_states(program):
    """The initial set; a singleton because all processes start identical."""
    return frozenset({program.initial_state()})


def successors(program, state, processes=None):
    """All (action, state) pairs one interleaved step away, processes in
    index order (only ``processes`` if given) and commands in declaration
    order; the action is ``"<process>/<command>"`` and an empty result is a
    deadlock.  ``state`` is a key of the program's codec, and so are the
    successors; given a ``GlobalState``, they are decoded ones."""
    if isinstance(state, GlobalState):
        codec = program.table.codec
        return [
            (action, codec.decode(key))
            for action, key in _key_successors(program.table, codec.encode(state), processes)
        ]
    return _key_successors(program.table, state, processes)


def _key_successors(table, key, processes):
    """The successor rule on keys.  A successor is the key with one record
    field replaced (and the shared prefix too when the command writes
    shared state).  In a pid-free program no guard or effect reads the
    process index, so each distinct record is planned once per state
    (``record_plan``) and every process holding it reuses the plan."""
    codec = table.codec
    n = codec.n
    shared, occ = codec.census(key)
    codes = codec.codes(key)
    record = codec.record
    pid_free = table.pid_free
    if pid_free:
        plans, known = {}, table.plans.get(shared, {})
        for code in set(codes):
            rec, plan = known.get(code) or table.record_plan(shared, code)
            moves = plans[code] = []
            for guard, _, command_moves in plan:
                if guard.eval(shared, rec, None, occ, n):
                    moves += command_moves
    start, width = codec.shared_size, codec.width
    names = table.action_names
    out = []
    append = out.append
    for i in range(n) if processes is None else processes:
        # the enabled moves of process i, as ``record_plan`` gives them
        if pid_free:
            moves = plans[codes[i]]
        else:
            rec = record(codes[i])
            moves = [
                (j, t, packed_t, packed_shared)
                for j, guard in table.by_pc[rec[0]]
                if guard.eval(shared, rec, i, occ, n)
                for _, _, packed_shared, t, packed_t in table.effects(j, shared, rec, i)
            ]
        if not moves:
            continue
        at = start + i * width
        head, tail = key[:at], key[at + width :]
        actions = names[i] or table.action_row(i)
        for j, _, packed_rec, packed_shared in moves:
            if packed_shared is None:
                append((actions[j], head + packed_rec + tail))
            else:
                append((actions[j], packed_shared + head[start:] + packed_rec + tail))
    return out


def labeling(program, state, codec=None):
    """Evaluate every label definition on ``state``: a ``GlobalState``, or
    a key of ``codec`` (by default the program's ``StateCodec``).  Package
    label nodes read only the shared values and per-pc totals; a definition
    holding a label class from outside the package gets the decoded state.
    """
    table = program.table
    if isinstance(state, GlobalState):
        codec, state = table.codec, table.codec.encode(state)
    codec = codec or table.codec
    shared, occ = codec.census(state)
    n = program.n
    out = [name for name, expr in table.count_labels if expr.eval(shared, None, None, occ, n)]
    if table.state_labels:
        decoded = codec.decode(state)
        out += [name for name, expr in table.state_labels if expr.eval(decoded)]
    return frozenset(out)


_DESIGNATED_NAMES = ("init", "bad", "good")


def atomic_props(program):
    """The AP set a structure built from this program carries."""
    props = [AtomicProp("init", "designated-label")]
    for name, expr in program.label_defs:
        if name in _DESIGNATED_NAMES:
            kind = "designated-label"
            detail = ()
        elif isinstance(expr, CountAtLeast):
            kind = "count-threshold"
            detail = (program.pc_names[expr.pc], expr.k)
        elif isinstance(expr, SharedEq):
            kind = "shared-literal"
            detail = (program.shared_names[expr.slot], expr.value)
        else:
            kind = "designated-label"
            detail = ()
        props.append(AtomicProp(name, kind, detail))
    return tuple(props)


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


# --------------------------------------------------------------------------
# Full (unreduced) exploration.
# --------------------------------------------------------------------------


def _build_full(program, state_bound, stop_at_bad=False, tree=False):
    codec = program.table.codec
    return breadth_first_build(
        atomic_props(program),
        sorted(map(codec.encode, initial_states(program))),
        lambda key: successors(program, key),
        lambda key: labeling(program, key),
        codec=codec,
        state_bound=state_bound,
        stop_at_bad=stop_at_bad,
        tree=tree,
    )


def build_full_structure(program, state_bound=DEFAULT_STATE_BOUND):
    """BFS the full state graph into a Kripke structure.

    State ids follow BFS discovery order; initial states carry the
    designated ``init`` label.  Exceeding ``state_bound`` raises a
    resource error that reports the frontier size.
    """
    structure, _ = _build_full(program, state_bound)
    return structure
