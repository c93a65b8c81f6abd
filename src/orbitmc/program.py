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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import UnsupportedModelError
from .kripke import AtomicProp, DEFAULT_STATE_BOUND, breadth_first_build

BOOL = "bool"
PID = "pid"


@dataclass(frozen=True)
class GlobalState:
    """One configuration: shared valuation plus per-process local records.

    ``pid_slots`` lists the shared slots holding process ids so the state
    is self-describing under permutation; it is constant per program.
    """

    shared: tuple
    locals: tuple
    pid_slots: tuple = ()

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


# --------------------------------------------------------------------------
# Boolean expressions: guards, labels and formulas.
#
# Guards and labels are boolean combinations of atoms that cannot name a
# process index, and they share one set of connectives: ``GTrue``,
# ``GFalse``, ``GNot``, ``GAnd`` and ``GOr``.  A connective's ``eval(*ctx)``
# passes its arguments on unchanged, so one node evaluates inside a guard
# as ``eval(shared, rec, i, occ, n)`` and inside a label as ``eval(state)``.
# Only the atoms differ.  CTL formulas are built from the same nodes
# (``ctl.TrueF`` ... ``ctl.Or`` name them), which ``ctl.sat_set`` reads
# structurally and never calls ``eval`` on.
#
# Guard atoms see the acting record ``rec``, its index ``i`` (None in the
# counter abstraction) and the per-pc totals ``occ`` of all n processes,
# acting one included.  The "other process" atoms take the acting process
# out of ``occ`` themselves, so every atom is O(1) after one O(n) occupancy
# pass per state.
# --------------------------------------------------------------------------


class Guard:
    def eval(self, shared, rec, i, occ, n):
        raise NotImplementedError


class LabelExpr:
    def eval(self, state):
        raise NotImplementedError


@dataclass(frozen=True)
class GTrue(Guard, LabelExpr):
    def eval(self, *ctx):
        return True


@dataclass(frozen=True)
class GFalse(Guard, LabelExpr):
    def eval(self, *ctx):
        return False


@dataclass(frozen=True)
class GNot(Guard, LabelExpr):
    inner: Guard | LabelExpr

    def eval(self, *ctx):
        return not self.inner.eval(*ctx)


@dataclass(frozen=True)
class GAnd(Guard, LabelExpr):
    left: Guard | LabelExpr
    right: Guard | LabelExpr

    def eval(self, *ctx):
        return self.left.eval(*ctx) and self.right.eval(*ctx)


@dataclass(frozen=True)
class GOr(Guard, LabelExpr):
    left: Guard | LabelExpr
    right: Guard | LabelExpr

    def eval(self, *ctx):
        return self.left.eval(*ctx) or self.right.eval(*ctx)


@dataclass(frozen=True)
class SharedEq(Guard):
    """Boolean shared variable compared against 0/1."""

    slot: int
    value: int

    def eval(self, shared, rec, i, occ, n):
        return shared[self.slot] == self.value


@dataclass(frozen=True)
class LocalEq(Guard):
    """Local boolean of the acting process compared against 0/1."""

    slot: int
    value: int

    def eval(self, shared, rec, i, occ, n):
        return rec[1 + self.slot] == self.value


@dataclass(frozen=True)
class PidEqSelf(Guard):
    """Pid-typed shared variable equals the acting process index."""

    slot: int

    def eval(self, shared, rec, i, occ, n):
        if i is None:
            raise UnsupportedModelError("pid comparisons have no counter semantics")
        return shared[self.slot] == i


@dataclass(frozen=True)
class PidEqNone(Guard):
    slot: int

    def eval(self, shared, rec, i, occ, n):
        return shared[self.slot] == n


@dataclass(frozen=True)
class AllOthersNotAt(Guard):
    """Every process other than the acting one is away from this pc value."""

    pc: int

    def eval(self, shared, rec, i, occ, n):
        return occ[self.pc] == (rec[0] == self.pc)


@dataclass(frozen=True)
class ExistsOtherAt(Guard):
    """Some process other than the acting one sits at this pc value."""

    pc: int

    def eval(self, shared, rec, i, occ, n):
        return occ[self.pc] > (rec[0] == self.pc)


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


@dataclass(frozen=True)
class ValueExpr:
    tag: str
    arg: int = 0


@dataclass(frozen=True)
class Update:
    """One assignment ``target := value``; targets are shared or self-local."""

    target: str  # "shared" | "local"
    slot: int
    value: ValueExpr


@dataclass(frozen=True)
class GuardedCommand:
    from_pc: int
    to_pc: int
    guard: Guard
    updates: tuple


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


def command_branches(program, cmd, shared, rec, i):
    """All (new shared, new local record) outcomes of firing ``cmd``.

    All right-hand sides read the pre-state; ``*`` assignments branch, with
    branches enumerated in increasing binary order of the assigned bits
    (star bits keyed by update position).  ``i`` is the acting process
    index, only consulted by ``self`` values; the counter abstraction
    passes None.
    """
    outcomes = []
    for bits in product((0, 1), repeat=sum(u.value.tag == V_STAR for u in cmd.updates)):
        star_bits = iter(bits)
        new_shared, new_rec = list(shared), list(rec)
        new_rec[0] = cmd.to_pc
        for u in cmd.updates:
            if u.value.tag == V_STAR:
                value = next(star_bits)
            else:
                value = _resolve_value(u.value, program.n, shared, rec, i)
            if u.target == "shared":
                new_shared[u.slot] = value
            else:
                new_rec[1 + u.slot] = value
        outcomes.append((tuple(new_shared), tuple(new_rec)))
    return outcomes


# --------------------------------------------------------------------------
# Label atoms: evaluated on whole states, restricted to atoms that are
# invariant under process permutations.  Labels combine them with the
# connectives above.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CountAtLeast(LabelExpr):
    """At least ``k`` processes sit at the pc value with this index."""

    pc: int
    k: int

    def eval(self, state):
        count = 0
        for rec in state.locals:
            if rec[0] == self.pc:
                count += 1
                if count >= self.k:
                    return True
        return False


@dataclass(frozen=True)
class LSharedEq(LabelExpr):
    slot: int
    value: int

    def eval(self, state):
        return state.shared[self.slot] == self.value


@dataclass(frozen=True)
class LPidIsNone(LabelExpr):
    slot: int

    def eval(self, state):
        return state.shared[self.slot] == state.n


# --------------------------------------------------------------------------
# Programs.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    n: int
    shared_names: tuple
    shared_kinds: tuple
    pc_names: tuple
    local_names: tuple
    commands: tuple
    label_defs: tuple  # (name, LabelExpr) pairs
    init_shared: tuple
    init_pc: int
    init_locals: tuple
    name: str = "program"

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
    """Per-program lookups for successor generation: ``by_pc[pc]`` lists
    ``(j, guard)`` for the commands leaving ``pc`` in declaration order, and
    ``effects`` memoizes ``command_branches``, whose outcome depends only on
    ``(j, shared, rec)``, plus ``i`` for commands that assign ``self``;
    ``counter_plan`` bundles those per record for the counter abstraction."""

    def __init__(self, program):
        self.program = program
        self.pid_free = not program.pid_slots
        self.by_pc = tuple(
            tuple((j, cmd.guard) for j, cmd in enumerate(program.commands) if cmd.from_pc == pc)
            for pc in range(len(program.pc_names))
        )
        self._assigns_self = tuple(
            any(u.value.tag == V_SELF for u in cmd.updates) for cmd in program.commands
        )
        self._effects = {}
        self._counter_plans = {}

    def effects(self, j, shared, rec, i):
        """``command_branches`` of command ``j``, computed once per key."""
        key = (j, shared, rec, i) if self._assigns_self[j] else (j, shared, rec)
        out = self._effects.get(key)
        if out is None:
            cmd = self.program.commands[j]
            out = self._effects[key] = tuple(command_branches(self.program, cmd, shared, rec, i))
        return out

    def counter_plan(self, shared, rec):
        """The counter abstraction's firing plan for a record, built once
        per ``(shared, rec)``: ``(guard, action, outcomes)`` for each command
        leaving ``rec[0]``, with action ``"<record>/<j>"`` and outcomes
        ``effects(j, shared, rec, None)``."""
        plan = self._counter_plans.get((shared, rec))
        if plan is None:
            label = render_local(self.program, rec)
            plan = self._counter_plans[shared, rec] = tuple(
                (guard, f"{label}/{j}", self.effects(j, shared, rec, None))
                for j, guard in self.by_pc[rec[0]]
            )
        return plan


def initial_states(program):
    """The initial set; a singleton because all processes start identical."""
    return frozenset({program.initial_state()})


def successors(program, state, processes=None):
    """All (action, state) pairs one interleaved step away.

    Processes are tried in index order and commands in declaration order,
    so the result order is deterministic; the action label is
    ``"<process>/<command>"``.  An empty result is a deadlock.  With
    ``processes`` (increasing indices) only those processes fire; the
    quotient passes one process per class of interchangeable processes.
    """
    table = program.table
    shared = state.shared
    locs = state.locals
    n = program.n
    occ = [0] * len(table.by_pc)
    for rec in locs:
        occ[rec[0]] += 1
    out = []
    for i in range(len(locs)) if processes is None else processes:
        rec = locs[i]
        for j, guard in table.by_pc[rec[0]]:
            if not guard.eval(shared, rec, i, occ, n):
                continue
            action = f"{i}/{j}"
            for new_shared, new_rec in table.effects(j, shared, rec, i):
                new_locals = locs[:i] + (new_rec,) + locs[i + 1 :]
                out.append((action, GlobalState(new_shared, new_locals, state.pid_slots)))
    return out


def labeling(program, state):
    """Evaluate every label definition on ``state``."""
    return frozenset(name for name, expr in program.label_defs if expr.eval(state))


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
        elif isinstance(expr, LSharedEq):
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


def _build_full(program, state_bound, stop_at_bad=False):
    return breadth_first_build(
        atomic_props(program),
        sorted(initial_states(program), key=GlobalState.encode),
        lambda s: successors(program, s),
        lambda s: labeling(program, s),
        state_bound=state_bound,
        stop_at_bad=stop_at_bad,
    )


def build_full_structure(program, state_bound=DEFAULT_STATE_BOUND):
    """BFS the full state graph into a Kripke structure.

    State ids follow BFS discovery order; initial states carry the
    designated ``init`` label.  Exceeding ``state_bound`` raises a
    resource error that reports the frontier size.
    """
    structure, _ = _build_full(program, state_bound)
    return structure
