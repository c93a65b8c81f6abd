"""Independent oracles the tests check the package against.

Everything here computes expected values by enumeration, closed forms or
plain graph search over an already-built structure, never through the
code paths under test.  The last section holds a harness piece instead:
``asymmetric_mutex``, a program with a label that the package must
refuse.
"""

from collections import deque
from itertools import compress, permutations, product

from orbitmc import GlobalState, Permutation, apply, builtin_example
from orbitmc.program import (
    AllOthersNotAt,
    CountAtLeast,
    ExistsOtherAt,
    GAnd,
    GFalse,
    GNot,
    GOr,
    GTrue,
    LocalEq,
    PidEqNone,
    PidEqSelf,
    SharedEq,
    V_CONST,
    V_LOCAL,
    V_NONE,
    V_SELF,
    V_SHARED,
    V_STAR,
)


def mutex_reachable_states(n):
    """All mutex configurations: local tuples over {T,W,C} with <= 1 C.

    pc indices follow the builtin's declaration order T=0, W=1, C=2.
    """
    states = set()
    for combo in product((0, 1, 2), repeat=n):
        if sum(1 for v in combo if v == 2) <= 1:
            states.add(GlobalState((), tuple((v,) for v in combo)))
    return states


def mutex_count_closed_form(n):
    """2^n all-noncritical states plus n * 2^(n-1) single-C states."""
    return 2**n + n * 2 ** (n - 1)


def all_permutations(n):
    return [Permutation(p) for p in permutations(range(n))]


def orbit_by_full_enumeration(state):
    return {apply(p, state) for p in all_permutations(state.n)}


def min_image_by_full_enumeration(state):
    return min(orbit_by_full_enumeration(state), key=GlobalState.encode)


def random_state(rng, n, num_pcs=3, num_locals=2, num_shared=2):
    """A random pid-free global state over a synthetic shape."""
    shared = tuple(rng.randint(0, 1) for _ in range(num_shared))
    locs = tuple(
        (rng.randrange(num_pcs),) + tuple(rng.randint(0, 1) for _ in range(num_locals))
        for _ in range(n)
    )
    return GlobalState(shared, locs)


def random_pid_state(rng, n, num_pid_slots, num_pcs=3, num_locals=1):
    """A random global state with ``num_pid_slots`` pid-typed shared slots.

    The pid slots follow one boolean slot; their values are drawn from
    0..n, so ``none`` (encoded as n) and one process named by several
    slots both occur.  Few local shapes make equal records common.
    """
    shared = (rng.randint(0, 1),) + tuple(rng.randint(0, n) for _ in range(num_pid_slots))
    locs = tuple(
        (rng.randrange(num_pcs),) + tuple(rng.randint(0, 1) for _ in range(num_locals))
        for _ in range(n)
    )
    return GlobalState(shared, locs, tuple(range(1, num_pid_slots + 1)))


def flagged(flags):
    """The state ids that ``flags`` (one flag per state id, as ``sat_set``
    and ``label_flags`` return them) marks, as a frozenset: the set form
    the oracles here speak."""
    return frozenset(compress(range(len(flags)), flags))


def backward_bfs(structure, targets):
    """All states that can reach ``targets``, including the targets."""
    seen = set(targets)
    queue = deque(seen)
    while queue:
        t = queue.popleft()
        for s in structure.predecessors(t):
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return seen


def shortest_distance(structure, sources, targets):
    """Length of a shortest edge path from any source to any target."""
    targets = set(targets)
    dist = {s: 0 for s in sources}
    queue = deque(sorted(sources))
    while queue:
        s = queue.popleft()
        if s in targets:
            return dist[s]
        for _, t in structure.successors(s):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return None


def guard_by_definition(guard, state, i):
    """A guard AST read by its definition for process ``i``, scanning the
    other processes' records for the "other process" atoms."""
    shared, locs = state.shared, state.locals
    kind = type(guard)
    if kind is GTrue:
        return True
    if kind is GFalse:
        return False
    if kind is GNot:
        return not guard_by_definition(guard.inner, state, i)
    if kind is GAnd:
        return guard_by_definition(guard.left, state, i) and guard_by_definition(guard.right, state, i)
    if kind is GOr:
        return guard_by_definition(guard.left, state, i) or guard_by_definition(guard.right, state, i)
    if kind is SharedEq:
        return shared[guard.slot] == guard.value
    if kind is LocalEq:
        return locs[i][1 + guard.slot] == guard.value
    if kind is PidEqSelf:
        return shared[guard.slot] == i
    if kind is PidEqNone:
        return shared[guard.slot] == len(locs)
    if kind is AllOthersNotAt:
        return all(rec[0] != guard.pc for k, rec in enumerate(locs) if k != i)
    if kind is ExistsOtherAt:
        return any(rec[0] == guard.pc for k, rec in enumerate(locs) if k != i)
    raise TypeError(f"no definition for guard {guard!r}")


_NOT = {False: True, True: False}
_AND = {(False, False): False, (False, True): False, (True, False): False, (True, True): True}
_OR = {(False, False): False, (False, True): True, (True, False): True, (True, True): True}


def label_by_definition(expr, state):
    """A label AST read by its definition: truth tables for the
    connectives, a count of the records at a pc value for ``count``."""
    kind = type(expr)
    if kind is GTrue:
        return True
    if kind is GFalse:
        return False
    if kind is GNot:
        return _NOT[label_by_definition(expr.inner, state)]
    if kind is GAnd:
        return _AND[label_by_definition(expr.left, state), label_by_definition(expr.right, state)]
    if kind is GOr:
        return _OR[label_by_definition(expr.left, state), label_by_definition(expr.right, state)]
    if kind is CountAtLeast:
        return sum(1 for rec in state.locals if rec[0] == expr.pc) >= expr.k
    if kind is SharedEq:
        return state.shared[expr.slot] == expr.value
    if kind is PidEqNone:
        return state.shared[expr.slot] == len(state.locals)
    raise TypeError(f"no definition for label {expr!r}")


def successors_by_definition(program, state, processes=None):
    """Every (action, state) one step away, from the language's definition.

    Processes in index order, commands in declaration order; the k star
    updates of a command branch over the numbers 0 .. 2^k - 1, the first
    star update taking the most significant bit; every right-hand side
    reads the pre-state.
    """
    shared, locs, n = state.shared, state.locals, state.n
    out = []
    for i in range(n) if processes is None else processes:
        rec = locs[i]
        for j, cmd in enumerate(program.commands):
            if rec[0] != cmd.from_pc or not guard_by_definition(cmd.guard, state, i):
                continue
            stars = [k for k, u in enumerate(cmd.updates) if u.value.tag == V_STAR]
            for number in range(2 ** len(stars)):
                new_shared = list(shared)
                new_rec = [cmd.to_pc] + list(rec[1:])
                for k, u in enumerate(cmd.updates):
                    tag, arg = u.value.tag, u.value.arg
                    if tag == V_STAR:
                        value = (number >> (len(stars) - 1 - stars.index(k))) & 1
                    elif tag == V_SELF:
                        value = i
                    elif tag == V_NONE:
                        value = n
                    elif tag == V_SHARED:
                        value = shared[arg]
                    elif tag == V_LOCAL:
                        value = rec[1 + arg]
                    elif tag == V_CONST:
                        value = arg
                    else:
                        raise TypeError(f"no definition for value {u.value!r}")
                    if u.target == "shared":
                        new_shared[u.slot] = value
                    else:
                        new_rec[1 + u.slot] = value
                new_locals = list(locs)
                new_locals[i] = tuple(new_rec)
                successor = GlobalState(tuple(new_shared), tuple(new_locals), state.pid_slots)
                out.append((f"{i}/{j}", successor))
    return out


def quotient_by_rep_min(program, state_bound=50_000):
    """The Sym(n) quotient and counter structures read off the full
    structure, every state canonicalized with ``rep_min``.

    Returns a dict: ``payloads`` (the representatives), ``labels`` and
    ``orbit_sizes`` per representative, ``init``, ``edges`` as (source,
    target) representative pairs, ``actions`` as (source, "i/j", target)
    triples for the quotient's firing rule (every pinned process and the
    first process of each run of equal records, fired by the language's
    definition) and, for pid-free programs, ``counter_edges`` as (counter
    state, "i/j", counter state) triples, the quotient's actions.
    """
    from orbitmc import build_full_structure, full_symmetric, rep_min, to_counter

    group = full_symmetric(program.n)
    full = build_full_structure(program, state_bound=state_bound)
    rep_of = {sid: rep_min(group, full.payload(sid), witness=False)[0] for sid in full.states()}
    labels, orbit_sizes = {}, {}
    for sid, rep in rep_of.items():
        labels[rep] = full.label_of(sid)
        orbit_sizes[rep] = orbit_sizes.get(rep, 0) + 1
    actions, counter_edges = set(), set()
    for rep in labels:
        pinned = [v for v in dict.fromkeys(rep.shared[k] for k in rep.pid_slots) if v != rep.n]
        heads = [
            i for i in range(rep.n)
            if i in pinned or i == len(pinned) or rep.locals[i] != rep.locals[i - 1]
        ]
        for action, t in successors_by_definition(program, rep, heads):
            target = rep_min(group, t, witness=False)[0]
            actions.add((rep, action, target))
            if not program.pid_slots:
                counter_edges.add((to_counter(rep), action, to_counter(target)))
    return {
        "payloads": set(labels),
        "labels": labels,
        "orbit_sizes": orbit_sizes,
        "init": {rep_of[sid] for sid in full.init},
        "edges": {(rep_of[s], rep_of[t]) for s, _, t in full.edges()},
        "actions": actions,
        "counter_edges": counter_edges,
    }


def lift_by_canonicalizing_every_candidate(program, quotient_path, group=None):
    """The lift of a path of representatives by its first rule: at each
    step canonicalize every concrete successor of the language's
    definition (``rep_min``) and take the least ``(GlobalState.encode,
    action)`` among those whose representative is the next path state.
    Returns the ``Path``, or None at the first step that no successor
    matches."""
    from orbitmc import Path, full_symmetric, rep_min

    group = group or full_symmetric(program.n)
    current = program.initial_state()
    states, actions = [current], []
    for want in quotient_path.states[1:]:
        matches = [
            (t.encode(), action, t)
            for action, t in successors_by_definition(program, current)
            if rep_min(group, t, witness=False)[0] == want
        ]
        if not matches:
            return None
        _, action, current = min(matches)
        states.append(current)
        actions.append(action)
    return Path(tuple(states), tuple(actions))


# -- harness pieces -------------------------------------------------------------


class FirstProcessAt:
    """A label node only a harness can build, and no evaluator reads: process
    0 sits at this pc value, which permuting processes changes."""

    def __init__(self, pc):
        self.pc = pc


def asymmetric_mutex(n):
    """The mutex builtin plus ``first_critical``, a ``FirstProcessAt`` label."""
    base = builtin_example("mutex", n)
    return base._replace(label_defs=base.label_defs + (("first_critical", FirstProcessAt(2)),))
