"""Permutations of process indices acting on global states.

The action permutes the local records and re-points pid-typed shared
values (``none`` stays put).  The representative of an orbit is its
least element under the byte encoding documented in ``program``.  Under
the full symmetric group that is a *pinned sort* (the scalarset normal
form), O(n log n): the processes named by non-``none`` pid slots are
pinned and renumbered 0, 1, ... in order of first appearance, their
records go first, and the others follow sorted, ties in index order.
``rep_min`` is the one canonicalization of a ``GlobalState``, for every
group, with a witness permutation on request; without pins it is
``rep_sort``.  Exploration stores the representative as a run-length
``int`` key (``runs.RunCodec.canonical``): the shared values, the pinned
records, then one ``(record code, count)`` pair per run of the sorted
rest, each count 1 byte wide up to n = 255 and 2 bytes past that.  Generated
subgroups are enumerated, capped, once per group.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .errors import ResourceLimitError, UnsupportedModelError
from .program import GlobalState, labeling, successors
from .runs import _pins
from .value import Value, _init1

GROUP_ENUM_CAP = 10**6


class Permutation(Value):
    """A bijection on {0..n-1}; ``mapping[i]`` is the image of i."""

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError(f"not a permutation of 0..{len(mapping) - 1}: {mapping}")
        _init1(self, mapping)

    @property
    def degree(self):
        return len(self.mapping)

    def __call__(self, i):
        return self.mapping[i]


class _Bijection(Permutation):
    """A permutation that is bijective by construction, so it skips the check."""

    __slots__ = ()
    __init__ = _init1


def identity(n):
    return Permutation(tuple(range(n)))


def transposition(n, i, j):
    m = list(range(n))
    m[i], m[j] = m[j], m[i]
    return Permutation(tuple(m))


def rotation(n):
    """The n-cycle sending i to i+1 mod n."""
    return Permutation(tuple((i + 1) % n for i in range(n)))


def compose(p, q):
    """Apply ``q`` first, then ``p``."""
    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    return Permutation(tuple(p.mapping[q.mapping[i]] for i in range(q.degree)))


def inverse(p):
    m = [0] * p.degree
    for i, j in enumerate(p.mapping):
        m[j] = i
    return Permutation(tuple(m))


class PermGroup(Value):
    """A permutation group given by generators.

    ``full-symmetric`` groups are generated by the transposition (0 1)
    and the n-cycle and stand for all of Sym(n); ``generated`` groups are
    whatever their generator list produces.
    """

    __slots__ = ("degree", "generators", "kind")

    def __init__(self, degree, generators, kind="generated"):
        if any(g.degree != degree for g in generators):
            raise ValueError("generator degree mismatch")
        if kind not in ("full-symmetric", "generated"):
            raise ValueError(f"unknown group kind {kind!r}")
        # canonicalization trusts this kind without looking at the generators
        if kind == "full-symmetric" and generators != _symmetric_generators(degree):
            raise ValueError(
                "a full-symmetric group must carry the generators of full_symmetric(degree)"
            )
        Value.__init__(self, degree, generators, kind)


def _symmetric_generators(n):
    if n <= 1:
        return ()
    gens = [transposition(n, 0, 1)]
    cyc = rotation(n)
    if cyc not in gens:
        gens.append(cyc)
    return tuple(gens)


@lru_cache(maxsize=None)
def full_symmetric(n):
    return PermGroup(n, _symmetric_generators(n), "full-symmetric")


def generated_group(generators):
    gens = tuple(generators)
    if not gens:
        raise ValueError("a generated group needs at least one generator")
    return PermGroup(gens[0].degree, gens, "generated")


# --------------------------------------------------------------------------
# The action on states.
# --------------------------------------------------------------------------


def apply(perm, state):
    """Image of ``state`` under ``perm``.

    Local record i moves to position perm(i); boolean shared values are
    untouched; a pid-typed shared value v != none becomes perm(v).
    """
    n = state.n
    if perm.degree != n:
        raise ValueError(f"permutation degree {perm.degree} != process count {n}")
    new_locals = [None] * n
    for i, rec in enumerate(state.locals):
        new_locals[perm.mapping[i]] = rec
    if state.pid_slots:
        shared = list(state.shared)
        for slot in state.pid_slots:
            if shared[slot] != n:
                shared[slot] = perm.mapping[shared[slot]]
        shared = tuple(shared)
    else:
        shared = state.shared
    return GlobalState(shared, tuple(new_locals), state.pid_slots)


def orbit(group, state):
    """Closure of {state} under the group generators."""
    if group.degree != state.n:
        raise ValueError("group degree does not match state")
    seen = {state}
    queue = deque([state])
    while queue:
        s = queue.popleft()
        for g in group.generators:
            t = apply(g, s)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return frozenset(seen)


def pinned_processes(state):
    """Processes named by non-``none`` pid slots, in order of first appearance."""
    return _pins(state.shared, state.pid_slots, state.n)


def rep_sort(state):
    """Canonical representative under full symmetry: sort the local records.

    The pin-free case of the pinned sort; a shared value naming a process
    is not invariant under re-sorting, so pid-typed states take ``rep_min``.
    """
    if state.pid_slots:
        raise UnsupportedModelError(
            "rep_sort needs a pid-free program; use rep_min for pid-typed shared state"
        )
    return GlobalState(state.shared, tuple(sorted(state.locals)), ())


def group_elements(group, cap=GROUP_ENUM_CAP):
    """Enumerate the generated group (identity included), capped."""
    ident = identity(group.degree)
    seen = {ident}
    queue = deque([ident])
    while queue:
        p = queue.popleft()
        for g in group.generators:
            q = compose(g, p)
            if q not in seen:
                if len(seen) >= cap:
                    raise ResourceLimitError(f"group enumeration exceeded cap of {cap} elements")
                seen.add(q)
                queue.append(q)
    return seen


@lru_cache(maxsize=4)
def _sorted_elements(group, cap):
    """The elements of a generated group, sorted by mapping, enumerated once."""
    return sorted(group_elements(group, cap), key=lambda p: p.mapping)


def rep_min(group, state, enum_cap=GROUP_ENUM_CAP, witness=True):
    """Least orbit element by byte encoding, plus a permutation reaching it
    (``apply(perm, state) == rep``).

    The one canonicalization of states.  Full symmetric groups apply the
    permutation of the pinned sort (old index -> new); generated groups are
    enumerated outright, once per group and capped at ``enum_cap``.  With
    ``witness=False`` a full symmetric group returns None in place of the
    permutation: a pid-free state is then ``rep_sort``ed, and a pid-typed
    one skips validating the permutation.
    """
    if group.degree != state.n:
        raise ValueError("group degree does not match state")
    if group.kind == "generated":
        images = ((apply(g, state), g) for g in _sorted_elements(group, enum_cap))
        return min(images, key=lambda image: image[0].encode())
    if not (witness or state.pid_slots):
        return rep_sort(state), None
    pins = pinned_processes(state)
    rest = (i for i in range(state.n) if i not in pins)
    order = pins + sorted(rest, key=state.locals.__getitem__)
    mapping = tuple(sorted(range(state.n), key=order.__getitem__))  # old index -> new
    if not witness:
        return apply(_Bijection(mapping), state), None
    perm = Permutation(mapping)
    return apply(perm, state), perm


def canonical_key_fn(program, group=None):
    """``(codec, canon)``: the codec a quotient under ``group`` stores its
    states in, and the map from a positional ``StateCodec`` key, an
    ``int``, to the stored key of its representative:
    ``RunCodec.canonical``, a run-length ``int`` key, under the full
    symmetric group, and ``rep_min`` between decode and encode, the
    representative's positional ``int`` key, under a generated one."""
    if group is None:
        group = full_symmetric(program.n)
    if group.degree != program.n:
        raise ValueError("group degree does not match program")
    if group.kind == "full-symmetric":
        return program.table.runs, program.table.runs.canonical
    codec = program.table.codec
    return codec, lambda key: codec.encode(rep_min(group, codec.decode(key), witness=False)[0])


def is_automorphism(perm, program, sample):
    """Check label preservation and successor equivariance on a sample.

    True iff for every sampled state s, pi(s) has the same labels and
    pi maps the successor set of s onto the successor set of pi(s)
    (action labels disregarded, states compared as sets).
    """
    for s in sample:
        t = apply(perm, s)
        if labeling(program, s) != labeling(program, t):
            return False
        image = {apply(perm, u) for _, u in successors(program, s)}
        direct = {u for _, u in successors(program, t)}
        if image != direct:
            return False
    return True
