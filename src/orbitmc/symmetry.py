"""Permutations of process indices acting on global states.

The action permutes the local records and re-points pid-typed shared
values (``none`` stays put).  Orbits, canonical representatives and the
automorphism check all live here.  The canonical representative of an
orbit is its least element under the byte encoding documented in
``program``.

Under the full symmetric group that minimum is built directly by a
*pinned sort* (the scalarset normal form), in O(n log n), on the packed
key of a state (``canonical_key``):

1. the processes named by non-``none`` pid slots are *pinned* and
   renumbered 0, 1, ... in order of first appearance across the slots,
   which makes the shared prefix of the encoding as small as it can be;
2. their records go first, in that order;
3. the remaining records follow, sorted by their fixed-width bytes, ties
   kept in old index order.

Without pid slots nothing is pinned and the representative key is the
sorted record bytes behind the shared prefix.  ``rep_sort`` and
``rep_min`` are the same rule on ``GlobalState`` values: they encode,
sort and come back (``rep_min`` through the permutation the sort
defines, which it returns as a witness).  Generated subgroups have no
such normal form and are enumerated outright, capped.  Full symmetric
groups are never enumerated outside test oracles.

The same stabilizer argument says which processes a quotient must fire
(``processes_to_fire``): two unpinned processes with equal records are
swapped by a transposition that fixes the state, so they have the same
canonical successors and one of them stands for both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

from .errors import ResourceLimitError, UnsupportedModelError
from .program import GlobalState, StateCodec, labeling, successors

GROUP_ENUM_CAP = 10**6


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1}; ``mapping[i]`` is the image of i."""

    mapping: tuple

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError(f"not a permutation of 0..{len(self.mapping) - 1}: {self.mapping}")

    @property
    def degree(self):
        return len(self.mapping)

    def __call__(self, i):
        return self.mapping[i]


class _Bijection(Permutation):
    """A permutation that is bijective by construction, so it skips the check."""

    def __post_init__(self):
        pass


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


@dataclass(frozen=True)
class PermGroup:
    """A permutation group given by generators.

    ``full-symmetric`` groups are generated by the transposition (0 1)
    and the n-cycle and stand for all of Sym(n); ``generated`` groups are
    whatever their generator list produces.
    """

    degree: int
    generators: tuple
    kind: str = "generated"

    def __post_init__(self):
        if any(g.degree != self.degree for g in self.generators):
            raise ValueError("generator degree mismatch")
        if self.kind not in ("full-symmetric", "generated"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        # canonicalization trusts this kind without looking at the generators
        if self.kind == "full-symmetric" and self.generators != _symmetric_generators(self.degree):
            raise ValueError(
                "a full-symmetric group must carry the generators of full_symmetric(degree)"
            )


def _symmetric_generators(n):
    if n <= 1:
        return ()
    gens = [transposition(n, 0, 1)]
    cyc = rotation(n)
    if cyc not in gens:
        gens.append(cyc)
    return tuple(gens)


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


def _pins(shared, pid_slots, n):
    pins = []
    for slot in pid_slots:
        v = shared[slot]
        if v != n and v not in pins:
            pins.append(v)
    return pins


def pinned_processes(state):
    """Processes named by non-``none`` pid slots, in order of first appearance."""
    return _pins(state.shared, state.pid_slots, state.n)


def _key_pins(codec, key):
    if not codec.pid_slots:
        return ()
    return _pins(codec.shared(key), codec.pid_slots, codec.n)


def canonical_key(codec, key):
    """The pinned sort of the module docstring on a key of ``codec``: the
    key of the least element of its orbit under the full symmetric group."""
    codes = codec.codes(key)
    pins = _key_pins(codec, key)
    if not pins:
        return key[: codec.shared_size] + codec.pack_codes(sorted(codes))
    rank = {p: r for r, p in enumerate(pins)}
    shared = list(codec.shared(key))
    for slot in codec.pid_slots:
        shared[slot] = rank.get(shared[slot], codec.n)
    rest = sorted(code for i, code in enumerate(codes) if i not in rank)
    return codec.pack_shared(shared) + codec.pack_codes([codes[p] for p in pins] + rest)


def rep_sort(state):
    """Canonical representative under full symmetry: sort the local records.

    The pin-free case of the pinned sort: with no pid-typed shared
    variables nothing is pinned, so the least orbit element is the state
    with its records sorted and no permutation is needed.  A shared value
    naming a process index is not invariant under re-sorting, so pid-typed
    programs must canonicalize with ``rep_min``.
    """
    if state.pid_slots:
        raise UnsupportedModelError(
            "rep_sort needs a pid-free program; use rep_min for pid-typed shared state"
        )
    codec = StateCodec.fitting(state)
    return codec.decode(canonical_key(codec, codec.encode(state)))


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
                    raise ResourceLimitError(
                        f"group enumeration exceeded cap of {cap} elements"
                    )
                seen.add(q)
                queue.append(q)
    return seen


def _sort_witness(codec, key, rep_key):
    """The permutation, old index -> new, that carries ``key`` to its
    pinned sort ``rep_key``: each pinned process to its rank, the others
    in old index order onto the run of their record in ``rep_key``."""
    codes, rep_codes = codec.codes(key), codec.codes(rep_key)
    pins = _key_pins(codec, key)
    rank = {p: r for r, p in enumerate(pins)}
    slot = {}
    for new in reversed(range(len(pins), codec.n)):
        slot[rep_codes[new]] = new
    mapping = [0] * codec.n
    for old, code in enumerate(codes):
        if old in rank:
            mapping[old] = rank[old]
        else:
            mapping[old] = slot[code]
            slot[code] += 1
    return tuple(mapping)


def rep_min(group, state, enum_cap=GROUP_ENUM_CAP, witness=True):
    """Least orbit element by byte encoding, plus a permutation reaching it.

    Full symmetric groups use the pinned sort of the module docstring on
    the state's key, then one ``apply`` of the permutation it defines.
    Generated groups are enumerated outright (desk scale, capped at
    ``enum_cap``).  Satisfies ``apply(perm, state) == rep`` for the
    returned pair.  With ``witness=False`` a full symmetric group skips
    validating the permutation and returns None in its place, for callers
    that only want the representative.
    """
    if group.degree != state.n:
        raise ValueError("group degree does not match state")
    if group.kind == "generated":
        best_state, best_perm = state, identity(group.degree)
        best_key = state.encode()
        for g in sorted(group_elements(group, enum_cap), key=lambda p: p.mapping):
            t = apply(g, state)
            key = t.encode()
            if key < best_key:
                best_state, best_perm, best_key = t, g, key
        return best_state, best_perm
    codec = StateCodec.fitting(state)
    key = codec.encode(state)
    mapping = _sort_witness(codec, key, canonical_key(codec, key))
    if not witness:
        return apply(_Bijection(mapping), state), None
    perm = Permutation(mapping)
    return apply(perm, state), perm


def representative_fn(program, group=None):
    """Pick the canonicalization for a program: (function, mode name).

    Under the full symmetric group a pid-free program sorts its records
    (``rep_sort``, mode "sort") and a pid-typed one pins and sorts them
    (``rep_min`` without its witness, mode "min-over-group"); generated
    subgroups always take the enumerated minimum of ``rep_min``.
    """
    if group is None:
        group = full_symmetric(program.n)
    if group.degree != program.n:
        raise ValueError("group degree does not match program")
    if group.kind == "full-symmetric" and not program.pid_slots:
        return rep_sort, "sort"
    return (lambda s: rep_min(group, s, witness=False)[0]), "min-over-group"


def canonical_key_fn(program, group=None):
    """The canonicalization of ``representative_fn`` on the program's keys:
    the pinned sort under the full symmetric group; a generated subgroup
    decodes, takes ``rep_min`` and encodes."""
    if group is None:
        group = full_symmetric(program.n)
    if group.degree != program.n:
        raise ValueError("group degree does not match program")
    codec = program.table.codec
    if group.kind == "full-symmetric":
        return partial(canonical_key, codec)
    return lambda key: codec.encode(rep_min(group, codec.decode(key), witness=False)[0])


def processes_to_fire(group, state):
    """Indices of one process per class of interchangeable processes.

    Under the full symmetric group these are the pinned processes plus
    the first process of each run of equal records among the others:
    within a run the transposition of two unpinned processes fixes the
    state and so carries the successors of one onto those of the other,
    and both give the same canonical successors.  On a representative
    the unpinned records are sorted, so there is one process per distinct
    record.  A generated subgroup need not contain those transpositions,
    so every process fires.
    """
    if group.kind != "full-symmetric":
        return range(state.n)
    return _first_of_runs(pinned_processes(state), state.locals)


def key_processes_to_fire(codec, key):
    """``processes_to_fire`` under the full symmetric group, on a key."""
    return _first_of_runs(_key_pins(codec, key), codec.codes(key))


def _first_of_runs(pins, records):
    fire = []
    prev = None
    for i, rec in enumerate(records):
        if i in pins:
            fire.append(i)
        elif rec != prev:
            fire.append(i)
            prev = rec
    return fire


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
