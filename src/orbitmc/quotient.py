"""Quotient structures over canonical orbit representatives.

The quotient is built on the fly: only representatives are ever expanded,
and every successor is canonical before insertion.  That is sound
because process permutations commute with the successor relation, which
the frontend's guard restrictions guarantee and ``check_bisimulation``
certifies at desk scale.

Under Sym(n) each state is its run-length key (``runs.RunCodec``), a
representative by construction: the shared values, the pinned records
in pin-rank order, then one ``(record code, count)`` pair per distinct
unpinned record, each count 1 byte wide up to n = 255 and 2 bytes past
that.  ``runs.run_successors``, the counter abstraction's kernel too,
fires each pin and each run head, so the edges are the counter
abstraction's; actions ``"i/j"`` name the head by its index in the
representative.  A generated subgroup keeps positional keys, fires every
process and canonicalizes each successor (``symmetry.canonical_key_fn``).
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import InternalError, LabelSymmetryError, ResourceLimitError
from .kripke import DEFAULT_STATE_BOUND, breadth_first_build
from .program import atomic_props, labeling, successors
from .runs import run_successors
from .symmetry import (
    apply,
    canonical_key_fn,
    full_symmetric,
    orbit,
    pinned_processes,
    representative_fn,
)
from .value import Value

BISIM_SIZE_CAP = 10**4


class QuotientStructure(Value, frozen=False):
    """A Kripke structure whose payloads are orbit representatives."""

    # orbit_sizes maps state id -> orbit size; rep_mode is "sort" or "min-over-group";
    # _rep_fn, no field, is the canonicalization of the program under the group
    __slots__ = ("structure", "orbit_sizes", "rep_mode", "program", "group", "_rep_fn")

    def __init__(self, structure, orbit_sizes, rep_mode, program, group):
        Value.__init__(self, structure, orbit_sizes, rep_mode, program, group)
        self._rep_fn = representative_fn(program, group)[0]

    def rep(self, state):
        return self._rep_fn(state)

    def total_covered(self):
        """Number of concrete states the representatives stand for."""
        return sum(self.orbit_sizes.values())


def orbit_size_sorted(program, state):
    """Orbit size of a state under the full symmetric group, in closed form.

    The stabilizer fixes every pinned process and swaps equal records
    among the rest, so the size is n! over the product of m! for the
    multiplicities m of the unpinned records: the run counts, when
    ``state`` is a run-length key of the program.
    """
    if isinstance(state, bytes):
        runs = program.table.runs
        size, counts = runs.nfact, runs.parts(state)[3]
    else:
        pinned = set(pinned_processes(state))
        size = math.factorial(state.n)
        counts = Counter(rec for i, rec in enumerate(state.locals) if i not in pinned).values()
    for m in counts:
        size //= math.factorial(m)
    return size


def _build_quotient(
    program, state_bound=DEFAULT_STATE_BOUND, stop_at_bad=False, group=None, rep_fn=None,
    tree=False,
):
    """Explore the quotient; (structure, stats).  ``group`` defaults to Sym(n)
    and ``rep_fn``, which canonicalizes the initial state, to its
    ``representative_fn``.  Labels that permutations may change are checked
    on each decoded representative against its images under the generators."""
    if group is None:
        group = full_symmetric(program.n)
    if rep_fn is None:
        rep_fn, _ = representative_fn(program, group)
    codec, canon = canonical_key_fn(program, group)
    if group.kind == "full-symmetric":
        expand = lambda key: run_successors(program, key)
    else:
        expand = lambda key: [(action, canon(t)) for action, t in successors(program, key)]

    check = program.table.labels_need_orbit_check

    def labeler(key):
        if check:
            for rep, g, _, _ in check_symmetric_labeling(program, [codec.decode(key)], group)[:1]:
                raise LabelSymmetryError(f"labels differ in one orbit: {rep} vs {apply(g, rep)}")
        return labeling(program, key, codec)

    return breadth_first_build(
        atomic_props(program),
        [codec.encode(rep_fn(program.initial_state()))],
        expand,
        labeler,
        codec=codec,
        state_bound=state_bound,
        stop_at_bad=stop_at_bad,
        tree=tree,
    )


def _orbit_sizes(program, structure, group):
    """Orbit size per state id: the closed form of ``orbit_size_sorted``
    on each run-length key under Sym(n), the orbit itself under a generated
    subgroup.  A size that does not divide n! is an internal fault."""
    sizes, nfact = {}, program.table.runs.nfact
    for sid in structure.states():
        if group.kind == "full-symmetric":
            size = orbit_size_sorted(program, structure.key(sid))
        else:
            size = len(orbit(group, structure.payload(sid)))
        if nfact % size != 0:
            raise InternalError(f"orbit size {size} does not divide {program.n}!")
        sizes[sid] = size
    return sizes


def build_quotient(program, group=None, state_bound=DEFAULT_STATE_BOUND):
    """Worklist construction of the quotient structure (see the module
    docstring), with orbit sizes from ``_orbit_sizes``."""
    if group is None:
        group = full_symmetric(program.n)
    rep_fn, rep_mode = representative_fn(program, group)
    structure, _ = _build_quotient(program, state_bound, group=group, rep_fn=rep_fn)
    sizes = _orbit_sizes(program, structure, group)
    return QuotientStructure(structure, sizes, rep_mode, program, group)


def check_symmetric_labeling(program, sample, group=None):
    """Violations of label invariance under the group generators, as
    (state, permutation, labels, permuted labels) tuples; empty means the
    labeling is symmetric on the sample."""
    if group is None:
        group = full_symmetric(program.n)
    violations = []
    for s in sorted(sample, key=lambda x: x.encode()):
        base = labeling(program, s)
        for g in group.generators:
            permuted = labeling(program, apply(g, s))
            if permuted != base:
                violations.append((s, g, base, permuted))
    return violations


def check_bisimulation(full, quotient, size_cap=BISIM_SIZE_CAP):
    """Certify that relating each state to its representative is a bisimulation:
    for every concrete state s, equal labels, a quotient edge r(s) -> r(t)
    for every concrete edge s -> t (forth), and a concrete edge s -> t with
    r(t) = tbar for every quotient edge r(s) -> tbar (back), actions aside.
    Both structures must be totalized first.
    """
    if full.num_states > size_cap:
        raise ResourceLimitError(f"bisimulation check capped at {size_cap} states")
    qstruct = quotient.structure
    if not full.is_total() or not qstruct.is_total():
        raise ValueError("check_bisimulation needs totalized structures")

    rep_of = {}
    for sid in full.states():
        rep = quotient.rep(full.payload(sid))
        if not qstruct.has_state(rep):
            return False
        qid = qstruct.state_of(rep)
        rep_of[sid] = qid
        if full.label_of(sid) != qstruct.label_of(qid):
            return False

    # initial states must map onto initial representatives and back
    if {rep_of[sid] for sid in full.init} != set(qstruct.init):
        return False

    quotient_edges = {(src, dst) for src, _, dst in qstruct.edges()}
    for sid in full.states():
        succ_reps = {rep_of[dst] for _, dst in full.successors(sid)}
        # forth: each concrete move exists in the quotient
        for qdst in succ_reps:
            if (rep_of[sid], qdst) not in quotient_edges:
                return False
        # back: each quotient move from rep(s) is matched from s itself
        for _, qdst in qstruct.successors(rep_of[sid]):
            if qdst not in succ_reps:
                return False
    return True
