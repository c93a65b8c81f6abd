"""Quotient structures over canonical orbit representatives.

The quotient is built on the fly: only representatives are ever expanded,
and every successor is canonicalized before insertion.  That is sound
because process permutations commute with the successor relation, which
the frontend's guard restrictions guarantee and ``check_bisimulation``
certifies at desk scale.

A representative does not fire all n processes, only one per class of
interchangeable processes (``symmetry.processes_to_fire``).  Under Sym(n)
those are the processes named by pid slots plus the first process of
each run of equal records in the sorted rest.  Two unpinned processes
with equal records are swapped by a transposition that fixes the
representative, so their successors lie in the same orbits: the reached
states are those of firing every process, and the edges are the counter
abstraction's, one per (distinct record, command, outcome).  A generated
subgroup still fires every process.  Edge actions name the fired process
by its index in the representative (``"i/j"``); ``ctl.lift_counterexample``
finds the concrete steps again from the concrete successor relation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import InternalError, LabelSymmetryError, ResourceLimitError
from .kripke import DEFAULT_STATE_BOUND, breadth_first_build
from .program import atomic_props, labeling, successors
from .symmetry import (
    apply,
    canonical_key_fn,
    full_symmetric,
    key_processes_to_fire,
    orbit,
    pinned_processes,
    representative_fn,
)

BISIM_SIZE_CAP = 10**4


@dataclass
class QuotientStructure:
    """A Kripke structure whose payloads are orbit representatives."""

    structure: object
    orbit_sizes: dict  # state id -> orbit size
    rep_mode: str  # "sort" | "min-over-group"
    program: object
    group: object
    _rep_fn: object = field(repr=False, compare=False)

    def rep(self, state):
        return self._rep_fn(state)

    def total_covered(self):
        """Number of concrete states the representatives stand for."""
        return sum(self.orbit_sizes.values())


def orbit_size_sorted(program, state):
    """Orbit size of a state under the full symmetric group, in closed form.

    A permutation fixes the state exactly when it fixes every process
    named by a pid slot and only swaps equal records among the rest, so
    the orbit size is n! divided by the product of m! over the
    multiplicities m of the unpinned records.  Without pid slots this is
    the number of arrangements of the record multiset.  Any state of the
    orbit gives the same answer.
    """
    pinned = set(pinned_processes(state))
    counts = Counter(rec for i, rec in enumerate(state.locals) if i not in pinned)
    size = math.factorial(state.n)
    for m in counts.values():
        size //= math.factorial(m)
    return size


def _expand_canonical(program, canon, group):
    """Expansion of a representative key: fire one process per class
    (every process under a generated subgroup) and canonicalize each
    successor key.  The package's label nodes read only shared values and
    per-pc totals, which every permutation keeps, so labels that could
    differ inside an orbit (``CommandTable.labels_need_orbit_check``) are
    the only ones compared between a successor and its representative."""
    table = program.table
    codec = table.codec
    symmetric = group.kind == "full-symmetric"
    check_labels = table.labels_need_orbit_check

    def expand(rep):
        fire = key_processes_to_fire(codec, rep) if symmetric else None
        out = []
        for action, t in successors(program, rep, fire):
            tbar = canon(t)
            if check_labels and labeling(program, t) != labeling(program, tbar):
                raise LabelSymmetryError(
                    f"labels differ inside one orbit: {codec.decode(t)} vs {codec.decode(tbar)}"
                )
            out.append((action, tbar))
        return out

    return expand


def _build_quotient(
    program, state_bound=DEFAULT_STATE_BOUND, stop_at_bad=False, group=None, rep_fn=None
):
    """Explore the quotient; (structure, stats).  ``group`` defaults to
    Sym(n) and ``rep_fn`` to the group's ``representative_fn``, which
    canonicalizes the initial state; every other state is canonicalized
    as a key by ``canonical_key_fn``."""
    if group is None:
        group = full_symmetric(program.n)
    if rep_fn is None:
        rep_fn, _ = representative_fn(program, group)
    codec = program.table.codec
    return breadth_first_build(
        atomic_props(program),
        [codec.encode(rep_fn(program.initial_state()))],
        _expand_canonical(program, canonical_key_fn(program, group), group),
        lambda key: labeling(program, key),
        codec=codec,
        state_bound=state_bound,
        stop_at_bad=stop_at_bad,
    )


def _orbit_sizes(program, structure, group=None):
    """Orbit size per state id of a quotient structure.

    Under Sym(n) sizes come from the closed form of ``orbit_size_sorted``;
    only generated subgroups enumerate each orbit.  Every orbit size
    divides n!, the group being a subgroup of Sym(n); one that does not
    is an internal fault.
    """
    if group is None:
        group = full_symmetric(program.n)
    sizes = {}
    nfact = math.factorial(program.n)
    for sid in structure.states():
        payload = structure.payload(sid)
        if group.kind == "full-symmetric":
            size = orbit_size_sorted(program, payload)
        else:
            size = len(orbit(group, payload))
        if nfact % size != 0:
            raise InternalError(f"orbit size {size} does not divide {program.n}!")
        sizes[sid] = size
    return sizes


def build_quotient(program, group=None, state_bound=DEFAULT_STATE_BOUND):
    """Worklist construction of the quotient structure.

    Each representative fires one process per class of interchangeable
    processes (see the module docstring): under Sym(n) every pinned
    process and the first of each run of equal unpinned records, under a
    generated subgroup every process.  That reaches the same states as
    firing all n, with one edge per distinct record instead of one per
    process.  Edge actions keep the index of the fired process in the
    expanded representative; those indices are representative-relative.
    Representatives come from the pinned sort under Sym(n) (see
    ``symmetry``); orbit sizes from ``_orbit_sizes``.
    """
    if group is None:
        group = full_symmetric(program.n)
    rep_fn, rep_mode = representative_fn(program, group)
    structure, _ = _build_quotient(program, state_bound, group=group, rep_fn=rep_fn)
    sizes = _orbit_sizes(program, structure, group)
    return QuotientStructure(structure, sizes, rep_mode, program, group, rep_fn)


def check_symmetric_labeling(program, sample, group=None):
    """Violations of label invariance under the group generators.

    Returns a list of (state, permutation, labels, permuted labels)
    tuples; empty means the labeling is symmetric on the sample.
    Violations are data, not errors: the report is for diagnostics.
    """
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
    """Certify that relating each state to its representative is a bisimulation.

    Checks, for every concrete state s with representative r(s): equal
    labels; every concrete edge s -> t has a quotient edge
    r(s) -> r(t) (forth); and every quotient edge r(s) -> tbar is matched
    by some concrete edge s -> t with r(t) = tbar (back).  Both structures
    must be totalized first.  Action labels play no role.
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
