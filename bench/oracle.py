"""Independent expected values for the benchmark's checks.

Nothing here runs orbitmc.  Verdicts and counts come from closed forms
derived by hand for each family; ``enumerate_counts`` is a brute-force
enumerator over the same role-level semantics that the self-test uses to
confirm those closed forms at small n; ``replay`` re-executes a rendered
counterexample step by step.  Quotient edge counts are deliberately not
pinned: their action labels carry representative-relative process
indices, so a correct change to the quotient kernel may change them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import comb

from workloads import PIPELINE_PHASES


@dataclass(frozen=True)
class Expected:
    exit_code: int
    verdict: str
    states: int
    edges: int | None  # pinned for full and counter mode only
    path_states: int | None  # counterexample or witness length, if one is printed
    path_end: str | None  # role of the label the path's last state carries


def _mutex_full(n):
    # states: 2^n with no process at C, n*2^(n-1) with exactly one.
    # edges: n from each C-free state; 1 + (processes at T) from each state
    # with one process at C, which sums to n*2^(n-1) + n(n-1)*2^(n-2).
    states = 2**n + n * 2 ** (n - 1)
    edges = n * 2**n + n * 2 ** (n - 1) + n * (n - 1) * 2**n // 4
    return Expected(0, "holds", states, edges, None, None)


def _pipeline_counter(n, prop):
    k = PIPELINE_PHASES
    # occupancy vectors are the compositions of n into k parts; each
    # occupied non-final phase gives one edge, and phase i is occupied in
    # C(n+k-2, k-1) of them
    states = comb(n + k - 1, k - 1)
    edges = (k - 1) * comb(n + k - 2, k - 1)
    if prop == "EF {done}":
        return Expected(0, "holds", states, edges, (k - 1) * n + 1, "done")
    return Expected(0, "holds", states, edges, None, None)


CLOSED_FORMS = {
    ("mutex", "full", "AG !{bad}"): _mutex_full,
    # multisets over T/W/C with at most one process at C
    ("mutex", "quotient", "AG !{bad}"): lambda n: Expected(0, "holds", 2 * n + 1, None, None, None),
    # every multiset over T/W/C; the shortest violation moves two processes T -> W -> C
    ("broken-mutex", "quotient", "AG !{bad}"): lambda n: Expected(
        1, "fails", comb(n + 2, 2), None, 5, "bad"
    ),
    # at most one process at exec, and it holds the grant
    ("allocator", "quotient", "AG !{bad}"): lambda n: Expected(
        0, "holds", 2 * n + 1, None, None, None
    ),
    # grant is none (every multiset but all-at-exec) or names a process at
    # exec (every multiset with one at exec)
    ("broken-allocator", "quotient", "AG !{bad}"): lambda n: Expected(
        1, "fails", comb(n + 2, 2) + comb(n + 1, 2) - 1, None, 5, "bad"
    ),
    ("pipeline", "counter", "AF {done}"): lambda n: _pipeline_counter(n, "AF {done}"),
    ("pipeline", "counter", "EF {done}"): lambda n: _pipeline_counter(n, "EF {done}"),
}


def expected(check):
    return CLOSED_FORMS[(check.family, check.mode, check.prop)](check.n)


def corrupted(exp, what):
    """A deliberately wrong expectation, for the benchmark's self-test."""
    if what == "verdict":
        return replace(exp, verdict="fails" if exp.verdict == "holds" else "holds")
    if what == "states":
        return replace(exp, states=exp.states + 1)
    raise ValueError(f"unknown corruption {what!r}")


# --------------------------------------------------------------------------
# Role-level semantics: a state is (cell, pcs) with cell None for "none"
# (and always None in models without a pid cell) and pcs a tuple of roles.
# --------------------------------------------------------------------------


def initial(model):
    return (None, (model.family.pcs[0],) * model.n)


def moves(model, state):
    """(process, declared command position, next state) for every enabled move."""
    fam = model.family
    cell, pcs = state
    out = []
    for i, pc in enumerate(pcs):
        for j, cmd in enumerate(model.command_order):
            if cmd.src != pc:
                continue
            if cmd.guard == "alone" and any(
                p == fam.critical for k, p in enumerate(pcs) if k != i
            ):
                continue
            if cmd.guard == "free" and cell is not None:
                continue
            new_cell = {"take": i, "release": None}.get(cmd.update, cell)
            out.append((i, j, (new_cell, pcs[:i] + (cmd.dst,) + pcs[i + 1 :])))
    return out


def has_label(model, role, state):
    lab = next(lab for lab in model.family.labels if lab.name == role)
    if lab.pc is None:
        return False
    k = model.n if lab.at_least is None else lab.at_least
    return state[1].count(lab.pc) >= k


def orbit_key(state):
    """A complete invariant of a state's orbit under process renaming."""
    cell, pcs = state
    if cell is None:
        return (None, tuple(sorted(pcs)))
    return (pcs[cell], tuple(sorted(pcs[:cell] + pcs[cell + 1 :])))


def enumerate_counts(model):
    """Brute force: (full states, full edges, orbits, counter edges)."""
    start = initial(model)
    seen = {start}
    queue = [start]
    edges = 0
    orbit_moves = {}
    for state in queue:
        found = moves(model, state)
        edges += len(found)
        orbit_moves[orbit_key(state)] = {(state[1][i], j) for i, j, _ in found}
        for _, _, nxt in found:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    counter_edges = sum(len(m) for m in orbit_moves.values())
    return len(seen), edges, len(orbit_moves), counter_edges


def parse_rendered(model, text):
    """Inverse of ``orbitmc.program.render_state`` for benchmark models."""
    cell = None
    if not text.startswith("["):
        shared, text = text.split(" ", 1)
        name, value = shared.split("=")
        if model.role_of(name) != model.family.cell:
            raise ValueError(f"unexpected shared variable {name!r}")
        cell = None if value == "none" else int(value)
    pcs = tuple(model.role_of(p) for p in text.strip("[]").split(","))
    return cell, pcs


def replay(model, path, end_role):
    """Errors found re-executing a rendered path; empty when it is a real run."""
    try:
        states = [parse_rendered(model, s) for s in path["states"]]
        steps = [tuple(int(x) for x in a.split("/")) for a in path["actions"]]
    except (KeyError, ValueError) as exc:
        return [f"unreadable path: {exc!r}"]
    errors = []
    if len(steps) != len(states) - 1:
        errors.append("path needs one action per step")
    if states[0] != initial(model):
        errors.append(f"path starts at {path['states'][0]!r}, not at the initial state")
    for t, (before, after, step) in enumerate(zip(states, states[1:], steps)):
        # the action names the process and the command; every move changes
        # exactly that process's pc
        if step not in {(i, j) for i, j, nxt in moves(model, before) if nxt == after}:
            errors.append(f"step {t} ({path['actions'][t]}) is not one process firing a command")
    if not has_label(model, end_role, states[-1]):
        errors.append(f"path does not end in a {end_role} state")
    return errors


def verify(model, exp, exit_code, report_text):
    """Every way a check's exit code and JSON report differ from ``exp``."""
    try:
        report = json.loads(report_text)
    except ValueError:
        return ["report is not JSON"]
    errors = []
    if exit_code != exp.exit_code:
        errors.append(f"exit code {exit_code}, expected {exp.exit_code}")
    if report.get("verdict") != exp.verdict:
        errors.append(f"verdict {report.get('verdict')!r}, expected {exp.verdict!r}")
    stats = report.get("stats", {})
    if stats.get("states_reached") != exp.states:
        errors.append(f"{stats.get('states_reached')} states, expected {exp.states}")
    if exp.edges is not None and stats.get("edges") != exp.edges:
        errors.append(f"{stats.get('edges')} edges, expected {exp.edges}")
    path = report.get("counterexample")
    if exp.path_states is None:
        if path is not None:
            errors.append("unexpected counterexample")
    elif path is None:
        errors.append("missing counterexample")
    elif len(path.get("states", ())) != exp.path_states:
        errors.append(f"path of {len(path.get('states', ()))} states, expected {exp.path_states}")
    else:
        errors.extend(replay(model, path, exp.path_end))
    return errors
