"""Workloads of the orbitmc benchmark and the seeded model generator.

Every model is written as guarded-command text and read by the CLI
through ``--model``, the builtin families included.  The seed renames
every identifier except the designated ``bad`` label and shuffles the
declaration order of pc values, commands, labels and init assignments.
Verdicts and state counts do not depend on the seed; canonical orders
and action labels do.

Families are described by roles (``T``, ``grant``, ``done``, ...); a
``Model`` binds them to one seed's identifiers and declaration orders,
and the independent oracle in ``oracle.py`` reads models at role level.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

# guard kinds: "true", "alone" (no other process at the family's critical
# pc) and "free" (the pid cell holds none); update kinds: "" (no update),
# "take" (cell := self) and "release" (cell := none)


@dataclass(frozen=True)
class Command:
    src: str
    dst: str
    guard: str = "true"
    update: str = ""


@dataclass(frozen=True)
class Label:
    name: str
    pc: str | None  # None renders as ``false``
    at_least: int | None  # None means "all n processes"


@dataclass(frozen=True)
class Family:
    name: str
    pcs: tuple  # roles; pcs[0] is the initial pc
    commands: tuple
    labels: tuple
    critical: str | None = None  # the pc named by "alone" guards
    cell: str | None = None  # role of the pid-typed shared cell, if any


PIPELINE_PHASES = 6


def _pipeline():
    pcs = tuple(f"p{k}" for k in range(PIPELINE_PHASES))
    commands = tuple(Command(pcs[k], pcs[k + 1]) for k in range(PIPELINE_PHASES - 1))
    labels = (Label("done", pcs[-1], None), Label("bad", None, None))
    return Family("pipeline", pcs, commands, labels)


FAMILIES = {
    f.name: f
    for f in (
        Family(
            "mutex",
            ("T", "W", "C"),
            (Command("T", "W"), Command("W", "C", "alone"), Command("C", "T")),
            (Label("bad", "C", 2),),
            critical="C",
        ),
        Family(
            "broken-mutex",
            ("T", "W", "C"),
            (Command("T", "W"), Command("W", "C"), Command("C", "T")),
            (Label("bad", "C", 2),),
        ),
        Family(
            "allocator",
            ("ready", "req", "exec"),
            (
                Command("ready", "req"),
                Command("req", "exec", "free", "take"),
                Command("exec", "ready", "true", "release"),
            ),
            (Label("bad", "exec", 2),),
            cell="grant",
        ),
        # the allocator with ``grant == none`` dropped from the req -> exec guard
        Family(
            "broken-allocator",
            ("ready", "req", "exec"),
            (
                Command("ready", "req"),
                Command("req", "exec", "true", "take"),
                Command("exec", "ready", "true", "release"),
            ),
            (Label("bad", "exec", 2),),
            cell="grant",
        ),
        _pipeline(),
    )
}

KEPT_NAMES = ("bad",)


@dataclass(frozen=True)
class Model:
    """One family at one size, bound to one seed's names and orders."""

    family: Family
    n: int
    names: dict  # role -> identifier
    pc_order: tuple  # roles, as declared
    command_order: tuple  # Commands, as declared; action j names command_order[j]
    label_order: tuple
    init_first: bool  # pc assignment before the cell's in the init list

    def role_of(self, identifier):
        for role, name in self.names.items():
            if name == identifier:
                return role
        raise KeyError(identifier)

    def prop(self, template):
        """A CTL formula over role label names, in this model's names."""
        return template.format(**{lab.name: self.names[lab.name] for lab in self.family.labels})

    def text(self):
        fam, nm = self.family, self.names
        lines = [f"# {fam.name}, n={self.n}", f"processes {self.n};"]
        if fam.cell:
            lines.append(f"shared {nm[fam.cell]} : pid;")
        lines.append("pc {" + ", ".join(nm[p] for p in self.pc_order) + "};")
        inits = [f"pc={nm[fam.pcs[0]]}"]
        if fam.cell:
            cell = f"{nm[fam.cell]}=none"
            inits = inits + [cell] if self.init_first else [cell] + inits
        lines.append("init " + ", ".join(inits) + ";")
        for cmd in self.command_order:
            guard = "true"
            if cmd.guard == "alone":
                guard = f"all_others(pc != {nm[fam.critical]})"
            elif cmd.guard == "free":
                guard = f"{nm[fam.cell]} == none"
            update = ""
            if cmd.update:
                update = f"{nm[fam.cell]} := " + ("self" if cmd.update == "take" else "none")
            lines.append(f"{nm[cmd.src]} -> {nm[cmd.dst]} : {guard} / {update};")
        for lab in self.label_order:
            if lab.pc is None:
                expr = "false"
            else:
                k = self.n if lab.at_least is None else lab.at_least
                expr = f"count(pc={nm[lab.pc]}) >= {k}"
            lines.append(f"label {nm[lab.name]} := {expr};")
        return "\n".join(lines) + "\n"


def _fresh_name(rng, taken):
    # a trailing digit keeps generated names clear of every keyword
    while True:
        name = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase) for _ in range(4)
        ) + rng.choice(string.digits)
        if name not in taken:
            taken.add(name)
            return name


def make_model(family_name, n, seed):
    fam = FAMILIES[family_name]
    rng = random.Random(f"{seed}/{family_name}/{n}")
    roles = list(fam.pcs) + [lab.name for lab in fam.labels]
    if fam.cell:
        roles.append(fam.cell)
    taken = set(KEPT_NAMES)
    names = {r: (r if r in KEPT_NAMES else _fresh_name(rng, taken)) for r in roles}
    pcs, commands, labels = list(fam.pcs), list(fam.commands), list(fam.labels)
    rng.shuffle(pcs)
    rng.shuffle(commands)
    rng.shuffle(labels)
    return Model(fam, n, names, tuple(pcs), tuple(commands), tuple(labels), rng.random() < 0.5)


@dataclass(frozen=True)
class Check:
    """One ``orbitmc check`` call: family, size, mode and role-level formula."""

    family: str
    n: int
    mode: str
    prop: str

    def key(self):
        return f"{self.family}:{self.n} {self.mode} {self.prop}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    checks: tuple
    scale_sizes: tuple  # two smaller sizes of checks[0]'s family, for the growth table
    uses: tuple  # traced boundaries that must record calls


_COMMON_USES = (
    "cli.run",
    "parser.parse_program",
    "program.labeling",
    "kripke.breadth_first_build",
    "kripke.add_state",
    "kripke.add_edge",
    "kripke.totalize",
    "ctl.sat_set",
)
_LIFT_USES = (
    "kripke.successors",
    "kripke.predecessors",
    "ctl.shortest_path",
    "ctl.lift_counterexample",
    "program.successors",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full-safety",
            "full mode: concrete successors, labeling and Kripke insertion only; no "
            "canonicalization and trivial CTL, so the write-heavy store case and the bypass "
            "for symmetry and EG changes",
            (Check("mutex", 10, "full", "AG !{bad}"),),
            (8, 9),
            _COMMON_USES + ("program.successors",),
        ),
        Workload(
            "quotient-sym",
            "pid-free quotient at large n: every representative fires all n processes and "
            "each successor pays rep_sort and two labelings; where a one-expansion-per-run "
            "kernel acts",
            (
                Check("mutex", 100, "quotient", "AG !{bad}"),
                Check("broken-mutex", 30, "quotient", "AG !{bad}"),
            ),
            (50, 75),
            _COMMON_USES + _LIFT_USES + ("symmetry.rep_sort",),
        ),
        Workload(
            "quotient-pid",
            "pid-typed quotient: nearly all time is the rep_min orbit walk (apply/compose/"
            "encode), in the build and again in the lift; where a pinned sort acts and "
            "nowhere else",
            (
                Check("allocator", 9, "quotient", "AG !{bad}"),
                Check("broken-allocator", 6, "quotient", "AG !{bad}"),
            ),
            (7, 8),
            _COMMON_USES + _LIFT_USES + ("symmetry.rep_min", "symmetry.apply"),
        ),
        Workload(
            "liveness",
            "counter mode with non-trivial CTL: AF runs EG 61 iterations deep and EF lifts a "
            "61-state witness; read-heavy on the store, so it shows a store change that slows reads",
            (
                Check("pipeline", 12, "counter", "AF {done}"),
                Check("pipeline", 12, "counter", "EF {done}"),
            ),
            (8, 10),
            _COMMON_USES
            + _LIFT_USES
            + ("counter.counter_successors", "symmetry.rep_sort"),
        ),
    )
}
