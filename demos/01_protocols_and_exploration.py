#!/usr/bin/env python3
"""Tour of the input language and plain explicit-state exploration.

Programs are n identical processes over shared + local state; at each
step one process fires one enabled guarded command atomically.
"""

from orbitmc import (
    build_full_structure,
    builtin_example,
    parse_program,
    render_state,
    successors,
)
from orbitmc.parser import builtin_source

# The mutex benchmark ships as plain source text.
print(builtin_source("mutex", 3))

program = builtin_example("mutex", 3)
init = program.initial_state()
print("initial state:", render_state(program, init))

# One interleaved step: every process may take its enabled command.
print("one step away:")
for action, target in successors(program, init):
    print(f"  --{action}-->", render_state(program, target))

# Breadth-first exploration to a fixpoint.  State ids follow discovery
# order, so rebuilding the same program reproduces the same structure.
structure = build_full_structure(program)
print(f"\nreachable: {structure.num_states} states, {structure.num_edges} edges")

# One flag per state id, 1 where the state carries the proposition.
bad = structure.label_flags("bad")
print("states labeled bad:", [sid for sid, flag in enumerate(bad) if flag] or "none")

# Custom programs parse from text; this one simply terminates.
terminating = parse_program(
    """
    processes 2;
    pc {A, B};
    init pc=A;
    A -> B : true / ;
    """
)
tstructure = build_full_structure(terminating)
_, deadlocked = tstructure.totalize()
print(f"\nterminating toy: {tstructure.num_states} states, deadlocks at {deadlocked}")

# DOT export is deterministic: states by id, edges sorted.
print("\nDOT of the toy:")
print(tstructure.export_dot("toy", lambda s: render_state(terminating, s)))
