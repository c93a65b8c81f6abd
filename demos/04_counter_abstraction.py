#!/usr/bin/env python3
"""Counter abstraction: occupancy counts instead of per-process records.

Counting how many processes sit in each local state forgets exactly as
much as sorting does, so for pid-free programs the counter structure and
the quotient structure are the same graph under different names: one
build stores both, and each counter state concretizes to the quotient's
representative of the same id.
"""

import math

from orbitmc import (
    build_counter_structure,
    build_quotient,
    builtin_example,
    counter_successors,
    from_counter,
    parse_program,
    render_state,
    to_counter,
)

program = builtin_example("mutex", 4)

initial = to_counter(program.initial_state())
print("initial occupancy:", initial.counts, "| concretizes to", render_state(program, from_counter(initial)))

print("\none step away (note the decrement-then-test entry guard):")
for action, target in counter_successors(program, initial):
    print(f"  --{action}--> {target.counts}")

counter = build_counter_structure(program)
quotient = build_quotient(program)
print(f"\ncounter states: {counter.num_states}, quotient states: {quotient.structure.num_states}")
same = all(
    from_counter(counter.payload(sid)) == quotient.structure.payload(sid) for sid in counter.states()
)
print("same representatives:", same)

# With k local states and no guards at all, the reachable occupancies
# are every way to drop n processes into k buckets.
print("\nfree cycling over 3 pc values:")
for n in (2, 4, 8, 16):
    source = f"processes {n}; pc {{A,B,C}}; init pc=A; A->B:true/; B->C:true/; C->A:true/;"
    structure = build_counter_structure(parse_program(source))
    expected = math.comb(n + 2, 2)
    print(f"  n={n:2}: {structure.num_states:4} states (C({n}+2,2) = {expected})")

# pid-typed shared state has no occupancy reading; the abstraction
# refuses rather than approximating.
try:
    build_counter_structure(builtin_example("allocator", 3))
except Exception as exc:
    print("\nallocator:", exc)
