#!/usr/bin/env python3
"""Building the quotient structure and measuring the reduction.

Only representatives are ever expanded: each successor is canonicalized
before insertion, so the worklist never touches the rest of an orbit.
The result is bisimilar to the full structure, which the certificate
check verifies explicitly at small scale.
"""

from orbitmc import (
    build_full_structure,
    build_quotient,
    builtin_example,
    check_bisimulation,
    compare_modes,
    render_state,
)

program = builtin_example("mutex", 3)
quotient = build_quotient(program)

print("quotient states of mutex(3), with orbit sizes:")
for sid in quotient.structure.states():
    payload = quotient.structure.payload(sid)
    size = quotient.orbit_sizes[sid]
    print(f"  {render_state(program, payload):18} covers {size} concrete state(s)")

full = build_full_structure(program)
print(f"\norbit sizes sum to {quotient.total_covered()}; full exploration sees {full.num_states}")

# The certificate: relating every state to its representative is a
# bisimulation, so CTL verdicts transfer between the two structures.
full.totalize()
quotient.structure.totalize()
print("bisimulation certificate:", check_bisimulation(full, quotient))

# The reduction approaches n! as the protocol grows.
print("\n n | full states | quotient | reduction")
for n in (2, 4, 6, 8, 10):
    comparison = compare_modes(builtin_example("mutex", n))
    full_count = comparison.stats["full"].states_reached
    quotient_count = comparison.stats["quotient"].states_reached
    print(f"{n:2} | {full_count:11} | {quotient_count:8} | {comparison.reduction_factor:9.1f}")
