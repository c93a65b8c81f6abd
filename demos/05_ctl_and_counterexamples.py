#!/usr/bin/env python3
"""CTL checking on any structure, and lifting abstract counterexamples.

Verdicts agree across the full, quotient and counter structures for the
permutation-invariant atoms the language admits, so the cheap structure
answers the expensive question.  When an invariant fails in the
quotient, the abstract path is replayed into a concrete execution.
"""

from orbitmc import (
    build_full_structure,
    build_quotient,
    builtin_example,
    check,
    labeling,
    lift_counterexample,
    parse_ctl,
    render_state,
    sat_set,
)

# A holding invariant: the guarded mutex never doubles up.
program = builtin_example("mutex", 4)
quotient = build_quotient(program)
quotient.structure.totalize()
result = check(quotient.structure, parse_ctl("AG !bad"))
print("mutex(4), quotient of 48 concrete states:", "AG !bad", result.verdict)

# Richer formulas run on the same fixpoint core (EX / EU / EG), whose
# answer is one flag per state id, 1 where the formula holds.
for text in ("EF bad", "AF bad", "EG !bad", "E[!bad U bad]", "AX !bad"):
    flags = sat_set(quotient.structure, parse_ctl(text))
    ids = [sid for sid, flag in enumerate(flags) if flag]
    print(f"  sat({text}) holds in {len(ids)} of {len(flags)} states: {ids}")

# A failing invariant: drop the entry guard and check again, in the
# quotient, then lift the abstract counterexample to a real run.
broken = builtin_example("broken-mutex", 4)
bquotient = build_quotient(broken)
bquotient.structure.totalize()
bresult = check(bquotient.structure, parse_ctl("AG !bad"))
print("\nbroken-mutex(4):", "AG !bad", bresult.verdict)

abstract = bresult.counterexample
print("abstract path through representatives:")
for state in abstract.states:
    print("  ", render_state(broken, state))

concrete = lift_counterexample(broken, abstract)
print("lifted concrete execution:")
for idx, state in enumerate(concrete.states):
    marker = f" --{concrete.actions[idx - 1]}--> " if idx else "        "
    print(f"  {marker}{render_state(broken, state)}")
print("final state labels:", set(labeling(broken, concrete.states[-1])))

# Verdict agreement with the unreduced structure, for the record.
full = build_full_structure(broken)
full.totalize()
assert check(full, parse_ctl("AG !bad")).holds == bresult.holds
print("\nfull-structure check agrees:", check(full, parse_ctl('AG !bad')).verdict)
