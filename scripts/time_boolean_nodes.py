"""Time the boolean nodes that guards and labels are built from.

Four figures, each the least of ``--repeat`` timings:

* ``atom_guard_us``: one guard atom, ``AllOthersNotAt(0).eval(shared,
  rec, i, occ, n)``, per call;
* ``nested_guard_us``: ``GAnd(AllOthersNotAt(0), GNot(AllOthersNotAt(1)))``
  evaluated the same way, per call (both operands are read);
* ``labeling_us``: ``labeling(program, key)`` on the model below, whose
  labels combine count thresholds and shared literals with ``&``, ``|``
  and ``!``, per call;
* ``explore_full_ms``: ``explore(program, "full")`` of that model, five
  processes whose guards use ``&``, ``|`` and ``!``, per build.

Only ``Guard.eval(shared, rec, i, occ, n)``, ``labeling`` and ``explore``
are called, so one copy of this file times any two versions of the
package that have them.  Prints one JSON object.

Usage: PYTHONPATH=src python scripts/time_boolean_nodes.py [--repeat 9] [--number 50000]
"""

import argparse
import json
import platform
import sys
import timeit

from orbitmc import GlobalState, labeling, parse_program
from orbitmc.explore import explore
from orbitmc.program import AllOthersNotAt, GAnd, GNot

MODEL = """
processes 5;
shared lock : bool;
local f : bool;
pc {idle, want, wait, crit};
init pc=idle, lock=0, f=0;
idle -> want : true / f := *;
want -> wait : !exists_other(pc == crit) | f == 1 / ;
wait -> crit : all_others(pc != crit) & (lock == 0 | !exists_other(pc == want)) / lock := 1;
wait -> idle : !(f == 0 | lock == 0) / f := 0;
crit -> idle : true / lock := 0, f := 0;
label bad := count(pc=crit) >= 2 & !(lock == 0);
label busy := count(pc=want) >= 2 | count(pc=wait) >= 3 & lock == 1;
"""


def least(stmt, namespace, repeat, number):
    """The least of ``repeat`` timings of ``number`` runs, per run, in s."""
    return min(timeit.Timer(stmt, globals=namespace).repeat(repeat, number)) / number


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=9, help="timings per figure (least kept)")
    parser.add_argument("--number", type=int, default=50_000, help="calls per node timing")
    args = parser.parse_args(argv)

    program = parse_program(MODEL, name="composite:5")
    # process 0 at idle is the only one there, and two processes wait
    state = GlobalState((1,), ((0, 0), (1, 1), (1, 0), (2, 0), (3, 1)))
    namespace = {
        "atom": AllOthersNotAt(0),
        "nested": GAnd(AllOthersNotAt(0), GNot(AllOthersNotAt(1))),
        "shared": (1,),
        "rec": (0, 0),
        "occ": [1, 2, 1, 1],
        "program": program,
        "key": program.table.codec.encode(state),
        "labeling": labeling,
        "explore": explore,
    }
    structure, _ = explore(program, "full")
    nodes = dict(repeat=args.repeat, number=args.number)
    builds = dict(repeat=args.repeat, number=1)
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": args.repeat,
        "number": args.number,
        "model_states": structure.num_states,
        "model_labels": sorted(labeling(program, namespace["key"])),
        "atom_guard_us": 1e6 * least("atom.eval(shared, rec, 0, occ, 5)", namespace, **nodes),
        "nested_guard_us": 1e6 * least("nested.eval(shared, rec, 0, occ, 5)", namespace, **nodes),
        "labeling_us": 1e6 * least("labeling(program, key)", namespace, **nodes),
        "explore_full_ms": 1e3 * least('explore(program, "full")', namespace, **builds),
    }
    json.dump(report, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
