"""Time ``explore`` per state, split into the kernel, labeling and the rest.

Each row is ``family:n:mode``, by default ``pipeline:12:counter``,
``mutex:10:full``, ``allocator:7:full`` (its keys carry a pid field) and
``mutex:100:quotient``.  ``pipeline:n`` is ``time_store.pipeline_text``,
the benchmark's pipeline family (n processes walk six phases ``p0`` to
``p5`` in a line, once; ``done`` says that all of them are at ``p5``),
any other family the builtin of that name.  Each of
``--runs`` fresh interpreters per row builds the row's structure once,
which fills the firing plans and codec memos, and collects every state's
key.  It then times ``PASSES`` rounds of four passes, keeping the best
of each:

* ``kernel_us``: the mode's successor rule on every key
  (``program.successors``, ``runs.run_successors`` or
  ``counter.counter_successors``);
* ``labeling_us``: the same pass with ``program.labeling`` called on
  each key right after its successors, less the kernel pass: what
  labeling adds to a build that labels a state when it expands it;
* ``rest_us``: ``explore`` of the whole structure, less that pass: the
  worklist, interning, edge storage and the call layers;
* ``tree_us``: ``explore`` with ``_tree=True``, the build of a check of
  ``AG p`` or ``EF p``, whole.  It stores only the discovery tree, each
  edge through ``KripkeStructure.add_edge``, where the full build writes
  each state's block itself, so a row times both ways of storing edges.

Each is microseconds per state, ``explore_us`` the full build whole,
and the reported figure is the least and the median over the runs.  A
full-mode row also gets ``repeat_share``, the share of its states, in id
order, whose census (``StateCodec.census``: shared values and per-pc
counts) equals the one before: how often the full-mode rule finds its
last census's enabled moves in place.  Only ``builtin_source``,
``parse_program``, ``explore`` (with and without ``_tree``), the three
kernels, ``labeling``, ``KripkeStructure.key`` and the program's
``table.codec`` and ``table.runs`` are called, so one copy of this file
times any two versions of the package that have them.  Prints one JSON
object.

Usage: PYTHONPATH=src python scripts/time_build.py [--rows pipeline:12:counter ...]
       [--runs 5]
"""

import argparse
import json
import platform

from orbitmc.parser import builtin_source
from time_store import least_and_median, pipeline_text, run_child

ROWS = ("pipeline:12:counter", "mutex:10:full", "allocator:7:full", "mutex:100:quotient")
PASSES = 5  # timed rounds per run

CHILD = """
import json, sys, time
from orbitmc.counter import counter_successors
from orbitmc.explore import explore
from orbitmc.parser import parse_program
from orbitmc.program import labeling, successors
from orbitmc.runs import run_successors

source, mode, passes = sys.argv[1], sys.argv[2], int(sys.argv[3])
program = parse_program(source)
structure, _ = explore(program, mode)
keys = [structure.key(sid) for sid in structure.states()]
codec = program.table.codec if mode == "full" else program.table.runs
step = {"full": successors, "quotient": run_successors, "counter": counter_successors}[mode]

def kernel():
    for key in keys:
        step(program, key)

def both():
    for key in keys:
        step(program, key)
        labeling(program, key, codec)

def whole():
    explore(program, mode)

def tree():
    explore(program, mode, _tree=True)

best = dict.fromkeys(("kernel", "both", "explore", "tree"), float("inf"))
for _ in range(passes):
    for name, run in (("kernel", kernel), ("both", both), ("explore", whole), ("tree", tree)):
        started = time.perf_counter()
        run()
        best[name] = min(best[name], time.perf_counter() - started)
us = {name: t / len(keys) * 1e6 for name, t in best.items()}
censuses = [codec.census(key) for key in keys] if mode == "full" else []
repeats = sum(map(tuple.__eq__, censuses, censuses[1:]))
print(json.dumps({"states": len(keys), "explore_us": us["explore"], "kernel_us": us["kernel"],
                  "labeling_us": us["both"] - us["kernel"],
                  "rest_us": us["explore"] - us["both"], "tree_us": us["tree"],
                  "repeat_share": repeats / len(keys)}))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", nargs="+", default=list(ROWS), help="family:n:mode")
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters per row")
    args = parser.parse_args(argv)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": args.runs,
        "passes": PASSES,
        "rows": {},
    }
    for row in args.rows:
        family, n, mode = row.split(":")
        n = int(n)
        source = pipeline_text(n) if family == "pipeline" else builtin_source(family, n)
        runs = [run_child(CHILD, source, mode, PASSES) for _ in range(args.runs)]
        summary = {"states": runs[0]["states"]}
        for key in ("explore_us", "kernel_us", "labeling_us", "rest_us", "tree_us"):
            summary[key] = least_and_median([r[key] for r in runs])
        if mode == "full":
            summary["repeat_share"] = round(runs[0]["repeat_share"], 3)
        report["rows"][row] = summary
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
