"""Time and size the full-mode structure store as n grows.

For each ``mutex:n`` of ``--sizes`` (default 10, 11 and 12), each of
``--runs`` fresh interpreters imports orbitmc, explores ``mutex:n`` in
full mode once and reads every state's predecessors once, and reports:

* ``explore_ms``: wall time of ``explore(program, "full")``;
* ``explore_rss_mb``: the process's peak resident set after the
  exploration (``ru_maxrss``), and ``import_rss_mb`` the same before it,
  after the import and the program's parse, so the difference is what
  the build held at its peak;
* ``reverse_ms`` and ``reverse_rss_mb``: the same for one
  ``predecessors`` read per state after the exploration, the reads a
  backward fixpoint (EU, EG) makes over a whole structure.

Times are given as the least and the median over the runs, peaks as the
median.  ``states`` and ``edges`` are the structure's counts.  Only
``explore`` and ``KripkeStructure.predecessors`` are called, so one copy
of this file measures any two versions of the package that have them.
Prints one JSON object.

Usage: PYTHONPATH=src python scripts/time_store.py [--sizes 10 11 12] [--runs 5]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import orbitmc

CHILD = """
import json, resource, sys, time
from orbitmc import builtin_example
from orbitmc.explore import explore

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

program = builtin_example("mutex", int(sys.argv[1]))
imported = peak_mb()
started = time.perf_counter()
structure, _ = explore(program, "full")
explored = time.perf_counter()
explore_rss = peak_mb()
for sid in structure.states():
    structure.predecessors(sid)
reversed_ = time.perf_counter()
print(json.dumps({
    "states": structure.num_states,
    "edges": structure.num_edges,
    "explore_ms": (explored - started) * 1000.0,
    "reverse_ms": (reversed_ - explored) * 1000.0,
    "import_rss_mb": imported,
    "explore_rss_mb": explore_rss,
    "reverse_rss_mb": peak_mb(),
}))
"""


def one_run(n):
    environ = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orbitmc.__file__)))
    argv = [sys.executable, "-c", CHILD, str(n)]
    done = subprocess.run(argv, env=environ, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 11, 12])
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters per size")
    args = parser.parse_args(argv)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": args.runs,
        "sizes": {},
    }
    for n in args.sizes:
        runs = [one_run(n) for _ in range(args.runs)]
        row = {"states": runs[0]["states"], "edges": runs[0]["edges"]}
        for key in ("explore_ms", "reverse_ms"):
            values = [r[key] for r in runs]
            row[key] = {"min": round(min(values), 2),
                        "median": round(statistics.median(values), 2)}
        for key in ("import_rss_mb", "explore_rss_mb", "reverse_rss_mb"):
            row[key] = round(statistics.median(r[key] for r in runs), 2)
        report["sizes"][f"mutex:{n}"] = row
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
