"""Time and size the structure store as n grows, in full and counter mode.

Each of ``--runs`` fresh interpreters per row imports orbitmc, parses the
row's program and reports ``import_rss_mb``, the process's peak resident
set then (``ru_maxrss``); every later peak is read the same way, so its
difference from this one is what the structure held at its peak.

* ``mutex:n`` full rows, for each n of ``--sizes`` (default 10, 11 and
  12): ``explore(program, "full")`` once, then one ``predecessors`` read
  per state, the reads a backward fixpoint (EU, EG) makes over a whole
  structure; ``explore_ms`` and ``explore_rss_mb`` after the first,
  ``reverse_ms`` and ``reverse_rss_mb`` after the second.
* ``pipeline:n`` counter rows, for each n of ``--pipeline-sizes``
  (default 12 and 24): the text of the benchmark's pipeline family (n
  processes walk six phases ``p0`` to ``p5`` in a line, once, and
  ``done`` says that all of them are at ``p5``) explored in counter mode
  and totalized, then a ``check`` of ``AF done``, whose EG counts
  every edge forwards and reads the predecessors of every state it
  removes; ``explore_ms`` and
  ``explore_rss_mb`` after the first, ``check_ms`` and ``check_rss_mb``
  after the second.  The same check then runs again on a fresh
  structure of the row under ``tracemalloc``: ``check_peak_mb`` is its
  traced peak and ``check_held_mb`` what stays traced once it returns,
  with its result alive (the reverse relation that the structure keeps
  included), both above what was traced before it.

Every row also reports ``keys_mb``, the bytes of the structure's stored
keys (``KripkeStructure.key``, by ``sys.getsizeof``, which is what each
key object allocates): positional ``bytes`` keys in the full rows,
run-length keys in the counter rows.

Times are given as the least and the median over the runs, peaks,
traced figures and ``keys_mb`` as the median.  ``states`` and ``edges``
are the structure's counts, totalized in the counter rows.  Only
``parse_program``, ``builtin_example``,
``explore``, ``parse_ctl``, ``check`` and ``KripkeStructure``'s
``key``, ``predecessors`` and ``totalize`` are called, so one copy of this file
measures any two versions of the package that have them.  Prints one
JSON object.

Usage: PYTHONPATH=src python scripts/time_store.py [--sizes 10 11 12]
       [--pipeline-sizes 12 24] [--runs 5]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import orbitmc

PHASES = 6

CHILD = """
import gc, json, resource, sys, time, tracemalloc
from orbitmc import builtin_example, check, parse_ctl, parse_program
from orbitmc.explore import explore

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

family, n, source = sys.argv[1], int(sys.argv[2]), sys.argv[3]
program = builtin_example("mutex", n) if family == "mutex" else parse_program(source)
row = {"import_rss_mb": peak_mb()}
started = time.perf_counter()
structure, _ = explore(program, "full" if family == "mutex" else "counter")
if family == "mutex":
    explored = time.perf_counter()
    row["explore_rss_mb"] = peak_mb()
    for sid in structure.states():
        structure.predecessors(sid)
    row["reverse_ms"] = (time.perf_counter() - explored) * 1000.0
    row["reverse_rss_mb"] = peak_mb()
else:
    structure.totalize()
    explored = time.perf_counter()
    row["explore_rss_mb"] = peak_mb()
    if check(structure, parse_ctl("AF done")).holds is not True:
        sys.exit("AF done fails on the pipeline")
    row["check_ms"] = (time.perf_counter() - explored) * 1000.0
    row["check_rss_mb"] = peak_mb()
    structure, _ = explore(program, "counter")
    structure.totalize()
    formula = parse_ctl("AF done")
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    result = check(structure, formula)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    row["check_peak_mb"] = (peak - base) / 2**20
    row["check_held_mb"] = (held - base) / 2**20
keys = sum(sys.getsizeof(structure.key(sid)) for sid in structure.states())
row.update(states=structure.num_states, edges=structure.num_edges,
           explore_ms=(explored - started) * 1000.0, keys_mb=keys / 2**20)
print(json.dumps(row))
"""


def pipeline_text(n):
    """The pipeline family at n processes, with its roles as names."""
    phases = [f"p{k}" for k in range(PHASES)]
    lines = [f"processes {n};", f"pc {{{', '.join(phases)}}};", "init pc=p0;"]
    lines += [f"{a} -> {b} : true / ;" for a, b in zip(phases, phases[1:])]
    lines += [f"label done := count(pc={phases[-1]}) >= {n};", "label bad := false;"]
    return "\n".join(lines) + "\n"


def run_child(child, *args):
    """The JSON object that the program text ``child`` prints when run on
    ``args`` in a fresh interpreter that imports this copy of orbitmc."""
    environ = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orbitmc.__file__)))
    argv = [sys.executable, "-c", child, *map(str, args)]
    done = subprocess.run(argv, env=environ, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def least_and_median(values, digits=2):
    return {"min": round(min(values), digits), "median": round(statistics.median(values), digits)}


def one_run(family, n):
    return run_child(CHILD, family, n, pipeline_text(n) if family == "pipeline" else "")


def summary(runs):
    row = {"states": runs[0]["states"], "edges": runs[0]["edges"]}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if key.endswith("_ms"):
            row[key] = least_and_median(values)
        elif key.endswith("_mb"):
            row[key] = round(statistics.median(values), 2)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 11, 12])
    parser.add_argument("--pipeline-sizes", type=int, nargs="+", default=[12, 24])
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters per row")
    args = parser.parse_args(argv)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": args.runs,
        "sizes": {},
    }
    rows = [("mutex", n) for n in args.sizes] + [("pipeline", n) for n in args.pipeline_sizes]
    for family, n in rows:
        runs = [one_run(family, n) for _ in range(args.runs)]
        report["sizes"][f"{family}:{n}"] = summary(runs)
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
