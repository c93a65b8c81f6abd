"""Time what a short orbitmc run pays before and around its check.

Figures in ms are wall times of fresh interpreters, given as the least
and the median of ``--runs`` runs:

* ``import_cli_ms``: ``python -c "import orbitmc.cli"``, with the
  package's bytecode cached (``cached``; one run first writes the cache)
  and compiled from source each time (``compiled``, with
  ``PYTHONDONTWRITEBYTECODE=1`` as in a fresh checkout);
* ``bare_interpreter_ms``: ``python -c pass``, the floor under both;
* ``check_mutex4_ms``: ``python -m orbitmc check --builtin mutex:4
  --prop 'AG !bad'``, bytecode cached.

Each mode runs on its own copy of the package in a temporary directory,
so the source tree gets no bytecode and no stale cache is read.

Figures in µs are per call, each the least of ``--repeat`` timings of
``--number`` calls, on the records that every check builds:

* ``global_state_new_us`` / ``global_state_new_2_us``: ``GlobalState``
  from three arguments (as the codecs decode) and from two (``pid_slots``
  defaulted); ``global_state_eq_us`` and ``global_state_hash_us`` compare
  two equal states and hash one;
* ``gand_new_us``, ``gand_eq_us`` and ``gand_hash_us``: the same for
  ``GAnd(GTrue(), GTrue())``, three constructions per call;
* ``gnot_new_us``: ``GNot`` around a built node, one construction of a
  one-field record per call.

The copies are of the orbitmc package this process imported.  Prints
one JSON object.

Usage: PYTHONPATH=src python scripts/time_startup.py [--runs 11] [--repeat 9] [--number 100000]
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import timeit

import orbitmc
from orbitmc.program import GAnd, GlobalState, GNot, GTrue


def wall_ms(argv, runs, src, cache):
    """Least and median wall time of ``runs`` runs of ``argv`` with only
    ``src`` on the path, writing bytecode if ``cache``, in ms."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    environ["PYTHONPATH"] = src
    if not cache:
        environ["PYTHONDONTWRITEBYTECODE"] = "1"
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        subprocess.run(argv, env=environ, check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - started) * 1000.0)
    return {"min": round(min(times), 2), "median": round(statistics.median(times), 2)}


def per_call_us(stmt, namespace, repeat, number):
    """The least of ``repeat`` timings of ``number`` runs of ``stmt``, per run, in µs."""
    best = min(timeit.Timer(stmt, globals=namespace).repeat(repeat, number))
    return round(best / number * 1e6, 4)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=11, help="interpreters per wall time")
    parser.add_argument("--repeat", type=int, default=9, help="timings per µs figure (least kept)")
    parser.add_argument("--number", type=int, default=100_000, help="calls per µs timing")
    args = parser.parse_args(argv)

    python = sys.executable
    package = os.path.dirname(orbitmc.__file__)
    import_cli = [python, "-c", "import orbitmc.cli"]
    check = [python, "-m", "orbitmc", "check", "--builtin", "mutex:4", "--prop", "AG !bad"]
    with tempfile.TemporaryDirectory() as scratch:
        cached, compiled = os.path.join(scratch, "cached"), os.path.join(scratch, "compiled")
        for src in (cached, compiled):
            ignore = shutil.ignore_patterns("__pycache__")
            shutil.copytree(package, os.path.join(src, "orbitmc"), ignore=ignore)
        wall_ms(import_cli, 1, cached, cache=True)  # writes the bytecode cache
        report = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "orbitmc": package,
            "runs": args.runs,
            "repeat": args.repeat,
            "number": args.number,
            "bare_interpreter_ms": wall_ms([python, "-c", "pass"], args.runs, cached, cache=True),
            "import_cli_ms": {
                "cached": wall_ms(import_cli, args.runs, cached, cache=True),
                "compiled": wall_ms(import_cli, args.runs, compiled, cache=False),
            },
            "check_mutex4_ms": wall_ms(check, args.runs, cached, cache=True),
        }
    shared, locs, pids = (1, 0), ((0, 1), (2, 0), (1, 1)), (1,)
    namespace = {
        "GlobalState": GlobalState,
        "GAnd": GAnd,
        "GTrue": GTrue,
        "GNot": GNot,
        "shared": shared,
        "locs": locs,
        "pids": pids,
        "s": GlobalState(shared, locs, pids),
        # an equal state built from copies, so no field is shared
        "t": GlobalState(tuple([*shared]), tuple(tuple([*rec]) for rec in locs), tuple([*pids])),
        "g": GAnd(GTrue(), GTrue()),
        "h": GAnd(GTrue(), GTrue()),
    }
    timing = dict(repeat=args.repeat, number=args.number)
    for key, stmt in (
        ("global_state_new_us", "GlobalState(shared, locs, pids)"),
        ("global_state_new_2_us", "GlobalState(shared, locs)"),
        ("global_state_eq_us", "s == t"),
        ("global_state_hash_us", "hash(s)"),
        ("gand_new_us", "GAnd(GTrue(), GTrue())"),
        ("gand_eq_us", "g == h"),
        ("gand_hash_us", "hash(g)"),
        ("gnot_new_us", "GNot(g)"),
    ):
        report[key] = per_call_us(stmt, namespace, **timing)
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
