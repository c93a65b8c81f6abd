"""Time the run-length successor kernel, ``runs.run_successors``, per state.

For each n of ``--sizes`` (default 3, 6, 9 and 12) and each model below,
each of ``--runs`` fresh interpreters imports orbitmc and collects every
reachable run-length key by a breadth-first search with the kernel
itself.  It then parses the program afresh, with the codec memos cleared
too, and steps every key once: the cold pass, which builds the firing
plans as it goes.  Then it steps every key ``PASSES`` more times on the
filled memos and keeps the best of these warm passes:

* ``allocator:n`` and ``broken-allocator:n`` (the allocator without the
  ``grant == none`` entry guard) in quotient mode: pid-typed keys, whose
  moves take, keep or release the pinned grant holder, so most of them
  change the pins and rebuild the key from its fields
  (``RunCodec.repin``);
* ``pipeline:n``, ``time_store.pipeline_text`` (six phases, each process
  steps through them once), in counter mode: pid-free keys, whose moves
  are additions and shift-and-mask splices of the key.

``us_per_state`` is the best warm pass per state in microseconds, and
``cold_us_per_state`` the cold pass per state, each the least and the
median over the runs; ``states`` and ``successors`` count the keys and
the pairs one pass returns.  Only ``run_successors``, the program's
``table.runs`` codec, the ``program._codec`` and ``runs.run_codec``
memos, ``builtin_source`` and ``parse_program`` are called, so one copy
of this file times any two versions of the package that have them.
Prints one JSON object.

Usage: PYTHONPATH=src python scripts/time_kernel.py [--sizes 3 6 9 12] [--runs 5]
"""

import argparse
import json
import platform

from orbitmc.parser import builtin_source
from time_store import least_and_median, pipeline_text, run_child

MODELS = ("allocator", "broken-allocator", "pipeline")
PASSES = 5  # passes over the keys per run

CHILD = """
import json, sys, time
from orbitmc import program as program_module, runs as runs_module
from orbitmc.parser import parse_program
from orbitmc.runs import run_successors

source, counter, passes = sys.argv[1], sys.argv[2] == "counter", int(sys.argv[3])
program = parse_program(source)
first = program.table.runs.encode(program.initial_state())
keys, seen = [first], {first}
for key in keys:
    for _, target in run_successors(program, key, counter):
        if target not in seen:
            seen.add(target)
            keys.append(target)
program_module._codec.cache_clear()
runs_module.run_codec.cache_clear()
program = parse_program(source)
started = time.perf_counter()
for key in keys:
    run_successors(program, key, counter)
cold = time.perf_counter() - started
best = float("inf")
for _ in range(passes):
    started = time.perf_counter()
    successors = sum(len(run_successors(program, key, counter)) for key in keys)
    best = min(best, time.perf_counter() - started)
print(json.dumps({"states": len(keys), "successors": successors,
                  "us_per_state": best / len(keys) * 1e6,
                  "cold_us_per_state": cold / len(keys) * 1e6}))
"""


def model_text(name, n):
    if name == "pipeline":
        return pipeline_text(n)
    source = builtin_source("allocator", n)
    if name == "broken-allocator":
        source = source.replace("grant == none / grant := self", "true / grant := self")
    return source


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 6, 9, 12])
    parser.add_argument("--runs", type=int, default=5,
                        help="fresh interpreters per model and size")
    args = parser.parse_args(argv)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": args.runs,
        "passes": PASSES,
        "models": {},
    }
    for name in MODELS:
        for n in args.sizes:
            mode = "counter" if name == "pipeline" else "quotient"
            runs = [run_child(CHILD, model_text(name, n), mode, PASSES) for _ in range(args.runs)]
            report["models"][f"{name}:{n}"] = {
                "mode": mode,
                "states": runs[0]["states"],
                "successors": runs[0]["successors"],
                "us_per_state": least_and_median([r["us_per_state"] for r in runs], 3),
                "cold_us_per_state": least_and_median([r["cold_us_per_state"] for r in runs], 3),
            }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
