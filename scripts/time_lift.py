"""Time ``ctl.lift_counterexample`` per step as n grows.

Two failing models, each checked in quotient mode against ``AG !bad``:

* ``broken-mutex:n`` (the builtin), for each n of ``--sizes`` (default
  100 to 3200, doubling): pid-free, so the lift's candidates at each step
  are the moves of n processes, nearly all of them holding one record;
* ``broken-allocator:n``, for each n of ``--pid-sizes`` (default 25 to
  400, doubling): the builtin allocator with its ``grant == none`` entry
  guard dropped, so two processes reach ``exec``; its ``grant`` is
  pid-typed, and the moves that write it name the firing process.

Each row builds the quotient up to the first ``bad`` state
(``explore(..., stop_at_bad=True)``), totalizes it and takes the
counterexample of ``check``, then lifts that path ``--repeat`` times and
on until ``--seconds`` have passed.  ``ms_per_step`` is the least lift
time over the repeats divided by the path's steps, and ``repeats`` their
number.  Only ``builtin_example``, ``builtin_source``,
``parse_program``, ``explore``, ``parse_ctl``, ``check`` and
``lift_counterexample`` are called, so one copy of this file times any
two versions of the package that have them.  Prints one JSON object.

Usage: PYTHONPATH=src python scripts/time_lift.py [--sizes 100 200 400 800 1600 3200]
       [--pid-sizes 25 50 100 200 400] [--repeat 5] [--seconds 1]
"""

import argparse
import json
import platform
import time

from orbitmc import builtin_example, check, lift_counterexample, parse_ctl, parse_program
from orbitmc.explore import explore
from orbitmc.parser import builtin_source


def broken_allocator(n):
    """The allocator of n processes without its ``grant == none`` entry guard."""
    source = builtin_source("allocator", n)
    broken = source.replace("grant == none / grant := self", "true / grant := self")
    if broken == source:
        raise ValueError("the allocator's entry guard was not found")
    return parse_program(broken)


def row(model, program, repeat, seconds):
    structure, _ = explore(program, "quotient", stop_at_bad=True)
    structure.totalize()
    result = check(structure, parse_ctl("AG !bad"))
    if result.holds:
        raise ValueError(f"{model}:{program.n} does not fail AG !bad")
    path = result.counterexample
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < repeat or time.perf_counter() < deadline:
        started = time.perf_counter()
        lifted = lift_counterexample(program, path)
        times.append(time.perf_counter() - started)
    return {"model": model, "n": program.n, "steps": lifted.steps, "repeats": len(times),
            "ms_per_step": round(min(times) / lifted.steps * 1e3, 4)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400, 800, 1600, 3200])
    parser.add_argument("--pid-sizes", type=int, nargs="+", default=[25, 50, 100, 200, 400])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    rows = [row("broken-mutex", builtin_example("broken-mutex", n), args.repeat, args.seconds)
            for n in args.sizes]
    rows += [row("broken-allocator", broken_allocator(n), args.repeat, args.seconds)
             for n in args.pid_sizes]
    print(json.dumps({"python": platform.python_version(), "repeat": args.repeat,
                      "seconds": args.seconds, "rows": rows}, indent=2))


if __name__ == "__main__":
    main()
