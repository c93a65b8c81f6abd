"""orbitmc benchmark: time-to-verdict of ``orbitmc check`` and where it goes.

Run from the root of a checkout:

    python3 bench/run.py --workload quotient-pid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh children of the time from process start until the first check is
ready), ``run_s`` (median time of one closed-loop pass over the workload's
checks), ``states_per_s`` and ``peak_rss_mb``; both times are scaled by
the machine's speed at the moment (see REFERENCE_S).  ``--trace 1`` runs
separately with every module boundary wrapped and prints the per-layer
split, the top three layers by self time, the tracing overhead and the
growth of the workload's family with n.  Every check's exit code and
JSON report are checked against independent expected values; a check
that differs or raises counts in ``failed`` and makes the run exit 1.
The last line of stdout is one JSON object.

Each workload runs in a fresh single-process child (``child.py``), one
at a time, with no threads or pools.  The workloads, and why each was
chosen, are in ``workloads.py``; the self-test is ``test_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up samples from extra children, half before and half after the timed
# child so that they see the same spread of machine load; one warm-up child
# before them fills the bytecode cache
SETUP_PROBES = 12
TIME_LIMIT_S = 170
# End-to-end times are scaled by the speed of the machine at the moment they
# were taken: each is multiplied by REFERENCE_S over the wall time of a fixed
# pure-Python search (child.reference_seconds) run in the same process just
# before it.  On a shared machine whose speed swings by up to 2x over
# minutes, that keeps a run comparable with one taken ten minutes later; the
# unscaled times are printed beside the scaled ones.  REFERENCE_S is about
# the search's time on an idle 2-core Xeon, so scaled times read close to
# wall times there.
REFERENCE_S = 0.025


class ChildFailed(RuntimeError):
    pass


def spawn(mode, workload, seed, seconds, corrupt, deadline):
    argv = [sys.executable, str(BENCH / "child.py"), "--mode", mode, "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if corrupt:
        argv += ["--corrupt", corrupt]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child for {workload} ran out of time")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} child for {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def scaled(seconds, reference_s):
    """``seconds`` as they would read on a machine where the reference takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_canon")):
        return "ratio"
    if name.endswith("bytes_per_state"):
        return "B/state"
    return "count"


def timed(workload, seed, seconds, corrupt, deadline):
    def probes(count):
        return [spawn("setup", workload, seed, 0, None, deadline) for _ in range(count)]

    children = probes(1 + SETUP_PROBES // 2)[1:]
    main = spawn("timed", workload, seed, seconds, corrupt, deadline)
    children += [main] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    setups = [scaled(c["setup_s"], c["setup_reference_s"]) for c in children]
    run_s = statistics.median(map(scaled, main["pass_s"], main["reference_s"]))
    notes = {
        "setup_s": f"median of {len(setups)} fresh children; unscaled "
                   f"{statistics.median(c['setup_s'] for c in children):.4f} s",
        "run_s": f"median of {len(main['pass_s'])} passes; unscaled "
                 f"{statistics.median(main['pass_s']):.4f} s, reference "
                 f"{statistics.median(main['reference_s']):.4f} s",
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "states_per_s": statistics.median(main["states"]) / run_s,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    units = {"setup_s": "s", "run_s": "s", "states_per_s": "states/s", "peak_rss_mb": "MB"}
    return main, {k: (v, units[k], notes.get(k, "")) for k, v in metrics.items()}


def traced(workload, seed, seconds, corrupt, deadline):
    result = spawn("traced", workload, seed, seconds, corrupt, deadline)
    for layer, self_s, share in result["top"]:
        print(f"[{workload}] top self time: {layer} {self_s:.4f} s ({share:.0%} of the traced pass)")
    growth = result["growth"]
    for level, n, run_s, top_s in growth["points"]:
        print(f"[{workload}] scale.{workload}.n{n}.run_s = {run_s:.4f} s; "
              f"{growth['layer']} self {top_s:.4f} s ({growth['family']}:{n} {growth['mode']})")
    return result, {k: (v, unit_of(k), "") for k, v in result["metrics"].items()}


def git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("verdict", "states"),
                        help="give the first check a wrong expected value (self-test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orbitmc" / "__init__.py").is_file():
        print(f"error: no orbitmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance: " + json.dumps({
        "seed": args.seed,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "isolation": "each workload in its own fresh single-process child, one at a time",
        "load": "closed loop, one client",
    }))
    attempted, failures, metrics = 0, [], {}
    uncovered = []  # traced boundaries the workload should use but never called
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        measure = traced if args.trace else timed
        try:
            result, found = measure(name, args.seed, args.seconds, args.corrupt, deadline)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        attempted += result["attempted"]
        failures += result["failures"]
        uncovered += [f"{name}: {span}" for span in result.get("missing", ())]
        for metric, (value, unit, note) in found.items():
            print(f"[{name}] {metric} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        print(f"[{name}] failed_checks = {len(result['failures'])}/{result['attempted']}")
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for span in uncovered:
        print(f"FAILED trace coverage: no calls recorded at {span}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not uncovered,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures or uncovered else 0


if __name__ == "__main__":
    sys.exit(main())
