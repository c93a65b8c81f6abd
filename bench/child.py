"""One workload in one fresh process; started by ``run.py``, never by hand.

Modes:

* ``setup``: start, import orbitmc, write the workload's models, report
  the moment the first check is ready, exit;
* ``timed``: the same set-up, then passes over the workload's checks in a
  closed loop (one client, each check starts when the previous returns)
  until ``--seconds`` run out, with tracing off;
* ``traced``: untraced passes, one traced pass for the per-layer split,
  and the workload's family at two smaller sizes for the growth table.

Every check goes through the CLI entry point exactly as a user would call
it, ``orbitmc.cli.run(build_config(argv))``, and its exit code and JSON
report are checked against ``oracle.py``.  Each pass, and each set-up,
is paired with a run of ``reference_seconds`` that ``run.py`` uses to
scale times by the machine's speed.  The result is one JSON object on
stdout.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_PASSES = 3
UNTRACED_SHARE = 0.5  # of --seconds, spent on untraced passes in traced mode


@dataclass
class Job:
    check: object
    model: object
    argv: list
    expected: object


def import_orbitmc():
    """Import orbitmc from this checkout's sources and nowhere else."""
    sys.path.insert(0, str(SOURCE))
    from orbitmc import cli

    if not Path(cli.__file__).resolve().is_relative_to(SOURCE):
        raise ImportError(f"orbitmc was imported from {cli.__file__}, not from {SOURCE}")
    return cli


def prepare(checks, seed, workdir, corrupt=None):
    import oracle
    from workloads import make_model

    jobs = []
    for idx, check in enumerate(checks):
        model = make_model(check.family, check.n, seed)
        path = Path(workdir) / f"{idx}-{check.family}-{check.n}.gcl"
        path.write_text(model.text(), encoding="utf-8")
        argv = ["check", "--model", str(path), "--mode", check.mode,
                "--prop", model.prop(check.prop), "--json"]
        expected = oracle.expected(check)
        if corrupt and idx == 0:
            expected = oracle.corrupted(expected, corrupt)
        jobs.append(Job(check, model, argv, expected))
    return jobs


def reference_seconds():
    """Wall time of a fixed pure-Python search, the yardstick for machine speed.

    It does the same kinds of work as orbitmc (tuple building, hashing, a
    dict index and a queue), so it slows down with the machine as orbitmc
    does, and nothing a change to orbitmc does can move it.
    """
    started = time.perf_counter()
    width = 8
    start = (0,) * width
    index = {start: 0}
    queue = [start]
    for state in queue:
        for i in range(width):
            nxt = state[:i] + ((state[i] + 1) % 3,) + state[i + 1 :]
            if nxt not in index:
                index[nxt] = len(index)
                queue.append(nxt)
    if len(index) != 3**width:
        raise AssertionError("reference search visited the wrong number of states")
    return time.perf_counter() - started


class Pass:
    """One pass over a list of checks: per-check wall times and verdicts."""

    def __init__(self, cli, jobs, tracer=None):
        import oracle

        self.reference_s = reference_seconds()
        self.seconds = []
        self.states = 0
        self.failures = []
        for job in jobs:
            if tracer is not None:
                tracer.begin_check(job.check.mode)
            out, err = io.StringIO(), io.StringIO()
            started = time.perf_counter()
            try:
                code = cli.run(cli.build_config(job.argv), out=out, err=err)
            except Exception as exc:  # a check that raises counts as failed
                self.seconds.append(time.perf_counter() - started)
                self.failures.append(f"{job.check.key()}: raised {exc!r}")
                continue
            self.seconds.append(time.perf_counter() - started)
            errors = oracle.verify(job.model, job.expected, code, out.getvalue())
            if errors:
                self.failures.append(f"{job.check.key()}: {'; '.join(errors)} {err.getvalue()}")
            else:
                self.states += job.expected.states

    @property
    def total(self):
        return sum(self.seconds)


def passes_for(cli, jobs, seconds, min_passes):
    """Closed-loop passes until ``seconds`` are spent and ``min_passes`` are done."""
    deadline = time.monotonic() + seconds
    done = []
    while len(done) < min_passes or time.monotonic() < deadline:
        gc.collect()
        done.append(Pass(cli, jobs))
    # each pass is scaled by the mean of the references run just before and
    # just after it
    after = [p.reference_s for p in done[1:]] + [reference_seconds()]
    for p, ref in zip(done, after):
        p.reference_s = (p.reference_s + ref) / 2
    return done


def traced(cli, workload, jobs, seed, workdir, seconds):
    from spans import Tracer

    result = {"passes": passes_for(cli, jobs, UNTRACED_SHARE * seconds, 2)}
    untraced_s = min(p.total for p in result["passes"])
    tracer = Tracer()
    gc.collect()
    with tracer.installed():
        main = Pass(cli, jobs, tracer)
    result["passes"].append(main)
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.traced_run_s"] = main.total
    metrics["trace.overhead_frac"] = main.total / untraced_s - 1
    calls = tracer.calls()
    result["missing"] = [span for span in workload.uses if calls[span] == 0]
    result["calls"] = calls
    ranked = sorted(tracer.layer_self_times().items(), key=lambda kv: -kv[1])
    result["top"] = [(layer, s, s / main.total) for layer, s in ranked[:3]]

    # growth: the family of the first check at two smaller sizes and at full size
    family_self = tracer.layer_self_times(check=0)
    top_layer = max(family_self, key=family_self.get)
    first = jobs[0].check
    full_runs = [p.seconds[0] for p in result["passes"][:-1]]
    growth = []
    for level, n in zip(("small", "mid"), workload.scale_sizes):
        small_jobs = prepare([replace(first, n=n)], seed, workdir)
        runs = passes_for(cli, small_jobs, 0, MIN_PASSES)
        small_tracer = Tracer()
        with small_tracer.installed():
            runs.append(Pass(cli, small_jobs, small_tracer))
        result["passes"].extend(runs)
        run_s = min(p.total for p in runs[:-1])
        growth.append((level, n, run_s, small_tracer.layer_self_times()[top_layer]))
    growth.append(("full", first.n, min(full_runs), family_self[top_layer]))
    for level, n, run_s, top_s in growth:
        metrics[f"scale.{level}.run_s"] = run_s
        metrics[f"scale.{level}.top_self_s"] = top_s
    result["metrics"] = metrics
    result["growth"] = {"layer": top_layer, "family": first.family, "mode": first.mode,
                        "points": growth}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--corrupt", choices=("verdict", "states"))
    args = parser.parse_args(argv)

    cli = import_orbitmc()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        jobs = prepare(workload.checks, args.seed, workdir, args.corrupt)
        result = {"ready": time.monotonic(), "setup_reference_s": reference_seconds()}
        if args.mode == "timed":
            result["passes"] = passes_for(cli, jobs, args.seconds, MIN_PASSES)
        elif args.mode == "traced":
            result.update(traced(cli, workload, jobs, args.seed, workdir, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result.pop("passes", [])
    result["pass_s"] = [p.total for p in passes]
    result["reference_s"] = [p.reference_s for p in passes]
    result["states"] = [p.states for p in passes]
    result["attempted"] = sum(len(p.seconds) for p in passes)
    result["failures"] = [f for p in passes for f in p.failures]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
