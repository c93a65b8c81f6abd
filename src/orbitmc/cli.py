"""Command-line surface.

Subcommands: check, reach, compare, export-dot, examples.  Models come
from a file in the guarded-command language or from a builtin benchmark
as ``name:n``.  Reports are plain text or JSON with a fixed key order so
identical runs emit identical bytes (modulo the duration field).

Exit codes: 0 success / property holds; 1 property fails or stop-at-bad
triggered; 2 usage or input error; 3 resource limit exceeded; 4 internal
error; 141 (128 + SIGPIPE) the reader closed standard output, which ends
the run silently, as a shell reports a writer ended by a closed pipe.
Input errors are raised as ``UsageError``, ``ParseError`` or
``UnsupportedModelError``; a ``ValueError`` that reaches ``run`` is a
broken internal precondition, not bad input, and also exits 4, as does any
other exception that reaches it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

from . import __version__
from .counter import from_counter
from .ctl import atoms, check, decided_by_tree, lift_counterexample, parse_ctl
from .errors import (
    CheckerError,
    InternalError,
    ParseError,
    ResourceLimitError,
    UnsupportedModelError,
)
from .explore import MODES, compare_modes, explore
from .kripke import DEFAULT_STATE_BOUND, Path
from .program import atomic_props, render_state
from .parser import (
    BUILTIN_NAMES,
    MAX_DIGITS,
    MAX_PROCESSES,
    builtin_example,
    builtin_source,
    parse_program,
)
from .value import Value

BOUND_ENV_VAR = "ORBITMC_BOUND"

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141

_DOT_KEYWORDS = {"graph", "digraph", "subgraph", "node", "edge", "strict"}


class RunConfig(Value, frozen=False):
    __slots__ = ("command", "builtin", "model_path", "prop", "mode", "bound", "fmt",
                 "stop_at_bad", "dot_name", "examples_n")
    _defaults = (None, None, None, "full", None, "text", False, "M", 2)


def _add_model_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="NAME:N", help="builtin example, e.g. mutex:4")
    group.add_argument(
        "--model", dest="model_path", metavar="FILE", help="model file in the input language"
    )


def _add_mode_arg(sub):
    sub.add_argument("--mode", choices=list(MODES), default="full")


def _add_output_args(sub):
    sub.add_argument("--bound", type=int, default=None, help="state bound (default 10^6)")
    sub.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    sub.add_argument(
        "--json", dest="fmt", action="store_const", const="json", help="same as --format json"
    )


@functools.lru_cache(maxsize=None)
def build_arg_parser():
    """The argument parser, built once: parsing leaves it as it was."""
    top = argparse.ArgumentParser(
        prog="orbitmc",
        description="explicit-state model checking with symmetry reduction",
    )
    top.add_argument("--version", action="version", version=f"orbitmc {__version__}")
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="model-check a CTL property")
    _add_model_args(p)
    p.add_argument("--prop", required=True, help="CTL formula, e.g. 'AG !bad'")
    _add_mode_arg(p)
    _add_output_args(p)

    p = subs.add_parser("reach", help="explore the reachable states")
    _add_model_args(p)
    _add_mode_arg(p)
    _add_output_args(p)
    p.add_argument("--stop-at-bad", action="store_true", help="halt at the first bad state")

    p = subs.add_parser("compare", help="run all modes and report the reduction")
    _add_model_args(p)
    _add_output_args(p)

    p = subs.add_parser("export-dot", help="print the structure as DOT")
    _add_model_args(p)
    _add_mode_arg(p)
    _add_output_args(p)
    p.add_argument("--name", dest="dot_name", default="M", help="graph name, a DOT identifier")

    p = subs.add_parser("examples", help="print the builtin model sources")
    p.add_argument("--n", dest="examples_n", type=int, default=2)
    return top


def build_config(argv):
    ns = vars(build_arg_parser().parse_args(argv))
    # a subcommand without an option leaves its field at the default
    return RunConfig(**{field: ns[field] for field in RunConfig._fields if field in ns})


class UsageError(CheckerError):
    pass


def _decimal(text):
    """The value of a decimal numeral that ``int`` converts, else None."""
    return int(text) if text.isdecimal() and len(text) <= MAX_DIGITS else None


def load_program(config):
    """The program plus its display name for reports."""
    if config.builtin is not None:
        name, sep, count = config.builtin.partition(":")
        n = _decimal(count) if sep else None
        if n is None or not 1 <= n <= MAX_PROCESSES:
            raise UsageError(
                f"--builtin takes NAME:N with 1 <= N <= {MAX_PROCESSES}, got {config.builtin!r}"
            )
        if name not in BUILTIN_NAMES:
            raise UsageError(
                f"unknown builtin {name!r} (have {', '.join(BUILTIN_NAMES)})"
            )
        return builtin_example(name, n), config.builtin
    try:
        with open(config.model_path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read model file: {exc}")
    return parse_program(text, name=config.model_path), config.model_path


def effective_bound(config):
    if config.bound is not None:
        if config.bound < 1:
            raise UsageError("--bound must be >= 1")
        return config.bound
    env = os.environ.get(BOUND_ENV_VAR)
    if env:
        bound = _decimal(env)
        if bound is None or bound < 1:
            raise UsageError(
                f"{BOUND_ENV_VAR} must be a positive integer of at most {MAX_DIGITS} digits,"
                f" got {env!r}"
            )
        return bound
    return DEFAULT_STATE_BOUND


def _stats_dict(stats):
    return {
        "states_reached": stats.states_reached,
        "edges": stats.edges,
        "deadlocks": stats.deadlocks,
        "frontier_peak": stats.frontier_peak,
        "duration_ms": round(stats.duration_ms, 3),
        "bad_reached": stats.bad_reached,
    }


def _report_head(config, model_name):
    return {
        "tool_version": __version__,
        "command": config.command,
        "model": model_name,
        "mode": config.mode,
    }


def _emit(config, report, out):
    if config.fmt == "json":
        print(json.dumps(report, indent=2), file=out)
        return
    for key, value in report.items():
        if key in ("stats", "comparison") and isinstance(value, dict):
            print(f"{key}:", file=out)
            for k, v in value.items():
                if isinstance(v, dict):
                    inner = " ".join(f"{ik}={iv}" for ik, iv in v.items())
                    print(f"  {k}: {inner}", file=out)
                else:
                    print(f"  {k}: {v}", file=out)
        elif key == "counterexample" and isinstance(value, dict):
            print("counterexample:", file=out)
            states = value["states"]
            actions = value["actions"]
            for idx, state in enumerate(states):
                print(f"  {idx}: {state}", file=out)
                if idx < len(actions):
                    print(f"     --{actions[idx]}-->", file=out)
        else:
            print(f"{key}: {value}", file=out)


def _concretize_path(program, mode, path):
    """Render a structure path as a concrete execution, lifting if needed."""
    if mode == "full":
        return path
    if mode == "counter":
        path = Path(tuple(from_counter(s) for s in path.states), path.actions)
    return lift_counterexample(program, path)


def run_check(config, out):
    program, model_name = load_program(config)
    bound = effective_bound(config)
    formula = parse_ctl(config.prop)
    unknown = sorted(atoms(formula) - set(atomic_props(program)))
    if unknown:
        raise UsageError(f"unknown atomic proposition {unknown[0]!r}")
    started = time.perf_counter()
    structure, stats = explore(program, config.mode, bound, _tree=decided_by_tree(formula))
    structure.totalize()
    result = check(structure, formula)
    stats.duration_ms = (time.perf_counter() - started) * 1000.0

    report = _report_head(config, model_name)
    if config.fmt == "text":
        report["property"] = config.prop
    report["verdict"] = result.verdict
    report["stats"] = _stats_dict(stats)
    if result.counterexample is not None:
        concrete = _concretize_path(program, config.mode, result.counterexample)
        report["counterexample"] = {
            "states": [render_state(program, s) for s in concrete.states],
            "actions": list(concrete.actions),
        }
    _emit(config, report, out)
    return EXIT_OK if result.holds else EXIT_FAILS


def run_reach(config, out):
    program, model_name = load_program(config)
    bound = effective_bound(config)
    _, stats = explore(program, config.mode, bound, stop_at_bad=config.stop_at_bad)
    report = _report_head(config, model_name)
    report["stats"] = _stats_dict(stats)
    _emit(config, report, out)
    if config.stop_at_bad and stats.bad_reached:
        return EXIT_FAILS
    return EXIT_OK


def run_compare(config, out):
    program, model_name = load_program(config)
    bound = effective_bound(config)
    comparison = compare_modes(program, bound)
    report = _report_head(config, model_name)
    report["mode"] = "compare"
    comparison_dict = {}
    for mode in MODES:
        if mode in comparison.stats:
            comparison_dict[mode] = _stats_dict(comparison.stats[mode])
        else:
            comparison_dict[mode] = f"unsupported: {comparison.unsupported[mode]}"
    comparison_dict["reduction_factor"] = round(comparison.reduction_factor, 3)
    report["comparison"] = comparison_dict
    _emit(config, report, out)
    return EXIT_OK


def run_export_dot(config, out):
    name = config.dot_name
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name.lower() in _DOT_KEYWORDS:
        raise UsageError(
            f"--name must be a DOT identifier ([A-Za-z_][A-Za-z0-9_]*, not a DOT keyword), got {name!r}"
        )
    program, _ = load_program(config)
    structure, _ = explore(program, config.mode, effective_bound(config))
    view = from_counter if config.mode == "counter" else (lambda state: state)
    out.write(structure.export_dot(name, lambda payload: render_state(program, view(payload))))
    return EXIT_OK


def run_examples(config, out):
    if config.examples_n < 1:
        raise UsageError("--n must be >= 1")
    for name in BUILTIN_NAMES:
        print(f"# ---- {name} ----", file=out)
        print(builtin_source(name, config.examples_n), file=out)
    return EXIT_OK


_RUNNERS = {
    "check": run_check,
    "reach": run_reach,
    "compare": run_compare,
    "export-dot": run_export_dot,
    "examples": run_examples,
}


def run(config, out=None, err=None):
    """Execute one configured command; returns the exit status."""
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        code = _RUNNERS[config.command](config, out)
        out.flush()  # a reader that closed early shows here, not in the exit flush
        return code
    except BrokenPipeError:
        if out is sys.stdout:
            # what is still buffered goes nowhere, so the exit flush cannot raise again
            sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return EXIT_CLOSED_PIPE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=err)
        return EXIT_RESOURCE
    except (InternalError, ValueError) as exc:
        print(f"internal error: {exc}", file=err)
        return EXIT_INTERNAL
    except (UsageError, ParseError, UnsupportedModelError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only a bug gets here, so start-up does not pay for it

        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        traceback.print_exc(file=err)
        return EXIT_INTERNAL


def main(argv=None):
    sys.exit(run(build_config(argv)))


if __name__ == "__main__":
    main()
