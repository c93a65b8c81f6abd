"""Span tracing at orbitmc's module boundaries, from outside the package.

``Tracer.installed()`` wraps each boundary function in every orbitmc
module namespace that holds it (several modules import layer functions
by name), and the ``KripkeStructure`` methods on the class.  Each call
records a span: name, start, end, parent span and check id.  Spans are
kept in memory in flat arrays and reduced to the per-layer metrics after
the traced pass, so the traced code pays only for appends.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

from orbitmc.kripke import STUTTER_ACTION, KripkeStructure

# span name -> (module, attribute); KripkeStructure methods are "kripke.<method>"
FUNCTIONS = {
    "cli.run": ("orbitmc.cli", "run"),
    "parser.parse_program": ("orbitmc.parser", "parse_program"),
    "program.successors": ("orbitmc.program", "successors"),
    "program.labeling": ("orbitmc.program", "labeling"),
    "symmetry.rep_sort": ("orbitmc.symmetry", "rep_sort"),
    "symmetry.rep_min": ("orbitmc.symmetry", "rep_min"),
    "symmetry.apply": ("orbitmc.symmetry", "apply"),
    "counter.counter_successors": ("orbitmc.counter", "counter_successors"),
    "kripke.breadth_first_build": ("orbitmc.kripke", "breadth_first_build"),
    "ctl.sat_set": ("orbitmc.ctl", "sat_set"),
    "ctl.shortest_path": ("orbitmc.ctl", "shortest_path"),
    "ctl.lift_counterexample": ("orbitmc.ctl", "lift_counterexample"),
}
METHODS = ("add_state", "add_edge", "successors", "predecessors", "image", "preimage", "totalize")
READS = ("kripke.successors", "kripke.predecessors", "kripke.image", "kripke.preimage")
CANON = ("symmetry.rep_sort", "symmetry.rep_min")
SPAN_NAMES = tuple(FUNCTIONS) + tuple(f"kripke.{m}" for m in METHODS)

# layers ranked by self time; each is a group of span names
SELF_LAYERS = {
    "parser.parse": ("parser.parse_program",),
    "program.successors": ("program.successors",),
    "program.labeling": ("program.labeling",),
    "symmetry.canon": CANON,
    "symmetry.apply": ("symmetry.apply",),
    "counter.successors": ("counter.counter_successors",),
    "kripke.build": ("kripke.breadth_first_build",),
    "kripke.add_state": ("kripke.add_state",),
    "kripke.add_edge": ("kripke.add_edge",),
    "kripke.totalize": ("kripke.totalize",),
    "kripke.read": READS,
    "ctl.sat": ("ctl.sat_set",),
    "ctl.path": ("ctl.shortest_path",),
    "ctl.lift": ("ctl.lift_counterexample",),
    "cli.other": ("cli.run",),
}

# spans whose result is measured: output count, lift steps, built structure
COUNTED = ("program.successors", "counter.counter_successors")
MEASURED = COUNTED + ("ctl.lift_counterexample", "kripke.breadth_first_build")

# ancestor bits: a span is "under" sat_set / the build / the lift
UNDER_SAT, UNDER_BUILD, UNDER_LIFT = 1, 2, 4
_UNDER = {
    "ctl.sat_set": UNDER_SAT,
    "kripke.breadth_first_build": UNDER_BUILD,
    "ctl.lift_counterexample": UNDER_LIFT,
}


class Tracer:
    def __init__(self):
        self.name = array("B")
        self.parent = array("l")
        self.check = array("l")
        self.start = array("d")
        self.end = array("d")
        self.out = array("q")
        self._stack = []
        self.check_id = -1
        self.check_modes = {}
        self.builds = []  # (check id, structure, edges when the build returned)
        self._reduced = None
        self._aggregates = {}

    def begin_check(self, mode):
        self.check_id += 1
        self.check_modes[self.check_id] = mode

    def _measure(self, span, result):
        if span in COUNTED:
            return len(result)
        if span == "ctl.lift_counterexample":
            return result.steps
        if span == "kripke.breadth_first_build":
            structure = result[0]
            self.builds.append((self.check_id, structure, structure.num_edges))
            return structure.num_edges
        return 0

    def _wrap(self, fn, span):
        name_id = SPAN_NAMES.index(span)
        names, parents, checks = self.name, self.parent, self.check
        starts, ends, outs = self.start, self.end, self.out
        stack = self._stack
        clock = time.perf_counter
        measured = span in MEASURED

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            checks.append(self.check_id)
            outs.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measured:
                outs[idx] = self._measure(span, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        modules = [m for k, m in sys.modules.items() if k == "orbitmc" or k.startswith("orbitmc.")]
        patches = []
        for span, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
        for method in METHODS:
            original = KripkeStructure.__dict__[method]
            patches.append((KripkeStructure, method, original))
            setattr(KripkeStructure, method, self._wrap(original, f"kripke.{method}"))
        try:
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    # -- reduction ---------------------------------------------------------------

    def _reduce(self):
        """Per span: duration, time covered by its children, ancestor bits."""
        if self._reduced is None:
            n = len(self.start)
            dur = [e - s for s, e in zip(self.start, self.end)]
            covered = [0.0] * n
            under = bytearray(n)
            own = [_UNDER.get(name, 0) for name in SPAN_NAMES]
            names, parents = self.name, self.parent
            for i in range(n):
                p = parents[i]
                if p >= 0:
                    covered[p] += dur[i]
                    under[i] = under[p] | own[names[p]]
            self._reduced = dur, covered, under
        return self._reduced

    def _aggregate(self, check=None):
        """Per span name: [calls, total s, self s, out]; plus conditional counts."""
        if check not in self._aggregates:
            self._aggregates[check] = self._aggregate_spans(check)
        return self._aggregates[check]

    def _aggregate_spans(self, check):
        dur, covered, under = self._reduce()
        names, checks = self.name, self.check
        agg = {span: [0, 0.0, 0.0, 0] for span in SPAN_NAMES}
        cond = {}
        for i in range(len(dur)):
            if check is not None and checks[i] != check:
                continue
            span = SPAN_NAMES[names[i]]
            row = agg[span]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - covered[i]
            row[3] += self.out[i]
            key = (span, under[i], self.check_modes.get(checks[i]))
            c = cond.setdefault(key, [0, 0])
            c[0] += 1
            c[1] += self.out[i]
        return agg, cond

    def layer_self_times(self, check=None):
        agg, _ = self._aggregate(check)
        return {layer: sum(agg[s][2] for s in spans) for layer, spans in SELF_LAYERS.items()}

    def calls(self):
        agg, _ = self._aggregate()
        return {span: row[0] for span, row in agg.items()}

    def layer_metrics(self):
        """The per-layer metrics of the traced pass."""
        agg, cond = self._aggregate()

        def calls(*spans):
            return sum(agg[s][0] for s in spans)

        def total(*spans):
            return sum(agg[s][1] for s in spans)

        def out(span):
            return agg[span][3]

        def cond_sum(span, bit, mode=None, field=0):
            return sum(
                v[field]
                for (s, under, m), v in cond.items()
                if s == span and under & bit and (mode is None or m == mode)
            )

        canon_calls = calls(*CANON)
        quotient_generated = cond_sum("program.successors", UNDER_BUILD, "quotient", field=1)
        quotient_pairs = sum(
            len({(s, d) for s, a, d in st.edges() if a != STUTTER_ACTION})
            for c, st, _ in self.builds
            if self.check_modes[c] == "quotient"
        )
        stored = sum(e for _, _, e in self.builds)
        states = sum(st.num_states for _, st, _ in self.builds)
        build_add_edge = cond_sum("kripke.add_edge", UNDER_BUILD)
        return {
            "parser.parse_s": total("parser.parse_program"),
            "program.successors_s": total("program.successors"),
            "program.successors_calls": calls("program.successors"),
            "program.successors_out": out("program.successors"),
            "program.labeling_s": total("program.labeling"),
            "program.labeling_calls": calls("program.labeling"),
            "symmetry.canon_s": total(*CANON),
            "symmetry.canon_calls": canon_calls,
            "symmetry.apply_calls": calls("symmetry.apply"),
            "symmetry.apply_per_canon": calls("symmetry.apply") / canon_calls if canon_calls else 0.0,
            "quotient.useful_succ_ratio": (
                quotient_pairs / quotient_generated if quotient_generated else 0.0
            ),
            "quotient.edges": sum(e for c, _, e in self.builds if self.check_modes[c] == "quotient"),
            "counter.successors_s": total("counter.counter_successors"),
            "counter.successors_calls": calls("counter.counter_successors"),
            "counter.successors_out": out("counter.counter_successors"),
            "kripke.build_s": total("kripke.breadth_first_build"),
            "kripke.build_self_s": agg["kripke.breadth_first_build"][2],
            "kripke.add_state_s": total("kripke.add_state"),
            "kripke.add_state_calls": calls("kripke.add_state"),
            "kripke.add_edge_s": total("kripke.add_edge"),
            "kripke.add_edge_calls": calls("kripke.add_edge"),
            "kripke.edge_new_ratio": stored / build_add_edge if build_add_edge else 0.0,
            "kripke.totalize_s": total("kripke.totalize"),
            "kripke.states": states,
            "kripke.edges": stored,
            "kripke.bytes_per_state": (
                sum(deep_size(st) for _, st, _ in self.builds) / states if states else 0.0
            ),
            "kripke.read_s": total(*READS),
            "kripke.read_calls": calls(*READS),
            "ctl.sat_s": total("ctl.sat_set"),
            "ctl.eg_succ_calls": cond_sum("kripke.successors", UNDER_SAT),
            "ctl.eu_pred_calls": cond_sum("kripke.predecessors", UNDER_SAT),
            "ctl.path_s": total("ctl.shortest_path"),
            "ctl.lift_s": total("ctl.lift_counterexample"),
            "ctl.lift_steps": out("ctl.lift_counterexample"),
            "ctl.lift_canon_calls": sum(cond_sum(s, UNDER_LIFT) for s in CANON),
            "cli.other_s": agg["cli.run"][2],
        }


def deep_size(obj):
    """Bytes held by ``obj`` and everything it references, each object once."""
    seen = set()
    stack = [obj]
    size = 0
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        size += sys.getsizeof(o)
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif hasattr(o, "__dict__"):
            stack.append(vars(o))
    return size
