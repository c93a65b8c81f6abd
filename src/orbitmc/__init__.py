"""Explicit-state model checking for replicated guarded-command programs.

The package explores a concurrent program of n symmetric processes three
ways: the full interleaved state graph, its quotient under permutations
of process indices (canonical representatives), and the occupancy-count
abstraction, which presents the Sym(n) quotient of a pid-free program.
CTL properties are checked by fixpoints over one flag per state on any
of the three, and abstract counterexamples are lifted back to concrete
executions.
"""

__version__ = "0.1.0"

from .counter import (
    CounterState,
    counter_successors,
    from_counter,
    to_counter,
)
from .ctl import (
    Atom,
    CheckResult,
    EG,
    EU,
    EX,
    FalseF,
    Not,
    And,
    Or,
    TrueF,
    check,
    lift_counterexample,
    neg,
    parse_ctl,
    sat_set,
    shortest_path,
)
from .errors import (
    CheckerError,
    InternalError,
    ParseError,
    ResourceLimitError,
    UnsupportedModelError,
)
from .explore import (
    ModeComparison,
    MODES,
    build_counter_structure,
    build_full_structure,
    build_quotient,
    compare_modes,
    reach,
)
from .kripke import (
    BuildStats,
    DEFAULT_STATE_BOUND,
    INIT_PROP,
    KripkeStructure,
    Path,
    STUTTER_ACTION,
    breadth_first_build,
)
from .parser import (
    BUILTIN_NAMES,
    builtin_example,
    builtin_source,
    parse_program,
)
from .program import (
    GlobalState,
    GuardedCommand,
    Program,
    atomic_props,
    labeling,
    render_state,
    successors,
)
from .quotient import (
    QuotientStructure,
    check_bisimulation,
    orbit_size_sorted,
)
from .symmetry import (
    PermGroup,
    Permutation,
    apply,
    compose,
    full_symmetric,
    generated_group,
    group_elements,
    identity,
    inverse,
    is_automorphism,
    orbit,
    pinned_processes,
    rep_min,
    rep_sort,
    rotation,
    transposition,
)
