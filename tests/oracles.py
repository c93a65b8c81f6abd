"""Independent oracles the tests check the package against.

Everything here computes expected values by enumeration, closed forms or
plain graph search over an already-built structure, never through the
code paths under test.
"""

from collections import deque
from itertools import permutations, product

from orbitmc import GlobalState, Permutation, apply


def mutex_reachable_states(n):
    """All mutex configurations: local tuples over {T,W,C} with <= 1 C.

    pc indices follow the builtin's declaration order T=0, W=1, C=2.
    """
    states = set()
    for combo in product((0, 1, 2), repeat=n):
        if sum(1 for v in combo if v == 2) <= 1:
            states.add(GlobalState((), tuple((v,) for v in combo)))
    return states


def mutex_count_closed_form(n):
    """2^n all-noncritical states plus n * 2^(n-1) single-C states."""
    return 2**n + n * 2 ** (n - 1)


def all_permutations(n):
    return [Permutation(p) for p in permutations(range(n))]


def orbit_by_full_enumeration(state):
    return {apply(p, state) for p in all_permutations(state.n)}


def min_image_by_full_enumeration(state):
    return min(orbit_by_full_enumeration(state), key=GlobalState.encode)


def random_state(rng, n, num_pcs=3, num_locals=2, num_shared=2):
    """A random pid-free global state over a synthetic shape."""
    shared = tuple(rng.randint(0, 1) for _ in range(num_shared))
    locs = tuple(
        (rng.randrange(num_pcs),) + tuple(rng.randint(0, 1) for _ in range(num_locals))
        for _ in range(n)
    )
    return GlobalState(shared, locs)


def random_pid_state(rng, n, num_pid_slots, num_pcs=3, num_locals=1):
    """A random global state with ``num_pid_slots`` pid-typed shared slots.

    The pid slots follow one boolean slot; their values are drawn from
    0..n, so ``none`` (encoded as n) and one process named by several
    slots both occur.  Few local shapes make equal records common.
    """
    shared = (rng.randint(0, 1),) + tuple(rng.randint(0, n) for _ in range(num_pid_slots))
    locs = tuple(
        (rng.randrange(num_pcs),) + tuple(rng.randint(0, 1) for _ in range(num_locals))
        for _ in range(n)
    )
    return GlobalState(shared, locs, tuple(range(1, num_pid_slots + 1)))


def backward_bfs(structure, targets):
    """All states that can reach ``targets``, including the targets."""
    seen = set(targets)
    queue = deque(seen)
    while queue:
        t = queue.popleft()
        for s, _ in structure.predecessors(t):
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return seen


def shortest_distance(structure, sources, targets):
    """Length of a shortest edge path from any source to any target."""
    targets = set(targets)
    dist = {s: 0 for s in sources}
    queue = deque(sorted(sources))
    while queue:
        s = queue.popleft()
        if s in targets:
            return dist[s]
        for _, t in structure.successors(s):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return None
