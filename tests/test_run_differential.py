"""The run-length Sym(n) kernel against an oracle that canonicalizes the
full structure with ``rep_min``.

The quotient and the counter abstraction are two views of one structure
over run-length keys; on random programs of both kinds they must give
exactly the representatives, labels, initial states, edges, actions and
orbit sizes that canonicalizing every concrete state gives.
"""

import random

import pytest

from orbitmc import build_counter_structure, build_quotient

from oracles import quotient_by_rep_min
from test_differential import random_pid_program, random_program


def assert_views_match_the_oracle(program):
    oracle = quotient_by_rep_min(program)
    quotient = build_quotient(program, state_bound=50_000)
    structure = quotient.structure
    payload = structure.payload
    assert {payload(sid) for sid in structure.states()} == oracle["payloads"]
    assert structure.num_states == len(oracle["payloads"])
    for sid in structure.states():
        assert structure.label_of(sid) == oracle["labels"][payload(sid)], payload(sid)
        assert quotient.orbit_sizes[sid] == oracle["orbit_sizes"][payload(sid)], payload(sid)
    assert {payload(sid) for sid in structure.init} == oracle["init"]
    assert {(payload(s), payload(t)) for s, _, t in structure.edges()} == oracle["edges"]
    assert {(payload(s), a, payload(t)) for s, a, t in structure.edges()} == oracle["actions"]
    if program.pid_slots:
        return
    counter = build_counter_structure(program, state_bound=50_000)
    cpayload = counter.payload
    got = {(cpayload(s), a, cpayload(t)) for s, a, t in counter.edges()}
    assert got == oracle["counter_edges"]
    assert counter.num_edges == structure.num_edges == len(got)


@pytest.mark.parametrize("seed", range(40))
def test_run_length_views_match_the_oracle_on_random_programs(seed):
    rng = random.Random(1000 + seed)
    assert_views_match_the_oracle(random_program(rng, rng.randint(2, 4)))


@pytest.mark.parametrize("seed", range(40))
def test_run_length_quotient_matches_the_oracle_on_random_pid_programs(seed):
    rng = random.Random(7000 + seed)
    assert_views_match_the_oracle(random_pid_program(rng, rng.randint(2, 3)))
