import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_l21.errors import CapacityError, ValidationError
from planar_l21.gadgets import build_edge_gadget
from planar_l21.labelling import (
    EXHAUSTED,
    SAT,
    UNSAT,
    Labelling,
    compute_min_span,
    distance2_pairs,
    enumerate_boundary_behaviour,
    labelling_from_json,
    labelling_to_json,
    solve_labelling,
    solve_labelling_bruteforce,
    verify_labelling,
    _LabelSearch,
)
from planar_l21.graphs import PortMap

from conftest import (
    complete_graph,
    cycle_graph,
    make_graph,
    path_graph,
    random_graph,
    star_graph,
)


def test_verify_examples():
    p4 = path_graph(4)
    assert verify_labelling(p4, Labelling(4, {0: 0, 1: 2, 2: 4, 3: 0}))
    edge = make_graph(2, [(0, 1)])
    assert not verify_labelling(edge, Labelling(4, {0: 0, 1: 1}))
    tri = complete_graph(3)
    assert verify_labelling(tri, Labelling(4, {0: 0, 1: 2, 2: 4}))


def test_verify_rejects_partial_or_out_of_range():
    edge = make_graph(2, [(0, 1)])
    with pytest.raises(ValidationError):
        verify_labelling(edge, Labelling(4, {0: 0}))
    with pytest.raises(ValidationError, match="vertex 2"):
        verify_labelling(edge, Labelling(4, {0: 0, 1: 2, 2: 4}))
    with pytest.raises(ValidationError):
        Labelling(4, {0: 5})


def test_distance2_excludes_adjacent_pairs():
    assert distance2_pairs(complete_graph(3)) == set()
    assert distance2_pairs(path_graph(3)) == {(0, 2)}


def test_solver_examples():
    assert solve_labelling(cycle_graph(5), 4).outcome == SAT
    assert solve_labelling(star_graph(4), 4).outcome == UNSAT
    assert solve_labelling_bruteforce(star_graph(4), 4).outcome == UNSAT


def test_g5_with_pinned_ends_forces_inner_labels():
    inst = build_edge_gadget(5)
    u, v, au, av = (inst.port(n) for n in ("u", "v", "a_u", "a_v"))
    sat_pairs = set()
    for xau in range(6):
        for xav in range(6):
            result = solve_labelling(inst.graph, 5, {u: 0, v: 5, au: xau, av: xav})
            if result.is_sat:
                sat_pairs.add((xau, xav))
    assert sat_pairs == {(4, 1)}


def test_bruteforce_examples():
    p3 = path_graph(3)
    assert solve_labelling_bruteforce(p3, 2).outcome == UNSAT
    assert solve_labelling_bruteforce(p3, 3).outcome == SAT
    single = make_graph(1, [])
    result = solve_labelling_bruteforce(single, 0)
    assert result.outcome == SAT and result.labelling.labels == {0: 0}


def test_bruteforce_capacity():
    with pytest.raises(CapacityError):
        solve_labelling_bruteforce(make_graph(40, []), 4)


def test_inconsistent_pins_unsat_with_reason():
    edge = make_graph(2, [(0, 1)])
    result = solve_labelling(edge, 4, {0: 0, 1: 1})
    assert result.outcome == UNSAT and "adjacency" in result.reason
    d2 = path_graph(3)
    result = solve_labelling(d2, 4, {0: 3, 2: 3})
    assert result.outcome == UNSAT and "distance two" in result.reason


def test_pins_validated():
    edge = make_graph(2, [(0, 1)])
    with pytest.raises(ValidationError):
        solve_labelling(edge, 4, {0: 9})
    with pytest.raises(ValidationError):
        solve_labelling(edge, 4, {7: 0})


def test_budget_exhaustion_is_deterministic():
    g = random_graph(random.Random(7), 14, 0.35)
    a = solve_labelling(g, 4, budget=25)
    b = solve_labelling(g, 4, budget=25)
    assert a.outcome == b.outcome and a.nodes == b.nodes
    full = solve_labelling(g, 4)
    assert full.outcome in (SAT, UNSAT)


def test_boundary_behaviour_g4():
    inst = build_edge_gadget(4)
    observed = enumerate_boundary_behaviour(inst.graph, inst.ports, 4, {0, 4})
    assert observed == {
        (0, 0, 2, 4),
        (0, 0, 4, 2),
        (4, 4, 0, 2),
        (4, 4, 2, 0),
        (4, 0, 1, 3),
        (0, 4, 3, 1),
    }


def test_boundary_behaviour_g5_has_ten_tuples():
    inst = build_edge_gadget(5)
    observed = enumerate_boundary_behaviour(inst.graph, inst.ports, 5, {0, 5})
    assert len(observed) == 10
    assert {(t[0], t[1], t[2], t[3]) for t in observed if (t[0], t[1]) == (0, 0)} == {
        (0, 0, 2, 5),
        (0, 0, 5, 2),
        (0, 0, 3, 5),
        (0, 0, 5, 3),
    }


def test_boundary_behaviour_rejects_identified_ports():
    edge = make_graph(2, [(0, 1)])
    ports = PortMap({"u": 0, "v": 1, "a_u": 0, "a_v": 1})
    with pytest.raises(ValidationError):
        enumerate_boundary_behaviour(edge, ports, 4, {0, 4})


def test_min_span_examples():
    assert compute_min_span(make_graph(1, [])) == 0
    assert compute_min_span(path_graph(3)) == 3
    assert compute_min_span(complete_graph(3)) == 4
    with pytest.raises(ValidationError):
        compute_min_span(make_graph(0, []))


def test_min_span_exhausted_propagates():
    g = random_graph(random.Random(3), 14, 0.5)
    assert compute_min_span(g, budget=5) == EXHAUSTED


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([4, 5, 6]))
def test_label_complement_symmetry(seed, k):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.6))
    result = solve_labelling(g, k)
    if result.is_sat:
        flipped = Labelling(k, {v: k - x for v, x in result.labelling.labels.items()})
        assert verify_labelling(g, flipped)


def test_degree_forcing_on_witnesses():
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        k = rng.choice([4, 5, 6])
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.3, 0.8))
        result = solve_labelling(g, k)
        if not result.is_sat:
            continue
        for v in range(g.n):
            if g.degree(v) >= k - 1:
                assert result.labelling.labels[v] in (0, k)
                checked += 1
    assert checked > 0


def test_oracle_equivalence_sample():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.15, 0.7))
        k = rng.choice([4, 5, 6])
        assert solve_labelling(g, k).outcome == solve_labelling_bruteforce(g, k).outcome


def test_labelling_serialization_round_trip():
    lab = Labelling(4, {0: 0, 1: 2})
    assert labelling_from_json(labelling_to_json(lab)) == lab


def _has_sdr(masks):
    """Brute force: some choice of one label per mask is pairwise distinct."""
    choices = [[x for x in range(mask.bit_length()) if mask >> x & 1] for mask in masks]
    return any(len(set(pick)) == len(pick) for pick in itertools.product(*choices))


def test_hall_check_matches_bruteforce_sdr():
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        leaves = rng.randint(3, 6)
        k = rng.randint(4, 7)
        search = _LabelSearch(star_graph(leaves), k)
        # the AND of two random masks keeps domains small enough to fail often
        masks = [(rng.randint(1, search.full) & rng.randint(1, search.full)) or 1 for _ in range(leaves)]
        search.domains = [search.full] + masks
        expected = _has_sdr(masks)
        assert search._hall_check(set(range(1, leaves + 1))) == expected, (k, masks)
        seen.add(expected)
    assert seen == {True, False}


def _verify_by_distance2_pairs(graph, labelling):
    """Reference checker straight from the definition: every edge keeps a
    gap of 2 and every distance-two pair differs."""
    lab = labelling.labels
    return all(abs(lab[u] - lab[v]) >= 2 for u, v in graph.edges) and all(
        lab[u] != lab[v] for u, v in distance2_pairs(graph)
    )


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_verify_matches_distance2_reference(seed):
    rng = random.Random(seed)
    k = rng.choice([4, 5, 6])
    g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.15, 0.5))
    candidates = [Labelling(k, {v: rng.randint(0, k) for v in range(g.n)}) for _ in range(5)]
    mutants = []
    result = solve_labelling(g, k)
    if result.is_sat:
        witness = result.labelling.labels
        candidates.append(result.labelling)
        pairs = sorted(distance2_pairs(g))
        if pairs:  # one distance-two collision
            u, v = rng.choice(pairs)
            mutants.append(Labelling(k, {**witness, v: witness[u]}))
        if g.edges:  # one gap violation
            u, v = rng.choice(sorted(g.edges))
            mutants.append(Labelling(k, {**witness, v: min(witness[u] + 1, k)}))
    for lab in candidates + mutants:
        assert verify_labelling(g, lab) == _verify_by_distance2_pairs(g, lab)
    if result.is_sat:
        assert verify_labelling(g, result.labelling)
    assert not any(verify_labelling(g, lab) for lab in mutants)
