import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_l21.colouring import (
    BACKWARD,
    BLACK,
    FORWARD,
    UNORIENTED,
    WHITE,
    ColouredOrientation,
    extendable_boundary_patterns,
    is_good_orientation,
    solve_2cpm,
    solve_almost_2cpm,
    verify_2cpm,
    verify_coloured_orientation,
)
from planar_l21.errors import ValidationError
from planar_l21.gadgets import build_H, build_aux_edge
from planar_l21.graphs import edge_key

from conftest import cycle_graph, make_graph, path_graph, random_graph, star_graph
from oracles import enumerate_2cpm_bitmask, verify_almost_2cpm

# one of the six almost-matchings of the base gadget, black side listed
_H_BLACK = {"a", "b", "e", "h", "i", "j", "k", "l"}


def white_sets(g):
    """Every almost-2CPM of g as its white set (bit v set when v is white),
    ascending: the boundary projection with every vertex on the boundary."""
    return extendable_boundary_patterns(g, range(g.n))


def colouring_of(w, n):
    return {v: WHITE if w >> v & 1 else BLACK for v in range(n)}


def almost_sweep(g):
    """The same white sets by sweeping all 2^n colourings."""
    return [w for w in range(1 << g.n) if verify_almost_2cpm(g, colouring_of(w, g.n))]


def h_colouring():
    inst = build_H()
    return inst, {v.id: (BLACK if v.name in _H_BLACK else WHITE) for v in inst.graph.vertices}


def test_single_edge_both_black_is_2cpm():
    g = make_graph(2, [(0, 1)])
    assert verify_2cpm(g, {0: BLACK, 1: BLACK})
    assert not verify_2cpm(g, {0: BLACK, 1: WHITE})


def test_triangle_has_no_2cpm_all_eight(triangle):
    for bits in itertools.product([BLACK, WHITE], repeat=3):
        assert not verify_2cpm(triangle, dict(enumerate(bits)))
    assert solve_2cpm(triangle) is None


def test_h_figure_colouring_is_almost_but_not_full():
    inst, colouring = h_colouring()
    assert verify_almost_2cpm(inst.graph, colouring)
    assert not verify_2cpm(inst.graph, colouring)


def test_almost_examples():
    g = make_graph(2, [(0, 1)])
    assert verify_almost_2cpm(g, {0: BLACK, 1: WHITE})  # both endpoints degree 1
    p = path_graph(3)
    assert not verify_almost_2cpm(p, {0: BLACK, 1: BLACK, 2: BLACK})


def test_partial_colouring_rejected():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ValidationError):
        verify_2cpm(g, {0: BLACK})


def test_enumerate_h_has_six_matchings():
    inst, colouring = h_colouring()
    found = white_sets(inst.graph)
    assert len(found) == 6
    for w in found:
        assert verify_almost_2cpm(inst.graph, colouring_of(w, inst.graph.n))
    assert sum(1 << v for v, c in colouring.items() if c == WHITE) in found


def test_enumerate_h_core_subgraph():
    # The 9-vertex core of the base gadget.  Of the figure's three depicted
    # restrictions only two satisfy the almost-matching condition inside the
    # subgraph itself (the third leaves the top fork vertex unmatched, its
    # partner lives outside), so with colour swaps the subgraph admits
    # exactly four colourings.  Cross-checked against a full sweep.
    inst = build_H()
    keep = sorted(v.id for v in inst.graph.vertices if v.name in set("cefmijkoq"))
    remap = {old: new for new, old in enumerate(keep)}
    byname = {v.name: remap[v.id] for v in inst.graph.vertices if v.id in remap}
    edges = [
        (remap[u], remap[v])
        for u, v in inst.graph.sorted_edges()
        if u in remap and v in remap
    ]
    sub = make_graph(len(keep), edges)
    found = white_sets(sub)
    assert found == almost_sweep(sub) and len(found) == 4
    assert sum(1 << byname[n] for n in "fmij") in found  # the depicted colouring's white side


def test_enumerate_single_vertex():
    assert white_sets(make_graph(1, [])) == [0, 1]  # black, then white


def test_solver_first_solutions_are_canonical():
    assert solve_2cpm(make_graph(2, [(0, 1)])) == {0: BLACK, 1: BLACK}
    assert solve_2cpm(cycle_graph(4)) == {0: BLACK, 1: BLACK, 2: WHITE, 3: WHITE}


def test_solver_respects_pins():
    g = cycle_graph(4)
    pinned = solve_2cpm(g, {0: WHITE})
    assert pinned[0] == WHITE and verify_2cpm(g, pinned)
    assert solve_2cpm(g, {0: BLACK, 1: WHITE, 2: BLACK}) is None
    with pytest.raises(ValidationError):
        solve_2cpm(g, {9: BLACK})


def test_solver_agrees_with_bitmask_sweep():
    rng = random.Random(4242)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.7))
        found = solve_2cpm(g)
        sweep = enumerate_2cpm_bitmask(g)
        assert (found is not None) == (len(sweep) > 0)
        if found is not None:
            assert verify_2cpm(g, found)


def test_solver_handles_many_disjoint_edges():
    # one branching level per edge: a recursive search overflows the stack
    g = make_graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
    found = solve_2cpm(g)
    assert found == {v: BLACK for v in range(2400)}


def test_extendable_boundary_patterns_match_pinned_solves():
    rng = random.Random(77)
    cases = []
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 11), rng.uniform(0.15, 0.6))
        cases.append((g, rng.sample(range(g.n), rng.randint(1, min(5, g.n)))))
    # repeated boundary vertices, isolated vertices, no edges, an empty boundary
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = random_graph(rng, n, rng.choice([0.0, 0.2, 0.5])).sorted_edges()
        g = make_graph(n + rng.randint(0, 2), edges)
        cases.append((g, [rng.randrange(g.n) for _ in range(rng.randint(0, 6))]))
    cases.append((make_graph(3, []), [2, 0, 2, 1]))
    for g, boundary in cases:
        expected = []
        for bits in range(1 << len(boundary)):
            colours = [WHITE if (bits >> i) & 1 else BLACK for i in range(len(boundary))]
            pins = dict(zip(boundary, colours))
            if all(pins[v] == c for v, c in zip(boundary, colours)):  # one colour per vertex
                if solve_almost_2cpm(g, pins) is not None:
                    expected.append(bits)
        assert extendable_boundary_patterns(g, boundary) == expected


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_colour_swap_symmetry(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.7))
    found = white_sets(g)
    assert found == almost_sweep(g)
    full = (1 << g.n) - 1
    assert {w ^ full for w in found} == set(found)
    if any(g.degree(v) >= 2 for v in range(g.n)):
        assert len(found) % 2 == 0


def aux_good_pattern():
    """The reference pattern: endpoints and pendants black, cycle white,
    four-cycle oriented as a directed circuit."""
    inst = build_aux_edge()
    ids = {v.name: v.id for v in inst.graph.vertices}
    colouring = {}
    for name in ("u", "v", "in", "out"):
        colouring[ids[name]] = BLACK
    for name in ("cu", "cin", "cv", "cout"):
        colouring[ids[name]] = WHITE
    orientation = {e: UNORIENTED for e in inst.graph.sorted_edges()}

    def orient(a, b):
        orientation[edge_key(ids[a], ids[b])] = FORWARD if ids[a] < ids[b] else BACKWARD

    orient("cu", "cin")
    orient("cin", "cv")
    orient("cv", "cout")
    orient("cout", "cu")
    return inst, ids, ColouredOrientation(colouring, orientation)


def test_aux_reference_orientation_is_valid_and_good():
    inst, ids, co = aux_good_pattern()
    outs = {ids["out"]}
    assert verify_coloured_orientation(inst.graph, co, outs)
    assert is_good_orientation(inst.graph, co, outs)


def test_unoriented_monochromatic_edge_fails():
    inst, ids, co = aux_good_pattern()
    broken = dict(co.orientation)
    broken[edge_key(ids["cu"], ids["cin"])] = UNORIENTED
    assert not verify_coloured_orientation(
        inst.graph, ColouredOrientation(co.colouring, broken), {ids["out"]}
    )


def test_oriented_dichromatic_edge_is_structural_error():
    inst, ids, co = aux_good_pattern()
    broken = dict(co.orientation)
    broken[edge_key(ids["u"], ids["cu"])] = FORWARD
    with pytest.raises(ValidationError):
        verify_coloured_orientation(
            inst.graph, ColouredOrientation(co.colouring, broken), {ids["out"]}
        )


@pytest.mark.parametrize("extra", ["reversed key", "extra pair"])
def test_a_foreign_orientation_entry_is_named(extra):
    inst, ids, co = aux_good_pattern()
    u, v = edge_key(ids["cu"], ids["cin"])
    foreign = (v, u) if extra == "reversed key" else edge_key(ids["u"], ids["v"])
    assert foreign not in inst.graph.sorted_edges()
    broken = {**co.orientation, foreign: UNORIENTED}
    with pytest.raises(ValidationError, match=rf"^orientation names foreign edge \({foreign[0]}, {foreign[1]}\)$"):
        verify_coloured_orientation(inst.graph, ColouredOrientation(co.colouring, broken), {ids["out"]})


def test_out_vertex_with_incoming_edge_fails():
    inst, ids, co = aux_good_pattern()
    colouring = dict(co.colouring)
    colouring[ids["out"]] = WHITE  # now matches cout; the edge must be oriented
    orientation = dict(co.orientation)
    orientation[edge_key(ids["cout"], ids["out"])] = (
        FORWARD if ids["cout"] < ids["out"] else BACKWARD
    )
    co2 = ColouredOrientation(colouring, orientation)
    assert not verify_coloured_orientation(inst.graph, co2, {ids["out"]})
    # the same pattern is a legal orientation when nothing is tagged "out"
    assert verify_coloured_orientation(inst.graph, co2, set())


def test_good_needs_indegree_and_outdegree_one():
    g = star_graph(3)
    colouring = {0: BLACK, 1: BLACK, 2: BLACK, 3: WHITE}
    orientation = {
        edge_key(0, 1): FORWARD,
        edge_key(0, 2): FORWARD,
        edge_key(0, 3): UNORIENTED,
    }
    co = ColouredOrientation(colouring, orientation)
    assert verify_coloured_orientation(g, co, set())
    assert not is_good_orientation(g, co, set())  # outdegree 2, indegree 0


def test_good_vacuous_without_degree_three_vertices():
    g = make_graph(2, [(0, 1)])
    co = ColouredOrientation({0: BLACK, 1: BLACK}, {(0, 1): FORWARD})
    assert is_good_orientation(g, co, set())


def test_good_precondition_enforced():
    g = make_graph(2, [(0, 1)])
    co = ColouredOrientation({0: BLACK, 1: BLACK}, {(0, 1): UNORIENTED})
    with pytest.raises(ValidationError):
        is_good_orientation(g, co, set())

