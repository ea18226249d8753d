import gc
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_l21.errors import CapacityError, ValidationError
from planar_l21.gadgets import build_edge_gadget, build_Hprime, certify_Hprime
from planar_l21.labelling import (
    EXHAUSTED,
    SAT,
    UNSAT,
    Labelling,
    enumerate_boundary_behaviour,
    labelling_from_json,
    labelling_to_json,
    solve_labelling,
    verify_labelling,
    _GapMasks,
    _HALL_VERDICTS,
    _LabelSearch,
    _gap_table,
)

from conftest import (
    complete_graph,
    cycle_graph,
    make_graph,
    path_graph,
    random_graph,
    star_graph,
)
from oracles import (
    boundary_table,
    distance2_pairs,
    pin_conflict,
    pinned_extensions,
    propagate_to_fixpoint,
    solve_labelling_bruteforce,
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
    assert complete_graph(3).distance2 == ((), (), ())
    assert path_graph(3).distance2 == ((2,), (), (0,))


def test_solver_examples():
    assert solve_labelling(cycle_graph(5), 4).outcome == SAT
    assert solve_labelling(star_graph(4), 4).outcome == UNSAT
    assert solve_labelling_bruteforce(star_graph(4), 4).outcome == UNSAT


def test_g5_with_pinned_ends_forces_inner_labels():
    inst = build_edge_gadget(5)
    u, v, au, av = (inst.ports[n] for n in ("u", "v", "a_u", "a_v"))
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


def test_pin_conflicts_match_the_all_pairs_reference_on_random_graphs():
    # the solver looks at each pin's pinned neighbours and distance-two
    # vertices only; the reference compares every pair of pins
    rng = random.Random(20261022)
    found = Counter()
    for _ in range(400):
        k = rng.randint(3, 8)
        graph = random_graph(rng, rng.randint(2, 24), rng.uniform(0.05, 0.3))
        pins = {v: rng.randint(0, k) for v in rng.sample(range(graph.n), rng.randint(0, graph.n))}
        reason = solve_labelling(graph, k, pins, budget=0).reason
        observed = reason if reason and reason.startswith("pins ") else None
        expected = pin_conflict(graph, pins)
        assert observed == expected, (k, graph.sorted_edges(), pins)
        found[None if expected is None else expected.split()[-1]] += 1
    assert min(found[None], found["gap"], found["two"]) >= 40, found


def test_a_solve_with_40000_pins_takes_linear_time():
    # comparing every pair of pins, as `pin_conflict` does, takes about a
    # minute at 40,000 pins on a 2-core host; the solver's scan of each pin's
    # neighbourhood takes under a second
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from planar_l21.labelling import solve_labelling\n"
        "from conftest import path_graph\n"
        "path = path_graph(40000)\n"
        "pins = {v: (0, 2, 4)[v % 3] for v in range(path.n)}\n"
        "result = solve_labelling(path, 4, pins)\n"
        "assert result.is_sat and result.labelling.labels == pins\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=20)


def test_degree_reason_at_span_zero():
    # at k = 0 only a vertex of degree 0 is labellable
    assert solve_labelling(make_graph(1, []), 0).is_sat
    result = solve_labelling(path_graph(2), 0)
    assert result.outcome == UNSAT and result.reason == "a vertex of degree >= 1 cannot be labelled"


def test_pins_validated():
    edge = make_graph(2, [(0, 1)])
    with pytest.raises(ValidationError):
        solve_labelling(edge, 4, {0: 9})
    with pytest.raises(ValidationError):
        solve_labelling(edge, 4, {7: 0})
    for graph in (path_graph(3), make_graph(2, [])):
        with pytest.raises(ValidationError, match="span"):
            solve_labelling(graph, -1)
    with pytest.raises(ValidationError, match="budget"):
        solve_labelling(edge, 4, budget=-3)
    assert solve_labelling(edge, 4, budget=0).outcome == EXHAUSTED


def test_budget_exhaustion_is_deterministic():
    g = random_graph(random.Random(7), 14, 0.35)
    a = solve_labelling(g, 4, budget=25)
    b = solve_labelling(g, 4, budget=25)
    assert a.outcome == b.outcome and a.nodes == b.nodes
    full = solve_labelling(g, 4)
    assert full.outcome in (SAT, UNSAT)


def test_boundary_behaviour_g4():
    inst = build_edge_gadget(4)
    boundary = [inst.ports[name] for name in ("u", "v", "a_u", "a_v")]
    observed = enumerate_boundary_behaviour(inst.graph, 4, boundary, [(0, 4), (0, 4), range(5), range(5)])
    assert observed.keys() == {
        (0, 0, 2, 4),
        (0, 0, 4, 2),
        (4, 4, 0, 2),
        (4, 4, 2, 0),
        (4, 0, 1, 3),
        (0, 4, 3, 1),
    }


def test_boundary_behaviour_g5_has_ten_tuples():
    inst = build_edge_gadget(5)
    boundary = [inst.ports[name] for name in ("u", "v", "a_u", "a_v")]
    observed = enumerate_boundary_behaviour(inst.graph, 5, boundary, [(0, 5), (0, 5), range(6), range(6)])
    assert len(observed) == 10
    assert {(t[0], t[1], t[2], t[3]) for t in observed if (t[0], t[1]) == (0, 0)} == {
        (0, 0, 2, 5),
        (0, 0, 5, 2),
        (0, 0, 3, 5),
        (0, 0, 5, 3),
    }


def test_boundary_behaviour_rejects_identified_ports():
    edge = make_graph(2, [(0, 1)])
    with pytest.raises(ValidationError):
        enumerate_boundary_behaviour(edge, 4, [0, 1, 0, 1], [(0, 4), (0, 4), range(5), range(5)])


@pytest.mark.parametrize(
    "graph, k, boundary, domains, refuted",
    [
        (path_graph(3), 4, [0, 1], [range(5), range(5)], (2, 3)),
        (path_graph(3), 4, [0, 2], [range(5), range(5)], (1, 1)),
        (star_graph(3), 4, [0, 1], [range(5), range(5)], (2, 0)),
        (path_graph(3), 4, [0, 1], [range(5), []], None),
        (cycle_graph(5), 4, [], [], None),
        (complete_graph(4), 4, [], [], None),
        (star_graph(4), 4, [1, 2], [range(5), range(5)], (0, 2)),
        (complete_graph(4), 4, [0, 1], [range(5), range(5)], (0, 4)),
    ],
    ids=[
        "adjacent pins one apart",
        "equal labels at distance two",
        "degree k-1 pinned inside (0,k)",
        "empty domain",
        "empty boundary",
        "empty boundary, root fails",
        "vertex of degree k",
        "root Hall check fails",
    ],
)
def test_boundary_enumeration_matches_fresh_solves(graph, k, boundary, domains, refuted):
    observed = enumerate_boundary_behaviour(graph, k, boundary, domains)
    assert observed == boundary_table(graph, k, boundary, domains)
    if refuted is not None:
        assert refuted not in observed
        result = solve_labelling(graph, k, dict(zip(boundary, refuted)))
        assert (result.outcome, result.nodes) == (UNSAT, 0)


def test_boundary_enumeration_matches_fresh_solves_on_random_graphs():
    rng = random.Random(20261019)
    sat_tuples = 0
    for _ in range(300):
        k = rng.randint(3, 7)
        g = random_graph(rng, rng.randint(3, 11), rng.uniform(0.15, 0.5))
        boundary = rng.sample(range(g.n), rng.randint(0, min(3, g.n)))
        domains = [rng.sample(range(k + 1), rng.randint(0, k + 1)) for _ in boundary]
        observed = enumerate_boundary_behaviour(g, k, boundary, domains)
        assert observed == boundary_table(g, k, boundary, domains)
        if g.n <= 7:  # and, tuples only, against the brute-force oracle, which shares no solver code
            assert observed.keys() == boundary_table(g, k, boundary, domains, solve_labelling_bruteforce).keys()
        sat_tuples += len(observed)
    assert sat_tuples > 1000


def _extension_case(rng, kind):
    """A seeded (graph, k, boundary, domains) of one kind of enumeration."""
    k = rng.randint(4, 7)
    n = rng.randint(k + 2, 11)
    edges = {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.3}
    if kind == "a vertex of degree >= k":
        hub = rng.randrange(n)
        edges |= {tuple(sorted((hub, u))) for u in rng.sample([u for u in range(n) if u != hub], k)}
    graph = make_graph(n, sorted(edges))
    boundary = rng.sample(range(n), rng.randint(1, 3))
    domains = [rng.sample(range(k + 1), rng.randint(1, k + 1)) for _ in boundary]
    if kind == "empty boundary":
        boundary, domains = [], []
    elif kind == "an empty domain":
        domains[rng.randrange(len(domains))] = []
    elif kind == "repeated labels":
        i = rng.randrange(len(domains))
        domains[i] = rng.choices(domains[i], k=len(domains[i]) + 3)
    elif kind in ("pins adjacent", "pins at distance two"):
        pairs = sorted(edges) if kind == "pins adjacent" else sorted(distance2_pairs(graph))
        if pairs:  # both ends pinned to labels that clash there, among others
            u, v = rng.choice(pairs)
            x = rng.randint(1, k - 1)
            near = [x - 1, x, x + 1] if kind == "pins adjacent" else [x]
            boundary = [u, v] + [w for w in boundary if w not in (u, v)][:1]
            clashing = [[x] + rng.sample(range(k + 1), 2), near + rng.sample(range(k + 1), 2)]
            domains = clashing + domains[: len(boundary) - 2]
    return graph, k, boundary, domains


@pytest.mark.parametrize(
    "kind",
    [
        "empty boundary",
        "an empty domain",
        "repeated labels",
        "a vertex of degree >= k",
        "pins adjacent",
        "pins at distance two",
    ],
)
def test_boundary_walk_matches_pinned_solves(kind):
    # the walk against one pinned solve per tuple of the product, on a fresh
    # search and on the walk's own, and against fresh solve_labelling calls,
    # witnesses included
    rng = random.Random(f"walk {kind}")
    sat = 0
    for _ in range(60):
        graph, k, boundary, domains = _extension_case(rng, kind)
        search = _LabelSearch(graph, k)
        observed = search.extensions(boundary, domains)
        assert observed == pinned_extensions(_LabelSearch(graph, k), boundary, domains)
        assert observed == pinned_extensions(search, boundary, domains)
        assert observed == boundary_table(graph, k, boundary, domains)
        sat += len(observed)
    assert sat > 0 or kind in ("an empty domain", "a vertex of degree >= k")


def test_a_walk_and_a_solve_over_every_vertex_of_a_long_path_need_no_recursion():
    # 5,000 boundary vertices, each with a one-label domain, and the same
    # 5,000 pins: the walk keeps its levels on an explicit stack, so both
    # finish under the default recursion limit
    path = path_graph(5000)
    pins = {v: (0, 2, 4)[v % 3] for v in range(path.n)}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        walked = enumerate_boundary_behaviour(path, 4, list(pins), [[x] for x in pins.values()])
        result = solve_labelling(path, 4, pins)
    finally:
        sys.setrecursionlimit(limit)
    assert list(walked) == [tuple(pins.values())] and walked[tuple(pins.values())].labels == pins
    assert result.is_sat and result.labelling.labels == pins


def test_boundary_walk_checks_every_witness(monkeypatch):
    import planar_l21.labelling as labelling

    search = _LabelSearch(path_graph(3), 4)
    assert search.extensions([0], [[0]]).keys() == {(0,)}
    monkeypatch.setattr(labelling, "verify_labelling", lambda graph, labelling: False)
    with pytest.raises(AssertionError, match="invalid witness"):
        search.extensions([0], [[0]])


def assert_shared_search_matches_fresh_solves(graph, k, queries):
    """Run every (boundary, domains) query, in order, as an enumeration on
    one search; each must give the table of fresh per-tuple solves,
    witnesses included.  Then
    the first query's tuples, solved once more on that used search, must
    give a fresh solve's outcome, node count, witness and reason."""
    search = _LabelSearch(graph, k)
    tables = []
    for boundary, domains in queries:
        tables.append(search.extensions(boundary, domains))
        assert tables[-1] == boundary_table(graph, k, boundary, domains)
    boundary, domains = queries[0]
    for labels in itertools.product(*domains):
        pins = dict(zip(boundary, labels))
        assert search.solve(pins, None) == solve_labelling(graph, k, pins)
    return tables


def test_shared_search_enumerations_match_fresh_solves_on_random_graphs():
    # per graph: a query with many SAT tuples, one whose every tuple a
    # propagation or search refutes, then the first again
    rng = random.Random(15)
    cases = 0
    while cases < 40:
        k = rng.randint(4, 6)
        g = random_graph(rng, rng.randint(5, 10), rng.uniform(0.2, 0.45))
        if not solve_labelling(g, k).is_sat:
            continue
        refuted = {}
        for v in range(g.n):
            for x in range(k + 1):
                result = solve_labelling(g, k, {v: x})
                if result.outcome == UNSAT and result.reason is None:
                    refuted.setdefault(v, []).append(x)
        if not refuted:
            continue
        v = rng.choice(sorted(refuted))
        w = rng.choice([u for u in range(g.n) if u != v])
        many = (rng.sample(range(g.n), 2), [range(k + 1), range(k + 1)])
        none = ([v, w], [refuted[v], rng.sample(range(k + 1), 3)])
        tables = assert_shared_search_matches_fresh_solves(g, k, [many, none, many])
        if len(tables[0]) < 4:
            continue
        assert tables[1] == {} and tables[2] == tables[0]
        cases += 1


@pytest.mark.parametrize("k", [6, 7, 8])
def test_shared_search_enumerations_match_fresh_solves_on_hprime(k):
    inst = build_Hprime(k)
    ids = {v.name: v.id for v in inst.graph.vertices}
    c, d, g, f1 = inst.ports["c"], inst.ports["d"], ids["g"], ids["f1"]
    every = range(k + 1)
    many = ([g, f1], [every, every])
    none = ([c, d, g], [[0], [k], range(1, k + 1)])  # L(g) = k - L(d) is forced
    pairs = ([c, d], [every, every])
    tables = assert_shared_search_matches_fresh_solves(inst.graph, k, [many, none, many, pairs])
    assert len(tables[0]) >= 4 and tables[1] == {} and tables[2] == tables[0]
    assert tables[3].keys() == {(0, k), (1, k), (k - 1, 0), (k, 0)}


@pytest.mark.parametrize(
    "k, boundary, domains, message",
    [
        (4, [0, 7], [range(5), range(5)], "vertex 7 not in graph"),
        (4, [0, 7], [[], [1]], "vertex 7 not in graph"),
        (4, [0, 1], [range(5), [5]], "outside"),
        (4, [0, 1], [[], [-1]], "outside"),
        (-1, [0], [[0]], "span"),
        (4, [0, 2], [range(5)], r"per boundary vertex \(2\), got 1"),
        (4, [0], [range(5), range(5)], r"per boundary vertex \(1\), got 2"),
    ],
    ids=[
        "foreign vertex",
        "foreign vertex, other domain empty",
        "label above k",
        "negative label",
        "negative span",
        "fewer domains than boundary vertices",
        "more domains than boundary vertices",
    ],
)
def test_boundary_enumeration_validates_its_input(k, boundary, domains, message):
    # checked once, before any tuple is solved, so an empty product still
    # raises; a repeated vertex is test_boundary_behaviour_rejects_identified_ports
    with pytest.raises(ValidationError, match=message):
        enumerate_boundary_behaviour(path_graph(3), k, boundary, domains)


@pytest.mark.parametrize("k", [-1, -2, -5])
def test_negative_span_is_invalid_input(k):
    # checked when the search is set up, before any shift by k + 1
    for call in (
        lambda: enumerate_boundary_behaviour(path_graph(3), k, [0], [[0]]),
        lambda: _LabelSearch(path_graph(3), k),
        lambda: solve_labelling(path_graph(3), k, {0: 0}, budget=-1),
    ):
        with pytest.raises(ValidationError, match=f"span must be non-negative, got {k}"):
            call()


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


@pytest.mark.parametrize("enabled", [True, False])
def test_labelling_from_json_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    # one `raw_decode` call per top-level member of each file
    decode, seen = json.JSONDecoder.raw_decode, []
    monkeypatch.setattr(json.JSONDecoder, "raw_decode", lambda *a: seen.append(gc.isenabled()) or decode(*a))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        labelling_from_json('{"k": 4, "labels": {"0": 0, "1": 2}}')
        after_return = gc.isenabled()
        with pytest.raises(ValidationError):
            labelling_from_json('{"k": 4, "labels": {"01": 0}}')
        after_raise = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 4
    assert after_return is after_raise is enabled


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
        assert search._hall_check({0}) == expected, (k, masks)
        seen.add(expected)
    assert seen == {True, False}


def test_hall_filter_skips_a_hub_whose_narrowed_neighbours_keep_enough_labels():
    # From a fixpoint that passes every Hall check, narrowing a leaf to a set
    # of at least deg(centre) labels cannot break the centre's: propagate
    # skips the centre, and its verdict still matches brute force.  A leaf
    # left with fewer labels gets the centre checked, unless a domain empties.
    rng = random.Random(12)
    skipped = checked_below = 0
    for _ in range(200):
        leaves = rng.randint(3, 5)
        k = rng.randint(leaves + 1, 9)
        search = _LabelSearch(star_graph(leaves), k)
        leaf_masks = [rng.randint(1, search.full) | rng.randint(1, search.full) for _ in range(leaves)]
        search.domains = [search.full] + leaf_masks
        if not search.propagate(range(leaves + 1)):
            continue
        leaf = rng.randint(1, leaves)
        labels = [x for x in range(k + 1) if search.domains[leaf] >> x & 1]
        if len(labels) <= 1:
            continue
        kept = rng.randint(1, len(labels) - 1)
        search.domains[leaf] = sum(1 << x for x in rng.sample(labels, kept))
        checked = []
        hall_check = search._hall_check

        def recording(hubs):
            checked.extend(hubs)
            return hall_check(hubs)

        search._hall_check = recording
        ok = search.propagate([leaf])
        if kept >= leaves:
            assert 0 not in checked
            assert ok == _has_sdr(search.domains[1:])
            skipped += 1
        elif checked:  # else a domain emptied before the Hall check
            assert checked == [0] and ok == _has_sdr(search.domains[1:])
            checked_below += 1
    assert skipped > 30 and checked_below > 30


def _narrow_root(rng, search):
    """A copy of the root fixpoint with a few random narrowings, and the
    vertices they narrowed: some keep the gap mask (the lowest and highest
    label stay), some make a singleton, some take any non-empty sub-mask, some
    narrow every neighbour of a hub to a shared set of deg - 1 labels, and
    some make an end pair {0, 1} or {k - 1, k}, whose gap mask is that of its
    end label alone, with a neighbour two labels away that leaves only that
    end."""
    domains = list(search.root)
    seeds = set()

    def narrow(v, mask):
        if 0 != mask & domains[v] != domains[v]:
            domains[v] &= mask
            seeds.add(v)

    hubs = [w for w in range(len(domains)) if search.deg[w] >= 3]
    for _ in range(rng.randint(1, 4)):
        v = rng.randrange(len(domains))
        labels = [x for x in range(search.k + 1) if domains[v] >> x & 1]
        kind = rng.choice(["keep gap", "singleton", "sub-mask", "pigeonhole", "end pair"])
        if kind == "keep gap" and len(labels) >= 3:
            middle = rng.sample(labels[1:-1], rng.randint(0, len(labels) - 3))
            narrow(v, sum(1 << x for x in [labels[0], labels[-1]] + middle))
        elif kind == "singleton":
            narrow(v, 1 << rng.choice(labels))
        elif kind == "sub-mask":
            narrow(v, rng.randint(1, search.full))
        elif kind == "pigeonhole" and hubs:
            w = rng.choice(hubs)
            shared = sum(1 << x for x in rng.sample(range(search.k + 1), search.deg[w] - 1))
            for u in search.adj[w]:
                narrow(u, shared)
        elif kind == "end pair" and search.adj[v]:
            end = rng.choice([0, search.k])
            narrow(v, 3 if end == 0 else 3 << (end - 1))
            narrow(rng.choice(search.adj[v]), 1 << (2 if end == 0 else end - 2))
    return domains, sorted(seeds)


def _assert_propagate_matches_oracle(graph, k, rng, trials):
    search = _LabelSearch(graph, k)
    if search.root is None:
        return 0
    compared = 0
    for _ in range(trials):
        domains, seeds = _narrow_root(rng, search)
        if not seeds:
            continue
        search.domains = list(domains)
        search.trail.clear()
        expected = propagate_to_fixpoint(graph, k, domains)
        assert search.propagate(seeds) == (expected is not None), (k, domains, seeds)
        if expected is not None:
            assert search.domains == expected, (k, domains, seeds)
        compared += 1
    return compared


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=8))
def test_propagate_matches_fixpoint_oracle(seed, k):
    rng = random.Random(seed)
    graph = random_graph(rng, rng.randint(4, 12), rng.uniform(0.15, 0.45))
    _assert_propagate_matches_oracle(graph, k, rng, 12)


def test_propagate_matches_fixpoint_oracle_on_reduction_instance():
    from planar_l21.nae3sat import Nae3SatFormula
    from planar_l21.pipeline import run_reduction

    graph = run_reduction(Nae3SatFormula(1, ((1, 1, 1),)), 4).instance.graph
    assert _assert_propagate_matches_oracle(graph, 4, random.Random(5), 20) >= 10


def _verify_by_distance2_pairs(graph, labelling):
    """Reference checker straight from the definition: every edge keeps a
    gap of 2 and every distance-two pair differs."""
    lab = labelling.labels
    return all(abs(lab[u] - lab[v]) >= 2 for u, v in graph.sorted_edges()) and all(
        lab[u] != lab[v] for u, v in distance2_pairs(graph)
    )


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_verify_matches_distance2_reference(seed):
    rng = random.Random(seed)
    k = rng.choice([4, 5, 6])
    g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.15, 0.5))
    assert distance2_pairs(g) == {(u, v) for u, ws in enumerate(g.distance2) for v in ws if u < v}
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
        if g.m:  # one gap violation
            u, v = rng.choice(g.sorted_edges())
            mutants.append(Labelling(k, {**witness, v: min(witness[u] + 1, k)}))
    for lab in candidates + mutants:
        assert verify_labelling(g, lab) == _verify_by_distance2_pairs(g, lab)
    if result.is_sat:
        assert verify_labelling(g, result.labelling)
    assert not any(verify_labelling(g, lab) for lab in mutants)


def _reference_select(search):
    """Full scan of the static order: the smallest non-singleton domain, ties
    by position in the order."""
    best = None
    for v in search.order:
        dv = search.domains[v]
        if dv & (dv - 1) and (best is None or dv.bit_count() < search.domains[best].bit_count()):
            best = v
    return best


def _search_with_checked_select(graph, k, budget):
    """Run the search as solve_labelling does (no pins), checking every cursor
    scan against a full scan; returns (outcome, nodes, selections)."""
    search = _LabelSearch(graph, k)
    if not (search.initial_domains() and search.propagate(range(graph.n))):
        return None, 0, 0
    select = search._select
    selections = 0

    def checked(start):
        nonlocal selections
        v, first = select(start)
        assert v == _reference_select(search)
        singles = [search.domains[u] & (search.domains[u] - 1) == 0 for u in search.order]
        assert all(singles[:first]) and (first == graph.n or not singles[first])
        selections += 1
        return v, first

    search._select = checked
    return search.search(budget), search.nodes, selections


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=3, max_value=7),
    st.sampled_from([None, 50]),
)
def test_select_cursor_matches_full_scan(seed, k, budget):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 16), rng.uniform(0.1, 0.35))
    outcome, nodes, _ = _search_with_checked_select(g, k, budget)
    if outcome is not None:
        result = solve_labelling(g, k, budget=budget)
        assert (result.outcome, result.nodes) == (outcome, nodes)


def test_select_cursor_matches_full_scan_on_reduction_instance():
    from planar_l21.nae3sat import Nae3SatFormula
    from planar_l21.pipeline import run_reduction

    formula = Nae3SatFormula(3, ((1, 2, 2), (2, 3, 3), (3, 1, 1)))
    graph = run_reduction(formula, 4).instance.graph
    outcome, nodes, selections = _search_with_checked_select(graph, 4, 300)
    assert (outcome, nodes) == (EXHAUSTED, 301)
    assert selections > 100


def _kept_by_definition(labels, ys):
    """The labels y among ys kept next to a vertex whose candidates are
    labels: some candidate x has |x - y| >= 2."""
    return {y for y in ys if any(abs(x - y) >= 2 for x in labels)}


def test_gap_table_matches_definition():
    for k in range(13):
        table = _gap_table(k)
        assert type(table) is list and len(table) == 1 << (k + 1)
        for dv in range(1, 1 << (k + 1)):
            labels = [x for x in range(k + 1) if dv >> x & 1]
            assert table[dv] == sum(1 << y for y in _kept_by_definition(labels, range(k + 1))), (k, dv)
    rng = random.Random(17)
    k, table = 40, _gap_table(40)
    assert type(table) is _GapMasks
    # every domain within the ten lowest or highest labels, then random ones
    sparse = [rng.getrandbits(41) & rng.getrandbits(41) & rng.getrandbits(41) for _ in range(500)]
    for dv in itertools.chain(range(1, 1 << 10), (d << 31 for d in range(1, 1 << 10)), filter(None, sparse)):
        labels = [x for x in range(k + 1) if dv >> x & 1]
        assert table[dv] == sum(1 << y for y in _kept_by_definition(labels, range(k + 1))), (k, dv)
    k, table = 10**6, _gap_table(10**6)
    full = (1 << (k + 1)) - 1
    for _ in range(40):
        # a few labels, drawn anywhere or near either end, sometimes a run of them
        picks = [rng.randrange(k + 1), rng.randrange(4), k - rng.randrange(4)]
        labels = {rng.choice(picks) for _ in range(rng.randint(1, 4))}
        labels |= {min(k, min(labels) + i) for i in range(rng.randint(0, 3))}
        mask = table[sum(1 << x for x in labels)]
        # a label at distance >= 2 from every candidate is kept; the others,
        # the candidates and their neighbours, are checked one by one
        near = {y for x in labels for y in (x - 1, x, x + 1) if 0 <= y <= k}
        assert mask | sum(1 << y for y in near) == full, sorted(labels)
        assert {y for y in near if mask >> y & 1} == _kept_by_definition(labels, near), sorted(labels)
    table.clear()  # each k = 10^6 mask takes 125 kB


def test_searches_of_one_span_share_one_gap_table():
    first, second = _LabelSearch(path_graph(4), 5), _LabelSearch(star_graph(3), 5)
    assert first.gap is second.gap is _gap_table(5)
    assert _LabelSearch(cycle_graph(5), 6).gap is not first.gap
    wide = _LabelSearch(path_graph(3), 13)
    assert type(wide.gap) is _GapMasks and wide.gap is _LabelSearch(star_graph(3), 13).gap


def _hprime_extension_calls(monkeypatch):
    """(k, boundary, domains) of every enumeration certify_Hprime makes at k = 6..8."""
    calls = []
    extensions = _LabelSearch.extensions

    def recording(self, boundary, domains):
        calls.append((self.k, list(boundary), [list(labels) for labels in domains]))
        return extensions(self, boundary, calls[-1][2])

    with monkeypatch.context() as patch:
        patch.setattr(_LabelSearch, "extensions", recording)
        assert all(certify_Hprime(k).passed for k in (6, 7, 8))
    return calls


def test_verdicts_do_not_depend_on_table_state(monkeypatch):
    # Every solve and every leaf search (the search `solve` and each
    # enumerated tuple share) of the jobs below runs twice: first in order,
    # with the Hall table emptied (and the gap tables dropped) before each
    # solve or leaf, then warm, in reverse order.  Outcome, nodes, witness
    # and reason must agree.
    rng = random.Random(40)
    jobs = []
    for _ in range(40):
        k = rng.randint(3, 8)
        g = random_graph(rng, rng.randint(4, 11), rng.uniform(0.15, 0.5))
        pins = [{}] + [{rng.randrange(g.n): rng.randint(0, k)} for _ in range(3)]
        jobs.append(lambda g=g, k=k, pins=pins: [solve_labelling(g, k, p) for p in pins])
    for k, boundary, domains in _hprime_extension_calls(monkeypatch):
        graph = build_Hprime(k).graph
        jobs.append(lambda graph=graph, k=k, b=boundary, d=domains: _LabelSearch(graph, k).extensions(b, d))

    def run(order, cold):
        recorded = []

        def recording(method):
            def recorded_call(self, *args):
                if cold:
                    _HALL_VERDICTS.clear()
                recorded.append(method(self, *args))
                return recorded[-1]

            return recorded_call

        runs = {}
        with monkeypatch.context() as patch:
            patch.setattr(_LabelSearch, "solve", recording(_LabelSearch.solve))
            patch.setattr(_LabelSearch, "_leaf", recording(_LabelSearch._leaf))
            for i in order:
                if cold:
                    _HALL_VERDICTS.clear()
                    _gap_table.cache_clear()
                del recorded[:]
                returned = jobs[i]()
                runs[i] = (returned, list(recorded))
        return runs

    cold = run(range(len(jobs)), cold=True)
    warm = run(reversed(range(len(jobs))), cold=False)
    assert warm == cold
    results = [r for _, solves in cold.values() for r in solves]
    assert sum(len(solves) for returned, solves in cold.values() if isinstance(returned, dict)) > 0  # walk leaves
    assert {(r.outcome, r.reason is None) for r in results} == {(SAT, True), (UNSAT, True), (UNSAT, False)}
    assert sum(r.nodes for r in results) > 1000 and _HALL_VERDICTS
