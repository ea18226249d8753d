import pytest

from planar_l21.colouring import BLACK, WHITE
from planar_l21.errors import CapacityError, ValidationError
from planar_l21.gadgets import (
    build_H,
    build_Hprime,
    build_aux_edge,
    build_clause_gadget,
    build_edge_gadget,
    build_uncrossing,
    GadgetInstance,
    certify_H,
    certify_Hprime,
    certify_clause_gadget,
    certify_edge_gadget,
    certify_uncrossing,
    edge_gadget_expected_table,
    edge_gadget_order,
    hprime_lemma_pairs,
    _CLAUSE_BOUNDARY,
    _build_from_figure,
    _composed_edge_table,
    _spliceable,
    _U_BOUNDARY,
)
from planar_l21.graphs import (
    GADGET_INTERNAL,
    PORT,
    Graph,
    check_regular,
    edge_key,
    to_json,
    verify_planar,
)

from oracles import edge_gadget_table, faces


def names(inst):
    return {v.name: v.id for v in inst.graph.vertices}


def cyclic_from(inst, vertex, first):
    """The names around ``vertex`` in rotation order, starting at ``first``."""
    ns = [inst.graph.vertices[u].name for u in inst.rot.rotation[names(inst)[vertex]]]
    i = ns.index(first)
    return ns[i:] + ns[:i]


def test_base_gadget_census():
    inst = build_H()
    assert inst.graph.n == 18 and inst.graph.m == 22
    assert inst.graph.degree(inst.ports["q"]) == 1
    assert inst.graph.degree(inst.ports["b"]) == 3
    for pendant in ("a", "m", "n", "q", "r"):
        assert inst.graph.degree(inst.ports[pendant]) == 1
    assert verify_planar(inst.graph, inst.rot)


def test_clause_gadget_census():
    inst = build_clause_gadget()
    ids = names(inst)
    assert inst.graph.n == 46  # 3*18 - 6 removed - 2 merged by identification
    assert not check_regular(inst.graph, 3)
    degree_one = [v for v in range(inst.graph.n) if inst.graph.degree(v) == 1]
    assert sorted(degree_one) == sorted(
        inst.ports[f"{letter}{t}"] for t in (1, 2, 3) for letter in ("q", "r")
    )
    for t, nxt in ((1, 2), (2, 3), (3, 1)):
        assert inst.graph.has_edge(ids[f"l{t}"], ids[f"i{nxt}"])
    others = [v for v in range(inst.graph.n) if inst.graph.degree(v) != 1]
    assert all(inst.graph.degree(v) == 3 for v in others)


def test_clause_gadget_port_face_order():
    inst = build_clause_gadget()
    port_of = {inst.ports[f"{l}{t}"]: f"{l}{t}" for t in (1, 2, 3) for l in ("q", "r")}
    walks = faces(inst.graph, inst.rot)
    orders = []
    for walk in walks:
        visits = [port_of[h] for _, h in walk if h in port_of]
        if len(visits) == 6:
            orders.append(visits)
    assert len(orders) == 1
    order = orders[0]
    start = order.index("q1")
    assert order[start:] + order[:start] == ["q1", "r1", "q2", "r2", "q3", "r3"]


def test_uncrossing_census():
    inst = build_uncrossing()
    ids = names(inst)
    assert inst.graph.n == 28
    for pendant in ("a", "w", "z2", "z4"):
        assert inst.graph.degree(inst.ports[pendant]) == 1
    for gate in ("b", "v", "z1", "z3"):
        assert inst.graph.degree(inst.ports[gate]) == 3
    for cycle in (("c", "d", "f", "e"), ("g", "h", "i", "j"), ("k", "l", "n", "m"), ("o", "p", "q", "r")):
        ring = [ids[x] for x in cycle]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            assert inst.graph.has_edge(a, b)


def test_aux_edge_census():
    inst = build_aux_edge()
    ids = names(inst)
    assert inst.graph.n == 8
    for name in ("u", "v", "in", "out"):
        assert inst.graph.degree(ids[name]) == 1
    for name in ("cu", "cin", "cout", "cv"):
        assert inst.graph.degree(ids[name]) == 3
    assert not inst.graph.has_edge(ids["cu"], ids["cv"])  # opposite corners


@pytest.mark.parametrize("v_at, refused", [((3, 3), False), ((5, 5), True)])
def test_a_gadget_is_spliceable_only_with_u_and_v_on_one_face(v_at, refused):
    # a square a, b, c, d with u hung inside at a, and v hung at c inside or outside
    coords = {"a": (0, 0), "b": (4, 0), "c": (4, 4), "d": (0, 4), "u": (1, 1), "v": v_at}
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "u"), ("c", "v")]
    inst = _build_from_figure(coords, edges, {}, ["u", "v"], "Square")
    if refused:
        with pytest.raises(AssertionError, match="Square has its pendants u and v on different faces"):
            _spliceable(inst)
    else:
        assert _spliceable(inst) is inst


def test_hprime_census_and_planarity():
    for k in range(6, 11):
        inst = build_Hprime(k)
        assert inst.graph.n == k + 3
        assert inst.graph.degree(inst.ports["d"]) == k - 1
        ids = names(inst)
        assert inst.graph.degree(ids["g"]) == k - 1
        assert verify_planar(inst.graph, inst.rot)
    with pytest.raises(ValidationError):
        build_Hprime(5)


@pytest.mark.parametrize("k", range(6, 13))
def test_hprime_drawing(k):
    # the golden hashes pin only k = 6..9; the drawing's orders hold for every k
    inst = build_Hprime(k)
    fans = [f"f{j}" for j in range(1, k - 2)]
    assert [v.name for v in inst.graph.vertices] == ["c", "d", "e"] + fans + ["g", "h", "i"]
    assert [v.role for v in inst.graph.vertices] == [PORT, PORT] + [GADGET_INTERNAL] * (k + 1)
    ids = names(inst)
    assert inst.ports == {"c": ids["c"], "d": ids["d"]}
    assert cyclic_from(inst, "d", "e") == ["e", "c"] + fans[::-1]
    assert cyclic_from(inst, "g", "f1") == fans + ["h", "i"]


@pytest.mark.parametrize("k", range(6, 13))
def test_edge_gadget_drawing(k):
    inst = build_edge_gadget(k)
    path = ["u", "a_u", "a_v", "v"]
    middles = [f"b{i}" for i in range(1, k - 4)]
    hprime = ["c", "d", "e"] + [f"f{j}" for j in range(1, k - 2)] + ["g", "h", "i"]
    copies = [name + copy for i in range(1, k - 4) for copy in (f".l{i}", f".r{i}") for name in hprime]
    assert [v.name for v in inst.graph.vertices] == path + middles + copies
    assert [v.role for v in inst.graph.vertices] == [PORT] * 4 + [GADGET_INTERNAL] * (inst.graph.n - 4)
    ids = names(inst)
    assert inst.ports == {name: ids[name] for name in path}
    assert cyclic_from(inst, "a_u", "a_v") == ["a_v", "u"] + middles[::-1]
    assert cyclic_from(inst, "a_v", "v") == ["v", "a_u"] + middles
    for i, b in enumerate(middles, 1):
        assert cyclic_from(inst, b, "a_v") == ["a_v", "a_u", f"c.l{i}", f"c.r{i}"]
        for copy in (f".l{i}", f".r{i}"):
            assert cyclic_from(inst, "c" + copy, "d" + copy) == ["d" + copy, b]


def test_edge_gadget_census():
    assert build_edge_gadget(4).graph.n == 4
    assert build_edge_gadget(5).graph.n == 14
    assert build_edge_gadget(6).graph.n == 23  # 4 + 1 + 2*9
    g7 = build_edge_gadget(7)
    assert g7.graph.n == 4 + 2 + 2 * 2 * 10
    for k in (4, 5, 6, 7):
        inst = build_edge_gadget(k)
        ids = names(inst)
        assert inst.graph.has_edge(ids["u"], ids["a_u"])
        assert inst.graph.has_edge(ids["a_u"], ids["a_v"])
        assert inst.graph.has_edge(ids["a_v"], ids["v"])
        assert verify_planar(inst.graph, inst.rot)
        if k >= 6:
            for i in range(1, k - 4):
                assert inst.graph.degree(ids[f"b{i}"]) == 4
    with pytest.raises(ValidationError):
        build_edge_gadget(3)


@pytest.mark.parametrize("k", range(4, 31))
def test_edge_gadget_order_is_the_built_vertex_count(k):
    assert edge_gadget_order(k) == build_edge_gadget(k).graph.n


def test_builders_are_deterministic():
    # a fresh build, past the per-process cache, equals the shared instance
    builds = [(build, ()) for build in (build_H, build_clause_gadget, build_uncrossing, build_aux_edge)]
    for build, args in builds + [(build_Hprime, (6,)), (build_edge_gadget, (6,)), (build_edge_gadget, (9,))]:
        a, b = build(*args), build.__wrapped__(*args)
        assert to_json(a.graph, a.rot, a.ports) == to_json(b.graph, b.rot, b.ports)


def test_certify_H():
    report = certify_H()
    assert report.passed
    assert report.observed["count"] == 6
    assert report.observed["oq_pr_monochromatic"]
    assert report.observed["closed_under_colour_swap"]


def test_certify_uncrossing():
    report = certify_uncrossing()
    assert report.passed
    assert len(report.observed) == 4  # two free colour choices, one per class


def clause_boundary_condition(pattern):
    """The clause lemma's extension condition: uniform arms, exactly two
    coloured like the hub a."""
    arm_colours = []
    for t in (1, 2, 3):
        arm = {pattern[f"{letter}{t}"] for letter in ("o", "p", "q", "r")}
        if len(arm) != 1:
            return False
        arm_colours.append(arm.pop())
    return sum(1 for c in arm_colours if c == pattern["a"]) == 2


def uncross_boundary_condition(pattern):
    """The uncrossing lemma's extension condition: two uniform classes."""
    return (
        pattern["w"] == pattern["v"] == pattern["z1"] == pattern["z2"]
        and pattern["a"] == pattern["b"] == pattern["z3"] == pattern["z4"]
    )


def pattern_bits(boundary, pattern):
    return sum(1 << i for i, name in enumerate(boundary) if pattern[name] == WHITE)


@pytest.mark.parametrize(
    "certify,boundary,condition",
    [
        (certify_clause_gadget, _CLAUSE_BOUNDARY, clause_boundary_condition),
        (certify_uncrossing, _U_BOUNDARY, uncross_boundary_condition),
    ],
    ids=["clause", "uncrossing"],
)
def test_listed_table_is_the_lemma_condition(certify, boundary, condition):
    # the listed table against every one of the 2^b boundary colourings
    satisfying = [
        bits
        for bits in range(1 << len(boundary))
        if condition({name: WHITE if (bits >> i) & 1 else BLACK for i, name in enumerate(boundary)})
    ]
    assert certify().expected == satisfying


def test_clause_table_membership_examples():
    table = certify_clause_gadget().expected
    all_white = {name: WHITE for name in _CLAUSE_BOUNDARY}
    assert pattern_bits(_CLAUSE_BOUNDARY, all_white) not in table  # all three arms match a
    two_match = dict(all_white)
    for l in ("o", "p", "q", "r"):
        two_match[f"{l}3"] = BLACK
    assert pattern_bits(_CLAUSE_BOUNDARY, two_match) in table


def test_certify_clause_gadget():
    report = certify_clause_gadget()
    assert report.passed
    assert report.enumeration_count == 8192
    assert len(report.observed) == 6  # pinned constant from the first certified run


def test_certify_hprime_k6():
    report = certify_Hprime(6)
    assert report.passed
    assert report.observed["pairs"] == [(0, 6), (1, 6), (5, 0), (6, 0)]
    with pytest.raises(CapacityError):
        certify_Hprime(33)


def test_certify_edge_gadget_small():
    r4 = certify_edge_gadget(4)
    assert r4.passed
    assert [(t[2], t[3]) for t in r4.observed if (t[0], t[1]) == (0, 0)] == [(2, 4), (4, 2)]
    r5 = certify_edge_gadget(5)
    assert r5.passed
    with pytest.raises(CapacityError):
        certify_edge_gadget(33)


@pytest.mark.parametrize("k", range(4, 9))
def test_edge_gadget_table_matches_exhaustive_oracle(k):
    # k >= 6 is composed from the H' table; the oracle solves over all of G_k
    report = certify_edge_gadget(k)
    oracle = edge_gadget_table(k)
    assert report.passed and report.enumeration_count == 4 * (k + 1) ** 2
    assert set(report.observed) == oracle == edge_gadget_expected_table(k)


@pytest.mark.parametrize("k", [4, *range(6, 41)])
def test_composed_table_from_the_lemma_pairs_is_the_expected_table(k):
    # the table the witness chain fills from, at spans far past the certify cap
    assert set(_composed_edge_table(k, hprime_lemma_pairs(k))) == edge_gadget_expected_table(k)


def _mutated_g7(drop=(), add=()):
    good = build_edge_gadget(7)
    ids = names(good)
    edges = set(good.graph.sorted_edges()) - {edge_key(ids[x], ids[y]) for x, y in drop}
    edges |= {edge_key(ids[x], ids[y]) for x, y in add}
    return GadgetInstance(Graph(good.graph.vertices, edges), good.rot, good.ports, "Gk", 7)


@pytest.mark.parametrize(
    "mutant",
    [
        {"add": [("b1", "b2")]},
        {"add": [("c.l1", "a_u")]},
        {"drop": [("d.r2", "f1.r2")]},
    ],
    ids=["extra middle edge", "extra hanger edge", "missing H' edge"],
)
def test_edge_gadget_certifier_rejects_mutated_structure(monkeypatch, mutant):
    import planar_l21.gadgets as gadgets_mod

    broken = _mutated_g7(**mutant)
    monkeypatch.setattr(gadgets_mod, "build_edge_gadget", lambda k: broken)
    report = gadgets_mod.certify_edge_gadget(7)
    assert not report.passed
    assert report.observed == []


def test_expected_table_complement_closed():
    for k in (4, 5, 6, 7, 8):
        table = edge_gadget_expected_table(k)
        flipped = {(k - a, k - b, k - c, k - d) for a, b, c, d in table}
        assert flipped == table


def test_certifiers_catch_mutations(monkeypatch):
    import planar_l21.gadgets as gadgets_mod

    good = build_H()
    edges = [e for e in good.graph.sorted_edges() if e != tuple(sorted((names(good)["o"], names(good)["q"])))]
    from planar_l21.graphs import Graph

    broken_graph = Graph(good.graph.vertices, edges)
    broken = gadgets_mod.GadgetInstance(broken_graph, good.rot, good.ports, "H")
    monkeypatch.setattr(gadgets_mod, "build_H", lambda: broken)
    report = gadgets_mod.certify_H()
    assert not report.passed
    assert report.observed["count"] != 6
