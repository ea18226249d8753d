import copy
import functools
import gc
import json
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_l21 import pipeline
from planar_l21.errors import ValidationError
from planar_l21.nae3sat import Nae3SatFormula
from planar_l21.gadgets import (
    build_aux_edge,
    build_clause_gadget,
    build_edge_gadget,
    build_H,
    build_Hprime,
    build_uncrossing,
)
from planar_l21.graphs import (
    GADGET_INTERNAL,
    GATE,
    ORIGINAL,
    PORT,
    Graph,
    GraphBuilder,
    RotationSystem,
    Unfilled,
    Vertex,
    check_regular,
    edge_key,
    face,
    from_json,
    rotation_from_coordinates,
    to_dot,
    to_json,
    verify_planar,
)

from conftest import any_rotation, complete_graph, make_graph, random_graph, star_graph, triangle
from oracles import (
    embed_by_names,
    euler_planar,
    faces,
    read_stage_file,
    rotation_by_half_planes,
    rows_are_simple,
    stage_json,
)


def planar_k4():
    g = complete_graph(4)
    pos = {
        0: (Fraction(0), Fraction(0)),
        1: (Fraction(4), Fraction(0)),
        2: (Fraction(2), Fraction(3)),
        3: (Fraction(2), Fraction(1)),
    }
    return g, rotation_from_coordinates(g, pos)


def test_triangle_has_two_faces(triangle):
    rot = any_rotation(triangle)
    assert len(faces(triangle, rot)) == 2  # V - E + F = 2 forces F = 2
    assert verify_planar(triangle, rot)


def test_k4_planar_rotation_has_four_faces():
    g, rot = planar_k4()
    assert len(faces(g, rot)) == 4
    assert verify_planar(g, rot)


def test_single_edge_one_face_of_length_two():
    g = make_graph(2, [(0, 1)])
    walks = faces(g, any_rotation(g))
    assert len(walks) == 1
    assert len(walks[0]) == 2


def test_k5_never_planar():
    g = complete_graph(5)
    assert not verify_planar(g, any_rotation(g))


def test_H_builder_embedding_is_planar():
    inst = build_H()
    assert verify_planar(inst.graph, inst.rot)


def _drawn_graph(rng, coordinate):
    """Up to 12 distinct points drawn by ``coordinate(rng)``, joined at random
    wherever neither end already has an edge in that direction."""
    points = list({(coordinate(rng), coordinate(rng)) for _ in range(rng.randint(2, 12))})
    used, edges = set(), []
    for u in range(len(points)):
        for v in range(u + 1, len(points)):
            (ux, uy), (vx, vy) = points[u], points[v]
            dx, dy = Fraction(vx - ux), Fraction(vy - uy)
            m = max(abs(dx), abs(dy))
            ends = {(u, dx / m, dy / m), (v, -dx / m, -dy / m)}
            if rng.random() < 0.6 and not ends & used:
                used |= ends
                edges.append((u, v))
    return make_graph(len(points), edges), dict(enumerate(points))


COORDINATES = {
    # a small grid, so axis-aligned and opposite directions are common
    "int": lambda rng: rng.randint(-3, 3),
    "decimal": lambda rng: Fraction(f"{rng.randint(-25, 25) / 10}"),
    "mixed": lambda rng: rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-12, 12), 4)]),
}


@pytest.mark.parametrize("kind", sorted(COORDINATES))
def test_rotation_from_coordinates_matches_half_plane_reference(kind):
    rng = random.Random(kind)
    for _ in range(200):
        graph, pos = _drawn_graph(rng, COORDINATES[kind])
        # equal rows, so every row starts at the same neighbour too
        assert rotation_from_coordinates(graph, pos).rotation == rotation_by_half_planes(graph, pos).rotation


def test_rotation_from_coordinates_rejects_collinear_and_zero_length_edges():
    fork = make_graph(3, [(0, 1), (0, 2)])
    with pytest.raises(ValidationError, match="collinear edge directions at vertex 0"):
        rotation_from_coordinates(fork, {0: (0, 0), 1: (1, 1), 2: (Fraction("2.5"), Fraction("2.5"))})
    with pytest.raises(ValidationError, match="collinear edge directions at vertex 0"):
        rotation_from_coordinates(fork, {0: (1, 0), 1: (1, -1), 2: (1, -3)})
    opposite = {0: (0, 0), 1: (0, -1), 2: (0, 1)}
    assert rotation_from_coordinates(fork, opposite).rotation[0] == (2, 1)
    with pytest.raises(ValidationError, match="zero-length edge 0-1"):
        rotation_from_coordinates(fork, {0: (0, 0), 1: (0, 0), 2: (1, 0)})
    with pytest.raises(ValidationError, match="zero-length edge 0-1"):
        rotation_from_coordinates(make_graph(2, [(0, 1)]), {0: (Fraction(1, 2), 0), 1: (Fraction("0.5"), 0)})


def test_check_regular():
    assert check_regular(complete_graph(4), 3)
    assert not check_regular(build_clause_gadget().graph, 3)
    assert check_regular(make_graph(0, []), 5)  # vacuous


def test_isolated_vertex_yields_no_face_and_still_planar():
    g = make_graph(1, [])
    assert faces(g, RotationSystem({})) == []
    assert verify_planar(g, RotationSystem({}))


def test_malformed_rotation_names_the_vertex():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ValidationError, match="vertex 1"):
        faces(g, RotationSystem({0: [1], 1: []}))
    with pytest.raises(ValidationError, match="vertex 0"):
        faces(g, RotationSystem({0: [1, 1], 1: [0]}))


def test_graph_rejects_self_loops_and_sparse_ids():
    with pytest.raises(ValidationError):
        make_graph(2, [(0, 0)])
    with pytest.raises(ValidationError):
        Graph([Vertex(0, ORIGINAL, "a"), Vertex(2, ORIGINAL, "b")], [])


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False))
def test_faces_invariant_under_cyclic_shifts(rnd):
    g, rot = planar_k4()
    shifted = {}
    for v, ns in rot.rotation.items():
        cut = rnd.randrange(len(ns))
        shifted[v] = list(ns[cut:]) + list(ns[:cut])
    original = {frozenset(w) for w in faces(g, rot)}
    assert {frozenset(w) for w in faces(g, RotationSystem(shifted))} == original


def test_json_round_trip_is_bit_exact():
    g, rot = planar_k4()
    text = to_json(g, rot, {"hub": 3}, k=4)
    g2, rot2, ports2, k2 = from_json(text)
    assert to_json(g2, rot2, ports2, k2) == text
    assert g2 == g and k2 == 4 and ports2["hub"] == 3


def test_json_round_trip_without_rotation():
    g = make_graph(3, [(0, 1)])
    text = to_json(g)
    g2, rot2, ports2, k2 = from_json(text)
    assert rot2 is None and k2 is None
    assert to_json(g2) == text


def test_gadget_serialization_deterministic():
    a = build_clause_gadget()
    b = build_clause_gadget()
    assert to_json(a.graph, a.rot, a.ports) == to_json(b.graph, b.rot, b.ports)


def test_dot_label_of_a_vertex_with_two_ports_is_the_last_name():
    g = Graph(_vertices(["p", "q"]), [(0, 1)])
    for ports in ({"b": 1, "a": 1}, {"a": 1, "b": 1}):
        assert '  v1 [label="b", shape=square];' in to_dot(g, ports).splitlines()


def test_dot_export_deterministic_and_role_shaped():
    inst = build_H()
    dot = to_dot(inst.graph, inst.ports)
    assert dot == to_dot(inst.graph, inst.ports)
    assert dot.startswith("graph g {")
    assert "shape=square" in dot  # port vertices
    lines = dot.splitlines()
    assert lines.index("  v0 [label=\"a\", shape=square];") == 1


# ---------------------------------------------------------------------------
# The dart-indexed Euler check, the compiled embedding and the direct stage
# encoder, each against a reference written from its definition.
# ---------------------------------------------------------------------------


def shuffled_rotation(graph, rnd):
    rotation = {}
    for v in range(graph.n):
        ns = list(graph.neighbours(v))
        rnd.shuffle(ns)
        rotation[v] = ns
    return RotationSystem(rotation)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10), st.randoms(use_true_random=False))
def test_verify_planar_matches_euler_count_over_faces(n, rnd):
    graph = random_graph(rnd, n, rnd.choice([0.1, 0.25, 0.5, 0.9]))
    rot = shuffled_rotation(graph, rnd)
    assert verify_planar(graph, rot) == euler_planar(graph, rot)


def test_verify_planar_sample_has_both_verdicts():
    rnd = random.Random(7)
    verdicts = []
    for _ in range(300):
        graph = random_graph(rnd, rnd.randint(0, 9), rnd.choice([0.15, 0.3, 0.6]))
        rot = shuffled_rotation(graph, rnd)
        verdicts.append(verify_planar(graph, rot))
        assert verdicts[-1] == euler_planar(graph, rot)
    assert 50 < sum(verdicts) < 250


def test_verify_planar_matches_euler_count_on_gadgets_and_stages(reduced):
    trace = reduced(Nae3SatFormula(3, ((1, 2, 3),)), 4)
    embedded = [
        (g.graph, g.rot)
        for g in (build_H(), build_clause_gadget(), build_uncrossing(), build_edge_gadget(6))
    ]
    embedded += [(stage.graph, stage.rot) for stage in (trace.planar, trace.aux, trace.instance)]
    rnd = random.Random(3)
    for graph, rot in embedded:
        assert verify_planar(graph, rot) and euler_planar(graph, rot)
        twisted = dict(rot.rotation)
        for v in rnd.sample(sorted(twisted), 5):
            twisted[v] = twisted[v][::-1]
        twisted = RotationSystem(twisted)
        assert verify_planar(graph, twisted) == euler_planar(graph, twisted)


def test_face_is_the_walk_of_its_dart():
    # every dart of planar and non-planar rotations, against the oracle's walks
    rnd = random.Random(5)
    drawn = [planar_k4(), (build_aux_edge().graph, build_aux_edge().rot), (build_H().graph, build_H().rot)]
    shuffled = [(g, shuffled_rotation(g, rnd)) for g in (random_graph(rnd, 8, 0.4) for _ in range(20))]
    for graph, rot in drawn + shuffled:
        for walk in faces(graph, rot):
            for i, (u, v) in enumerate(walk):
                assert face(rot, u, v) == [a for a, _ in walk[i:] + walk[:i]]


@pytest.mark.parametrize(
    "rows",
    [
        {0: [1, 2], 1: [2, 0], 2: [0]},  # the dart 1->2 has no reverse
        {0: [1, 2, 1], 1: [2, 0], 2: [0, 1]},  # the row of 0 repeats 1
        {0: [1, 2], 1: [2, 0, 2], 2: [0, 1, 1]},  # a second 1-2 dart each way
    ],
    ids=["missing reverse", "repeated entry", "doubled edge"],
)
def test_verify_planar_refuses_frozen_rows_that_no_simple_graph_has(rows):
    # a builder's graph is its rows sorted, so only verify_planar sees these faults
    builder = GraphBuilder([Vertex(i, ORIGINAL, str(i)) for i in range(3)])
    builder.rotation = rows
    graph, rot = builder.freeze_with_rotation()
    assert not rows_are_simple(rot)
    assert verify_planar(graph, rot) is False
    builder.rotation = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    assert verify_planar(*builder.freeze_with_rotation())


def test_verify_planar_rejects_malformed_rotations():
    g = make_graph(3, [(0, 1)])  # vertex 2 is isolated
    with pytest.raises(ValidationError, match="vertex 1"):
        verify_planar(g, RotationSystem({0: [1], 1: []}))
    with pytest.raises(ValidationError, match="vertex 0"):
        verify_planar(g, RotationSystem({0: [1, 1], 1: [0]}))
    with pytest.raises(ValidationError, match="vertex 2"):
        verify_planar(g, RotationSystem({0: [1], 1: [0], 2: [0]}))
    with pytest.raises(ValidationError, match="foreign vertex 5"):
        verify_planar(g, RotationSystem({0: [1], 1: [0], 5: [0]}))
    assert verify_planar(g, RotationSystem({0: [1], 1: [0]}))


def _host_triangle():
    builder = GraphBuilder()
    for i in range(3):
        builder.add_vertex(ORIGINAL, f"h{i}")
    builder.rotation = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    return builder


U_PENDANTS = set(pipeline._U_PENDANT_OF_GATE.values())
EDGE_GLUES = [{"u": 0, "v": 1}, {"u": 1, "v": 2}, {"u": 2, "v": 0}]
# (gadget, names, one glue per copy, drop, role): every embedding that the
# stage builders and the clause gadget builder make.  No builder makes the H'
# cases since G_k is drawn; they stay as extra cases, copied with the names
# and role that G_k's hangers have.
EMBEDDINGS = {
    "clause gadget, ports dropped": (
        build_clause_gadget, "c{}.{{}}", [{}] * 3, pipeline.PORT_SLOT_ORDER, None
    ),
    "uncrossing, pendants dropped": (build_uncrossing, "u{}.{{}}", [{}] * 3, U_PENDANTS, None),
    "aux edge, glued at both ends": (build_aux_edge, "e{}.{{}}", EDGE_GLUES, (), None),
    "H, glued at its hub, m and n dropped": (build_H, "{{}}{}", [{"a": 0}] * 3, ("m", "n"), None),
}
EMBEDDINGS.update(
    {
        f"G{k}, glued at both ends": (
            lambda k=k: build_edge_gadget(k), "e{}.{{}}", EDGE_GLUES, (), GADGET_INTERNAL
        )
        for k in range(4, 9)
    }
)
EMBEDDINGS.update(
    {
        f"H'{k}, as hung from G_k": (
            lambda k=k: build_Hprime(k), "{{}}.l{}", [{}] * 3, (), GADGET_INTERNAL
        )
        for k in range(6, 9)
    }
)


@pytest.mark.parametrize("case", sorted(EMBEDDINGS))
def test_embed_matches_name_space_copy(case):
    build, names, glues, drop, role = EMBEDDINGS[case]
    gadget = build()
    compiled, reference = _host_triangle(), _host_triangle()
    copies = [(names.format(i), glue) for i, glue in enumerate(glues)]
    maps = compiled.embed(gadget, copies, drop, role)  # every copy in one batch
    assert len(maps) == len(copies)
    for (copy_names, glue), ids in zip(copies, maps):
        expected = embed_by_names(reference, gadget, copy_names, glue, drop, role)
        assert list({**glue, **ids}.items()) == list(expected.items())
    assert compiled.rotation == reference.rotation
    assert compiled.freeze() == reference.freeze()


@pytest.mark.parametrize("case", sorted(EMBEDDINGS))
def test_embed_batch_equals_one_call_per_copy(case):
    build, names, glues, drop, role = EMBEDDINGS[case]
    gadget = build()
    batched, single = _host_triangle(), _host_triangle()
    copies = [(names.format(i), glue) for i, glue in enumerate(glues)]
    maps = batched.embed(gadget, copies, drop, role)
    assert maps == [m for copy in copies for m in single.embed(gadget, [copy], drop, role)]
    assert batched.embed(gadget, [], drop, role) == []
    assert batched.rotation == single.rotation
    assert batched.freeze() == single.freeze()


@pytest.mark.parametrize(
    "build, glued, drop",
    [
        (build_aux_edge, ("u", "v", "in"), ()),  # three glued names
        (build_H, ("b",), ()),  # b is not a pendant
        (build_H, ("zz",), ()),  # H has no vertex zz
        (build_H, ("a",), ("b",)),  # a's only neighbour is dropped
    ],
    ids=["three names", "not a pendant", "unknown name", "neighbour dropped"],
)
def test_embed_refuses_a_bad_glue(build, glued, drop):
    builder = _host_triangle()
    glue = dict(zip(glued, [0, 1, 2]))
    with pytest.raises(ValidationError, match="must name one or two pendants of copied vertices"):
        builder.embed(build(), [("x.{}", glue)], drop)
    assert (builder.freeze(), builder.rotation) == (_host_triangle().freeze(), _host_triangle().rotation)


def test_freeze_finds_unfilled_markers_from_embed_and_seed():
    builder = GraphBuilder()
    hub = builder.add_vertex(GADGET_INTERNAL, "a")
    one, two = builder.embed(build_H(), [("{}1", {"a": hub}), ("{}2", {"a": hub})], ("m", "n"))
    with pytest.raises(AssertionError, match="unfilled rotation slot"):
        builder.freeze_with_rotation()
    builder.link(one["l"], "n1", two["i"], "m2")
    with pytest.raises(AssertionError, match="unfilled rotation slot"):
        builder.freeze_with_rotation()
    builder.link(two["l"], "n2", one["i"], "m1")
    builder.freeze_with_rotation()

    seeded = GraphBuilder()
    seeded.add_vertex(ORIGINAL, "x")
    seeded.rotation = {0: [Unfilled("y")]}
    with pytest.raises(AssertionError, match="unfilled rotation slot at vertex 0"):
        seeded.freeze_with_rotation()


def _vertices(names):
    roles = [ORIGINAL, PORT, GATE, GADGET_INTERNAL]
    return [Vertex(i, roles[i % 4], name) for i, name in enumerate(names)]


@pytest.mark.parametrize(
    "name", ["plain", 'quo"te', "back\\slash", "ünïcødé ✓ 𝄞", "tab\tnew\nline", "\x00\x1f\x7f"]
)
def test_to_json_matches_json_dumps_on_awkward_names(name):
    g = Graph(_vertices([name, name + "'", "c", "d"]), [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    rot = shuffled_rotation(g, random.Random(1))
    for args in [(None, None, None), (rot, None, None), (rot, {name: 1, "z": 3}, 4)]:
        assert to_json(g, *args) == stage_json(g, *args)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.text(max_size=6), min_size=0, max_size=8), st.randoms(use_true_random=False))
def test_to_json_matches_json_dumps(names, rnd):
    g = random_graph(rnd, len(names), 0.4)
    g = Graph(_vertices(names), g.sorted_edges())
    rot = shuffled_rotation(g, rnd) if rnd.random() < 0.7 else None
    ports = {name: i for i, name in enumerate(names)} if rnd.random() < 0.5 else None
    k = rnd.choice([None, 0, 4, 12])
    text = to_json(g, rot, ports, k)
    assert text == stage_json(g, rot, ports, k)
    g2, rot2, ports2, k2 = from_json(text)
    assert to_json(g2, rot2, ports2, k2) == text


def test_to_json_matches_json_dumps_on_stage_files(reduced):
    trace = reduced(Nae3SatFormula(2, ((1, 2, 1), (2, 1, 2))), 4)
    inst = trace.instance
    stages = [(trace.cubic.graph,), (trace.planar.graph, trace.planar.rot), (trace.aux.graph, trace.aux.rot)]
    for args in stages + [(inst.graph, inst.rot, None, 4)]:
        text = to_json(*args)
        assert text == stage_json(*args)
        assert to_json(*from_json(text)) == text


def test_from_json_peak_memory_is_below_eight_times_the_text(reduced):
    # The 20-crossing corpus formula at k = 4, 25,800 vertices.  Its whole
    # parse tree is about nine times the text, so this holds only when each
    # section is converted and dropped before the next is decoded.
    inst = reduced(Nae3SatFormula(4, ((2, 1, 4), (4, 3, 2), (1, 3, 4))), 4).instance
    text = to_json(inst.graph, inst.rot, k=4)
    tracemalloc.start()
    try:
        graph = from_json(text)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph == inst.graph
    assert peak < 8 * len(text)


def test_has_edge_and_sorted_edges_match_a_set_of_edges():
    # edges given twice, reversed and in any order; ids probed past both ends
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 25))] if n else []
        pairs = [(u, v) for u, v in pairs if u != v]
        g = make_graph(n, pairs)
        edges = {edge_key(u, v) for u, v in pairs}
        assert g.sorted_edges() == sorted(edges) and g.m == len(edges)
        for u in range(-n - 1, n + 1):
            for v in range(-n - 1, n + 1):
                assert g.has_edge(u, v) == (edge_key(u, v) in edges), (u, v)


def test_has_edge_on_a_large_star_read_from_json():
    leaves = 100_000
    star = from_json(to_json(star_graph(leaves)))[0]
    edges = {(0, v) for v in range(1, leaves + 1)}
    assert star.sorted_edges() == sorted(edges) and star.m == leaves
    probes = [(u, v) for x in range(-3, 4) for y in (0, 1, leaves, leaves + 1, -leaves) for u, v in ((x, y), (y, x))]
    for u, v in probes + [(0, v) for v in range(-leaves - 1, leaves + 2)]:
        assert star.has_edge(u, v) == (edge_key(u, v) in edges), (u, v)


def _planar_k4_doc():
    g, rot = planar_k4()
    return json.loads(to_json(g, rot, {"hub": 3}, k=4))


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("vertices", 0, "id"), 0.0, "vertex id"),
        (("vertices", 1, "id"), True, "vertex id"),
        (("vertices", 2, "name"), 2, "vertex name"),
        (("edges", 0, 1), 1.0, "edge endpoint"),
        (("edges", 1, 0), False, "edge endpoint"),
        (("rotation", "0", 0, 1), 1.0, "rotation endpoint"),
    ],
)
def test_from_json_rejects_non_integer_ids(path, value, message):
    doc = _planar_k4_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValidationError, match=message):
        from_json(json.dumps(doc))


def _mutated(doc, rng):
    """A copy of the JSON document ``doc`` with one to three entries, at any
    depth, replaced by an awkward value, deleted, or joined by a new one."""
    values = [0.0, True, None, "x", "Original", [], {}, [1, 2, 3], [1], -1, 99, 1, "01", "+1", [0, 1], {"a": 1}]
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        paths, stack = [], [((), doc)]
        while stack:
            path, x = stack.pop()
            paths += [path] if path else []
            items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
            stack += [(path + (key,), y) for key, y in items]
        if not paths:
            break
        path = rng.choice(paths)
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        value, op = copy.deepcopy(rng.choice(values)), rng.random()
        if op < 0.6:
            parent[path[-1]] = value
        elif op < 0.8:
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.insert(path[-1], value)
        else:
            parent[rng.choice(["01", "+1", "-1", "0", "1", "7", "x"])] = value
    return doc


def _laid_out(doc, rng):
    """The JSON text of ``doc`` with its top-level members in a random order
    and random whitespace around and between its tokens."""
    keys = list(doc)
    rng.shuffle(keys)
    separators = rng.choice([(",", ":"), (", ", ": "), (" ,\n", "\t: ")])
    text = json.dumps({key: doc[key] for key in keys}, indent=rng.choice([None, 0, 2]), separators=separators)
    return rng.choice(["", " ", "\n\t "]) + text + rng.choice(["", "\n", " \r\n"])


def _broken(doc, text, rng):
    """``text`` cut short, followed by more data, with one comma dropped, or
    with one of ``doc``'s top-level members written twice."""
    commas = [i for i, c in enumerate(text) if c == ","]
    fault = rng.choice(["truncated", "extra data"] + ["dropped comma"] * bool(commas) + ["repeated key"] * bool(doc))
    if fault == "truncated":
        return text[: rng.randrange(len(text))]
    if fault == "extra data":
        return text + rng.choice(["}", " 1", "{}", "x"])
    if fault == "dropped comma":
        i = rng.choice(commas)
        return text[:i] + text[i + 1 :]
    key = rng.choice(list(doc))
    return text.replace("{", "{" + json.dumps({key: doc[key]})[1:-1] + ",", 1)


def _outcome(read, text):
    try:
        return read(text)
    except (ValidationError, json.JSONDecodeError) as exc:
        return type(exc).__name__, str(exc)


def test_from_json_reads_and_refuses_as_the_reference_reader():
    # Every check, in the same order and with the same message, also on
    # files with several faults, in any layout, and with a syntax fault
    # anywhere; read_stage_file parses the whole document with json.loads
    # first and then checks each entry one at a time.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (4, 5)]
    g = Graph([Vertex(i, [ORIGINAL, PORT, GATE][i % 3], f"v{i}") for i in range(6)], edges)
    doc = json.loads(to_json(g, shuffled_rotation(g, random.Random(3)), {"p": 1}, 4))
    rng = random.Random(21)
    for _ in range(3000):
        mutated = _mutated(doc, rng)
        text = _laid_out(mutated, rng)
        for read in (text, _broken(mutated, text, rng)):
            assert _outcome(from_json, read) == _outcome(read_stage_file, read), read


@pytest.mark.parametrize("enabled", [True, False])
def test_from_json_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    # The reader decodes one top-level member per `raw_decode` call: five
    # here, then two for the refused file.
    text = json.dumps(_planar_k4_doc())
    decode, seen = json.JSONDecoder.raw_decode, []
    monkeypatch.setattr(json.JSONDecoder, "raw_decode", lambda *a: seen.append(gc.isenabled()) or decode(*a))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        from_json(text)
        after_return = gc.isenabled()
        with pytest.raises(ValidationError):
            from_json('{"vertices": [], "edges": [[0, 1]]}')
        after_raise = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 7
    assert after_return is after_raise is enabled
