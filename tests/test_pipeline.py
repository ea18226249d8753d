import dataclasses
import gc
from collections import Counter

import pytest

from planar_l21 import cli, gadgets, pipeline
from planar_l21.colouring import (
    BLACK,
    UNORIENTED,
    WHITE,
    ColouredOrientation,
    is_good_orientation,
    verify_2cpm,
    verify_coloured_orientation,
)
from planar_l21.errors import CapacityError, ValidationError
from planar_l21.graphs import check_regular, edge_key, from_json, verify_planar
from planar_l21.labelling import Labelling, _LabelSearch, verify_labelling
from planar_l21.nae3sat import Nae3SatFormula, check_nae
from planar_l21.pipeline import (
    assignment_to_matching,
    build_auxiliary,
    build_instance,
    canonicalize_orientation,
    labelling_to_orientation,
    matching_to_assignment,
    matching_to_good_orientation,
    nae_to_cubic,
    orientation_to_labelling,
    orientation_to_matching,
    planar_stage_from_graph,
    planarize,
    run_reduction,
    write_trace,
)

from conftest import complete_graph, make_graph
from test_acceptance import CORPUS
from oracles import oriented_component_structure, swap_colours

XXX = Nae3SatFormula(1, ((1, 1, 1),))
XYZ = Nae3SatFormula(3, ((1, 2, 3),))
CROSSY = Nae3SatFormula(2, ((1, 2, 1), (2, 1, 2)))


def k33():
    return make_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])


def all_satisfying(formula):
    n = formula.num_vars
    out = []
    for bits in range(1 << n):
        a = {i: bool((bits >> (n - i)) & 1) for i in range(1, n + 1)}
        if check_nae(formula, a):
            out.append(a)
    return out


def test_cubic_census_single_clause():
    stage = nae_to_cubic(XXX)
    assert stage.graph.n == 40  # 46 minus the six consumed ports
    assert check_regular(stage.graph, 3)
    assert len(stage.identifying_edges) == 3


def test_cubic_census_two_clauses():
    stage = nae_to_cubic(Nae3SatFormula(3, ((1, 2, 3), (1, 2, 3))))
    assert stage.graph.n == 80
    assert len(stage.identifying_edges) == 6
    assert check_regular(stage.graph, 3)


def test_chord_system_covers_every_slot():
    stage = nae_to_cubic(CROSSY)
    stage.chords.validate()
    assert len(stage.chords.slots) == 12
    assert len(stage.chords.chords) == 6


def test_empty_formula_rejected():
    with pytest.raises(ValidationError):
        nae_to_cubic(Nae3SatFormula(1, ()))


def test_planarize_without_crossings_keeps_the_graph():
    stage = nae_to_cubic(XXX)
    planar = planarize(stage)
    assert planar.crossing_count == 0
    assert planar.graph.n == stage.graph.n
    assert planar.graph.edges == stage.graph.edges
    assert verify_planar(planar.graph, planar.rot)


def test_planarize_inserts_one_gadget_per_crossing():
    stage = nae_to_cubic(CROSSY)
    planar = planarize(stage)
    assert planar.crossing_count == 6
    assert len(planar.uncross_maps) == 6
    assert planar.graph.n == stage.graph.n + 24 * 6  # 28 vertices minus 4 pendants
    assert check_regular(planar.graph, 3)
    assert verify_planar(planar.graph, planar.rot)
    # each original chord carries one more segment than it has crossings
    assert len(planar.identifying_edges) == len(stage.identifying_edges) + 2 * 6


def test_auxiliary_counts_on_k4():
    stage = planar_stage_from_graph(complete_graph(4), None)
    # the id-order rotation of K4 traces two faces (genus one), so the stage
    # is carried as uncertified
    aux = build_auxiliary(stage)
    assert not stage.certified_planar and not aux.certified_planar
    assert aux.graph.n == 40
    assert aux.graph.m == 48  # eight edges per replaced edge
    assert len(aux.out_vertices()) == 6


def test_auxiliary_counts_on_k33():
    stage = planar_stage_from_graph(k33())
    assert not stage.certified_planar  # no rotation of K3,3 passes the Euler check
    aux = build_auxiliary(stage)
    assert not aux.certified_planar
    assert aux.graph.n == 60
    assert aux.graph.m == 72
    for v in range(6):
        assert aux.graph.degree(v) == 3
    for record in aux.aux_records.values():
        assert aux.graph.degree(record["in"]) == 1
        assert aux.graph.degree(record["out"]) == 1
    # the uncertified stage still builds: 2 gadget interiors per aux edge,
    # 2 leaves per in/out pendant, and k-2 leaves under each hub pendant
    inst = build_instance(aux, 4)
    assert inst.graph.n == 60 + 2 * 72 + 2 * 18 + 2 * 9


def test_auxiliary_rejects_noncubic():
    with pytest.raises(ValidationError):
        build_auxiliary(planar_stage_from_graph(complete_graph(3)))


def test_instance_census_k4_from_k4():
    aux = build_auxiliary(planar_stage_from_graph(complete_graph(4)))
    inst = build_instance(aux, 4)
    # 40 former vertices + 2 gadget interiors per 48 edges + 24 in/out
    # pendants + 12 hub leaves
    assert inst.graph.n == 40 + 2 * 48 + 24 + 12
    for v in range(aux.graph.n):
        assert inst.graph.degree(v) == 3
    with pytest.raises(ValidationError):
        build_instance(aux, 3)


def test_instance_planar_and_degree_bound_for_pipeline(reduced):
    trace = reduced(XYZ, 5)
    inst = trace.instance
    assert verify_planar(inst.graph, inst.rot)
    for v in range(trace.aux.graph.n):
        assert inst.graph.degree(v) == 4
    for w in inst.w_map.values():
        assert inst.graph.degree(w) == 4


def test_forward_chain_and_intermediate_verifiers(reduced):
    trace = reduced(XYZ, 4)
    assignment = all_satisfying(XYZ)[0]
    matching = assignment_to_matching(trace, assignment)
    assert verify_2cpm(trace.planar.graph, matching)
    for u, v in trace.planar.identifying_edges:
        assert matching[u] == matching[v]
    orientation = matching_to_good_orientation(trace, matching)
    assert is_good_orientation(trace.aux.graph, orientation, trace.aux.out_vertices())
    labelling = orientation_to_labelling(trace, orientation, 4)
    assert verify_labelling(trace.instance.graph, labelling)


@pytest.mark.parametrize("k", range(4, 21))
def test_every_table_tuple_gets_a_fill_that_labels_the_gadget(k):
    # G_5 is solved; every other span reads the composed extension of the tuple
    inst = gadgets.build_edge_gadget(k)
    fills = gadgets.edge_gadget_fills(k)
    assert set(fills) == gadgets.edge_gadget_expected_table(k)
    for (lu, lv, lau, lav), fill in fills.items():
        assert [fill[name] for name in ("u", "v", "a_u", "a_v")] == [lu, lv, lau, lav]
        labels = {v.id: fill[v.name] for v in inst.graph.vertices}
        assert verify_labelling(inst.graph, Labelling(k, labels))


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_forward_labelling_solves_over_hprime_only(reduced, monkeypatch, k):
    # As tests/test_golden.py::logged_solves does, but logging the size of each
    # searched graph: outside G_5, no solve is over G_k, only over H' (k + 3
    # vertices), once per H' lemma pair.
    trace = reduced(XYZ, k)
    orientation = matching_to_good_orientation(trace, assignment_to_matching(trace, all_satisfying(XYZ)[0]))
    original, sizes = _LabelSearch.solve, []

    def logged(search, pins, budget):
        sizes.append(search.graph.n)
        return original(search, pins, budget)

    monkeypatch.setattr(_LabelSearch, "solve", logged)
    gadgets.edge_gadget_fills.cache_clear()
    labelling = orientation_to_labelling(trace, orientation, k)
    assert verify_labelling(trace.instance.graph, labelling)
    expected = {4: [], 5: [14] * 10, 6: [9] * 4, 7: [10] * 4}[k]
    assert sizes == expected


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_instance_size_is_the_built_vertex_count(index):
    # carried as uncertified, so that no Euler check runs on the instances
    aux = dataclasses.replace(run_reduction(CORPUS[index], 4, stop_at="aux").aux, certified_planar=False)
    for k in range(4, 9):
        assert pipeline.instance_size(aux, k) == build_instance(aux, k).graph.n


def test_build_instance_refuses_an_instance_over_capacity(monkeypatch, reduced):
    aux = reduced(XYZ, 4).aux
    monkeypatch.setattr(pipeline, "build_edge_gadget", lambda k: pytest.fail("built a gadget"))
    with pytest.raises(CapacityError, match="2097152 vertices"):
        build_instance(aux, 100_000)


def test_forward_chain_with_crossings(reduced):
    trace = reduced(CROSSY, 4)
    assignment = all_satisfying(CROSSY)[0]
    matching = assignment_to_matching(trace, assignment)
    orientation = matching_to_good_orientation(trace, matching)
    labelling = orientation_to_labelling(trace, orientation, 4)
    assert verify_labelling(trace.instance.graph, labelling)


def test_assignment_to_matching_refuses_bad_assignment(reduced):
    trace = reduced(XYZ, 4)
    with pytest.raises(ValidationError, match="clause 0"):
        assignment_to_matching(trace, {1: True, 2: True, 3: True})


def test_backward_chain_recovers_assignment(reduced):
    trace = reduced(XYZ, 4)
    assignment = all_satisfying(XYZ)[0]
    labelling = orientation_to_labelling(
        trace,
        matching_to_good_orientation(trace, assignment_to_matching(trace, assignment)),
        4,
    )
    orientation = labelling_to_orientation(trace, labelling)
    assert verify_coloured_orientation(
        trace.aux.graph, orientation, trace.aux.out_vertices()
    )
    good = canonicalize_orientation(trace, orientation)
    matching = orientation_to_matching(trace, good)
    recovered = matching_to_assignment(trace, matching)
    assert check_nae(XYZ, recovered)
    assert recovered == assignment


def test_complement_matching_gives_complement_assignment(reduced):
    trace = reduced(XYZ, 4)
    assignment = all_satisfying(XYZ)[0]
    matching = assignment_to_matching(trace, assignment)
    recovered = matching_to_assignment(trace, swap_colours(matching))
    assert recovered == {v: not val for v, val in assignment.items()}
    assert check_nae(XYZ, recovered)


def test_monochromatic_aux_edges_get_directed_cycles(reduced):
    trace = reduced(XYZ, 4)
    assignment = all_satisfying(XYZ)[0]
    matching = assignment_to_matching(trace, assignment)
    orientation = matching_to_good_orientation(trace, matching)
    mono = [(e, m) for e, m in trace.aux.aux_records.items() if matching[e[0]] == matching[e[1]]]
    assert mono
    for (x, y), m in mono:
        assert orientation.colouring[m["in"]] == matching[x]
        assert orientation.colouring[m["cu"]] != matching[x]
        ring = [
            orientation.orientation[edge_key(m[a], m[b])]
            for a, b in (("cu", "cin"), ("cin", "cv"), ("cv", "cout"), ("cout", "cu"))
        ]
        assert UNORIENTED not in ring
        assert orientation.orientation[edge_key(m["in"], m["cin"])] == UNORIENTED


def test_component_structure_is_paths_and_circuits(reduced):
    trace = reduced(XYZ, 4)
    for assignment in all_satisfying(XYZ)[:2]:
        orientation = matching_to_good_orientation(
            trace, assignment_to_matching(trace, assignment)
        )
        kinds = {
            kind
            for kind, _ in oriented_component_structure(
                trace.aux.graph, orientation, trace.aux.out_vertices()
            )
        }
        assert kinds <= {"path", "circuit"}


def test_component_oracle_flags_an_in_vertex_tail(reduced):
    trace = reduced(XYZ, 4)
    matching = assignment_to_matching(trace, all_satisfying(XYZ)[0])
    good = matching_to_good_orientation(trace, matching)
    m = next(m for (x, y), m in sorted(trace.aux.aux_records.items()) if matching[x] != matching[y])

    def kinds_at_in_vertex(co):
        structure = oriented_component_structure(trace.aux.graph, co, trace.aux.out_vertices())
        return [kind for kind, comp in structure if m["in"] in comp]

    assert kinds_at_in_vertex(good) == ["path"]
    arcs = dict(good.orientation)
    arcs[edge_key(m["in"], m["cin"])] = "F" if m["in"] < m["cin"] else "B"  # in -> cin
    assert kinds_at_in_vertex(ColouredOrientation(good.colouring, arcs)) == ["other"]


def test_canonicalize_is_identity_on_good_orientations(reduced):
    trace = reduced(XYZ, 4)
    assignment = all_satisfying(XYZ)[0]
    orientation = matching_to_good_orientation(
        trace, assignment_to_matching(trace, assignment)
    )
    fixed = canonicalize_orientation(trace, orientation)
    assert fixed.colouring == orientation.colouring
    assert fixed.orientation == orientation.orientation


def test_canonicalize_recolours_pendants_of_uniform_cycles(reduced):
    trace = reduced(XYZ, 4)
    assignment = all_satisfying(XYZ)[0]
    matching = assignment_to_matching(trace, assignment)
    good = matching_to_good_orientation(trace, matching)
    mono_edge = next(
        e for e in trace.aux.aux_records if matching[e[0]] == matching[e[1]]
    )
    m = trace.aux.aux_records[mono_edge]
    colours = dict(good.colouring)
    orientation = dict(good.orientation)
    cycle_shade = colours[m["cin"]]
    colours[m["in"]] = cycle_shade  # now matches the cycle; edge must orient
    inedge = edge_key(m["in"], m["cin"])
    orientation[inedge] = "F" if m["cin"] < m["in"] else "B"
    mutated = ColouredOrientation(colours, orientation)
    assert verify_coloured_orientation(trace.aux.graph, mutated, trace.aux.out_vertices())
    assert not is_good_orientation(trace.aux.graph, mutated, trace.aux.out_vertices())
    fixed = canonicalize_orientation(trace, mutated)
    assert fixed.colouring == good.colouring
    assert fixed.orientation == good.orientation


def test_matching_to_assignment_rejects_inconsistent_colours(reduced):
    trace = reduced(Nae3SatFormula(3, ((1, 2, 3), (1, 2, 3))), 4)
    assignment = {1: True, 2: False, 3: False}
    matching = assignment_to_matching(trace, assignment)
    lit_vertices = trace.cubic.literal_vertices[1]
    broken = dict(matching)
    # flipping one literal vertex breaks the matching itself
    broken[lit_vertices[0]] = BLACK if matching[lit_vertices[0]] == WHITE else WHITE
    with pytest.raises(ValidationError):
        matching_to_assignment(trace, broken)


def test_unused_variable_defaults_to_false(reduced):
    formula = Nae3SatFormula(4, ((1, 2, 3),))  # variable 4 never occurs
    trace = reduced(formula, 4)
    assignment = {1: False, 2: False, 3: True, 4: False}
    matching = assignment_to_matching(trace, assignment)
    recovered = matching_to_assignment(trace, matching)
    assert recovered[4] is False


def test_trace_files_round_trip(tmp_path, reduced):
    trace = reduced(XYZ, 4)
    written = write_trace(trace, tmp_path)
    assert "instance.json" in written and "manifest.json" in written
    graph, rot, _, k = from_json((tmp_path / "instance.json").read_text())
    assert graph == trace.instance.graph
    assert k == 4
    graph_c, _, _, _ = from_json((tmp_path / "cubic.json").read_text())
    assert graph_c == trace.cubic.graph


CHECKS = (
    "verify_planar",
    "verify_2cpm",
    "verify_coloured_orientation",
    "is_good_orientation",
    "verify_labelling",
    "check_nae",
)


def count_checks(monkeypatch, module):
    """Count the calls that `module` makes to each verifier through its own
    attributes; a verifier it never calls stays absent."""
    calls = Counter()
    for name in CHECKS:
        original = getattr(module, name, None)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_each_stage_graph_is_euler_checked_once(monkeypatch):
    calls = count_checks(monkeypatch, pipeline)
    run_reduction(XYZ, 4)
    assert calls == {"verify_planar": 3}


def test_fixed_gadgets_are_built_once(monkeypatch):
    run_reduction(XYZ, 4)
    calls = count_checks(monkeypatch, gadgets)
    run_reduction(XYZ, 4)
    assert calls["verify_planar"] == 0  # each gadget was Euler-checked when first built
    assert gadgets.build_edge_gadget(4) is gadgets.build_edge_gadget(4)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_reduction_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    build, seen = pipeline.nae_to_cubic, []
    monkeypatch.setattr(pipeline, "nae_to_cubic", lambda f: seen.append(gc.isenabled()) or build(f))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run_reduction(XYZ, 4, stop_at="cubic")
        after_return = gc.isenabled()
        with pytest.raises(ValidationError, match="at least one clause"):
            run_reduction(Nae3SatFormula(1, ()), 4)
        after_raise = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]
    assert after_return is after_raise is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_write_trace_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, reduced, enabled):
    trace = reduced(XYZ, 4)
    dump, seen = pipeline.to_json, []
    monkeypatch.setattr(pipeline, "to_json", lambda *a, **kw: seen.append(gc.isenabled()) or dump(*a, **kw))
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        write_trace(trace, tmp_path / "out")
        after_return = gc.isenabled()
        with pytest.raises(FileExistsError):
            write_trace(trace, blocker)
        after_raise = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 4
    assert after_return is after_raise is enabled


def test_roundtrip_checks_each_witness_once(tmp_path, monkeypatch, capsys):
    in_pipeline = count_checks(monkeypatch, pipeline)
    in_cli = count_checks(monkeypatch, cli)
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    assert cli.main(["roundtrip", "--formula", str(path), "--k", "4"]) == 0
    # two matchings, three orientations, one labelling: each checked once,
    # by the translator that consumes it
    assert in_pipeline == {
        "verify_planar": 3,
        "verify_2cpm": 2,
        "verify_coloured_orientation": 1,
        "is_good_orientation": 2,
        "verify_labelling": 1,
    }
    assert in_cli == {"check_nae": 1}  # the recovered assignment


@pytest.fixture(scope="module")
def forward_chain(reduced):
    trace = reduced(XYZ, 4)
    matching = assignment_to_matching(trace, all_satisfying(XYZ)[0])
    orientation = matching_to_good_orientation(trace, matching)
    return trace, matching, orientation, orientation_to_labelling(trace, orientation, 4)


@pytest.mark.parametrize(
    "step",
    [
        "assignment_to_matching",
        "matching_to_good_orientation",
        "orientation_to_labelling",
        "labelling_to_orientation",
        "orientation_to_matching",
    ],
)
def test_translators_validate_their_input(forward_chain, step):
    trace, matching, orientation, labelling = forward_chain
    flipped = dict(matching)
    flipped[0] = WHITE if matching[0] == BLACK else BLACK  # two same-coloured neighbours
    # an in-pendant recoloured like its uniform cycle: coloured, but not good
    m = next(m for (x, y), m in sorted(trace.aux.aux_records.items()) if matching[x] == matching[y])
    colours = dict(orientation.colouring)
    colours[m["in"]] = colours[m["cin"]]
    arcs = dict(orientation.orientation)
    arcs[edge_key(m["in"], m["cin"])] = "F" if m["cin"] < m["in"] else "B"
    not_good = ColouredOrientation(colours, arcs)
    u, v = min(trace.instance.graph.edges)
    clashing = Labelling(4, {**labelling.labels, u: labelling.labels[v]})
    call, message = {
        "assignment_to_matching": (lambda: assignment_to_matching(trace, {1: True, 2: False}), "unset"),
        "matching_to_good_orientation": (
            lambda: matching_to_good_orientation(trace, flipped),
            "perfect matching",
        ),
        "orientation_to_labelling": (
            lambda: orientation_to_labelling(trace, not_good, 4),
            "not good",
        ),
        "labelling_to_orientation": (lambda: labelling_to_orientation(trace, clashing), "invalid"),
        "orientation_to_matching": (lambda: orientation_to_matching(trace, not_good), "not good"),
    }[step]
    with pytest.raises(ValidationError, match=message):
        call()


def test_run_reduction_refuses_an_unknown_stage():
    with pytest.raises(ValidationError, match="unknown stage 'bogus'"):
        run_reduction(XYZ, 4, stop_at="bogus")
