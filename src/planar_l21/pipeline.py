"""The reduction chain and its witness translators.

Stages: formula -> cubic graph (one clause gadget per clause, literal ports
linked cyclically) -> planar cubic graph (each chord crossing replaced by an
uncrossing gadget) -> auxiliary graph (every edge replaced by the four-cycle
gadget) -> labelling instance (pendants to degree k-1, every former edge
replaced by the span-k edge gadget, hub pendants under each out-vertex).

Each fact is checked once, by the layer that owns it.  A stage builder
Euler-checks the graph it builds, and `PlanarStage`/`AuxStage` carry that
verdict (`certified_planar`) to the next builder.  The witness translators
execute the constructive arguments in both directions; each validates its
input, raising `ValidationError`, and leaves its output to the input check of
the step that consumes it.  Output assertions remain only for lemma facts
that no consumer checks, and each stage fact is stored once.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Set, Tuple

from . import chords as chordgeo
from .colouring import (
    BACKWARD,
    BLACK,
    FORWARD,
    UNORIENTED,
    WHITE,
    ColouredOrientation,
    TwoColouring,
    is_good_orientation,
    solve_2cpm,
    verify_2cpm,
    verify_coloured_orientation,
)
from .errors import CapacityError, InconsistencyError, ValidationError, quote
from .gadgets import build_aux_edge, build_clause_gadget, build_edge_gadget, build_uncrossing
from .gadgets import edge_gadget_fills, edge_gadget_order
from .graphs import (
    GADGET_INTERNAL,
    GATE,
    ORIGINAL,
    OUT_VERTEX,
    Edge,
    Graph,
    GraphBuilder,
    RotationSystem,
    check_regular,
    collector_paused,
    edge_key,
    to_json,
    verify_planar,
)
from .labelling import Labelling, verify_labelling
from .nae3sat import Assignment, Nae3SatFormula, format_formula, literal_value

PORT_SLOT_ORDER = ("q1", "r1", "q2", "r2", "q3", "r3")
INSTANCE_CAPACITY = 1 << 21  # the most vertices build_instance builds; it refuses more before building
_SLOT_INDEX = {name: i for i, name in enumerate(PORT_SLOT_ORDER)}


@dataclass(frozen=True)
class SlotRecord:  # a slot's index is its position in `ChordSystem.slots`
    clause: int
    port: str  # consumed pendant port, q1..r3
    attach: int  # vertex that kept the half-edge


@dataclass(frozen=True)
class ChordRecord:
    slot_lo: int
    slot_hi: int
    literal: int


@dataclass
class ChordSystem:
    slots: List[SlotRecord]
    chords: List[ChordRecord]

    def validate(self) -> None:
        used = [s for ch in self.chords for s in (ch.slot_lo, ch.slot_hi)]
        if sorted(used) != list(range(len(self.slots))):
            raise ValidationError("every port slot must appear in exactly one chord")

    def arcs(self) -> List[chordgeo.Arc]:
        return [(ch.slot_lo, ch.slot_hi) for ch in self.chords]


@dataclass
class CubicStage:
    graph: Graph
    chords: ChordSystem
    # rotation with an Unfilled marker, named c<clause>.<port>, per consumed port
    rotation_template: Dict[int, List[object]]
    literal_vertices: Dict[int, List[int]]  # literal -> port vertices labelled with it
    a_vertices: List[int]  # hub vertex per clause
    identifying_edges: List[Edge]


@dataclass
class PlanarStage:
    graph: Graph
    rot: RotationSystem
    identifying_edges: List[Edge]
    crossing_count: int
    uncross_maps: List[Dict[str, int]]  # per inserted gadget: figure name -> id
    certified_planar: bool  # rot passed the Euler check


@dataclass
class AuxStage:
    graph: Graph
    rot: RotationSystem
    # per planar edge (x,y): ids of the six inserted vertices
    aux_records: Dict[Edge, Dict[str, int]]
    certified_planar: bool  # rot passed the Euler check

    def out_vertices(self) -> Set[int]:
        return {v.id for v in self.graph.vertices if v.role == OUT_VERTEX}


@dataclass
class InstanceStage:
    graph: Graph
    rot: RotationSystem
    k: int
    gadget_records: Dict[Edge, Dict[str, int]]  # per former edge: gadget vertex name -> id
    pendant_map: Dict[int, List[int]]  # parent -> leaf ids
    w_map: Dict[int, int]  # out-vertex -> hub pendant


@dataclass
class ReductionTrace:
    formula: Nae3SatFormula
    k: int
    cubic: CubicStage
    planar: Optional[PlanarStage] = None
    aux: Optional[AuxStage] = None
    instance: Optional[InstanceStage] = None


# ---------------------------------------------------------------------------
# Stage 1: formula -> cubic graph with a chord system
# ---------------------------------------------------------------------------


def nae_to_cubic(formula: Nae3SatFormula) -> CubicStage:
    """One clause gadget per clause; same-literal arms linked cyclically.

    Each link consumes the r-port of one occurrence and the q-port of the
    next (cyclically), leaving a cubic graph whose inter-gadget edges are the
    identifying edges.
    """
    if not formula.clauses:
        raise ValidationError("reduction needs at least one clause")
    src = build_clause_gadget()
    builder = GraphBuilder()
    copies = [(f"c{c}.{{}}", {}) for c in range(len(formula.clauses))]
    maps = builder.embed(src, copies, PORT_SLOT_ORDER)

    slots: List[SlotRecord] = []
    for c in range(len(formula.clauses)):
        for port in PORT_SLOT_ORDER:
            attach = maps[c]["o" + port[1]] if port[0] == "q" else maps[c]["p" + port[1]]
            slots.append(SlotRecord(c, port, attach))

    occurrences: Dict[int, List[Tuple[int, int]]] = {}
    for c, clause in enumerate(formula.clauses):
        for t in (1, 2, 3):
            occurrences.setdefault(clause[t - 1], []).append((c, t))

    chords: List[ChordRecord] = []
    identifying: List[Edge] = []
    for lit in sorted(occurrences):
        occ = occurrences[lit]
        for j in range(len(occ)):
            c1, t1 = occ[j]
            c2, t2 = occ[(j + 1) % len(occ)]
            s_r = 6 * c1 + _SLOT_INDEX[f"r{t1}"]
            s_q = 6 * c2 + _SLOT_INDEX[f"q{t2}"]
            u, v = maps[c1][f"p{t1}"], maps[c2][f"o{t2}"]
            builder.add_edge(u, v)
            identifying.append(edge_key(u, v))
            chords.append(ChordRecord(min(s_r, s_q), max(s_r, s_q), lit))
    chord_system = ChordSystem(slots, chords)
    chord_system.validate()

    graph = builder.freeze()
    if not check_regular(graph, 3):
        raise AssertionError("the linked clause gadgets must form a cubic graph")

    literal_vertices: Dict[int, List[int]] = {}
    for c, clause in enumerate(formula.clauses):
        for t in (1, 2, 3):
            literal_vertices.setdefault(clause[t - 1], []).extend(
                [maps[c][f"o{t}"], maps[c][f"p{t}"]]
            )
    return CubicStage(
        graph=graph,
        chords=chord_system,
        rotation_template=builder.rotation,
        literal_vertices={lit: sorted(vs) for lit, vs in literal_vertices.items()},
        a_vertices=[m["a"] for m in maps],
        identifying_edges=sorted(identifying),
    )


# ---------------------------------------------------------------------------
# Stage 2: crossing removal
# ---------------------------------------------------------------------------

_U_PENDANT_OF_GATE = {"v": "w", "z1": "z2", "b": "a", "z3": "z4"}


def planarize(stage: CubicStage) -> PlanarStage:
    """Replace every chord crossing by an uncrossing gadget.

    Chords become chains of identifying-edge segments through gadget gates;
    the resulting graph is cubic, planar, and certified by the Euler check.
    """
    per_arc, pairs = chordgeo.arc_crossings(stage.chords.arcs())

    builder = GraphBuilder(stage.graph.vertices)
    builder.rotation = {v: list(ns) for v, ns in stage.rotation_template.items()}
    id_edge_set = set(stage.identifying_edges)
    for e in stage.graph.sorted_edges():
        if e not in id_edge_set:
            builder.add_edge(*e)

    u_src = build_uncrossing()
    u_pendants = set(_U_PENDANT_OF_GATE.values())
    uncross_maps = builder.embed(u_src, [(f"u{g}.{{}}", {}) for g in range(len(pairs))], u_pendants)
    gadget_of_pair = {pair: g for g, pair in enumerate(pairs)}

    # nae_to_cubic left a marker named after the consumed port in each slot
    slot_marker = [f"c{s.clause}.{s.port}" for s in stage.chords.slots]
    slot_attach = [s.attach for s in stage.chords.slots]
    identifying: List[Edge] = []
    for ci, chord in enumerate(stage.chords.chords):
        prev_vertex, prev_marker = slot_attach[chord.slot_lo], slot_marker[chord.slot_lo]
        for crossing in per_arc.get(ci, []):
            cj = crossing.partner
            g = gadget_of_pair[(min(ci, cj), max(ci, cj))]
            if ci < cj:
                entry_gate, exit_gate = "v", "z1"
            elif not crossing.partner_starts_inside:
                # this chord is the delta of the pair and starts under gamma
                entry_gate, exit_gate = "b", "z3"
            else:
                entry_gate, exit_gate = "z3", "b"
            entry = uncross_maps[g][entry_gate]
            builder.link(prev_vertex, prev_marker, entry, f"u{g}.{_U_PENDANT_OF_GATE[entry_gate]}")
            identifying.append(edge_key(prev_vertex, entry))
            prev_vertex = uncross_maps[g][exit_gate]
            prev_marker = f"u{g}.{_U_PENDANT_OF_GATE[exit_gate]}"
        hi_vertex = slot_attach[chord.slot_hi]
        builder.link(prev_vertex, prev_marker, hi_vertex, slot_marker[chord.slot_hi])
        identifying.append(edge_key(prev_vertex, hi_vertex))

    graph, rot = builder.freeze_with_rotation()
    if not check_regular(graph, 3):
        raise AssertionError("planarization must preserve 3-regularity")
    if not verify_planar(graph, rot):
        raise AssertionError("planarized graph failed the Euler check")
    return PlanarStage(
        graph=graph,
        rot=rot,
        identifying_edges=sorted(identifying),
        crossing_count=len(pairs),
        uncross_maps=uncross_maps,
        certified_planar=True,
    )


# ---------------------------------------------------------------------------
# Stage 3: auxiliary graph
# ---------------------------------------------------------------------------


def planar_stage_from_graph(graph: Graph, rot: Optional[RotationSystem] = None) -> PlanarStage:
    """Wrap a bare cubic graph so the later stages can run on it directly.

    The Euler check runs here, once; a graph that fails it (K3,3, say) is
    carried as uncertified and the later stages skip their planarity checks.
    """
    if rot is None:
        rot = RotationSystem({v: list(graph.neighbours(v)) for v in range(graph.n)})
    return PlanarStage(
        graph=graph,
        rot=rot,
        identifying_edges=[],
        crossing_count=0,
        uncross_maps=[],
        certified_planar=verify_planar(graph, rot),
    )


def build_auxiliary(stage: PlanarStage) -> AuxStage:
    """Replace every edge by the four-cycle gadget with in/out pendants."""
    if not check_regular(stage.graph, 3):
        raise ValidationError("auxiliary construction expects a cubic graph")
    aux_src = build_aux_edge()
    builder = GraphBuilder()
    builder.add_vertices(repeat(ORIGINAL), [v.name for v in stage.graph.vertices])
    builder.rotation = {v: list(ns) for v, ns in stage.rot.rotation.items()}
    edges = stage.graph.sorted_edges()
    maps = builder.embed(aux_src, [(f"e{x}-{y}.{{}}", {"u": x, "v": y}) for x, y in edges])
    aux_records = {(x, y): {"u": x, "v": y, **m} for (x, y), m in zip(edges, maps)}
    graph, rot = builder.freeze_with_rotation()
    n, mm = stage.graph.n, stage.graph.m
    if graph.n != n + 6 * mm or graph.m != 8 * mm:
        raise AssertionError("auxiliary graph census mismatch")
    if stage.certified_planar and not verify_planar(graph, rot):
        raise AssertionError("auxiliary graph failed the Euler check")
    for v in range(n):
        if graph.degree(v) != 3:
            raise AssertionError("original vertices must keep degree three")
    return AuxStage(
        graph=graph,
        rot=rot,
        aux_records=aux_records,
        certified_planar=stage.certified_planar,
    )


# ---------------------------------------------------------------------------
# Stage 4: the labelling instance
# ---------------------------------------------------------------------------


def instance_size(stage: AuxStage, k: int) -> int:
    """The vertex count of ``build_instance(stage, k)``, found without building it."""
    h, gadget_n = stage.graph, edge_gadget_order(k)
    leaves = sum(max(k - 1 - h.degree(v), 0) for v in range(h.n))
    return h.n + leaves + h.m * (gadget_n - 2) + len(stage.out_vertices()) * (k - 2)


def build_instance(stage: AuxStage, k: int) -> InstanceStage:
    """Pendants to degree k-1, edge gadgets on every former edge, and a
    degree-(k-1) hub pendant below every out-vertex."""
    if k < 4:
        raise ValidationError(f"instance construction needs k >= 4, got {k}")
    if instance_size(stage, k) > INSTANCE_CAPACITY:
        raise CapacityError(f"a span-{k} instance would exceed {INSTANCE_CAPACITY} vertices")
    h = stage.graph
    builder = GraphBuilder(h.vertices)
    builder.rotation = {v: list(ns) for v, ns in stage.rot.rotation.items()}
    need = [k - 1 - h.degree(v) for v in range(h.n)]
    pendant_map = builder.add_leaves([(v, c, f"v{v}") for v, c in enumerate(need) if c > 0])

    edges = h.sorted_edges()
    copies = [(f"e{x}-{y}.{{}}", {"u": x, "v": y}) for x, y in edges]
    maps = builder.embed(build_edge_gadget(k), copies, (), GADGET_INTERNAL)
    gadget_records = dict(zip(edges, maps))

    w_map = {v: pendant_map[v][0] for v in sorted(stage.out_vertices())}
    for w in w_map.values():
        builder.set_role(w, GATE)
    pendant_map.update(builder.add_leaves([(w, k - 2, f"w{v}") for v, w in w_map.items()]))

    graph, rot = builder.freeze_with_rotation()
    for v in range(h.n):
        if graph.degree(v) != k - 1:
            raise AssertionError("every former vertex must reach degree k-1")
    for w in w_map.values():
        if graph.degree(w) != k - 1:
            raise AssertionError("hub pendants must reach degree k-1")
    if stage.certified_planar and not verify_planar(graph, rot):
        raise AssertionError("instance graph failed the Euler check")
    return InstanceStage(
        graph=graph,
        rot=rot,
        k=k,
        gadget_records=gadget_records,
        pendant_map=pendant_map,
        w_map=w_map,
    )


@collector_paused
def run_reduction(formula: Nae3SatFormula, k: int, stop_at: str = "instance") -> ReductionTrace:
    stages = ("cubic", "planar", "aux", "instance")
    if stop_at not in stages:
        raise ValidationError(f"unknown stage {quote(stop_at)}")
    trace = ReductionTrace(formula=formula, k=k, cubic=nae_to_cubic(formula))
    if stages.index(stop_at) >= 1:
        trace.planar = planarize(trace.cubic)
    if stages.index(stop_at) >= 2:
        trace.aux = build_auxiliary(trace.planar)
    if stages.index(stop_at) >= 3:
        trace.instance = build_instance(trace.aux, k)
    return trace


# ---------------------------------------------------------------------------
# Witness translations, forward
# ---------------------------------------------------------------------------


def assignment_to_matching(trace: ReductionTrace, assignment: Assignment) -> TwoColouring:
    """Colour literal ports by truth value, hubs by arm majority, then extend."""
    cubic, planar = trace.cubic, trace.planar
    pins: TwoColouring = {}
    for c, clause in enumerate(trace.formula.clauses):
        if any(abs(l) not in assignment for l in clause):
            raise ValidationError(f"assignment leaves a variable of clause {c} unset: {clause}")
        true_arms = sum(1 for l in clause if literal_value(l, assignment))
        if true_arms in (0, 3):
            raise ValidationError(f"assignment does not NAE-satisfy clause {c}: {clause}")
        pins[cubic.a_vertices[c]] = WHITE if true_arms == 2 else BLACK
    for lit, vertices in cubic.literal_vertices.items():
        colour = WHITE if literal_value(lit, assignment) else BLACK
        for v in vertices:
            pins[v] = colour
    colouring = solve_2cpm(planar.graph, pins)
    if colouring is None:
        raise AssertionError("a NAE-satisfying assignment must extend to a matching")
    for u, v in planar.identifying_edges:
        if colouring[u] != colouring[v]:
            raise AssertionError("identifying edges must come out monochromatic")
    return colouring


def _dichromatic_partners(graph: Graph, colouring: TwoColouring, v: int) -> List[int]:
    return [u for u in graph.neighbours(v) if colouring[u] != colouring[v]]


def matching_to_good_orientation(trace: ReductionTrace, colouring: TwoColouring) -> ColouredOrientation:
    """Directed four-cycles on matched edges; out-to-in paths elsewhere.

    Paths run out-vertex -> bottom cycle vertex -> cycle vertex at the
    through-endpoint -> endpoint -> next gadget's near cycle vertex -> top
    cycle vertex -> in-vertex, and are scheduled so that at most one gadget
    is ever half coloured.
    """
    planar, aux = trace.planar, trace.aux
    if not verify_2cpm(planar.graph, colouring):
        raise ValidationError("input is not a two-coloured perfect matching")
    h = aux.graph
    colours: Dict[int, str] = {}
    orientation: Dict[Edge, str] = {e: UNORIENTED for e in h.sorted_edges()}
    for v in range(planar.graph.n):
        colours[v] = colouring[v]

    def orient(a: int, b: int) -> None:
        orientation[edge_key(a, b)] = FORWARD if a < b else BACKWARD

    dichromatic: List[Edge] = []
    for (x, y), m in sorted(aux.aux_records.items()):
        if colouring[x] == colouring[y]:
            same = colouring[x]
            opposite = WHITE if same == BLACK else BLACK
            colours[m["in"]] = same
            colours[m["out"]] = same
            for name in ("cu", "cin", "cv", "cout"):
                colours[m[name]] = opposite
            orient(m["cu"], m["cin"])
            orient(m["cin"], m["cv"])
            orient(m["cv"], m["cout"])
            orient(m["cout"], m["cu"])
        else:
            dichromatic.append((x, y))

    # One walk per dichromatic cycle, entered at the black end of its edge
    # with the smallest out-vertex; each step lays one path.
    records = aux.aux_records
    walked: Set[Edge] = set()
    for start in sorted(dichromatic, key=lambda d: records[d]["out"]):
        e, through = start, start[0] if colouring[start[0]] == BLACK else start[1]
        while e not in walked:
            walked.add(e)
            nxt = [edge_key(through, u) for u in _dichromatic_partners(planar.graph, colouring, through)]
            nxt.remove(e)
            if len(nxt) != 1:
                raise AssertionError("a matched vertex has exactly two dichromatic edges")
            f = nxt[0]
            m, fm = records[e], records[f]
            path = [m["out"], m["cout"], m["cu"] if through == m["u"] else m["cv"], through]
            path += [fm["cu"] if through == fm["u"] else fm["cv"], fm["cin"], fm["in"]]
            for a, b in zip(path, path[1:]):
                orient(a, b)
            for vtx in path:
                colours[vtx] = colouring[through]
            e, through = f, f[1] if f[0] == through else f[0]

    return ColouredOrientation(colours, orientation)


def canonicalize_orientation(trace: ReductionTrace, co: ColouredOrientation) -> ColouredOrientation:
    """Normalize each uniform four-cycle's pendants; the result is good.

    The lemma that the oriented edges form out-to-in paths and circuits
    follows from goodness, which `orientation_to_matching` checks: in a good
    orientation each degree-3 vertex has one opposite-colour neighbour, one
    arc in and one out, and an out-vertex has no arc in.
    - A uniform four-cycle takes that neighbour at both endpoints and both
      pendants, so it sits on a monochromatic edge; every other cycle splits
      into a same-colour pair at each endpoint, coloured like that endpoint.
    - So the out-vertex side of a split cycle runs out -> cout -> c -> endpoint.
    - Each original vertex's arc out starts one inward run, endpoint -> c ->
      cin -> in (cout has its arc in), and there are as many original
      vertices as dichromatic edges; so every in-vertex side runs inward,
      and no in-vertex is a tail.
    """
    aux = trace.aux
    if not verify_coloured_orientation(aux.graph, co, aux.out_vertices()):
        raise ValidationError("input is not a coloured orientation")
    colours = dict(co.colouring)
    orientation = dict(co.orientation)
    for (x, y), m in sorted(aux.aux_records.items()):
        cycle_colours = {colours[m[name]] for name in ("cu", "cin", "cout", "cv")}
        if len(cycle_colours) == 1:
            shade = cycle_colours.pop()
            opposite = WHITE if shade == BLACK else BLACK
            for pend, cyc in (("in", "cin"), ("out", "cout")):
                colours[m[pend]] = opposite
                orientation[edge_key(m[pend], m[cyc])] = UNORIENTED
    return ColouredOrientation(colours, orientation)


def _boundary_tuple(k: int, lu: int, lv: int, direction: str) -> Tuple[int, int]:
    """Labels (a_u, a_v) dictated by endpoint labels and edge orientation."""
    if lu != lv:  # dichromatic, never oriented
        return (k - 1, 1) if lu == 0 else (1, k - 1)
    if lu == 0:
        return (2, k) if direction == FORWARD else (k, 2)
    return (k - 2, 0) if direction == FORWARD else (0, k - 2)


def orientation_to_labelling(trace: ReductionTrace, co: ColouredOrientation, k: int) -> Labelling:
    """Execute the constructive labelling of the instance from a good
    coloured orientation."""
    aux, inst = trace.aux, trace.instance
    if inst is None or inst.k != k:
        raise ValidationError("trace does not carry an instance for this k")
    if not is_good_orientation(aux.graph, co, aux.out_vertices()):
        raise ValidationError("orientation is not good")
    labels: Dict[int, int] = {}
    for v in range(aux.graph.n):
        labels[v] = 0 if co.colouring[v] == WHITE else k
    for (x, y), record in sorted(inst.gadget_records.items()):
        lau, lav = _boundary_tuple(k, labels[x], labels[y], co.orientation[(x, y)])
        fill = edge_gadget_fills(k)[labels[x], labels[y], lau, lav]
        for name, v in record.items():  # all but u and v, which are x and y
            labels[v] = fill[name]
    for v, w in sorted(inst.w_map.items()):
        labels[w] = k - labels[v]
    for parent in sorted(inst.pendant_map):
        taken = {labels[u] for u in inst.graph.neighbours(parent) if u in labels}
        base = labels[parent]
        available = [
            x
            for x in range(k + 1)
            if abs(x - base) >= 2 and x not in taken
        ]
        leaves = [leaf for leaf in inst.pendant_map[parent] if leaf not in labels]
        if len(available) < len(leaves):
            raise AssertionError(f"not enough labels for the pendants of {parent}")
        for leaf, x in zip(sorted(leaves), available):
            labels[leaf] = x
    return Labelling(k, labels)


# ---------------------------------------------------------------------------
# Witness translations, backward
# ---------------------------------------------------------------------------


def labelling_to_orientation(trace: ReductionTrace, labelling: Labelling) -> ColouredOrientation:
    """Read colours from {0,k} labels and orientations from the a-labels."""
    aux, inst = trace.aux, trace.instance
    k = inst.k
    if not verify_labelling(inst.graph, labelling):
        raise ValidationError("labelling is invalid on the instance")
    colours: Dict[int, str] = {}
    for v in range(aux.graph.n):
        x = labelling.labels[v]
        if x == 0:
            colours[v] = WHITE
        elif x == k:
            colours[v] = BLACK
        else:
            raise InconsistencyError(f"degree-(k-1) vertex {v} carries label {x}")
    orientation: Dict[Edge, str] = {}
    for (x, y), record in inst.gadget_records.items():
        lau = labelling.labels[record["a_u"]]
        lav = labelling.labels[record["a_v"]]
        forward = lav in (0, k)
        backward = lau in (0, k)
        if forward and backward:
            raise InconsistencyError(f"edge ({x},{y}) oriented both ways")
        orientation[(x, y)] = FORWARD if forward else BACKWARD if backward else UNORIENTED
    return ColouredOrientation(colours, orientation)


def orientation_to_matching(trace: ReductionTrace, co: ColouredOrientation) -> TwoColouring:
    """Restrict the colours to the vertices of the planar cubic graph."""
    aux, planar = trace.aux, trace.planar
    if not is_good_orientation(aux.graph, co, aux.out_vertices()):
        raise ValidationError("orientation is not good")
    return {v: co.colouring[v] for v in range(planar.graph.n)}


def matching_to_assignment(trace: ReductionTrace, colouring: TwoColouring) -> Assignment:
    """Literals coloured white become true; polarity conflicts are refused."""
    planar = trace.planar
    if not verify_2cpm(planar.graph, colouring):
        raise ValidationError("input is not a two-coloured perfect matching")
    for u, v in planar.identifying_edges:
        if colouring[u] != colouring[v]:
            raise ValidationError(f"identifying edge ({u},{v}) is dichromatic")
    literal_truth: Dict[int, bool] = {}
    for lit, vertices in sorted(trace.cubic.literal_vertices.items()):
        shades = {colouring[v] for v in vertices}
        if len(shades) != 1:
            raise InconsistencyError(f"vertices of literal {lit} are not monochromatic")
        literal_truth[lit] = shades.pop() == WHITE
    assignment: Assignment = {}
    for var in range(1, trace.formula.num_vars + 1):
        pos = literal_truth.get(var)
        neg = literal_truth.get(-var)
        if pos is not None and neg is not None and pos == neg:
            raise InconsistencyError(f"variable {var} receives contradictory values")
        if pos is not None:
            assignment[var] = pos
        elif neg is not None:
            assignment[var] = not neg
        else:
            assignment[var] = False
    return assignment


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------


def trace_manifest(trace: ReductionTrace) -> dict:
    doc = {
        "k": trace.k,
        "num_vars": trace.formula.num_vars,
        "clauses": [list(c) for c in trace.formula.clauses],
        "slots": [
            {"index": i, "clause": s.clause, "port": s.port, "attach": s.attach}
            for i, s in enumerate(trace.cubic.chords.slots)
        ],
        "chords": [
            {"slot_lo": c.slot_lo, "slot_hi": c.slot_hi, "literal": c.literal}
            for c in trace.cubic.chords.chords
        ],
        "literal_vertices": {str(l): vs for l, vs in trace.cubic.literal_vertices.items()},
        "identifying_edges_cubic": [list(e) for e in trace.cubic.identifying_edges],
    }
    if trace.planar is not None:
        doc["crossing_count"] = trace.planar.crossing_count
        doc["identifying_edges_planar"] = [list(e) for e in trace.planar.identifying_edges]
        doc["uncrossing_gadgets"] = trace.planar.uncross_maps
    if trace.aux is not None:
        doc["aux_records"] = {f"{x}-{y}": m for (x, y), m in sorted(trace.aux.aux_records.items())}
    if trace.instance is not None:
        doc["gadget_records"] = {
            f"{x}-{y}": {"a_u": m["a_u"], "a_v": m["a_v"], "interior": m}
            for (x, y), m in sorted(trace.instance.gadget_records.items())
        }
        doc["pendants"] = {str(p): ls for p, ls in sorted(trace.instance.pendant_map.items())}
        doc["out_hubs"] = {str(v): w for v, w in sorted(trace.instance.w_map.items())}
    return doc


@collector_paused
def write_trace(trace: ReductionTrace, outdir) -> List[str]:
    """Write one JSON file per constructed stage plus the manifest."""
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str) -> None:
        (outdir / name).write_text(text)
        written.append(name)

    emit("formula.cnf", format_formula(trace.formula))
    emit("cubic.json", to_json(trace.cubic.graph))
    if trace.planar is not None:
        emit("planar.json", to_json(trace.planar.graph, trace.planar.rot))
    if trace.aux is not None:
        emit("aux.json", to_json(trace.aux.graph, trace.aux.rot))
    if trace.instance is not None:
        emit("instance.json", to_json(trace.instance.graph, trace.instance.rot, k=trace.instance.k))
    emit("manifest.json", json.dumps(trace_manifest(trace), sort_keys=True, separators=(",", ":")) + "\n")
    return written
