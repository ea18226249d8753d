"""Independent oracles that the tests cross-check the library against.

Each one works straight from a definition, by exhaustive enumeration where it
decides something, and uses only public library names, so it shares no code
with the solver or verifier it checks.  The one exception is
`pinned_extensions`, the reference for how `_LabelSearch.extensions` walks a
boundary: it runs that search's own pinned `solve` (a walk of one tuple) once
per tuple.
"""

import json
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from typing import Collection, Dict, List, Optional, Set, Tuple

from planar_l21.colouring import BACKWARD, BLACK, FORWARD, WHITE, ColouredOrientation, TwoColouring
from planar_l21.errors import CapacityError, ValidationError, quote
from planar_l21.graphs import (
    IN_VERTEX,
    JSON_SHAPE_ERRORS,
    Graph,
    GraphBuilder,
    RotationSystem,
    Unfilled,
    Vertex,
    edge_key,
    require_type,
)
from planar_l21.gadgets import GadgetInstance, build_edge_gadget
from planar_l21.labelling import (
    SAT,
    UNSAT,
    Labelling,
    SolveResult,
    solve_labelling,
    verify_labelling,
)

BRUTE_FORCE_STATE_LIMIT = 10**9
BITMASK_SWEEP_LIMIT = 20


def distance2_pairs(graph: Graph) -> Set[Tuple[int, int]]:
    """Pairs u < v of non-adjacent vertices with a common neighbour."""
    return {
        (u, v)
        for w in range(graph.n)
        for u in graph.neighbours(w)
        for v in graph.neighbours(w)
        if u < v and not graph.has_edge(u, v)
    }


def swap_colours(colouring: TwoColouring) -> TwoColouring:
    return {v: WHITE if c == BLACK else BLACK for v, c in colouring.items()}


def verify_almost_2cpm(graph: Graph, colouring: TwoColouring) -> bool:
    """The 2CPM constraint restricted to vertices of degree at least two."""
    for v in range(graph.n):
        if colouring.get(v) not in (BLACK, WHITE):
            raise ValidationError(f"colouring is not total: vertex {v}")
    return all(
        sum(1 for u in graph.neighbours(v) if colouring[u] == colouring[v]) == 1
        for v in range(graph.n)
        if graph.degree(v) >= 2
    )


def enumerate_2cpm_bitmask(graph: Graph) -> List[TwoColouring]:
    """Every 2CPM, by sweeping all 2^n colourings."""
    if graph.n > BITMASK_SWEEP_LIMIT:
        raise CapacityError(f"{graph.n} vertices exceed sweep limit {BITMASK_SWEEP_LIMIT}")
    out = []
    for mask in range(1 << graph.n):
        bits = [(mask >> v) & 1 for v in range(graph.n)]
        if all(
            sum(1 for u in graph.neighbours(v) if bits[u] == bits[v]) == 1 for v in range(graph.n)
        ):
            out.append({v: WHITE if b else BLACK for v, b in enumerate(bits)})
    return out


def solve_labelling_bruteforce(
    graph: Graph, k: int, pinned: Optional[Dict[int, int]] = None
) -> SolveResult:
    """Exhaustive enumeration in vertex-id order.

    Works component by component (the constraints never cross components) so
    free satellites do not blow up the refutation of a rigid core.
    """
    if graph.n > 60 or (k + 1) ** graph.n > BRUTE_FORCE_STATE_LIMIT:
        raise CapacityError(f"(k+1)^{graph.n} exceeds the enumeration limit")
    pins = dict(pinned or {})
    for v, x in pins.items():
        if not (0 <= v < graph.n and 0 <= x <= k):
            raise ValidationError(f"pin {x} at vertex {v} outside the graph or [0,{k}]")
    d2: Dict[int, List[int]] = {v: [] for v in range(graph.n)}
    for u, v in sorted(distance2_pairs(graph)):
        d2[u].append(v)
        d2[v].append(u)
    labels: Dict[int, int] = {}

    def extend(vertices: List[int], idx: int) -> bool:
        if idx == len(vertices):
            return True
        v = vertices[idx]
        for x in [pins[v]] if v in pins else range(k + 1):
            if any(u in labels and abs(labels[u] - x) < 2 for u in graph.neighbours(v)):
                continue
            if any(labels.get(u) == x for u in d2[v]):
                continue
            labels[v] = x
            if extend(vertices, idx + 1):
                return True
            del labels[v]
        return False

    for comp in graph.components():
        if not extend(comp, 0):
            return SolveResult(UNSAT)
    labelling = Labelling(k, dict(labels))
    assert verify_labelling(graph, labelling)
    return SolveResult(SAT, labelling=labelling)


def pin_conflict(graph: Graph, pins: Dict[int, int]) -> Optional[str]:
    """The reason `solve_labelling` gives for the first pair of pins u < v,
    in sorted order, that no span-k labelling can hold, or None: every pair
    of pins compared, the reference for the solver's neighbourhood scan."""
    items = sorted(pins.items())
    far = distance2_pairs(graph)
    for i, (u, xu) in enumerate(items):
        for v, xv in items[i + 1 :]:
            if abs(xu - xv) < 2 and graph.has_edge(u, v):
                return f"pins {u}={xu}, {v}={xv} violate the adjacency gap"
            if xu == xv and (u, v) in far:
                return f"pins {u}={xu}, {v}={xv} collide at distance two"
    return None


def boundary_table(
    graph: Graph, k: int, boundary: List[int], domains: List[Collection[int]], solve=solve_labelling
) -> Dict[Tuple[int, ...], Labelling]:
    """The tuples of the product of ``domains`` that extend to a span-k
    labelling of ``graph`` with ``boundary`` pinned to them, each with its
    witness: one fresh ``solve`` per tuple, in the product's order, sharing
    no search set-up with `_LabelSearch.extensions`."""
    results = {labels: solve(graph, k, dict(zip(boundary, labels))) for labels in product(*domains)}
    return {labels: result.labelling for labels, result in results.items() if result.outcome == SAT}


def pinned_extensions(
    search, boundary: List[int], domains: List[Collection[int]]
) -> Dict[Tuple[int, ...], Labelling]:
    """`_LabelSearch.extensions` by one pinned ``search.solve`` per tuple of
    the product of ``domains``, in the product's order, each extending tuple
    with its witness: the reference for the walk over the boundary, which
    shares a prefix's propagation among the tuples that extend it."""
    results = {labels: search.solve(dict(zip(boundary, labels)), None) for labels in product(*domains)}
    return {labels: result.labelling for labels, result in results.items() if result.is_sat}


def edge_gadget_table(k: int) -> Set[Tuple[int, int, int, int]]:
    """The (L(u), L(v), L(a_u), L(a_v)) tuples of G_k, ends in {0, k}, that
    extend to a span-k labelling: one fresh `solve_labelling` over the whole
    gadget per tuple."""
    inst = build_edge_gadget(k)
    boundary = [inst.ports[name] for name in ("u", "v", "a_u", "a_v")]
    ends, inner = (0, k), range(k + 1)
    return set(boundary_table(inst.graph, k, boundary, [ends, ends, inner, inner]))


def propagate_to_fixpoint(graph: Graph, k: int, domains: List[int]) -> Optional[List[int]]:
    """The label search's propagation verdict from the rules alone: the
    domains (label bitmasks over [0, k]) narrowed by sweeping every vertex
    with the gap rule (a neighbour keeps only labels at distance >= 2 from
    some candidate) and the distance-two rule (a singleton's label leaves its
    distance-two vertices) until a sweep changes nothing.  None when a domain
    empties, or when the neighbours of some vertex of degree >= 3 admit no
    system of distinct representatives (found by trying every pick)."""
    labels = [{x for x in range(k + 1) if mask >> x & 1} for mask in domains]
    far: Dict[int, List[int]] = {v: [] for v in range(graph.n)}
    for u, v in distance2_pairs(graph):
        far[u].append(v)
        far[v].append(u)
    changed = True
    while changed:
        changed = False
        for v in range(graph.n):
            for u in graph.neighbours(v):
                keep = {y for y in labels[u] if any(abs(x - y) >= 2 for x in labels[v])}
                changed |= keep != labels[u]
                labels[u] = keep
            if len(labels[v]) == 1:
                for u in far[v]:
                    changed |= bool(labels[u] & labels[v])
                    labels[u] = labels[u] - labels[v]
            if not all(labels[u] for u in graph.neighbours(v) + tuple(far[v])):
                return None

    def distinct_picks(sets: List[Set[int]], used: Set[int]) -> bool:
        return not sets or any(distinct_picks(sets[1:], used | {x}) for x in sets[0] - used)

    for v in range(graph.n):
        ns = graph.neighbours(v)
        if len(ns) >= 3 and not distinct_picks(sorted((labels[u] for u in ns), key=len), set()):
            return None
    return [sum(1 << x for x in ls) for ls in labels]


def oriented_pairs(co: ColouredOrientation) -> List[Tuple[int, int]]:
    """Directed edges (tail, head) of the oriented part, in edge order."""
    out = []
    for (u, v), d in sorted(co.orientation.items()):
        if d == FORWARD:
            out.append((u, v))
        elif d == BACKWARD:
            out.append((v, u))
    return out


def oriented_component_structure(
    graph: Graph, co: ColouredOrientation, out_vertices: Set[int]
) -> List[Tuple[str, List[int]]]:
    """Classify each component of the oriented subgraph.

    Returns (kind, sorted vertices) per non-trivial component, where kind is
    "path" (out-vertex to in-vertex), "circuit", or "other".
    """
    pairs = oriented_pairs(co)
    adj: Dict[int, List[int]] = {}
    indeg: Dict[int, int] = {}
    outdeg: Dict[int, int] = {}
    for tail, head in pairs:
        adj.setdefault(tail, []).append(head)
        adj.setdefault(head, []).append(tail)
        outdeg[tail] = outdeg.get(tail, 0) + 1
        indeg[head] = indeg.get(head, 0) + 1
    seen: Set[int] = set()
    out: List[Tuple[str, List[int]]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        comp.sort()
        degrees = [(indeg.get(v, 0), outdeg.get(v, 0)) for v in comp]
        if all(d == (1, 1) for d in degrees):
            out.append(("circuit", comp))
            continue
        sources = [v for v in comp if indeg.get(v, 0) == 0 and outdeg.get(v, 0) == 1]
        sinks = [v for v in comp if indeg.get(v, 0) == 1 and outdeg.get(v, 0) == 0]
        middles = all(
            (indeg.get(v, 0), outdeg.get(v, 0)) == (1, 1)
            for v in comp
            if v not in sources and v not in sinks
        )
        if (
            len(sources) == 1
            and len(sinks) == 1
            and middles
            and sources[0] in out_vertices
            and graph.vertices[sinks[0]].role == IN_VERTEX
        ):
            out.append(("path", comp))
        else:
            out.append(("other", comp))
    return out


def successor(rot: RotationSystem, v: int, u: int) -> int:
    """Neighbour following u in the cyclic order around v."""
    ns = rot.rotation[v]
    return ns[(ns.index(u) + 1) % len(ns)]


def faces(graph: Graph, rot: RotationSystem) -> List[Tuple[Tuple[int, int], ...]]:
    """Face walks traced from the rotation system, dart by dart.

    Every directed edge side lies on exactly one walk.  Walks are reported in
    a canonical order (each starts at its smallest directed edge); isolated
    vertices contribute no walk.
    """
    rot.validate(graph)
    remaining = set()
    for u, v in graph.sorted_edges():
        remaining.add((u, v))
        remaining.add((v, u))
    walks = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        walk = []
        cur = start
        while True:
            walk.append(cur)
            remaining.discard(cur)
            u, v = cur
            cur = (v, successor(rot, v, u))
            if cur == start:
                break
            if cur not in remaining:
                raise ValidationError(f"face tracing revisited {cur}; rotation malformed")
        walks.append(tuple(walk))
    return walks


def rotation_by_half_planes(
    graph: Graph, pos: Dict[int, Tuple[Fraction, Fraction]]
) -> RotationSystem:
    """Counterclockwise neighbour order from exact coordinates by pairwise
    comparison: a direction with angle in [0, pi) comes before one in
    [pi, 2pi), and two in one half-plane compare by the sign of their cross
    product.  Raises `ValidationError` when two compared directions are
    collinear."""

    def ccw_cmp_from(origin):
        ox, oy = origin

        def half(p):
            dx, dy = p[0] - ox, p[1] - oy
            return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

        def cmp(a, b):
            pa, pb = pos[a], pos[b]
            ha, hb = half(pa), half(pb)
            if ha != hb:
                return -1 if ha < hb else 1
            cross = (pa[0] - ox) * (pb[1] - oy) - (pa[1] - oy) * (pb[0] - ox)
            if cross == 0:
                raise ValidationError(f"collinear edge directions at vertex near {origin}")
            return -1 if cross > 0 else 1

        return cmp

    return RotationSystem(
        {v: sorted(graph.neighbours(v), key=cmp_to_key(ccw_cmp_from(pos[v]))) for v in range(graph.n)}
    )


def euler_planar(graph: Graph, rot: RotationSystem) -> bool:
    """V - E + F = 2 on every component with an edge, F counted as the face
    walks that `faces` traces from the component's darts."""
    comp_of = {v: i for i, comp in enumerate(graph.components()) for v in comp}
    counts = [[len(comp), 0, 0] for comp in graph.components()]
    for u, _ in graph.sorted_edges():
        counts[comp_of[u]][1] += 1
    for walk in faces(graph, rot):
        counts[comp_of[walk[0][0]]][2] += 1
    return all(E == 0 or V - E + F == 2 for V, E, F in counts)


def embed_by_names(
    builder: GraphBuilder,
    gadget: GadgetInstance,
    names: str,
    glue: Dict[str, int],
    drop: Collection[str],
    role: Optional[str] = None,
) -> Dict[str, int]:
    """`GraphBuilder.embed` done in name space, one vertex and rotation entry
    at a time, as its docstring describes it.  The gadget is first read into
    vertex names: its (name, role) pairs and rotation."""
    by_id = [v.name for v in gadget.graph.vertices]
    vertices = [(v.name, v.role) for v in gadget.graph.vertices]
    rotation = {by_id[v]: [by_id[u] for u in ns] for v, ns in gadget.rot.rotation.items()}
    ids = dict(glue)
    copied = [(name, r) for name, r in vertices if name not in glue and name not in drop]
    for name, r in copied:
        ids[name] = builder.add_vertex(role or r, names.format(name))
    for name, _ in copied:
        builder.rotation[ids[name]] = [
            ids[u] if u in ids else Unfilled(names.format(u)) for u in rotation[name]
        ]
    for name, host in glue.items():
        (inner,) = rotation[name]
        entries = builder.rotation.setdefault(host, [])
        replaced = [i for i, u in enumerate(entries) if u in glue.values()]
        if replaced:
            entries[replaced[0]] = ids[inner]
        else:
            entries.append(ids[inner])
    return ids


def perturbed_crossing_order(arcs: List[Tuple[int, int]], eps: Fraction) -> Dict[int, List[int]]:
    """Per arc with a crossing, its interleaving partners ordered from its low
    end to its high end in one actual drawing: arc i shifted right by
    ``eps**(i+1)``, each crossing placed at the exact abscissa where the two
    shifted semicircles meet."""
    shifted = [(lo + eps ** (i + 1), hi + eps ** (i + 1)) for i, (lo, hi) in enumerate(arcs)]

    def abscissa(i: int, j: int) -> Fraction:
        # (x - c)^2 + y^2 = r^2 for both circles; subtracting leaves a line
        (a1, a2), (b1, b2) = shifted[i], shifted[j]
        return (a1 * a2 - b1 * b2) / ((a1 + a2) - (b1 + b2))

    order = {}
    for i, (lo, hi) in enumerate(arcs):
        partners = [j for j, (lo2, hi2) in enumerate(arcs) if lo < lo2 < hi < hi2 or lo2 < lo < hi2 < hi]
        if partners:
            order[i] = sorted(partners, key=lambda j: abscissa(i, j))
    return order


def rows_are_simple(rot: RotationSystem) -> bool:
    """Whether no rotation row repeats an entry and every dart x->y has its
    reverse y->x: the rows are the adjacency of a simple graph."""
    darts = [(x, y) for x, row in rot.rotation.items() for y in row]
    return len(set(darts)) == len(darts) and {(y, x) for x, y in darts} == set(darts)


def whole_json_object(text: str, keys: Collection[str], what: str) -> dict:
    """`graphs.json_object` by its definition: the whole text parsed by
    `json.loads` at once, a repeated key refused in any object, then the
    document's type and its keys checked."""

    def unique(pairs):
        if len(dict(pairs)) != len(pairs):
            key = Counter(key for key, _ in pairs).most_common(1)[0][0]
            raise ValidationError(f"{what} JSON repeats the key {quote(key)} in one object")
        return dict(pairs)

    try:
        doc = json.loads(text, object_pairs_hook=unique)
    except RecursionError as exc:
        raise ValidationError(f"{what} JSON nests too deeply") from exc
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise ValidationError(f"{what} JSON holds an integer too long to read") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} JSON must be an object, not {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValidationError(f"{what} JSON lacks {', '.join(map(repr, missing))}")
    return doc


def stage_json(
    graph: Graph,
    rot: Optional[RotationSystem] = None,
    ports: Optional[Dict[str, int]] = None,
    k: Optional[int] = None,
) -> str:
    """The stage-file text by its definition: the document, dumped with sorted
    keys and no spaces, each rotation cycle started at its smallest neighbour."""

    def canonical(ns):
        i = min(range(len(ns)), key=lambda j: ns[j])
        return list(ns[i:]) + list(ns[:i])

    doc = {
        "k": k,
        "vertices": [{"id": v.id, "role": v.role, "name": v.name} for v in graph.vertices],
        "edges": [list(e) for e in graph.sorted_edges()],
        "rotation": None
        if rot is None
        else {str(v): [list(edge_key(v, u)) for u in canonical(ns)] for v, ns in rot.rotation.items()},
        "ports": ports or {},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def read_stage_file(
    text: str,
) -> Tuple[Graph, Optional[RotationSystem], Dict[str, int], Optional[int]]:
    """A stage file read by its definition: the whole document parsed, then
    each section checked and converted in turn, one entry and one key at a
    time; the reference for the order and the messages of `from_json`."""
    doc = whole_json_object(text, ("vertices", "edges"), "graph")
    try:
        vertices = [Vertex(d["id"], d["role"], d["name"]) for d in doc["vertices"]]
        require_type([v.id for v in vertices], int, "graph JSON vertex id")
        require_type([v.name for v in vertices], str, "graph JSON vertex name")
        for e in doc["edges"]:
            if type(e) is not list or len(e) != 2:
                raise ValidationError(f"graph JSON edge {quote(e)} is not a pair")
        edges = [tuple(e) for e in doc["edges"]]
        require_type([x for e in edges for x in e], int, "graph JSON edge endpoint")
        graph = Graph(vertices, edges)
        rot = None
        if doc.get("rotation") is not None:
            rotation = {}
            for key, pairs in doc["rotation"].items():
                if not (key.removeprefix("-").isdigit() and key.isascii() and str(int(key)) == key):
                    raise ValidationError(f"graph JSON rotation key {quote(key)} is not a canonical vertex id")
                rotation[int(key)] = pairs
            for pairs in rotation.values():
                for pair in pairs:
                    if type(pair) is not list or len(pair) != 2:
                        raise ValidationError(f"graph JSON rotation entry {quote(pair)} is not a pair")
            ends = [x for pairs in rotation.values() for pair in pairs for x in pair]
            require_type(ends, int, "graph JSON rotation endpoint")
            for v, pairs in rotation.items():
                ns = []
                for a, b in pairs:
                    if v not in (a, b):
                        raise ValidationError(
                            f"rotation entry for {quote(v)} lists foreign edge ({quote(a)},{quote(b)})"
                        )
                    ns.append(b if a == v else a)
                rotation[v] = ns
            rot = RotationSystem(rotation)
    except JSON_SHAPE_ERRORS as exc:
        raise ValidationError(f"graph JSON has the wrong shape: {exc!r}") from exc
    ports = {} if doc.get("ports") is None else doc["ports"]
    if not isinstance(ports, dict):
        raise ValidationError(f"graph JSON ports must be an object, not {type(ports).__name__}")
    require_type(list(ports.values()), int, "graph JSON port")
    for name, v in ports.items():
        if not 0 <= v < graph.n:
            raise ValidationError(f"graph JSON port {quote(name)} names foreign vertex {quote(v)}")
    k = doc.get("k")
    require_type([] if k is None else [k], int, "graph JSON k")
    return graph, rot, ports, k
