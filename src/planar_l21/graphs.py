"""Simple undirected graphs with combinatorial embeddings.

A graph carries dense integer vertex ids plus a role tag and a short display
name per vertex.  Planarity is certified, never tested: constructions carry a
rotation system (cyclic neighbour order per vertex) and `verify_planar` checks
Euler's formula on the faces traced from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ValidationError

# Role tags, in the vocabulary used by every construction stage.
ORIGINAL = "Original"
CYCLE_VERTEX = "CycleVertex"
IN_VERTEX = "InVertex"
OUT_VERTEX = "OutVertex"
GADGET_INTERNAL = "GadgetInternal"
PENDANT = "Pendant"
PORT = "Port"
GATE = "Gate"

ROLES = frozenset(
    {ORIGINAL, CYCLE_VERTEX, IN_VERTEX, OUT_VERTEX, GADGET_INTERNAL, PENDANT, PORT, GATE}
)

Edge = Tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Vertex:
    id: int
    role: str
    name: str


class Graph:
    """Immutable simple graph.  Ids are dense 0..n-1."""

    def __init__(self, vertices: Sequence[Vertex], edges: Iterable[Edge]):
        vertices = tuple(sorted(vertices, key=lambda v: v.id))
        ids = [v.id for v in vertices]
        if ids != list(range(len(vertices))):
            raise ValidationError("vertex ids must be dense 0..n-1 and unique")
        for v in vertices:
            if v.role not in ROLES:
                raise ValidationError(f"unknown role {v.role!r} on vertex {v.id}")
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < len(vertices) and 0 <= v < len(vertices)):
                raise ValidationError(f"edge ({u},{v}) has undeclared endpoint")
            edge_set.add(edge_key(u, v))
        self.vertices = vertices
        self.edges = frozenset(edge_set)
        adj: List[List[int]] = [[] for _ in vertices]
        for u, v in edge_set:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(ns)) for ns in adj)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbours(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    @cached_property
    def distance2(self) -> Tuple[Tuple[int, ...], ...]:
        """Per vertex, the sorted vertices at distance exactly two."""
        out = []
        for v, ns in enumerate(self._adj):
            near = set(ns)
            near.add(v)
            out.append(tuple(sorted({w for u in ns for w in self._adj[u] if w not in near})))
        return tuple(out)

    def sorted_edges(self) -> List[Edge]:
        return sorted(self.edges)

    def components(self) -> List[List[int]]:
        """Connected components as sorted id lists, ordered by smallest member."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            queue = [start]
            while queue:
                u = queue.pop()
                for w in self._adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class RotationSystem:
    """Cyclic neighbour order around each vertex; the planarity certificate."""

    def __init__(self, rotation: Dict[int, Sequence[int]]):
        self.rotation = {v: tuple(ns) for v, ns in rotation.items() if len(ns) > 0}

    def validate(self, graph: Graph) -> None:
        """Check the rotation lists exactly the incident edges of every vertex."""
        for v in range(graph.n):
            rot = self.rotation.get(v, ())
            if sorted(rot) != sorted(graph.neighbours(v)):
                raise ValidationError(
                    f"rotation at vertex {v} does not list its incident edges exactly once"
                )
        for v in self.rotation:
            if not (0 <= v < graph.n):
                raise ValidationError(f"rotation names foreign vertex {v}")

    def successor(self, v: int, u: int) -> int:
        """Neighbour following u in the cyclic order around v."""
        rot = self.rotation[v]
        i = rot.index(u)
        return rot[(i + 1) % len(rot)]

    def __eq__(self, other):
        return isinstance(other, RotationSystem) and self.rotation == other.rotation

    def __repr__(self):
        return f"RotationSystem({len(self.rotation)} vertices)"


class PortMap:
    """Named access points of a gadget: port-name string -> vertex id."""

    def __init__(self, ports: Dict[str, int]):
        self.ports = dict(ports)

    def __getitem__(self, name: str) -> int:
        if name not in self.ports:
            raise ValidationError(f"missing port {name!r}")
        return self.ports[name]

    def __contains__(self, name: str) -> bool:
        return name in self.ports

    def items(self):
        return sorted(self.ports.items())

    def __eq__(self, other):
        return isinstance(other, PortMap) and self.ports == other.ports

    def __repr__(self):
        return f"PortMap({self.ports})"


@dataclass(frozen=True)
class Template:
    """A graph and its rotation in vertex-name space: the form in which
    `GraphBuilder.embed` copies a gadget."""

    vertices: Tuple[Tuple[str, str], ...]  # (name, role) in vertex-id order
    edges: Tuple[Tuple[str, str], ...]
    rotation: Dict[str, Tuple[str, ...]]

    @classmethod
    def of(cls, graph: Graph, rot: RotationSystem) -> "Template":
        name = [v.name for v in graph.vertices]
        return cls(
            tuple((v.name, v.role) for v in graph.vertices),
            tuple((name[u], name[v]) for u, v in graph.sorted_edges()),
            {name[v]: tuple(name[u] for u in ns) for v, ns in rot.rotation.items()},
        )


@dataclass(frozen=True)
class Unfilled:
    """Rotation entry left where a dropped gadget vertex was a neighbour.

    `name` is the name the dropped vertex would have had in the copy.
    """

    name: str


class GraphBuilder:
    """Mutable helper used by the constructions; `freeze` yields the graph.

    `rotation` holds the rotation under construction; its entries are vertex
    ids or `Unfilled` markers that `link` replaces.
    """

    def __init__(self):
        self._vertices: List[Vertex] = []
        self._edges: List[Edge] = []
        self.rotation: Dict[int, List[object]] = {}

    def add_vertex(self, role: str, name: str) -> int:
        vid = len(self._vertices)
        self._vertices.append(Vertex(vid, role, name))
        return vid

    def add_edge(self, u: int, v: int) -> None:
        self._edges.append(edge_key(u, v))

    @property
    def n(self) -> int:
        return len(self._vertices)

    def set_role(self, vid: int, role: str) -> None:
        old = self._vertices[vid]
        self._vertices[vid] = Vertex(vid, role, old.name)

    def embed(
        self,
        gadget: Template,
        names: str,
        glue: Dict[str, int],
        drop: Collection[str],
        role: Optional[str] = None,
    ) -> Dict[str, int]:
        """Copy `gadget` in, returning its name -> id map (glued names included).

        Every vertex that is neither glued nor dropped is added in the
        gadget's vertex order, named `names.format(name)`, with the gadget's
        role or `role`.  A glued name is the host vertex `glue[name]`; it must
        be a pendant of the gadget.  Its host rotation entry for the other
        glued vertex, the host edge the gadget replaces, becomes the gadget
        neighbour, which is appended when there is no such entry.  Edges to
        dropped vertices are left out, and the rotation keeps an `Unfilled`
        marker in their place.
        """
        ids = dict(glue)
        copied = [
            (name, r) for name, r in gadget.vertices if name not in glue and name not in drop
        ]
        for name, r in copied:
            ids[name] = self.add_vertex(role or r, names.format(name))
        for x, y in gadget.edges:
            if x in ids and y in ids:
                self.add_edge(ids[x], ids[y])
        for name, _ in copied:
            self.rotation[ids[name]] = [
                ids[u] if u in ids else Unfilled(names.format(u)) for u in gadget.rotation[name]
            ]
        for name, host in glue.items():
            (inner,) = gadget.rotation[name]
            entries = self.rotation.setdefault(host, [])
            replaced = [i for i, u in enumerate(entries) if u in glue.values()]
            if replaced:
                entries[replaced[0]] = ids[inner]
            else:
                entries.append(ids[inner])
        return ids

    def link(self, u: int, u_marker: str, v: int, v_marker: str) -> None:
        """Add edge u-v where the rotations of u and v hold the `Unfilled`
        markers named `u_marker` and `v_marker`."""
        self.add_edge(u, v)
        for x, marker, y in ((u, u_marker, v), (v, v_marker, u)):
            entries = self.rotation[x]
            entries[entries.index(Unfilled(marker))] = y

    def freeze(self) -> Graph:
        return Graph(self._vertices, self._edges)

    def freeze_with_rotation(self) -> Tuple[Graph, RotationSystem]:
        for vid, entries in self.rotation.items():
            if any(isinstance(entry, Unfilled) for entry in entries):
                raise AssertionError(f"unfilled rotation slot at vertex {vid}")
        return self.freeze(), RotationSystem(self.rotation)


def rotation_from_coordinates(
    graph: Graph, pos: Dict[int, Tuple[Fraction, Fraction]]
) -> RotationSystem:
    """Counterclockwise neighbour order from exact coordinates.

    Exact rational comparisons, so figure transcriptions with decimal
    coordinates stay deterministic across platforms.
    """

    def ccw_cmp_from(origin):
        ox, oy = origin

        def half(p):
            dx, dy = p[0] - ox, p[1] - oy
            # 0 for angles in [0, pi), 1 for [pi, 2pi)
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

    rotation = {}
    for v in range(graph.n):
        ns = list(graph.neighbours(v))
        ns.sort(key=cmp_to_key(ccw_cmp_from(pos[v])))
        rotation[v] = ns
    return RotationSystem(rotation)


def faces(graph: Graph, rot: RotationSystem) -> List[Tuple[Tuple[int, int], ...]]:
    """Face walks traced from the rotation system.

    Every directed edge side lies on exactly one walk.  Walks are reported in
    a canonical order (each starts at its smallest directed edge); isolated
    vertices contribute no walk.
    """
    rot.validate(graph)
    remaining = set()
    for u, v in graph.edges:
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
            cur = (v, rot.successor(v, u))
            if cur == start:
                break
            if cur not in remaining:
                raise ValidationError(f"face tracing revisited {cur}; rotation malformed")
        walks.append(tuple(walk))
    return walks


def verify_planar(graph: Graph, rot: RotationSystem) -> bool:
    """Euler check V - E + F = 2 on every connected component (genus 0)."""
    walks = faces(graph, rot)
    comp_of = [0] * graph.n
    counts = []  # V, E, F per component
    for ci, comp in enumerate(graph.components()):
        for v in comp:
            comp_of[v] = ci
        counts.append([len(comp), 0, 0])
    for u, v in graph.edges:
        counts[comp_of[u]][1] += 1
    for walk in walks:
        counts[comp_of[walk[0][0]]][2] += 1
    for V, E, F in counts:
        if E == 0:
            continue  # isolated vertex: sphere with one face
        if V - E + F != 2:
            return False
    return True


def check_regular(graph: Graph, d: int) -> bool:
    """True iff every vertex has degree exactly d (vacuously true when empty)."""
    return all(graph.degree(v) == d for v in range(graph.n))


# ---------------------------------------------------------------------------
# Serialization: canonical key-sorted JSON, newline terminated, and DOT.
# ---------------------------------------------------------------------------

_DOT_SHAPES = {
    ORIGINAL: "circle",
    CYCLE_VERTEX: "diamond",
    IN_VERTEX: "triangle",
    OUT_VERTEX: "invtriangle",
    GADGET_INTERNAL: "ellipse",
    PENDANT: "point",
    PORT: "square",
    GATE: "house",
}


def to_json(
    graph: Graph,
    rot: Optional[RotationSystem] = None,
    ports: Optional[PortMap] = None,
    k: Optional[int] = None,
) -> str:
    doc = {
        "k": k,
        "vertices": [{"id": v.id, "role": v.role, "name": v.name} for v in graph.vertices],
        "edges": [list(e) for e in graph.sorted_edges()],
        "rotation": None
        if rot is None
        else {str(v): [list(edge_key(v, u)) for u in _canonical_cycle(ns)] for v, ns in rot.rotation.items()},
        "ports": {} if ports is None else {name: vid for name, vid in ports.items()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _canonical_cycle(ns: Sequence[int]) -> Tuple[int, ...]:
    """Rotate a cyclic sequence to start at the smallest neighbour."""
    if not ns:
        return ()
    i = min(range(len(ns)), key=lambda j: ns[j])
    return tuple(ns[i:]) + tuple(ns[:i])


def json_object(text: str, keys: Sequence[str], what: str) -> dict:
    """Parse ``text`` as a JSON object that holds every key in ``keys``."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} JSON must be an object, not {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValidationError(f"{what} JSON lacks {', '.join(map(repr, missing))}")
    return doc


# what indexing a JSON value of the wrong type raises
JSON_SHAPE_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def from_json(text: str) -> Tuple[Graph, Optional[RotationSystem], PortMap, Optional[int]]:
    doc = json_object(text, ("vertices", "edges"), "graph")
    try:
        vertices = [Vertex(d["id"], d["role"], d["name"]) for d in doc["vertices"]]
        graph = Graph(vertices, [tuple(e) for e in doc["edges"]])
        rot = None
        if doc.get("rotation") is not None:
            rotation = {}
            for vs, pairs in doc["rotation"].items():
                v = int(vs)
                ns = []
                for a, b in pairs:
                    if v not in (a, b):
                        raise ValidationError(f"rotation entry for {v} lists foreign edge ({a},{b})")
                    ns.append(b if a == v else a)
                rotation[v] = ns
            rot = RotationSystem(rotation)
        ports = PortMap(doc.get("ports") or {})
    except JSON_SHAPE_ERRORS as exc:
        raise ValidationError(f"graph JSON has the wrong shape: {exc!r}") from exc
    k = doc.get("k")
    if k is not None and type(k) is not int:
        raise ValidationError(f"graph JSON has a non-integer k: {k!r}")
    return graph, rot, ports, k


def to_dot(graph: Graph, ports: Optional[PortMap] = None) -> str:
    port_names = {}
    if ports is not None:
        for name, vid in ports.items():
            port_names[vid] = name
    lines = ["graph g {"]
    for v in graph.vertices:
        shape = _DOT_SHAPES[v.role]
        label = port_names.get(v.id, v.name)
        lines.append(f'  v{v.id} [label="{label}", shape={shape}];')
    for u, v in graph.sorted_edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
