"""Simple undirected graphs with combinatorial embeddings.

A graph carries dense integer vertex ids plus a role tag and a short display
name per vertex.  Planarity is certified, never tested: constructions carry a
rotation system (cyclic neighbour order per vertex) and `verify_planar` checks
Euler's formula on the faces traced from it.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from itertools import accumulate, islice, repeat
from operator import itemgetter
from json.encoder import encode_basestring_ascii
from typing import Collection, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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


class Vertex(NamedTuple):
    id: int
    role: str
    name: str


class Graph:
    """Immutable simple graph.  Ids are dense 0..n-1."""

    def __init__(self, vertices: Sequence[Vertex], edges: Iterable[Edge]):
        vertices = tuple(vertices)
        n = len(vertices)
        dense = list(range(n))
        if [v.id for v in vertices] != dense:
            vertices = tuple(sorted(vertices, key=lambda v: v.id))
            if [v.id for v in vertices] != dense:
                raise ValidationError("vertex ids must be dense 0..n-1 and unique")
        if not {v.role for v in vertices} <= ROLES:
            bad = next(v for v in vertices if v.role not in ROLES)
            raise ValidationError(f"unknown role {bad.role!r} on vertex {bad.id}")
        edge_set = set()
        adj: List[List[int]] = [[] for _ in dense]
        for e in edges:
            u, v = e
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) has undeclared endpoint")
            if u > v or type(e) is not tuple:  # keep a sorted pair, shared with the caller
                e = (u, v) if u < v else (v, u)
            if e not in edge_set:
                edge_set.add(e)
                adj[u].append(v)
                adj[v].append(u)
        for ns in adj:
            ns.sort()
        self.vertices = vertices
        self.edges = frozenset(edge_set)
        self._adj = tuple(map(tuple, adj))

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
        return isinstance(other, Graph) and (self.vertices, self.edges) == (other.vertices, other.edges)

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
        rotation = self.rotation
        for v, ns in enumerate(graph._adj):  # sorted neighbours
            if sorted(rotation.get(v, ())) != list(ns):
                raise ValidationError(
                    f"rotation at vertex {v} does not list its incident edges exactly once"
                )
        n = graph.n
        for v in self.rotation:
            if not (0 <= v < n):
                raise ValidationError(f"rotation names foreign vertex {v}")

    def __eq__(self, other):
        return isinstance(other, RotationSystem) and self.rotation == other.rotation

    def __repr__(self):
        return f"RotationSystem({len(self.rotation)} vertices)"


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

    def plan(self, glued: Tuple[str, ...], drop: Collection[str]) -> tuple:
        """The compiled copy with `glued` names glued and `drop` names left out:
        (names, roles, take, ends, degrees, inner, dropped, markers).  A
        copy's slots are its copied vertices, glued hosts and `dropped` markers;
        `take` maps them to its edge ends (`ends` of them, in pairs), then its
        rotation rows (`degrees` long, `markers` markers in all).  `inner` is
        the copied neighbour of each glued name."""
        names = tuple(name for name, _ in self.vertices if name not in glued and name not in drop)
        slot = {name: i for i, name in enumerate(names + glued)}
        dropped: Dict[str, int] = {}  # name -> marker slot
        rows = [
            [
                slot[u] if u in slot else dropped.setdefault(u, len(slot) + len(dropped))
                for u in self.rotation[name]
            ]
            for name in names
        ]
        inner = [self.rotation.get(name, ()) for name in glued]
        if len(glued) > 2 or any(len(ns) != 1 or ns[0] not in slot or ns[0] in glued for ns in inner):
            raise ValidationError(f"glue {glued} must name one or two pendants of copied vertices")
        c = len(names)  # hosts precede the copy, so a host end comes first
        ends = [
            x
            for a, b in ((slot[x], slot[y]) for x, y in self.edges if x in slot and y in slot)
            for x in ((a, b) if a >= c or (a < b < c) else (b, a))
        ]
        index = ends + [u for row in rows for u in row]
        role = dict(self.vertices)
        return (
            names,
            tuple(role[name] for name in names),
            itemgetter(*index) if len(index) > 1 else lambda slots: tuple(slots[i] for i in index),
            len(ends),
            tuple(map(len, rows)),
            tuple(slot[ns[0]] for ns in inner),
            tuple(dropped),
            sum(u >= len(slot) for row in rows for u in row),
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
    ids or `Unfilled` markers that `link` replaces.  Markers enter it only
    through `embed` or by assigning `rotation` a whole seed, so the builder
    counts the open ones and looks for them at freeze only when some are left.
    A builder may start from the vertices (ids 0..n-1) of an earlier stage.
    """

    def __init__(self, vertices: Sequence[Vertex] = ()):
        self._vertices: List[Vertex] = list(vertices)
        self._edges: List[Edge] = []
        self.rotation: Dict[int, List[object]] = {}

    @property
    def rotation(self) -> Dict[int, List[object]]:
        return self._rotation

    @rotation.setter
    def rotation(self, seed: Dict[int, List[object]]) -> None:
        self._rotation = seed
        self._open = sum(type(u) is Unfilled for ns in seed.values() for u in ns)

    def add_vertex(self, role: str, name: str) -> int:
        vid = len(self._vertices)
        self._vertices.append(Vertex(vid, role, name))
        return vid

    def add_edge(self, u: int, v: int) -> None:
        self._edges.append(edge_key(u, v))

    def set_role(self, vid: int, role: str) -> None:
        old = self._vertices[vid]
        self._vertices[vid] = Vertex(vid, role, old.name)

    def add_vertices(self, roles: Iterable[str], names: Sequence[str]) -> List[int]:
        """Add one vertex per name, with the matching role; return their ids."""
        base = len(self._vertices)
        ids = list(range(base, base + len(names)))  # one int object per id
        # tuple.__new__ builds each Vertex without a Python-level call
        self._vertices.extend(map(tuple.__new__, repeat(Vertex), zip(ids, roles, names)))
        return ids

    def add_leaves(self, hangs: Sequence[Tuple[int, int, str]]) -> Dict[int, List[int]]:
        """For each (parent, count, prefix), hang `count` new pendant leaves
        named `prefix.leaf0`, `prefix.leaf1`, ... on `parent`, after the last
        entry of its rotation; return parent -> its new leaves.  Where they
        land in the cycle depends on the row's first entry, so stage files do."""
        leaves = self.add_vertices(
            repeat(PENDANT), [f"{prefix}.leaf{i}" for _, count, prefix in hangs for i in range(count)]
        )
        parents = [parent for parent, count, _ in hangs for _ in range(count)]
        self._edges.extend(zip(parents, leaves))
        self._rotation.update(zip(leaves, map(list, zip(parents))))
        out, it = {}, iter(leaves)
        for parent, count, _ in hangs:
            out[parent] = own = list(islice(it, count))
            self._rotation.setdefault(parent, []).extend(own)
        return out

    def embed(
        self,
        gadget: Template,
        copies: Sequence[Tuple[str, Dict[str, int]]],
        drop: Collection[str] = (),
        role: Optional[str] = None,
    ) -> List[Dict[str, int]]:
        """Copy `gadget` in once per (names, glue) of `copies`, all in one batch
        that reads each copy's edges and rotation rows off its slot list, and
        return each copy's name -> id map of the vertices it added.

        Every copy glues the same one or two names, each to the host vertex
        `glue[name]`; a glued name must be a pendant of the gadget.  The host's
        rotation entry for the other host (the host edge the gadget replaces)
        becomes the gadget neighbour, appended when there is no such entry.
        The other vertices, bar `drop`, are added in the gadget's order, named
        `names.format(name)`, with the gadget's role or `role`.  Edges to
        dropped vertices are left out; `Unfilled` markers keep their place in
        the rotation."""
        glued = tuple(copies[0][1]) if copies else ()
        copied, roles, take, e, degrees, inners, dropped, markers = gadget.plan(glued, drop)
        c = len(copied)
        affixes = [names.split("{}") for names, _ in copies]
        labels = [prefix + name + suffix for prefix, suffix in affixes for name in copied]
        new = self.add_vertices(roles * len(copies) if role is None else repeat(role), labels)
        rotation = self._rotation
        ends: List[object] = []
        entries: List[object] = []
        maps = []
        for i, ((_, glue), (prefix, suffix)) in enumerate(zip(copies, affixes)):
            ids = new[i * c : i * c + c]
            hosts = [glue[name] for name in glued]
            got = take(ids + hosts + [Unfilled(prefix + name + suffix) for name in dropped])
            ends += got[:e]
            entries += got[e:]
            for host, other, inner in zip(hosts, hosts[::-1], inners):  # replace, or append
                row = rotation.setdefault(host, [])
                at = row.index(other) if other in row else len(row)
                row[at : at + 1] = [ids[inner]]
            maps.append(dict(zip(copied, ids)))
        self._edges.extend(zip(ends[::2], ends[1::2]))
        bounds = list(accumulate(degrees * len(copies), initial=0))
        rotation.update(zip(new, map(entries.__getitem__, map(slice, bounds, bounds[1:]))))
        self._open += markers * len(copies)
        return maps

    def link(self, u: int, u_marker: str, v: int, v_marker: str) -> None:
        """Add edge u-v where the rotations of u and v hold the `Unfilled`
        markers named `u_marker` and `v_marker`."""
        self.add_edge(u, v)
        for x, marker, y in ((u, u_marker, v), (v, v_marker, u)):
            entries = self._rotation[x]
            entries[entries.index(Unfilled(marker))] = y
            self._open -= 1

    def freeze(self) -> Graph:
        return Graph(self._vertices, self._edges)

    def freeze_with_rotation(self) -> Tuple[Graph, RotationSystem]:
        if self._open:
            for vid, entries in self._rotation.items():
                if any(isinstance(entry, Unfilled) for entry in entries):
                    raise AssertionError(f"unfilled rotation slot at vertex {vid}")
        return self.freeze(), RotationSystem(self._rotation)


def rotation_from_coordinates(
    graph: Graph, pos: Dict[int, Tuple[Fraction, Fraction]]
) -> RotationSystem:
    """Counterclockwise neighbour order from exact coordinates, each row
    starting at the first direction counterclockwise from due east, inclusive.

    The key is the diamond angle of the direction (dx, dy), in [0, 4) and
    growing with the true angle: with t = dy / (|dx| + |dy|), 2 - t when
    dx < 0, t when dy >= 0, else 4 + t.  It is an exact `Fraction`, so
    decimal coordinates sort alike on every platform.  Two neighbours in one
    direction, or a zero-length edge, raise `ValidationError`.
    """

    def diamond(v: int, u: int) -> Fraction:
        dx, dy = pos[u][0] - pos[v][0], pos[u][1] - pos[v][1]
        s = abs(dx) + abs(dy)
        if s == 0:
            raise ValidationError(f"zero-length edge {v}-{u}")
        return Fraction(2 * s - dy if dx < 0 else dy if dy >= 0 else 4 * s + dy, s)

    rotation = {}
    for v in range(graph.n):
        key = {u: diamond(v, u) for u in graph.neighbours(v)}
        rotation[v] = row = sorted(key, key=key.__getitem__)
        if any(key[a] == key[b] for a, b in zip(row, row[1:])):
            raise ValidationError(f"collinear edge directions at vertex {v}")
    return RotationSystem(rotation)


def verify_planar(graph: Graph, rot: RotationSystem) -> bool:
    """Euler check V - E + F = 2 on every connected component (genus 0).

    Faces are the cycles of the dart successor permutation: the dart leaving
    v through its i-th rotation entry has index start[v] + i, and the dart
    after u->v leaves v through the entry after u.  Each component with an
    edge has V - E + F = 2 - 2g <= 2, so all have genus 0 exactly when the
    sums give 2 per such component; an isolated vertex is a sphere alone.
    """
    rot.validate(graph)
    rows = [rot.rotation.get(v, ()) for v in range(graph.n)]
    degree = list(map(len, rows))
    start = list(accumulate(degree, initial=0))
    succ = [start[v] + (rows[v].index(u) + 1) % degree[v] for u, row in enumerate(rows) for v in row]
    seen = bytearray(len(succ))
    faces = 0
    first = seen.find(0)
    while first >= 0:
        faces += 1
        d = first
        while not seen[d]:
            seen[d] = 1
            d = succ[d]
        first = seen.find(0, first + 1)
    comps = [comp for comp in graph.components() if len(comp) > 1]
    return sum(map(len, comps)) - graph.m + faces == 2 * len(comps)


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
    ports: Optional[Dict[str, int]] = None,
    k: Optional[int] = None,
) -> str:
    """The text `json.dumps(doc, sort_keys=True, separators=(",", ":"))` gives,
    newline terminated, with the big arrays written directly.  Each rotation
    cycle starts at its smallest neighbour; each entry is a sorted edge pair."""
    esc = encode_basestring_ascii  # the string escaper of json.dumps
    edges = ",".join([f"[{u},{v}]" for u, v in graph.sorted_edges()])
    if rot is None:
        rotation = "null"
    else:
        cycles = []
        for key, v in sorted((str(v), v) for v in rot.rotation):
            ns = rot.rotation[v]
            i = ns.index(min(ns))
            pairs = ",".join([f"[{v},{u}]" if v < u else f"[{u},{v}]" for u in ns[i:] + ns[:i]])
            cycles.append(f'"{key}":[{pairs}]')
        rotation = "{" + ",".join(cycles) + "}"
    vertices = ",".join(
        [f'{{"id":{i},"name":{esc(name)},"role":{esc(role)}}}' for i, role, name in graph.vertices]
    )
    port_doc = json.dumps(ports or {}, sort_keys=True, separators=(",", ":"))
    return (
        f'{{"edges":[{edges}],"k":{json.dumps(k)},"ports":{port_doc},'
        f'"rotation":{rotation},"vertices":[{vertices}]}}\n'
    )


def json_object(text: str, keys: Sequence[str], what: str) -> dict:
    """Parse ``text`` as a JSON object that holds every key in ``keys`` and
    whose objects, at any depth, name no key twice."""
    def unique(pairs: List[Tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            key = Counter(key for key, _ in pairs).most_common(1)[0][0]
            raise ValidationError(f"{what} JSON repeats the key {key!r} in one object")
        return obj

    doc = json.loads(text, object_pairs_hook=unique)
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} JSON must be an object, not {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValidationError(f"{what} JSON lacks {', '.join(map(repr, missing))}")
    return doc


def require_type(values: List[object], kind: type, what: str) -> None:
    """Raise unless every value has exactly type ``kind`` (so no bool for int)."""
    if not set(map(type, values)) <= {kind}:
        bad = next(x for x in values if type(x) is not kind)
        raise ValidationError(f"{what} must be {kind.__name__}, not {bad!r}")


def vertex_key(key: str, what: str) -> int:
    """The vertex id a JSON object key names, spelled only as `str(id)`."""
    if str(int(key)) != key:
        raise ValidationError(f"{what} key {key!r} is not a canonical vertex id")
    return int(key)


# what indexing a JSON value of the wrong type raises
JSON_SHAPE_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def collector_paused(fn):
    """`fn` with the cyclic garbage collector paused while it runs, and
    restored on return and on raise: the many small containers that a stage
    builder or a stage file's `json.loads` makes need no cycle search."""

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@collector_paused
def from_json(text: str) -> Tuple[Graph, Optional[RotationSystem], Dict[str, int], Optional[int]]:
    doc = json_object(text, ("vertices", "edges"), "graph")
    try:
        vertices = [Vertex(d["id"], d["role"], d["name"]) for d in doc["vertices"]]
        require_type([v.id for v in vertices], int, "graph JSON vertex id")
        require_type([v.name for v in vertices], str, "graph JSON vertex name")
        edges = [tuple(e) for e in doc["edges"]]
        require_type([x for e in edges for x in e], int, "graph JSON edge endpoint")
        graph = Graph(vertices, edges)
        rot = None
        if doc.get("rotation") is not None:
            rotation = {vertex_key(v, "graph JSON rotation"): p for v, p in doc["rotation"].items()}
            ends = [x for pairs in rotation.values() for pair in pairs for x in pair]
            require_type(ends, int, "graph JSON rotation endpoint")
            for v, pairs in rotation.items():
                ns = []
                for a, b in pairs:
                    if v not in (a, b):
                        raise ValidationError(f"rotation entry for {v} lists foreign edge ({a},{b})")
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
            raise ValidationError(f"graph JSON port {name!r} names foreign vertex {v}")
    k = doc.get("k")
    require_type([] if k is None else [k], int, "graph JSON k")
    return graph, rot, ports, k


def to_dot(graph: Graph, ports: Optional[Dict[str, int]] = None) -> str:
    port_names = {vid: name for name, vid in sorted((ports or {}).items())}
    lines = ["graph g {"]
    for v in graph.vertices:
        shape = _DOT_SHAPES[v.role]
        label = port_names.get(v.id, v.name).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{v.id} [label="{label}", shape={shape}];')
    for u, v in graph.sorted_edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
