"""Simple undirected graphs with combinatorial embeddings.

A graph carries dense integer vertex ids plus a role tag and a short display
name per vertex, and its edges once, as the sorted adjacency.  Planarity is
certified, never tested: constructions carry a rotation system (cyclic
neighbour order per vertex) and `verify_planar` checks Euler's formula on the
faces traced from it.  A builder's rotation rows are its only record of the
edges; the graph it freezes is those rows sorted.  Stage files are read one
top-level section at a time, so a whole parse is never held.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, wraps
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Collection, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ValidationError, quote

if TYPE_CHECKING:  # gadgets builds on this module
    from .gadgets import GadgetInstance

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
_ROLE_TAGS = {role: role for role in ROLES}  # a role read from a file -> the one string of its tag

Edge = Tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Vertex(NamedTuple):
    id: int
    role: str
    name: str


class Graph:
    """Immutable simple graph.  Ids are dense 0..n-1.  Its one record of the
    edges is the sorted adjacency: ``_adj[v]`` lists v's neighbours in
    increasing order, so the edges (u, v), u < v, read off it row by row come
    out sorted."""

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
            raise ValidationError(f"unknown role {quote(bad.role)} on vertex {bad.id}")
        adj: List[List[int]] = [[] for _ in dense]
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {quote(u)}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({quote(u)},{quote(v)}) has undeclared endpoint")
            adj[u].append(v)
            adj[v].append(u)
        self.vertices = vertices
        self._adj = tuple(tuple(sorted(set(ns))) for ns in adj)  # an edge given twice counts once

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def m(self) -> int:
        return sum(map(len, self._adj)) // 2

    def neighbours(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u-v is an edge; False for an id outside 0..n-1."""
        if not 0 <= u < len(self._adj):
            return False
        ns = self._adj[u]
        i = bisect_left(ns, v)
        return i < len(ns) and ns[i] == v

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
        return [(u, v) for u, ns in enumerate(self._adj) for v in ns if u < v]

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
        return isinstance(other, Graph) and (self.vertices, self._adj) == (other.vertices, other._adj)

    def __hash__(self):
        return hash((self.vertices, self._adj))

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
class Unfilled:
    """Rotation entry left where a dropped gadget vertex was a neighbour.

    `name` is the name the dropped vertex would have had in the copy.
    """

    name: str


class GraphBuilder:
    """Mutable helper used by the constructions; `freeze_with_rotation`
    yields the graph and its rotation.

    `rotation` holds the rotation under construction, the builder's one
    record of the edges: its entries are vertex ids or `Unfilled` markers
    that `link` replaces.  Markers enter it only through `embed` or by
    assigning `rotation` a whole seed, so the builder counts the open ones and
    looks for them at freeze only when some are left.  A builder may start
    from the vertices (ids 0..n-1) of an earlier stage.
    """

    def __init__(self, vertices: Sequence[Vertex] = ()):
        self._vertices: List[Vertex] = list(vertices)
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
        self._rotation.update(zip(leaves, map(list, zip(parents))))
        out, it = {}, iter(leaves)
        for parent, count, _ in hangs:
            out[parent] = own = list(islice(it, count))
            self._rotation.setdefault(parent, []).extend(own)
        return out

    def embed(
        self,
        gadget: GadgetInstance,
        copies: Sequence[Tuple[str, Dict[str, int]]],
        drop: Collection[str] = (),
        role: Optional[str] = None,
    ) -> List[Dict[str, int]]:
        """Copy `gadget` in once per (names, glue) of `copies`, all in one batch,
        and return each copy's name -> id map of the vertices it added.

        Every copy glues the same one or two names, each to the host vertex
        `glue[name]`; a glued name must be a pendant of the gadget.  The host's
        rotation entry for the other host (the host edge the gadget replaces)
        becomes the gadget neighbour, appended when there is no such entry.
        The other vertices, bar `drop`, are added in the gadget's order, named
        `names.format(name)`, with the gadget's role or `role`.  An entry for a
        dropped vertex becomes an `Unfilled` marker in its place.

        The copy is compiled once per call from the gadget's own rotation.  A
        copy's slots are its copied vertices, then its glued hosts, then one
        marker per dropped vertex; one `itemgetter` reads its rotation rows
        off that slot list.  The slot map is injective, so a copy's rows are
        as symmetric and as free of repeats as the gadget's."""
        glued = tuple(copies[0][1]) if copies else ()
        graph, gadget_rows = gadget.graph, gadget.rot.rotation
        copied = [v for v in graph.vertices if v.name not in glued and v.name not in drop]
        copied_names = [v.name for v in copied]
        named = {v.name: v.id for v in graph.vertices}
        slot = {u: i for i, u in enumerate([v.id for v in copied] + [named.get(x) for x in glued])}
        c = len(copied)
        pendant_rows = [gadget_rows.get(named.get(x), ()) for x in glued]
        if len(glued) > 2 or any(len(ns) != 1 or slot.get(ns[0], c) >= c for ns in pendant_rows):
            raise ValidationError(f"glue {glued} must name one or two pendants of copied vertices")
        inners = [slot[ns[0]] for ns in pendant_rows]
        dropped: Dict[int, int] = {}  # gadget id -> marker slot
        rows = [
            [slot[u] if u in slot else dropped.setdefault(u, len(slot) + len(dropped)) for u in ns]
            for ns in (gadget_rows[v.id] for v in copied)
        ]
        index = [u for row in rows for u in row]
        take = itemgetter(*index) if len(index) > 1 else lambda slots: tuple(slots[i] for i in index)
        markers = [graph.vertices[u].name for u in dropped]
        affixes = [names.split("{}") for names, _ in copies]
        labels = [prefix + name + suffix for prefix, suffix in affixes for name in copied_names]
        roles = [v.role for v in copied] * len(copies) if role is None else repeat(role)
        new = self.add_vertices(roles, labels)
        rotation = self._rotation
        entries: List[object] = []
        maps = []
        for i, ((_, glue), (prefix, suffix)) in enumerate(zip(copies, affixes)):
            ids = new[i * c : i * c + c]
            hosts = [glue[name] for name in glued]
            entries += take(ids + hosts + [Unfilled(prefix + name + suffix) for name in markers])
            for host, other, inner in zip(hosts, hosts[::-1], inners):  # replace, or append
                row = rotation.setdefault(host, [])
                at = row.index(other) if other in row else len(row)
                row[at : at + 1] = [ids[inner]]
            maps.append(dict(zip(copied_names, ids)))
        bounds = list(accumulate(map(len, rows * len(copies)), initial=0))
        rotation.update(zip(new, map(entries.__getitem__, map(slice, bounds, bounds[1:]))))
        self._open += sum(u >= len(slot) for row in rows for u in row) * len(copies)
        return maps

    def link(self, u: int, u_marker: str, v: int, v_marker: str) -> None:
        """Join u and v where the rotations of u and v hold the `Unfilled`
        markers named `u_marker` and `v_marker`."""
        for x, marker, y in ((u, u_marker, v), (v, v_marker, u)):
            entries = self._rotation[x]
            entries[entries.index(Unfilled(marker))] = y
            self._open -= 1

    def freeze(self, extra: Iterable[Edge] = ()) -> Graph:
        """The graph of the edges that the rows list, markers skipped, and of
        ``extra``, through the validating constructor."""
        listed = ((x, y) for x, row in self._rotation.items() for y in row if type(y) is int)
        return Graph(self._vertices, chain(listed, extra))

    def freeze_with_rotation(self) -> Tuple[Graph, RotationSystem]:
        """The rows as the rotation, and the graph whose adjacency is the rows
        sorted.  The rows are not checked here but by the stage that froze
        them: `verify_planar` refuses rows that are not symmetric or repeat an
        entry, and `pipeline.check_splice` pins the rows a splice made."""
        if self._open:
            for vid, entries in self._rotation.items():
                if any(isinstance(entry, Unfilled) for entry in entries):
                    raise AssertionError(f"unfilled rotation slot at vertex {vid}")
        rot = RotationSystem(self._rotation)
        graph = Graph.__new__(Graph)  # no validating constructor: the rows are the adjacency
        graph.vertices = tuple(self._vertices)
        graph._adj = tuple(tuple(sorted(rot.rotation.get(v, ()))) for v in range(len(self._vertices)))
        return graph, rot


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

    Rows that are not symmetric, or that repeat an entry, give False: the
    reverse of some dart is missing, or the successor map is no permutation,
    so a face walk ends off its first dart.
    """
    rot.validate(graph)
    rows = [rot.rotation.get(v, ()) for v in range(graph.n)]
    degree = list(map(len, rows))
    start = list(accumulate(degree, initial=0))
    try:
        succ = [start[v] + (rows[v].index(u) + 1) % degree[v] for u, row in enumerate(rows) for v in row]
    except ValueError:  # a dart u->v whose reverse v->u is missing
        return False
    seen = bytearray(len(succ))
    faces = 0
    first = seen.find(0)
    while first >= 0:
        faces += 1
        d = first
        while not seen[d]:
            seen[d] = 1
            d = succ[d]
        if d != first:
            return False
        first = seen.find(0, first + 1)
    comps = [comp for comp in graph.components() if len(comp) > 1]
    return sum(map(len, comps)) - graph.m + faces == 2 * len(comps)


def face(rot: RotationSystem, u: int, v: int) -> List[int]:
    """The vertices, in walk order, of the face that starts with the dart u->v (as `verify_planar` traces it)."""
    walk, (a, b) = [], (u, v)
    while not walk or (a, b) != (u, v):
        walk.append(a)
        row = rot.rotation[b]
        a, b = b, row[(row.index(a) + 1) % len(row)]
    return walk


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


class _Astray(Exception):
    """Text that the member walk of `json_object` does not expect."""


_space = json.decoder.WHITESPACE.match


def json_object(text: str, keys: Sequence[str], what: str, convert=None) -> dict:
    """Parse ``text`` as a JSON object that holds every key in ``keys`` and
    whose objects, at any depth, name no key twice.

    The object's members are decoded one at a time, and each value is passed
    through ``convert(key, value)``, when given, before the next is decoded:
    a caller that converts each section and drops what it parsed never holds
    the whole parse.  Text that the walk does not expect (a syntax fault
    between members, trailing data, or no object at all) goes to
    `json.loads`, which raises the error it gives on the whole text, or finds
    no object.  A syntax fault inside a value raises where `json.loads`
    raises it, so a syntax error anywhere outranks what ``convert`` finds."""
    def unique(pairs: List[Tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            key = Counter(key for key, _ in pairs).most_common(1)[0][0]
            raise ValidationError(f"{what} JSON repeats the key {quote(key)} in one object")
        return obj

    keep = convert or (lambda key, value: value)
    decode = json.JSONDecoder(object_pairs_hook=unique).raw_decode
    try:
        try:
            doc, pairs = {}, []
            i = _space(text).end()
            if text[i : i + 1] != "{":
                raise _Astray
            i = _space(text, i + 1).end()
            more = text[i : i + 1] != "}"
            while more:
                if text[i : i + 1] != '"':
                    raise _Astray
                key, i = scanstring(text, i + 1)
                i = _space(text, i).end()
                if text[i : i + 1] != ":":
                    raise _Astray
                value, i = decode(text, _space(text, i + 1).end())
                doc[key] = keep(key, value)
                del value  # before the next member is decoded
                pairs.append((key, None))
                i = _space(text, i).end()
                more = text[i : i + 1] == ","
                if more:
                    i = _space(text, i + 1).end()
            if text[i : i + 1] != "}":
                raise _Astray
            unique(pairs)  # a key repeated at the top level, found where json.loads finds it
            if _space(text, i + 1).end() != len(text):
                raise _Astray
        except _Astray:  # the walk takes every valid object, so this raises or finds no object
            doc = json.loads(text, object_pairs_hook=unique)
    except RecursionError as exc:  # the decoder recurses once per level
        raise ValidationError(f"{what} JSON nests too deeply") from exc
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer longer than int() converts
        raise ValidationError(f"{what} JSON holds an integer too long to read") from exc
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
        raise ValidationError(f"{what} must be {kind.__name__}, not {quote(bad)}")


def require_pairs(rows: Collection[Iterable[object]], what: str) -> None:
    """Raise unless every entry of every row is a JSON array of two, naming
    the first that is not; the check runs in bulk, the search only on failure."""
    entries = partial(chain.from_iterable, rows)
    try:
        ok = set(map(type, entries())) <= {list} and set(map(len, entries())) <= {2}
    except TypeError:  # a row that is no array, met by the search below in its turn
        ok = False
    if not ok:
        bad = next(x for x in entries() if type(x) is not list or len(x) != 2)
        raise ValidationError(f"{what} {quote(bad)} is not a pair")


def vertex_keys(obj: dict, what: str) -> List[int]:
    """The vertex ids that the keys of ``obj`` name, in order; each key must
    be spelled as `str(id)`, so that no two keys name one vertex."""
    keys = [key for key, _ in obj.items()]  # a non-object raises AttributeError here
    try:
        ids = list(map(int, keys))
    except ValueError:
        ids = []
    if list(map(str, ids)) != keys:
        for key in keys:  # the first key that is not an id, or not its spelling
            try:
                if str(int(key)) != key:
                    raise ValidationError(f"{what} key {quote(key)} is not a canonical vertex id")
            except ValueError as exc:
                if key.isascii() and key.removeprefix("-").isdigit():  # only its length stops int()
                    raise ValidationError(f"{what} key holds an integer too long to read") from exc
                raise ValidationError(f"{what} key {quote(key)} is not a canonical vertex id") from exc
    return ids


# what indexing a JSON value of the wrong type raises
JSON_SHAPE_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def collector_paused(fn):
    """`fn` with the cyclic garbage collector paused while it runs, and
    restored on return and on raise: the many small containers that a stage
    builder or a stage file's decoding makes need no cycle search."""

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


def _read_vertices(doc: list) -> Tuple[Vertex, ...]:
    deque(map(itemgetter("id", "role", "name"), doc), maxlen=0)  # a bad vertex raises here
    ids, roles, names = [list(map(itemgetter(key), doc)) for key in ("id", "role", "name")]
    if type(doc) is list:  # drop the parsed vertex objects before making their tuples
        doc.clear()
    require_type(ids, int, "graph JSON vertex id")
    require_type(names, str, "graph JSON vertex name")
    if set(map(type, roles)) <= {str}:  # else Graph refuses a role where it checks them
        roles = map(_ROLE_TAGS.get, roles, roles)
    return tuple(map(tuple.__new__, repeat(Vertex), zip(ids, roles, names)))


def _read_edges(doc: list) -> List[Edge]:
    require_pairs([doc], "graph JSON edge")
    edges = list(map(tuple, doc))
    require_type(list(chain.from_iterable(edges)), int, "graph JSON edge endpoint")
    return edges


def _read_rotation(rotation: Optional[dict]) -> Optional[RotationSystem]:
    if rotation is None:
        return None
    ids = vertex_keys(rotation, "graph JSON rotation")
    try:
        if not set(map(type, chain.from_iterable(chain.from_iterable(rotation.values())))) <= {int}:
            raise TypeError("a rotation end is no int")
        for v, (key, pairs) in zip(ids, rotation.items()):  # a new value per key frees each parsed row
            ns = []
            for a, b in pairs:
                if a != v != b:
                    raise ValidationError(
                        f"rotation entry for {quote(v)} lists foreign edge ({quote(a)},{quote(b)})"
                    )
                ns.append(b if a == v else a)
            rotation[key] = tuple(ns)
    except (TypeError, ValueError, ValidationError):  # a bad entry, then a bad end, outranks a foreign edge
        rows = [pairs for pairs in rotation.values() if type(pairs) is not tuple]  # not yet converted
        require_pairs(rows, "graph JSON rotation entry")
        ends = [x for pairs in rows for pair in pairs for x in pair]
        require_type(ends, int, "graph JSON rotation endpoint")
        raise
    return RotationSystem(dict(zip(ids, rotation.values())))


_SECTIONS = {"vertices": _read_vertices, "edges": _read_edges, "rotation": _read_rotation}


def _read_section(key: str, doc: object) -> object:
    """The section ``key`` of a stage file converted (ports and k are checked
    once the graph is known), or the error that refuses it, held until the
    whole text has decoded."""
    try:
        return _SECTIONS[key](doc) if key in _SECTIONS else doc
    except (ValidationError, *JSON_SHAPE_ERRORS) as exc:
        return exc


@collector_paused
def from_json(text: str) -> Tuple[Graph, Optional[RotationSystem], Dict[str, int], Optional[int]]:
    """Read a stage file one top-level section at a time, each converted and
    its parse dropped before the next is decoded; a vertex's role is the
    module's string for its tag.  The checks keep one order, whatever the
    order of the sections: vertices, edges, the graph, rotation, ports, k."""
    doc = json_object(text, ("vertices", "edges"), "graph", _read_section)
    vertices, edges, rot = doc.pop("vertices"), doc.pop("edges"), doc.pop("rotation", None)
    try:
        for section in (vertices, edges):
            if isinstance(section, Exception):
                raise section
        graph = Graph(vertices, edges)
        if isinstance(rot, Exception):
            raise rot
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
