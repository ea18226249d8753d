"""Fixed gadget builders and their exhaustive certifiers.

Every gadget figure is transcribed exactly once, into the atlas below or,
for H' and G_k (one drawing per k), into its builder: named vertices with
drawing coordinates and an edge list.  Each figure gets its rotation from
the coordinates, so each builder ships its own planarity certificate.  Only
the clause gadget is assembled instead, from three copies of H (see
`build_clause_gadget`).  Each builder runs once per process (per k): its
instance, Euler-checked when built, is cached and shared by the stage
builders, the witness translators and the certifiers, so it must not be
mutated.  The certifiers look their builder up by module name at call time,
machine-check the gadget lemmas and report observed vs expected behaviour.
Every table is enumerated exhaustively, except the span-k edge gadget G_k for
k >= 6, which is decided once, from the H' lemma's (L(c), L(d)) pairs that
`certify_Hprime` certifies: after a structure check of the built graph, its
certifier reads the composed table, and `edge_gadget_fills` fills G_k from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .colouring import extendable_boundary_patterns
from .errors import CapacityError, ValidationError
from .graphs import (
    GADGET_INTERNAL,
    GATE,
    IN_VERTEX,
    OUT_VERTEX,
    PORT,
    CYCLE_VERTEX,
    Graph,
    GraphBuilder,
    RotationSystem,
    Vertex,
    edge_key,
    rotation_from_coordinates,
    verify_planar,
)
from .labelling import _LabelSearch, enumerate_boundary_behaviour, solve_labelling

F = Fraction

# Every certifier in run order: (gadget, lowest k, highest k), or None for a lemma
# with no span.  H' at each k runs before the G_k that composes from its lemma.
CERTIFY_PLAN = {
    **dict.fromkeys(["certify_H", "certify_clause_gadget", "certify_uncrossing"]),
    "certify_Hprime": ("H'", 6, 9),
    "certify_edge_gadget": ("edge gadget", 4, 8),
}


def certify_plan(lo: int, hi: int) -> List[Tuple[str, Sequence[Optional[int]]]]:
    """Each certifier with the k values it runs at for lo..hi, in run order: a
    `range`, so that nothing grows with hi, or (None,) for a lemma with no span."""
    return [(name, (None,) if span is None else range(max(lo, span[1]), hi + 1))
            for name, span in CERTIFY_PLAN.items()]


def check_capacity(name: str, k: Optional[int]) -> None:
    """Raise `CapacityError` unless certifier ``name`` supports k (None for a lemma with no span)."""
    span = CERTIFY_PLAN[name]
    if span is not None and not (span[1] <= k <= span[2]):
        raise CapacityError(f"{span[0]} certification supports {span[1]} <= k <= {span[2]}")


@dataclass(frozen=True)
class GadgetInstance:
    graph: Graph
    rot: RotationSystem
    ports: Dict[str, int]  # port name -> vertex id
    kind: str
    k: Optional[int] = None


@dataclass(frozen=True)
class CertReport:
    kind: str
    k: Optional[int]
    observed: object
    expected: object
    passed: bool
    enumeration_count: int

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "observed": self.observed,
            "expected": self.expected,
            "pass": self.passed,
            "enumeration_count": self.enumeration_count,
        }


# ---------------------------------------------------------------------------
# Atlas: figure transcriptions.  Coordinates are the drawing positions; the
# rotation system is derived from them.
# ---------------------------------------------------------------------------

_H_COORDS = {
    "a": (F(5), F(7)),
    "b": (F(5), F(6)),
    "c": (F(3), F("5.3")),
    "d": (F(7), F("5.3")),
    "e": (F("2.5"), F("4.5")),
    "f": (F("3.5"), F("4.5")),
    "g": (F("6.5"), F("4.5")),
    "h": (F("7.5"), F("4.5")),
    "i": (F("2.5"), F("2.5")),
    "j": (F("3.5"), F("2.5")),
    "k": (F("6.5"), F("2.5")),
    "l": (F("7.5"), F("2.5")),
    "m": (F("1.5"), F("2.5")),
    "n": (F("8.5"), F("2.5")),
    "o": (F(3), F("1.5")),
    "p": (F(7), F("1.5")),
    "q": (F(3), F("0.5")),
    "r": (F(7), F("0.5")),
}

_H_EDGES = [
    ("a", "b"),
    ("b", "c"),
    ("b", "d"),
    ("c", "e"),
    ("c", "f"),
    ("d", "g"),
    ("d", "h"),
    ("e", "i"),
    ("f", "j"),
    ("g", "k"),
    ("h", "l"),
    ("e", "f"),
    ("g", "h"),
    ("i", "o"),
    ("j", "o"),
    ("o", "q"),
    ("p", "l"),
    ("k", "p"),
    ("p", "r"),
    ("m", "i"),
    ("n", "l"),
    ("j", "k"),
]

_H_PORTS = ["a", "b", "m", "n", "i", "l", "o", "p", "q", "r"]
_H_PENDANTS = {"a", "m", "n", "q", "r"}
_H_ROLES = dict.fromkeys(_H_PENDANTS, PORT)

_U_COORDS = {
    "z4": (F(4), F("0.5")),
    "z3": (F(4), F("1.5")),
    "u": (F(3), F("2.5")),
    "x": (F(5), F("2.5")),
    "n": (F(3), F("3.5")),
    "q": (F(5), F("3.5")),
    "l": (F("2.5"), F(4)),
    "m": (F("3.5"), F(4)),
    "p": (F("4.5"), F(4)),
    "r": (F("5.5"), F(4)),
    "v": (F("1.5"), F(5)),
    "w": (F("0.5"), F(5)),
    "k": (F(3), F("4.5")),
    "o": (F(5), F("4.5")),
    "f": (F(3), F("5.5")),
    "i": (F(5), F("5.5")),
    "e": (F("2.5"), F(6)),
    "d": (F("3.5"), F(6)),
    "h": (F("4.5"), F(6)),
    "j": (F("5.5"), F(6)),
    "c": (F(3), F("6.5")),
    "g": (F(5), F("6.5")),
    "b": (F(4), F("7.5")),
    "a": (F(4), F("8.5")),
    "s": (F("6.5"), F(6)),
    "t": (F("6.5"), F(4)),
    "z1": (F("7.5"), F(5)),
    "z2": (F("8.5"), F(5)),
}

_U_EDGES = [
    ("z4", "z3"),
    ("z3", "u"),
    ("z3", "x"),
    ("u", "x"),
    ("u", "n"),
    ("q", "x"),
    ("n", "l"),
    ("n", "m"),
    ("p", "q"),
    ("r", "q"),
    ("p", "m"),
    ("v", "l"),
    ("v", "w"),
    ("k", "l"),
    ("k", "m"),
    ("p", "o"),
    ("r", "o"),
    ("f", "k"),
    ("o", "i"),
    ("f", "e"),
    ("f", "d"),
    ("h", "i"),
    ("j", "i"),
    ("h", "d"),
    ("c", "e"),
    ("c", "d"),
    ("h", "g"),
    ("j", "g"),
    ("e", "v"),
    ("c", "b"),
    ("a", "b"),
    ("b", "g"),
    ("s", "t"),
    ("s", "j"),
    ("t", "r"),
    ("z1", "z2"),
    ("s", "z1"),
    ("t", "z1"),
]

_U_PENDANTS = {"a", "w", "z2", "z4"}
_U_GATES = {"b", "v", "z1", "z3"}

_EDGE_PATH = ("u", "a_u", "a_v", "v")
_TABLE_ORDER = ("u", "v", "a_u", "a_v")  # the vertices of a G_k table tuple, in order

_G5_COORDS = {
    "u": (F("0.5"), F("3.5")),
    "a_u": (F("1.5"), F("3.5")),
    "a_v": (F("2.5"), F("3.5")),
    "v": (F("3.5"), F("3.5")),
    "b_u": (F("1.5"), F(3)),
    "b_v": (F("2.5"), F(3)),
    "c": (F(2), F("2.5")),
    "d": (F(2), F(2)),
    "e_3": (F("2.5"), F(2)),
    "e_1": (F("2.5"), F("1.5")),
    "e_2": (F("1.5"), F("1.5")),
    "f": (F(2), F(1)),
    "g_1": (F("1.5"), F("0.5")),
    "g_2": (F("2.5"), F("0.5")),
}

_G5_EDGES = [
    ("u", "a_u"),
    ("a_u", "a_v"),
    ("a_v", "v"),
    ("a_v", "b_v"),
    ("a_u", "b_u"),
    ("b_v", "c"),
    ("b_u", "c"),
    ("c", "d"),
    ("d", "e_3"),
    ("d", "e_1"),
    ("d", "e_2"),
    ("e_2", "f"),
    ("e_1", "f"),
    ("f", "g_1"),
    ("f", "g_2"),
]

_AUX_COORDS = {
    "u": (F("0.5"), F("7.5")),
    "cu": (F("3.5"), F("7.5")),
    "cin": (F("6.5"), F("10.5")),
    "cout": (F("6.5"), F("4.5")),
    "cv": (F("9.5"), F("7.5")),
    "v": (F("12.5"), F("7.5")),
    "in": (F("6.5"), F("13.5")),
    "out": (F("6.5"), F("1.5")),
}

_AUX_EDGES = [
    ("u", "cu"),
    ("cu", "cout"),
    ("cu", "cin"),
    ("cv", "cin"),
    ("cv", "cout"),
    ("cv", "v"),
    ("cin", "in"),
    ("cout", "out"),
]

_AUX_ROLES = {
    "u": PORT,
    "v": PORT,
    "in": IN_VERTEX,
    "out": OUT_VERTEX,
    "cu": CYCLE_VERTEX,
    "cin": CYCLE_VERTEX,
    "cout": CYCLE_VERTEX,
    "cv": CYCLE_VERTEX,
}


def _build_from_figure(coords, edges, roles, port_names, kind, k=None) -> GadgetInstance:
    ids = {name: i for i, name in enumerate(coords)}
    vertices = [Vertex(i, roles.get(name, GADGET_INTERNAL), name) for name, i in ids.items()]
    graph = Graph(vertices, [(ids[x], ids[y]) for x, y in edges])
    rot = rotation_from_coordinates(graph, dict(enumerate(coords.values())))
    instance = GadgetInstance(graph, rot, {name: ids[name] for name in port_names}, kind, k)
    if not verify_planar(graph, rot):
        raise AssertionError(f"builder for {kind} produced a non-planar embedding")
    return instance


@cache
def build_H() -> GadgetInstance:
    """The 18-vertex base gadget whose almost-matchings carry one bit."""
    return _build_from_figure(_H_COORDS, _H_EDGES, _H_ROLES, _H_PORTS, "H")


@cache
def build_clause_gadget() -> GadgetInstance:
    """Three modified copies of H sharing the hub vertex a.

    The copies lose their m/n pendants; a ring of three edges
    l1-i2, l2-i3, l3-i1 replaces them.  Assembled, not drawn: a drawing has
    the same cycles, but its rows start elsewhere, and stage files depend on
    each row's first entry (`GraphBuilder.add_leaves`), so they would change.
    """
    # H straight from the atlas: the clause lemma is about the figure, and a
    # substituted build_H must not change it.
    h = _build_from_figure(_H_COORDS, _H_EDGES, _H_ROLES, _H_PORTS, "H")
    builder = GraphBuilder()
    hub = builder.add_vertex(GADGET_INTERNAL, "a")
    copies = builder.embed(h, [("{}" + str(t), {"a": hub}) for t in (1, 2, 3)], ("m", "n"))
    for t, nxt in ((1, 2), (2, 3), (3, 1)):
        builder.link(copies[t - 1]["l"], f"n{t}", copies[nxt - 1]["i"], f"m{nxt}")
    graph, rot = builder.freeze_with_rotation()

    port_names = {"a": hub}
    for t, ids in enumerate(copies, 1):
        for letter in ("o", "p", "q", "r"):
            port_names[f"{letter}{t}"] = ids[letter]
    instance = GadgetInstance(graph, rot, port_names, "ClauseK")
    if not verify_planar(graph, rot):
        raise AssertionError("clause gadget embedding is not planar")
    return instance


@cache
def build_uncrossing() -> GadgetInstance:
    """The 28-vertex crossing replacement gadget."""
    roles = {**dict.fromkeys(_U_PENDANTS, PORT), **dict.fromkeys(_U_GATES, GATE)}
    return _build_from_figure(
        _U_COORDS, _U_EDGES, roles, sorted(_U_PENDANTS | _U_GATES), "UncrossU"
    )


@cache
def build_aux_edge() -> GadgetInstance:
    """Four-cycle with in/out pendants; replaces one edge of the cubic graph."""
    return _build_from_figure(_AUX_COORDS, _AUX_EDGES, _AUX_ROLES, ["u", "v", "in", "out"], "AuxEdge")


def _hprime_figure(k: int):
    """H' for span k as (coordinates, edges): d and g of degree k-1 joined
    by the k-3 fans f<j>, c and e hung on d, h and i on g."""
    fans = [f"f{j}" for j in range(1, k - 2)]
    coords = {"c": (0, -1), "d": (0, 0), "e": (-1, 0)}
    coords.update({f: (1, -j) for j, f in enumerate(fans, 1)})
    coords.update({"g": (2, 0), "h": (2, -1), "i": (3, 0)})
    edges = [("c", "d"), ("d", "e"), ("g", "h"), ("g", "i")] + [(x, f) for f in fans for x in "dg"]
    return coords, edges


@cache
def build_Hprime(k: int) -> GadgetInstance:
    """Label-forcing side gadget: d and g of degree k-1 joined by k-3 paths."""
    if k < 6:
        raise ValidationError(f"H' needs k >= 6, got {k}")
    coords, edges = _hprime_figure(k)
    return _build_from_figure(coords, edges, {"c": PORT, "d": PORT}, ["c", "d"], "Hprime", k)


@cache
def build_edge_gadget(k: int) -> GadgetInstance:
    """The span-k edge gadget G_k with boundary path u, a_u, a_v, v.

    k=5 is the fixed 14-vertex figure.  Otherwise, with w = k^2, the path is
    drawn on the x axis and k-5 middles b<i> (none at k=4) at (w, -i*w) below
    it, each joined to a_u and a_v and to the c of two H' copies <name>.l<i>
    and <name>.r<i>: H' turned a quarter clockwise with c on top, so both
    copies fit below b<i> and above b<i+1>.
    """
    if k < 4:
        raise ValidationError(f"edge gadget needs k >= 4, got {k}")
    if k == 5:
        coords, edges = _G5_COORDS, _G5_EDGES
    else:
        w = k * k
        coords = dict(zip(_EDGE_PATH, [(-w, 0), (0, 0), (2 * w, 0), (3 * w, 0)]))
        coords.update({f"b{i}": (w, -i * w) for i in range(1, k - 4)})
        edges = list(zip(_EDGE_PATH, _EDGE_PATH[1:]))
        hp_coords, hp_edges = _hprime_figure(k)
        for i in range(1, k - 4):
            edges += [(f"b{i}", "a_u"), (f"b{i}", "a_v")]
            for copy, cx in ((f".l{i}", w - 2), (f".r{i}", w + k - 2)):
                coords.update({n + copy: (cx + y + 1, -i * w - 3 - x) for n, (x, y) in hp_coords.items()})
                edges += [(x + copy, y + copy) for x, y in hp_edges] + [(f"b{i}", "c" + copy)]
    return _build_from_figure(coords, edges, dict.fromkeys(_EDGE_PATH, PORT), _EDGE_PATH, "Gk", k)


def edge_gadget_order(k: int) -> int:
    """The vertex count of ``build_edge_gadget(k)``: per middle, b<i> and two H' copies."""
    return 14 if k == 5 else 4 + max(k - 5, 0) * (2 * k + 7)


# ---------------------------------------------------------------------------
# Certifiers
# ---------------------------------------------------------------------------


def _names(instance: GadgetInstance) -> Dict[str, int]:
    return {v.name: v.id for v in instance.graph.vertices}


def certify_H() -> CertReport:
    """Exactly six almost-matchings, each with the three forced properties.

    With every vertex on the boundary, each extendable pattern is the white
    set of one almost-matching (bit v set when vertex v is white)."""
    inst = build_H()
    ids, n = _names(inst), inst.graph.n
    whites = extendable_boundary_patterns(inst.graph, range(n))

    def mono(w, x, y):
        return (w >> ids[x] ^ w >> ids[y]) & 1 == 0

    observed = {
        "count": len(whites),
        "one_special_edge_monochromatic": all(
            sum(mono(w, x, y) for x, y in (("a", "b"), ("m", "i"), ("l", "n"))) == 1 for w in whites
        ),
        "b_i_l_same_colour": all(mono(w, "b", "i") and mono(w, "b", "l") for w in whites),
        "o_p_q_r_opposite": all(not mono(w, x, "b") for w in whites for x in "opqr"),
        "oq_pr_monochromatic": all(mono(w, "o", "q") and mono(w, "p", "r") for w in whites),
        "closed_under_colour_swap": set(whites) == {w ^ ((1 << n) - 1) for w in whites},
    }
    expected = {
        "count": 6,
        "one_special_edge_monochromatic": True,
        "b_i_l_same_colour": True,
        "o_p_q_r_opposite": True,
        "oq_pr_monochromatic": True,
        "closed_under_colour_swap": True,
    }
    return CertReport("H", None, observed, expected, observed == expected, len(whites))


def _table_report(kind: str, k: Optional[int], observed: Set, expected: Set, count: int) -> CertReport:
    """A lemma stated as a finite table: the observed against the listed
    behaviours, both reported sorted."""
    return CertReport(kind, k, sorted(observed), sorted(expected), observed == expected, count)


def _classify_boundary(
    inst: GadgetInstance, boundary: List[str], groups: List[List[str]], colourings: List[Tuple[int, ...]]
) -> CertReport:
    """Compare the boundary colourings of a gadget that extend to an
    almost-matching with the listed ones: each group of boundary vertices
    uniform, the groups coloured as one entry of `colourings` (1 white).

    A pattern sets bit i when ``boundary[i]`` is white; all
    2^len(boundary) patterns are classified.
    """
    ids = _names(inst)
    observed = extendable_boundary_patterns(inst.graph, [ids[name] for name in boundary])
    masks = [sum(1 << boundary.index(name) for name in group) for group in groups]
    expected = {sum(mask for mask, white in zip(masks, whites) if white) for whites in colourings}
    return _table_report(inst.kind, None, set(observed), expected, 1 << len(boundary))


_CLAUSE_ARMS = [[f"{letter}{t}" for letter in ("o", "p", "q", "r")] for t in (1, 2, 3)]
_CLAUSE_BOUNDARY = ["a"] + [name for arm in _CLAUSE_ARMS for name in arm]


def certify_clause_gadget() -> CertReport:
    """The 6 extending boundary colourings of the clause gadget: the hub a
    and three uniform arms, exactly two arms coloured like a."""
    colourings = [(x,) + tuple(x ^ (t == odd) for t in range(3)) for x in (0, 1) for odd in range(3)]
    return _classify_boundary(build_clause_gadget(), _CLAUSE_BOUNDARY, [["a"]] + _CLAUSE_ARMS, colourings)


_U_BOUNDARY = ["a", "b", "w", "v", "z1", "z2", "z3", "z4"]


def certify_uncrossing() -> CertReport:
    """The 4 extending boundary colourings of the uncrossing gadget:
    {w, v, z1, z2} uniform and {a, b, z3, z4} uniform."""
    groups = [["w", "v", "z1", "z2"], ["a", "b", "z3", "z4"]]
    return _classify_boundary(build_uncrossing(), _U_BOUNDARY, groups, list(product((0, 1), repeat=2)))


def hprime_lemma_pairs(k: int) -> Set[Tuple[int, int]]:
    """The (L(c), L(d)) pairs that the H' lemma lists for span k."""
    return {(0, k), (1, k), (k - 1, 0), (k, 0)}


def certify_Hprime(k: int) -> CertReport:
    """Feasible (L(c), L(d)) pairs match the lemma's four exactly, g takes
    k - L(d) and every fan f<j> a label in [2, k-2].  The pair table, each
    pair a pinned solve, and every forcing check run on one search over H',
    so its root fixpoint is propagated once."""
    check_capacity("certify_Hprime", k)
    inst = build_Hprime(k)
    graph, ids, every = inst.graph, _names(inst), range(k + 1)
    c, d = inst.ports["c"], inst.ports["d"]
    search = _LabelSearch(graph, k)
    pairs = sorted(search.extensions([c, d], [every, every]))
    expected_pairs = sorted(hprime_lemma_pairs(k))

    # witness-side forcings, checked by refuting every alternative
    g_forced = True
    fans_forced = True
    outside = (0, 1, k - 1, k)  # fan labels outside [2, k-2]
    for xc, xd in pairs:
        required_g = k - xd if xd in (0, k) else None
        others = [xg for xg in every if xg != required_g]
        g_forced &= not search.extensions([c, d, ids["g"]], [[xc], [xd], others])
        for j in range(1, k - 2):
            fan = [c, d, ids[f"f{j}"]]
            fans_forced &= not search.extensions(fan, [[xc], [xd], outside])
    observed = {"pairs": pairs, "g_d_span_ends": g_forced, "fans_inside_2_km2": fans_forced}
    expected = {"pairs": expected_pairs, "g_d_span_ends": True, "fans_inside_2_km2": True}
    return CertReport("Hprime", k, observed, expected, observed == expected, (k + 1) ** 2)


def edge_gadget_expected_table(k: int) -> Set[Tuple[int, int, int, int]]:
    """The summary behaviour table of the edge gadget, deduplicated."""
    out = set()
    for au, av in ((2, k), (k, 2), (k - 2, k), (k, k - 2)):
        out.add((0, 0, au, av))
    for au, av in ((2, 0), (0, 2), (k - 2, 0), (0, k - 2)):
        out.add((k, k, au, av))
    out.add((k, 0, 1, k - 1))
    out.add((0, k, k - 1, 1))
    return out


def _edge_gadget_structure_holds(inst: GadgetInstance, k: int) -> bool:
    """G_k (k >= 6) is exactly the path u-a_u-a_v-v and middles b1..b(k-5),
    each b<i> joined to a_u, a_v and the c of two H' copies <name>.l<i> and
    <name>.r<i>, each copy's edges those of ``build_Hprime(k)`` renamed; no
    other vertex or edge."""
    hp = build_Hprime(k).graph
    hp_names = [v.name for v in hp.vertices]
    hp_edges = [(hp.vertices[x].name, hp.vertices[y].name) for x, y in hp.edges]
    names = list(_EDGE_PATH)
    edges = list(zip(_EDGE_PATH, _EDGE_PATH[1:]))
    for i in range(1, k - 4):
        b = f"b{i}"
        names.append(b)
        edges += [(b, "a_u"), (b, "a_v")]
        for copy in (f".l{i}", f".r{i}"):
            names += [name + copy for name in hp_names]
            edges += [(x + copy, y + copy) for x, y in hp_edges] + [(b, "c" + copy)]
    ids = _names(inst)
    if sorted(v.name for v in inst.graph.vertices) != sorted(names):
        return False
    return inst.graph.edges == {edge_key(ids[x], ids[y]) for x, y in edges}


def _composed_edge_table(k: int, pairs: Set[Tuple[int, int]]) -> Dict[Tuple[int, int, int, int], List[tuple]]:
    """The (L(u), L(v), L(a_u), L(a_v)) tuples, ends in {0, k}, that extend to
    G_k (k = 4 or k >= 6), composed from the H' (L(c), L(d)) ``pairs``, each with
    one extension: per middle b<i>, the next least good x and its two least pairs.

    A hanger meets the rest of G_k only at c (next to its middle b) and d
    (two from b), and middles see each other only through a_u and a_v.  So a
    tuple extends exactly when its path gaps hold and k-5 distinct middle
    labels x are good: two from a_u and a_v, not L(u) or L(v), with two
    distinct hanger labels c, each from a pair (c, d) with |c - x| >= 2,
    d != x and c not L(a_u) or L(a_v).
    """
    pairs = sorted(pairs, reverse=True)  # so the dict below keeps the least pair of each c
    fit = [sorted({c: (c, d) for c, d in pairs if abs(c - x) >= 2 and d != x}.values()) for x in range(k + 1)]
    table = {}
    for lu, lv, au, av in product((0, k), (0, k), range(k + 1), range(k + 1)):
        if min(abs(lu - au), abs(au - av), abs(av - lv)) < 2 or lu == av or au == lv:
            continue
        middles = []
        for x in range(k + 1):
            if len(middles) < k - 5 and abs(x - au) >= 2 and abs(x - av) >= 2 and x != lu and x != lv:
                two = [pair for pair in fit[x] if pair[0] != au and pair[0] != av]
                if len(two) >= 2:
                    middles.append((x, two[0], two[1]))
        if len(middles) >= k - 5:
            table[lu, lv, au, av] = middles
    return table


def certify_edge_gadget(k: int) -> CertReport:
    """Boundary behaviour (L(u), L(v), L(a_u), L(a_v)) of G_k, with its ends
    u and v labelled 0 or k, matches the table.

    k = 4, 5: one pinned solve per tuple.  k >= 6: with no solve, composed
    from the H' lemma's pairs, which `certify_Hprime` certifies, once the built
    graph passes the structure check; a graph that fails it observes no tuple.
    """
    check_capacity("certify_edge_gadget", k)
    inst = build_edge_gadget(k)
    if k <= 5:
        boundary = [inst.ports[name] for name in _TABLE_ORDER]
        ends, inner = (0, k), range(k + 1)
        observed = enumerate_boundary_behaviour(inst.graph, k, boundary, [ends, ends, inner, inner])
    elif _edge_gadget_structure_holds(inst, k):
        observed = set(_composed_edge_table(k, hprime_lemma_pairs(k)))
    else:
        observed = set()
    return _table_report("Gk", k, observed, edge_gadget_expected_table(k), 4 * (k + 1) ** 2)


@cache
def edge_gadget_fills(k: int) -> Dict[Tuple[int, int, int, int], Dict[str, int]]:
    """Labels of G_k by vertex name per tuple of its table: a pinned solve over
    G_5, else the tuple's composed extension from the H' lemma's pairs, with
    one H' solve per pair."""
    def solved(inst: GadgetInstance, pins: Dict[str, int]) -> Dict[str, int]:  # its witness by name
        result = solve_labelling(inst.graph, k, {inst.ports[name]: x for name, x in pins.items()})
        if not result.is_sat:
            raise AssertionError(f"{inst.kind} pins {pins} must extend at k={k}")
        return {v.name: result.labelling.labels[v.id] for v in inst.graph.vertices}

    if k == 5:
        return {t: solved(build_edge_gadget(5), dict(zip(_TABLE_ORDER, t))) for t in edge_gadget_expected_table(k)}
    pairs = hprime_lemma_pairs(k)
    hanger = {pair: solved(build_Hprime(k), dict(zip("cd", pair))) for pair in pairs if k >= 6}
    fills = {}
    for t, middles in _composed_edge_table(k, pairs).items():
        fill = fills[t] = dict(zip(_TABLE_ORDER, t))
        for i, (x, *sides) in enumerate(middles, 1):
            fill[f"b{i}"] = x
            for side, pair in zip("lr", sides):
                fill.update({f"{name}.{side}{i}": label for name, label in hanger[pair].items()})
    return fills
