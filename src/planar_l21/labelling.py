"""L(2,1)-labellings: verification and exact span-k decision solving.

A labelling maps every vertex into {0..k} so that adjacent vertices differ by
at least 2 and vertices at distance exactly two differ.  The solver keeps a
candidate-label set per vertex and propagates both constraint kinds to a
fixpoint between branch decisions; its budget is counted in node expansions,
never wall-clock time.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapacityError, ValidationError, quote
from .graphs import JSON_SHAPE_ERRORS, Graph, collector_paused, json_object, require_type, vertex_keys

SAT = "sat"
UNSAT = "unsat"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class Labelling:
    k: int
    labels: Dict[int, int]

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError("span must be non-negative")
        for v, x in self.labels.items():
            if not (0 <= x <= self.k):
                raise ValidationError(f"label {quote(x)} at vertex {quote(v)} outside [0,{quote(self.k)}]")


# a named tuple, cheaper to build than a frozen dataclass: one per boundary tuple
class SolveResult(NamedTuple):
    outcome: str  # SAT / UNSAT / EXHAUSTED
    labelling: Optional[Labelling] = None
    nodes: int = 0
    reason: Optional[str] = None

    @property
    def is_sat(self) -> bool:
        return self.outcome == SAT


def verify_labelling(graph: Graph, labelling: Labelling) -> bool:
    """Check both constraint kinds; raises if the labelling does not label
    exactly the vertices of the graph.

    Given the gap rule on edges, the distance-two rule is equivalent to the
    neighbours of every vertex carrying pairwise distinct labels: two
    neighbours are either adjacent (gap) or at distance two.  Both are read
    per vertex off the set of its neighbours' labels.
    """
    lab = labelling.labels
    labels = list(map(lab.get, range(graph.n)))  # a Labelling holds no None
    if None in labels:
        raise ValidationError(f"labelling misses vertex {labels.index(None)}")
    if len(lab) != graph.n:
        foreign = min(set(lab).difference(range(graph.n)))
        raise ValidationError(f"labelling names vertex {quote(foreign)}, which is not in the graph")
    at = labels.__getitem__
    for x, ns in zip(labels, map(graph.neighbours, range(graph.n))):
        near = set(map(at, ns))
        if len(near) < len(ns) or x in near or x - 1 in near or x + 1 in near:
            return False
    return True


def _has_distinct_representatives(masks: Sequence[int]) -> bool:
    """Whether label bitmasks admit pairwise distinct representatives: each
    set in turn looks for an augmenting path (Kuhn), visiting each label at
    most once per augmentation."""
    holder: Dict[int, int] = {}  # label bit -> index of the set using it
    seen = 0

    def augment(i: int) -> bool:
        nonlocal seen
        cands = masks[i] & ~seen
        seen |= cands
        while cands:
            low = cands & -cands
            cands ^= low
            if low not in holder or augment(holder[low]):
                holder[low] = i
                return True
        return False

    for i in range(len(masks)):
        seen = 0
        if not augment(i):
            return False
    return True


_HALL_VERDICTS: Dict[Tuple[int, ...], bool] = {}  # neighbour domains around a hub -> Hall verdict
_GAP_LIST_SPAN = 12  # the widest span whose gap table is a list (2^13 domains)
SPAN_CAPACITY = 1 << 24  # the widest span searched: a domain is a (k+1)-bit mask, at most 2 MiB


class _GapMasks(dict):
    """Domain -> the labels a neighbour may keep: all of [0, k] but those
    within distance 1 of every candidate.  Each is computed on first lookup."""

    def __init__(self, k: int):
        super().__init__()
        self.full = (1 << (k + 1)) - 1

    def __missing__(self, dv: int) -> int:
        lo = (dv & -dv).bit_length() - 1
        band_lo = max(0, dv.bit_length() - 2)  # the highest candidate - 1
        mask = self[dv] = self.full & ~(((1 << (lo + 2)) - 1) >> band_lo << band_lo)
        return mask


@functools.cache
def _gap_table(k: int):
    """The span's gap masks, built once per process: up to ``_GAP_LIST_SPAN``
    an exact list over every domain (fastest to subscript), else ``_GapMasks``."""
    masks = _GapMasks(k)
    return masks if k > _GAP_LIST_SPAN else [masks[dv] for dv in range(1 << (k + 1))]


class _LabelSearch:
    """Backtracking with per-vertex candidate bitmasks and an undo trail.

    Selection: the smallest domain that is not a singleton, ties by
    descending degree then ascending id (the static ``order``); a size-2
    domain is the floor, so the first one in ``order`` wins at once.  Values
    are tried ascending.  Vertices of degree k-1 start with domain {0,k}:
    any other label leaves fewer than k-1 labels for their pairwise-distinct
    neighbourhood.

    Selection cursor: every position of ``order`` before the cursor of a
    decision level holds a singleton.  Domains only shrink below a decision
    until it is undone, and undoing it restores the domains its level
    selected on, so the cursor is saved with each decision and restored when
    the search backtracks to it; a deeper level scans from the first
    non-singleton position its parent's scan found.

    Propagation narrows domains monotonically, so it reaches the same
    fixpoint (or the same wipeout) in any queue order, and the Hall check
    only reads that fixpoint.  ``propagate(seeds)`` requires that every
    vertex outside ``seeds`` is consistent (its neighbours lie inside its gap
    mask, a singleton's label is off its distance-two set) and that every set
    S of them around one hub meets Hall's condition |union of D(S)| >= |S|;
    each caller starts at a fixpoint (the root seeds every vertex, a decision
    or a walk's pin its vertex).  So a narrowed vertex is queued
    again only when it becomes a singleton or its gap mask changes, since its
    constraints on others read nothing else.  And a hub is Hall-checked only
    when a seeded or narrowed neighbour is left with fewer than deg(w) labels:
    at any other hub, a set S holding such a neighbour keeps at least
    deg(w) >= |S| labels, and a set without one meets the condition already.

    One walk reaches every leaf: from a copy of the root fixpoint, which the
    constructor propagates once, ``_walk`` narrows one boundary vertex at a
    time to each label of its domain, as a decision does (so the Hall
    invariant above covers it), and ``_leaf`` searches each full tuple;
    ``solve`` walks its pins as one-label domains.  Narrowing is monotone and
    its fixpoint unique, so a wipeout or Hall failure at a prefix (the root
    included) persists under any narrowing of it, and a leaf's domains are the
    one fixpoint of its pins, whatever their order and whatever was walked
    before: each leaf's outcome, node count and witness are a fresh solve's.

    The lookup tables live for the process, not the search: ``gap`` is the
    span's ``_gap_table(k)``, the Hall verdicts are ``_HALL_VERDICTS``.  Each
    entry is a pure function of its key (span and domain, or the domains
    around a hub), so sharing them across searches cannot change a verdict.
    """

    def __init__(self, graph: Graph, k: int):
        if k < 0:
            raise ValidationError(f"span must be non-negative, got {quote(k)}")
        if k > SPAN_CAPACITY:  # before any mask is built
            raise CapacityError(f"labelling search supports spans up to {SPAN_CAPACITY}")
        self.graph = graph
        self.k = k
        self.full = (1 << (k + 1)) - 1
        self.adj = [graph.neighbours(v) for v in range(graph.n)]
        self.deg = deg = [len(ns) for ns in self.adj]
        # per vertex, its neighbours of degree >= 3: the Hall check's centres
        self.hubs = [[u for u in ns if deg[u] >= 3] for ns in self.adj]
        self.d2 = graph.distance2
        self.gap = _gap_table(k)  # domain -> labels a neighbour may keep, shared per span
        self.order = sorted(range(graph.n), key=lambda v: (-deg[v], v))
        self.domains: List[int] = []
        self.trail: List[Tuple[int, int]] = []  # (vertex, previous mask)
        self.nodes = 0
        # the unpinned domains and their fixpoint, each None when infeasible
        self.initial = list(self.domains) if self.initial_domains() else None
        ok = self.initial is not None and self.propagate(range(graph.n))
        self.root = list(self.domains) if ok else None
        self.trail.clear()

    def initial_domains(self) -> bool:
        k = self.k
        if any(d >= k and d > 0 for d in self.deg):
            return False  # its neighbours would need d distinct far labels
        self.domains = [1 | 1 << k if d == k - 1 and d > 0 else self.full for d in self.deg]
        return True

    def propagate(self, seeds: Sequence[int]) -> bool:
        domains, trail, adj, d2, gap, full = self.domains, self.trail, self.adj, self.d2, self.gap, self.full
        mark = len(trail)
        queue = list(seeds)
        while queue:
            v = queue.pop()
            dv = domains[v]
            allowed = gap[dv]
            if allowed != full:
                for u in adj[v]:
                    du = domains[u]
                    new = du & allowed
                    if new != du:
                        if not new:
                            return False
                        trail.append((u, du))
                        domains[u] = new
                        if new & (new - 1) == 0 or gap[new] != gap[du]:
                            queue.append(u)
            if dv & (dv - 1) == 0:
                for u in d2[v]:
                    du = domains[u]
                    if du & dv:
                        new = du ^ dv
                        if not new:
                            return False
                        trail.append((u, du))
                        domains[u] = new
                        if new & (new - 1) == 0 or gap[new] != gap[du]:
                            queue.append(u)
        # the Hall filter: hubs of a seed or narrowed vertex left with fewer labels than their degree
        hubs, deg = self.hubs, self.deg
        dirty = set()
        for u in chain(seeds, [u for u, _ in trail[mark:]]):
            size = domains[u].bit_count()
            for w in hubs[u]:
                if size < deg[w]:
                    dirty.add(w)
        return self._hall_check(dirty)

    def _hall_check(self, hubs: Iterable[int]) -> bool:
        # whether the neighbours of each given hub can take pairwise distinct
        # labels: pigeonhole dead-ends that arc pruning cannot see
        domains, adj, verdicts = self.domains, self.adj, _HALL_VERDICTS
        for w in hubs:
            masks = tuple([domains[u] for u in adj[w]])
            ok = verdicts.get(masks)
            if ok is None:
                ok = verdicts[masks] = _has_distinct_representatives(masks)
            if not ok:
                return False
        return True

    def undo_to(self, mark: int) -> None:
        trail, domains = self.trail, self.domains
        for v, old in reversed(trail[mark:]):
            domains[v] = old
        del trail[mark:]

    def _select(self, start: int) -> Tuple[Optional[int], int]:
        """The vertex to branch on, scanning ``order`` from ``start``, and
        the first position at or after ``start`` whose domain is not a
        singleton (``len(order)`` when there is none)."""
        order, domains = self.order, self.domains
        n = len(order)
        first = start
        while first < n:
            dv = domains[order[first]]
            if dv & (dv - 1):
                break
            first += 1
        best = None
        best_size = 0
        for i in range(first, n):
            v = order[i]
            dv = domains[v]
            if dv & (dv - 1) == 0:
                continue
            size = dv.bit_count()
            if size == 2:
                return v, first
            if best is None or size < best_size:
                best, best_size = v, size
        return best, first

    def search(self, budget: Optional[int]) -> str:
        domains, trail, propagate, undo_to = self.domains, self.trail, self.propagate, self.undo_to
        nodes = self.nodes
        # (vertex, label, trail mark, cursor of the level below)
        decisions: List[Tuple[int, int, int, int]] = []
        cursor = 0
        try:
            while True:
                v, first = self._select(cursor)
                if v is None:
                    return SAT
                label = (domains[v] & -domains[v]).bit_length() - 1
                while True:
                    nodes += 1
                    if budget is not None and nodes > budget:
                        return EXHAUSTED
                    mark = len(trail)
                    trail.append((v, domains[v]))
                    domains[v] = 1 << label
                    if propagate([v]):
                        decisions.append((v, label, mark, first))
                        cursor = first
                        break
                    undo_to(mark)
                    higher = domains[v] >> (label + 1)
                    if higher:
                        label += (higher & -higher).bit_length()
                        continue
                    while decisions:
                        v, label, mark, first = decisions.pop()
                        undo_to(mark)
                        higher = domains[v] >> (label + 1)
                        if higher:
                            label += (higher & -higher).bit_length()
                            break
                    else:
                        return UNSAT
        finally:
            self.nodes = nodes

    def solve(self, pins: Dict[int, int], budget: Optional[int]) -> SolveResult:
        """One pinned solve: the walk over the pins, each a one-label domain;
        the pins name vertices of the graph and labels in [0, k].  The first
        conflicting pair u < v is found from each pin u by its pinned v > u
        that are adjacent or at distance two (never both), in id order."""
        items = sorted(pins.items())
        for u, xu in items:
            for v in sorted(v for v in chain(self.adj[u], self.d2[u]) if v > u and v in pins):
                xv = pins[v]
                if abs(xu - xv) < 2 and v in self.adj[u]:
                    return SolveResult(UNSAT, reason=f"pins {u}={xu}, {v}={xv} violate the adjacency gap")
                if xu == xv:  # so v is at distance two: were it adjacent, the gap would have failed
                    return SolveResult(UNSAT, reason=f"pins {u}={xu}, {v}={xv} collide at distance two")
        if self.initial is None:
            return SolveResult(UNSAT, reason=f"a vertex of degree >= {max(self.k, 1)} cannot be labelled")
        for v, x in pins.items():
            if not self.initial[v] >> x & 1:
                return SolveResult(UNSAT, reason=f"pin {x} at vertex {v} conflicts with its degree")
        walked = self._walk([v for v, _ in items], [[x] for _, x in items], budget)
        return next(iter(walked.values()), SolveResult(UNSAT))

    def _leaf(self, budget: Optional[int]) -> SolveResult:
        """Search on from the current fixpoint, counting nodes from 0; a SAT
        witness is checked with ``verify_labelling``."""
        self.nodes = 0
        outcome = self.search(budget)
        if outcome != SAT:
            return SolveResult(outcome, nodes=self.nodes)
        labelling = Labelling(self.k, {v: dv.bit_length() - 1 for v, dv in enumerate(self.domains)})
        if not verify_labelling(self.graph, labelling):
            raise AssertionError("solver produced an invalid witness")
        return SolveResult(SAT, labelling=labelling, nodes=self.nodes)

    def extensions(
        self, boundary: Sequence[int], domains: Sequence[Iterable[int]]
    ) -> Dict[Tuple[int, ...], Labelling]:
        """The label tuples on ``boundary`` that extend to a span-k labelling,
        out of the product of ``domains`` (one per boundary vertex), each with
        its verified witness, a fresh solve's: the SAT leaves of ``_walk``."""
        if len(set(boundary)) != len(boundary):
            raise ValidationError("boundary vertices must be distinct")
        domains = [tuple(labels) for labels in domains]
        if len(domains) != len(boundary):
            raise ValidationError(
                f"expected one label domain per boundary vertex ({len(boundary)}), got {len(domains)}"
            )
        _check_pins(self.graph, self.k, [(v, x) for v, labels in zip(boundary, domains) for x in labels])
        return {t: leaf.labelling for t, leaf in self._walk(boundary, domains, None).items() if leaf.is_sat}

    def _walk(
        self, boundary: Sequence[int], domains: Sequence[Sequence[int]], budget: Optional[int]
    ) -> Dict[Tuple[int, ...], SolveResult]:
        """Each tuple of the product of ``domains`` on ``boundary`` that no
        prefix's propagation prunes, with the ``_leaf`` result that decides it.
        Iterative, with an explicit stack, so a boundary may be a whole graph."""
        walked: Dict[Tuple[int, ...], SolveResult] = {}
        if self.root is None:
            return walked
        self.domains = live = self.root.copy()
        self.trail.clear()
        trail, propagate, undo_to = self.trail, self.propagate, self.undo_to
        domains = [*domains, ()]  # and one for the leaf level, which pins nothing
        levels = [(0, iter(domains[0]))]  # per level reached: the trail mark before its pin, its labels left
        while levels:
            i = len(levels) - 1
            if i < len(boundary):
                v = boundary[i]
                for x in levels[i][1]:
                    if live[v] >> x & 1:
                        mark = len(trail)
                        trail.append((v, live[v]))
                        live[v] = 1 << x
                        if propagate([v]):
                            levels.append((mark, iter(domains[i + 1])))
                            break
                        undo_to(mark)
                else:  # no label left here: back to the pin above
                    undo_to(levels.pop()[0])
                continue
            labels = tuple(live[v].bit_length() - 1 for v in boundary)
            walked[labels] = self._leaf(budget)
            undo_to(levels.pop()[0])
        return walked


def _check_pins(graph: Graph, k: int, pins: Iterable[Tuple[int, int]]) -> None:
    for v, x in pins:
        if not (0 <= v < graph.n):
            raise ValidationError(f"pinned vertex {v} not in graph")
        if not (0 <= x <= k):
            raise ValidationError(f"pin {x} at vertex {v} outside [0,{k}]")


def solve_labelling(
    graph: Graph,
    k: int,
    pinned: Optional[Dict[int, int]] = None,
    budget: Optional[int] = None,
) -> SolveResult:
    """Exact span-k decision with constraint propagation.

    Returns SAT with a verified witness, UNSAT when the search space is
    exhausted, or EXHAUSTED when the node budget runs out first.
    """
    search = _LabelSearch(graph, k)  # checks the span first
    pins = dict(pinned or {})
    _check_pins(graph, k, pins.items())
    if budget is not None and budget < 0:
        raise ValidationError(f"node budget must be non-negative, got {quote(budget)}")
    return search.solve(pins, budget)


def enumerate_boundary_behaviour(
    gadget: Graph, k: int, boundary: Sequence[int], domains: Sequence[Iterable[int]]
) -> Dict[Tuple[int, ...], Labelling]:
    """``_LabelSearch.extensions`` on a new search: each extending tuple with its witness."""
    return _LabelSearch(gadget, k).extensions(boundary, domains)


def _labelling_doc(labelling: Labelling) -> dict:
    return {"k": labelling.k, "labels": {str(v): x for v, x in labelling.labels.items()}}


def labelling_to_json(labelling: Labelling) -> str:
    return json.dumps(_labelling_doc(labelling), sort_keys=True) + "\n"


@collector_paused
def labelling_from_json(text: str) -> Labelling:
    doc = json_object(text, ("k", "labels"), "labelling")
    require_type([doc["k"]], int, "labelling JSON k")
    try:
        labels = dict(zip(vertex_keys(doc["labels"], "labelling JSON label"), doc["labels"].values()))
    except JSON_SHAPE_ERRORS as exc:
        raise ValidationError(f"labelling JSON has the wrong shape: {exc!r}") from exc
    require_type(list(labels.values()), int, "labelling JSON label")
    return Labelling(doc["k"], labels)


def solve_result_to_json(result: SolveResult) -> str:
    doc = {
        "outcome": result.outcome,
        "nodes": result.nodes,
        "reason": result.reason,
        "witness": None if result.labelling is None else _labelling_doc(result.labelling),
    }
    return json.dumps(doc, sort_keys=True) + "\n"
