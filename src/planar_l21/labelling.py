"""L(2,1)-labellings: verification and exact span-k decision solving.

A labelling maps every vertex into {0..k} so that adjacent vertices differ by
at least 2 and vertices at distance exactly two differ.  The solver keeps a
candidate-label set per vertex and propagates both constraint kinds to a
fixpoint between branch decisions; its budget is counted in node expansions,
never wall-clock time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, product
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import ValidationError
from .graphs import JSON_SHAPE_ERRORS, Graph, json_object, require_type, vertex_key

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
                raise ValidationError(f"label {x} at vertex {v} outside [0,{self.k}]")


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
    neighbours are either adjacent (gap) or at distance two.
    """
    lab = labelling.labels
    for v in range(graph.n):
        if v not in lab:
            raise ValidationError(f"labelling misses vertex {v}")
    if len(lab) != graph.n:
        foreign = min(set(lab).difference(range(graph.n)))
        raise ValidationError(f"labelling names vertex {foreign}, which is not in the graph")
    for u, v in graph.edges:
        if abs(lab[u] - lab[v]) < 2:
            return False
    for w in range(graph.n):
        ns = graph.neighbours(w)
        if len(ns) > 1 and len({lab[u] for u in ns}) < len(ns):
            return False
    return True


def _has_distinct_representatives(masks: Sequence[int]) -> bool:
    """Whether label bitmasks admit pairwise distinct representatives.

    A greedy pass places every set that still has a free label; each set
    left over then looks for an augmenting path (Kuhn), visiting each label
    at most once per augmentation.
    """
    holder: Dict[int, int] = {}  # label bit -> index of the set using it
    used = 0
    pending = []
    for i, mask in enumerate(masks):
        free = mask & ~used
        if free:
            low = free & -free
            used |= low
            holder[low] = i
        else:
            pending.append(i)
    seen = 0

    def augment(i: int) -> bool:
        nonlocal used, seen
        cands = masks[i] & ~seen
        free = cands & ~used
        if free:
            low = free & -free
            used |= low
            holder[low] = i
            return True
        seen |= cands
        while cands:
            low = cands & -cands
            cands ^= low
            if augment(holder[low]):
                holder[low] = i
                return True
        return False

    for i in pending:
        seen = 0
        if not augment(i):
            return False
    return True


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
    only reads that fixpoint: neither the queue order nor the way the
    touched vertices are gathered can change a verdict.

    Pinned solves share one set-up: the constructor propagates the unpinned
    domains to the root fixpoint, and ``solve`` narrows the pins on a copy of
    it and propagates from them only.  Narrowing is monotone, so that reaches
    the fixpoint a fresh solve reaches from the initial domains and pins (a
    wipeout or failed Hall check at the root persists under any pins), and a
    hub none of whose neighbours the pins narrow passed its Hall check at the
    root on the same domains: outcome, node count and witness are a fresh
    solve's.
    """

    def __init__(self, graph: Graph, k: int):
        self.graph = graph
        self.k = k
        self.full = (1 << (k + 1)) - 1
        self.adj = [graph.neighbours(v) for v in range(graph.n)]
        self.deg = deg = [len(ns) for ns in self.adj]
        # per vertex, its neighbours of degree >= 3: the Hall check's centres
        self.hubs = [[u for u in ns if deg[u] >= 3] for ns in self.adj]
        self.d2 = graph.distance2
        self.gap: Dict[int, int] = {}  # domain -> labels a neighbour may keep
        self.sdr: Dict[Tuple[int, ...], bool] = {}  # neighbour domains -> Hall verdict
        self.order = sorted(range(graph.n), key=lambda v: (-deg[v], v))
        self.domains: List[int] = []
        self.trail: List[Tuple[int, int]] = []  # (vertex, previous mask)
        self.queued = [False] * graph.n  # propagation queue membership
        self.nodes = 0
        # the unpinned domains and their fixpoint, each None when infeasible
        self.initial = list(self.domains) if self.initial_domains() else None
        ok = self.initial is not None and self.propagate(range(graph.n))
        self.root = list(self.domains) if ok else None
        self.trail.clear()

    def initial_domains(self) -> bool:
        self.domains = []
        for d in self.deg:
            if d >= self.k and d > 0:
                return False  # its neighbours would need d distinct far labels
            if d == self.k - 1 and d > 0:
                self.domains.append((1 << 0) | (1 << self.k))
            else:
                self.domains.append(self.full)
        return True

    def _gap_mask(self, dv: int) -> int:
        # all labels except those within distance 1 of every candidate in dv
        lo = (dv & -dv).bit_length() - 1
        hi = dv.bit_length() - 1
        band_lo = max(0, hi - 1)
        band_hi = min(self.k, lo + 1)
        if band_lo > band_hi:
            return self.full
        return self.full & ~(((1 << (band_hi + 1)) - 1) ^ ((1 << band_lo) - 1))

    def propagate(self, seeds: Sequence[int]) -> bool:
        domains, trail, adj, d2, gap = self.domains, self.trail, self.adj, self.d2, self.gap
        full, queued = self.full, self.queued
        mark = len(trail)
        queue = list(seeds)
        for v in queue:
            queued[v] = True
        while queue:
            v = queue.pop()
            queued[v] = False
            dv = domains[v]
            allowed = gap.get(dv)
            if allowed is None:
                allowed = gap[dv] = self._gap_mask(dv)
            if allowed != full:
                for u in adj[v]:
                    du = domains[u]
                    new = du & allowed
                    if new != du:
                        if not new:
                            for w in queue:
                                queued[w] = False
                            return False
                        trail.append((u, du))
                        domains[u] = new
                        if not queued[u]:
                            queued[u] = True
                            queue.append(u)
            if dv & (dv - 1) == 0:
                for u in d2[v]:
                    du = domains[u]
                    if du & dv:
                        new = du ^ dv
                        if not new:
                            for w in queue:
                                queued[w] = False
                            return False
                        trail.append((u, du))
                        domains[u] = new
                        if not queued[u]:
                            queued[u] = True
                            queue.append(u)
        # touched: the seeds and every vertex this call narrowed
        return self._hall_check(chain(seeds, [u for u, _ in trail[mark:]]))

    def _hall_check(self, touched: Iterable[int]) -> bool:
        # A vertex's neighbours take pairwise distinct labels (gap >= 2 when
        # adjacent, distance two otherwise), so their domains must admit a
        # system of distinct representatives.  Checking it at every fixpoint
        # kills pigeonhole dead-ends that arc pruning cannot see.  A hub whose
        # neighbours all keep at least deg(w) labels passes by counting.
        domains, adj, hubs = self.domains, self.adj, self.hubs
        dirty = set()
        for v in touched:
            dirty.update(hubs[v])
        for w in dirty:
            ns = adj[w]
            deg = len(ns)
            for u in ns:
                if domains[u].bit_count() < deg:
                    break
            else:
                continue
            masks = tuple([domains[u] for u in ns])
            ok = self.sdr.get(masks)
            if ok is None:
                ok = self.sdr[masks] = _has_distinct_representatives(masks)
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
        """One pinned solve from a copy of the root fixpoint; the pins name
        vertices of the graph and labels in [0, k]."""
        items = sorted(pins.items())
        for i, (u, xu) in enumerate(items):
            for v, xv in items[i + 1 :]:
                if abs(xu - xv) < 2 and v in self.adj[u]:
                    return SolveResult(UNSAT, reason=f"pins {u}={xu}, {v}={xv} violate the adjacency gap")
                if xu == xv and v in self.d2[u]:
                    return SolveResult(UNSAT, reason=f"pins {u}={xu}, {v}={xv} collide at distance two")
        if self.initial is None:
            return SolveResult(UNSAT, reason=f"a vertex of degree >= {self.k} cannot be labelled")
        for v, x in pins.items():
            if not self.initial[v] >> x & 1:
                return SolveResult(UNSAT, reason=f"pin {x} at vertex {v} conflicts with its degree")
        if self.root is None:
            return SolveResult(UNSAT)
        self.domains = domains = self.root.copy()
        self.trail.clear()
        self.nodes = 0
        for v, x in pins.items():
            domains[v] &= 1 << x
        if not all(domains[v] for v in pins) or not self.propagate(list(pins)):
            return SolveResult(UNSAT)
        outcome = self.search(budget)
        if outcome != SAT:
            return SolveResult(outcome, nodes=self.nodes)
        labelling = Labelling(self.k, {v: dv.bit_length() - 1 for v, dv in enumerate(domains)})
        if not verify_labelling(self.graph, labelling):
            raise AssertionError("solver produced an invalid witness")
        return SolveResult(SAT, labelling=labelling, nodes=self.nodes)


def _check_pins(graph: Graph, k: int, pins: Iterable[Tuple[int, int]]) -> None:
    if k < 0:
        raise ValidationError(f"span must be non-negative, got {k}")
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
    pins = dict(pinned or {})
    _check_pins(graph, k, pins.items())
    if budget is not None and budget < 0:
        raise ValidationError(f"node budget must be non-negative, got {budget}")
    return _LabelSearch(graph, k).solve(pins, budget)


def enumerate_boundary_behaviour(
    gadget: Graph, k: int, boundary: Sequence[int], domains: Sequence[Iterable[int]]
) -> Set[Tuple[int, ...]]:
    """The label tuples on ``boundary`` that extend to a span-k labelling of
    the gadget, out of the product of ``domains`` (one per boundary vertex).

    One search set-up per call, propagated once to the gadget's unpinned root
    fixpoint; each tuple, in lexicographic order of the product, is a pinned
    solve from a copy of it that decides as a fresh ``solve_labelling`` does
    (see ``_LabelSearch``).
    """
    if len(set(boundary)) != len(boundary):
        raise ValidationError("boundary vertices must be distinct")
    domains = [tuple(labels) for labels in domains]
    _check_pins(gadget, k, [(v, x) for v, labels in zip(boundary, domains) for x in labels])
    search = _LabelSearch(gadget, k)
    return {
        labels
        for labels in product(*domains)
        if search.solve(dict(zip(boundary, labels)), None).is_sat
    }


def _labelling_doc(labelling: Labelling) -> dict:
    return {"k": labelling.k, "labels": {str(v): x for v, x in labelling.labels.items()}}


def labelling_to_json(labelling: Labelling) -> str:
    return json.dumps(_labelling_doc(labelling), sort_keys=True) + "\n"


def labelling_from_json(text: str) -> Labelling:
    doc = json_object(text, ("k", "labels"), "labelling")
    require_type([doc["k"]], int, "labelling JSON k")
    try:
        labels = {vertex_key(v, "labelling JSON label"): x for v, x in doc["labels"].items()}
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
