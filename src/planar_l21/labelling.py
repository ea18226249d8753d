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
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import CapacityError, ValidationError
from .graphs import JSON_SHAPE_ERRORS, Graph, PortMap, json_object

BRUTE_FORCE_STATE_LIMIT = 10**9

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


@dataclass(frozen=True)
class SolveResult:
    outcome: str  # SAT / UNSAT / EXHAUSTED
    labelling: Optional[Labelling] = None
    nodes: int = 0
    reason: Optional[str] = None

    @property
    def is_sat(self) -> bool:
        return self.outcome == SAT


def distance2_pairs(graph: Graph) -> Set[Tuple[int, int]]:
    """Pairs of non-adjacent vertices with a common neighbour."""
    return {(u, v) for u, ws in enumerate(graph.distance2) for v in ws if u < v}


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

    Branch order: descending degree, ties by ascending id; values ascending.
    Vertices of degree k-1 start with domain {0,k}: any other label leaves
    fewer than k-1 labels for their pairwise-distinct neighbourhood.
    """

    def __init__(self, graph: Graph, k: int):
        self.graph = graph
        self.k = k
        self.full = (1 << (k + 1)) - 1
        self.adj = [graph.neighbours(v) for v in range(graph.n)]
        # per vertex, its neighbours of degree >= 3: the Hall check's centres
        self.hubs = [[u for u in ns if len(self.adj[u]) >= 3] for ns in self.adj]
        self.d2 = graph.distance2
        self.gap: Dict[int, int] = {}  # domain -> labels a neighbour may keep
        self.sdr: Dict[Tuple[int, ...], bool] = {}  # neighbour domains -> Hall verdict
        self.order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
        self.domains: List[int] = []
        self.trail: List[Tuple[int, int]] = []  # (vertex, previous mask)
        self.nodes = 0

    def initial_domains(self) -> bool:
        self.domains = []
        for v in range(self.graph.n):
            deg = self.graph.degree(v)
            if deg >= self.k and deg > 0:
                return False  # its neighbours would need deg distinct far labels
            if deg == self.k - 1 and deg > 0:
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

    def propagate(self, seeds: Iterable[int]) -> bool:
        domains, trail, adj, d2, gap = self.domains, self.trail, self.adj, self.d2, self.gap
        full = self.full
        queue = list(seeds)
        in_queue = set(queue)
        touched = set(queue)
        while queue:
            v = queue.pop()
            in_queue.discard(v)
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
                            return False
                        trail.append((u, du))
                        domains[u] = new
                        touched.add(u)
                        if u not in in_queue:
                            in_queue.add(u)
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
                        touched.add(u)
                        if u not in in_queue:
                            in_queue.add(u)
                            queue.append(u)
        return self._hall_check(touched)

    def _hall_check(self, touched: Set[int]) -> bool:
        # A vertex's neighbours take pairwise distinct labels (gap >= 2 when
        # adjacent, distance two otherwise), so their domains must admit a
        # system of distinct representatives.  Checking it at every fixpoint
        # kills pigeonhole dead-ends that arc pruning cannot see.  A hub whose
        # neighbours all keep at least deg(w) labels passes by counting.
        domains, adj = self.domains, self.adj
        dirty = set()
        for v in touched:
            dirty.update(self.hubs[v])
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
        for i in range(len(trail) - 1, mark - 1, -1):
            v, old = trail[i]
            domains[v] = old
        del trail[mark:]

    def _select(self) -> Optional[int]:
        # smallest remaining domain; ties fall back to descending degree then
        # id via the precomputed static order.  Size 2 is the floor, so stop
        # scanning as soon as one appears.
        best = None
        best_size = 0
        for v in self.order:
            dv = self.domains[v]
            if dv & (dv - 1) == 0:
                continue
            size = dv.bit_count()
            if size == 2:
                return v
            if best is None or size < best_size:
                best, best_size = v, size
        return best

    def search(self, budget: Optional[int]) -> str:
        decisions: List[Tuple[int, int, int]] = []  # (vertex, label, trail mark)
        while True:
            v = self._select()
            if v is None:
                return SAT
            label = (self.domains[v] & -self.domains[v]).bit_length() - 1
            while True:
                self.nodes += 1
                if budget is not None and self.nodes > budget:
                    return EXHAUSTED
                mark = len(self.trail)
                self.trail.append((v, self.domains[v]))
                self.domains[v] = 1 << label
                if self.propagate([v]):
                    decisions.append((v, label, mark))
                    break
                self.undo_to(mark)
                higher = self.domains[v] >> (label + 1)
                if higher:
                    label += 1 + (higher & -higher).bit_length() - 1
                    continue
                while decisions:
                    v, label, mark = decisions.pop()
                    self.undo_to(mark)
                    higher = self.domains[v] >> (label + 1)
                    if higher:
                        label += 1 + (higher & -higher).bit_length() - 1
                        break
                else:
                    return UNSAT


def _apply_pins(graph: Graph, k: int, pinned: Optional[Dict[int, int]]):
    pins = dict(pinned or {})
    for v, x in pins.items():
        if not (0 <= v < graph.n):
            raise ValidationError(f"pinned vertex {v} not in graph")
        if not (0 <= x <= k):
            raise ValidationError(f"pin {x} at vertex {v} outside [0,{k}]")
    return pins


def _pins_conflict(graph: Graph, pins: Dict[int, int]) -> Optional[str]:
    items = sorted(pins.items())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (u, xu), (v, xv) = items[i], items[j]
            if graph.has_edge(u, v) and abs(xu - xv) < 2:
                return f"pins {u}={xu}, {v}={xv} violate the adjacency gap"
            if xu == xv and v in graph.distance2[u]:
                return f"pins {u}={xu}, {v}={xv} collide at distance two"
    return None


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
    pins = _apply_pins(graph, k, pinned)
    reason = _pins_conflict(graph, pins)
    if reason is not None:
        return SolveResult(UNSAT, reason=reason)
    search = _LabelSearch(graph, k)
    if not search.initial_domains():
        return SolveResult(UNSAT, reason=f"a vertex of degree >= {k} cannot be labelled")
    for v, x in pins.items():
        search.domains[v] &= 1 << x
        if search.domains[v] == 0:
            return SolveResult(UNSAT, reason=f"pin {x} at vertex {v} conflicts with its degree")
    if not search.propagate(sorted(range(graph.n))):
        return SolveResult(UNSAT, nodes=search.nodes)
    outcome = search.search(budget)
    if outcome == SAT:
        labels = {v: search.domains[v].bit_length() - 1 for v in range(graph.n)}
        labelling = Labelling(k, labels)
        if not verify_labelling(graph, labelling):
            raise AssertionError("solver produced an invalid witness")
        return SolveResult(SAT, labelling=labelling, nodes=search.nodes)
    return SolveResult(outcome, nodes=search.nodes)


def solve_labelling_bruteforce(
    graph: Graph, k: int, pinned: Optional[Dict[int, int]] = None
) -> SolveResult:
    """Independent oracle: exhaustive enumeration in vertex-id order.

    Works component by component (the constraints never cross components) so
    free satellites do not blow up the refutation of a rigid core.
    """
    if graph.n > 60 or (k + 1) ** graph.n > BRUTE_FORCE_STATE_LIMIT:
        raise CapacityError(f"(k+1)^{graph.n} exceeds the enumeration limit")
    pins = _apply_pins(graph, k, pinned)

    # distance-2 relation recomputed here from the definition, independently
    # of the solver's precomputation
    def ball2(v: int) -> Set[int]:
        out = set()
        for u in graph.neighbours(v):
            for w in graph.neighbours(u):
                if w != v and not graph.has_edge(v, w):
                    out.add(w)
        return out

    d2 = {v: sorted(ball2(v)) for v in range(graph.n)}
    labels: Dict[int, int] = {}

    def extend(vertices: List[int], idx: int) -> bool:
        if idx == len(vertices):
            return True
        v = vertices[idx]
        choices = [pins[v]] if v in pins else range(k + 1)
        for x in choices:
            ok = True
            for u in graph.neighbours(v):
                if u in labels and abs(labels[u] - x) < 2:
                    ok = False
                    break
            if ok:
                for u in d2[v]:
                    if u in labels and labels[u] == x:
                        ok = False
                        break
            if ok:
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


def enumerate_boundary_behaviour(
    gadget: Graph,
    ports: PortMap,
    k: int,
    boundary_domain: Iterable[int],
) -> Set[Tuple[int, int, int, int]]:
    """All realizable (L(u), L(v), L(a_u), L(a_v)) tuples of an edge gadget.

    ``boundary_domain`` restricts the labels tried at u and v; the inner
    labels range over the whole of {0..k}.
    """
    ids = [ports[name] for name in ("u", "v", "a_u", "a_v")]
    if len(set(ids)) != 4:
        raise ValidationError("ports u, v, a_u, a_v must be four distinct vertices")
    u, v, au, av = ids
    domain = sorted(set(boundary_domain))
    for x in domain:
        if not (0 <= x <= k):
            raise ValidationError(f"boundary label {x} outside [0,{k}]")
    out = set()
    for xu in domain:
        for xv in domain:
            for xau in range(k + 1):
                for xav in range(k + 1):
                    pins = {u: xu, v: xv, au: xau, av: xav}
                    if solve_labelling(gadget, k, pins).is_sat:
                        out.add((xu, xv, xau, xav))
    return out


def compute_min_span(graph: Graph, budget: Optional[int] = None):
    """Smallest k admitting a labelling, by iterative deepening from the
    maximum degree; returns EXHAUSTED if any level runs out of budget."""
    if graph.n == 0:
        raise ValidationError("minimum span of the empty graph is undefined")
    k = max(graph.degree(v) for v in range(graph.n))
    while True:
        result = solve_labelling(graph, k, budget=budget)
        if result.outcome == SAT:
            return k
        if result.outcome == EXHAUSTED:
            return EXHAUSTED
        k += 1


def labelling_to_json(labelling: Labelling) -> str:
    doc = {"k": labelling.k, "labels": {str(v): x for v, x in labelling.labels.items()}}
    return json.dumps(doc, sort_keys=True) + "\n"


def labelling_from_json(text: str) -> Labelling:
    doc = json_object(text, ("k", "labels"), "labelling")
    try:
        return Labelling(doc["k"], {int(v): x for v, x in doc["labels"].items()})
    except JSON_SHAPE_ERRORS as exc:
        raise ValidationError(f"labelling JSON has the wrong shape: {exc!r}") from exc


def solve_result_to_json(result: SolveResult) -> str:
    doc = {
        "outcome": result.outcome,
        "nodes": result.nodes,
        "reason": result.reason,
        "witness": None
        if result.labelling is None
        else {"k": result.labelling.k, "labels": {str(v): x for v, x in result.labelling.labels.items()}},
    }
    return json.dumps(doc, sort_keys=True) + "\n"
