"""Independent oracles that the tests cross-check the library against.

Each one works straight from a definition, by exhaustive enumeration where it
decides something, and uses only public library names, so it shares no code
with the solver or verifier it checks.
"""

from typing import Dict, List, Optional, Set, Tuple

from planar_l21.colouring import BLACK, WHITE, TwoColouring
from planar_l21.errors import CapacityError, ValidationError
from planar_l21.graphs import Graph
from planar_l21.labelling import SAT, UNSAT, Labelling, SolveResult, verify_labelling

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
