"""Two-coloured perfect matchings and coloured orientations.

A two-coloured perfect matching (2CPM) colours every vertex black or white so
that each vertex has exactly one neighbour of its own colour.  The "almost"
variant imposes the constraint only on vertices of degree at least two.
Coloured orientations add a partial edge orientation on exactly the
monochromatic edges, with degree bounds and a special rule for out-vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ValidationError
from .graphs import Edge, Graph

BLACK = "B"
WHITE = "W"

FORWARD = "F"  # oriented low id -> high id
BACKWARD = "B"
UNORIENTED = "U"

TwoColouring = Dict[int, str]

def _check_total(graph: Graph, colouring: TwoColouring) -> List[int]:
    bits = []
    for v in range(graph.n):
        c = colouring.get(v)
        if c not in (BLACK, WHITE):
            raise ValidationError(f"colouring is not total: vertex {v}")
        bits.append(0 if c == BLACK else 1)
    return bits


def verify_2cpm(graph: Graph, colouring: TwoColouring) -> bool:
    """Every vertex has exactly one neighbour of its own colour."""
    bits = _check_total(graph, colouring)
    return all(
        sum(1 for u in graph.neighbours(v) if bits[u] == bits[v]) == 1 for v in range(graph.n)
    )


class _MatchingSearch:
    """Backtracking with unit propagation over black/white colourings.

    Branch order is BFS from the lowest id of each component, black first;
    the first completion found is therefore canonical.
    """

    def __init__(self, graph: Graph, almost: bool):
        self.graph = graph
        self.almost = almost
        self.adj = [graph.neighbours(v) for v in range(graph.n)]
        # vertices that must end with exactly one same-coloured neighbour
        self.constrained = [len(ns) >= 2 or not almost for ns in self.adj]
        self.order = self._bfs_order()
        self.colour: List[Optional[int]] = [None] * graph.n
        self.counts = [[0] * graph.n, [0] * graph.n]  # decided neighbours by colour
        self.undec = [graph.degree(v) for v in range(graph.n)]
        self.trail: List[int] = []

    def _bfs_order(self) -> List[int]:
        order = []
        seen = [False] * self.graph.n
        for start in range(self.graph.n):
            if seen[start]:
                continue
            seen[start] = True
            queue = [start]
            head = 0
            while head < len(queue):
                u = queue[head]
                head += 1
                order.append(u)
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
        return order

    def _dead_choice(self, v: int, c: int) -> bool:
        # colour c at v can no longer end up with exactly one same-coloured
        # neighbour
        return self.counts[c][v] > 1 or (self.counts[c][v] == 0 and self.undec[v] == 0)

    def _examine(self, w: int, queue: List[Tuple[int, int]]) -> bool:
        cw = self.colour[w]
        if cw is not None:
            if not self.constrained[w]:
                return True
            same = self.counts[cw][w]
            if same > 1:
                return False
            if same == 0 and self.undec[w] == 0:
                return False
            if self.undec[w] > 0:
                if same == 1:
                    for u in self.adj[w]:
                        if self.colour[u] is None:
                            queue.append((u, 1 - cw))
                elif same == 0 and self.undec[w] == 1:
                    for u in self.adj[w]:
                        if self.colour[u] is None:
                            queue.append((u, cw))
            return True
        if not self.constrained[w]:
            return True
        dead0 = self._dead_choice(w, 0)
        dead1 = self._dead_choice(w, 1)
        if dead0 and dead1:
            return False
        if dead0:
            queue.append((w, 1))
        elif dead1:
            queue.append((w, 0))
        return True

    def assign(self, v: int, c: int) -> bool:
        queue = [(v, c)]
        while queue:
            v, c = queue.pop()
            if self.colour[v] is not None:
                if self.colour[v] != c:
                    return False
                continue
            self.colour[v] = c
            self.trail.append(v)
            for u in self.adj[v]:
                self.counts[c][u] += 1
                self.undec[u] -= 1
            if not self._examine(v, queue):
                return False
            for u in self.adj[v]:
                if not self._examine(u, queue):
                    return False
        return True

    def undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            v = self.trail.pop()
            c = self.colour[v]
            self.colour[v] = None
            for u in self.adj[v]:
                self.counts[c][u] -= 1
                self.undec[u] += 1

    def solutions(self) -> Iterator[Tuple[int, ...]]:
        """Every completion of the current partial colouring, in branch order.

        Iterative over an explicit decision stack, so long BFS orders cannot
        exhaust the interpreter's recursion limit.
        """
        if not self.almost and any(self.graph.degree(v) == 0 for v in range(self.graph.n)):
            return  # a vertex with no neighbours can never be matched
        order, colour, n = self.order, self.colour, self.graph.n
        decisions: List[Tuple[int, int, int]] = []  # (order position, colour, trail mark)
        pos, c = 0, 0
        while True:
            while pos < n and colour[order[pos]] is not None:
                pos += 1
            if pos == n:
                yield tuple(colour)  # fully decided and violation-free
                c = 2
            while c == 2:  # both colours tried: revise the latest decision
                if not decisions:
                    return
                pos, c, mark = decisions.pop()
                self.undo_to(mark)
                c += 1
            mark = len(self.trail)
            if self.assign(order[pos], c):
                decisions.append((pos, c, mark))
                pos, c = pos + 1, 0
            else:
                self.undo_to(mark)
                c += 1


def solve_2cpm(graph: Graph, pinned: Optional[TwoColouring] = None) -> Optional[TwoColouring]:
    """First 2CPM completion respecting the pins, or None.

    Pass ``almost=True`` via `solve_almost_2cpm` for the degree-relaxed
    variant; both search black before white in BFS order.
    """
    return _solve_matching(graph, pinned, almost=False)


def solve_almost_2cpm(graph: Graph, pinned: Optional[TwoColouring] = None) -> Optional[TwoColouring]:
    return _solve_matching(graph, pinned, almost=True)


def _solve_matching(graph: Graph, pinned: Optional[TwoColouring], almost: bool):
    search = _MatchingSearch(graph, almost=almost)
    if pinned:
        for v, c in sorted(pinned.items()):
            if not (0 <= v < graph.n):
                raise ValidationError(f"pinned vertex {v} not in graph")
            if c not in (BLACK, WHITE):
                raise ValidationError(f"bad pinned colour {c!r} at {v}")
            if not search.assign(v, 0 if c == BLACK else 1):
                return None
    bits = next(search.solutions(), None)
    return None if bits is None else {v: WHITE if b else BLACK for v, b in enumerate(bits)}


def extendable_boundary_patterns(graph: Graph, boundary: Sequence[int]) -> List[int]:
    """Boundary colourings that extend to an almost-2CPM, ascending.

    A pattern is an int whose bit i is set when ``boundary[i]`` is white.
    A pattern extends exactly when some almost-2CPM restricts to it, so one
    enumeration of every almost-2CPM, projected onto the boundary, serves all
    2^len(boundary) patterns.  The cost grows with the graph's number of
    almost-2CPMs, not with 2^len(boundary): the clause gadget has 6 against
    2^13 boundary colourings, the uncrossing gadget 4 against 2^8.  With
    ``range(graph.n)`` as the boundary, each pattern is the white set of one
    almost-2CPM.
    """
    solutions = _MatchingSearch(graph, almost=True).solutions()
    return sorted({sum(bits[v] << i for i, v in enumerate(boundary)) for bits in solutions})


# ---------------------------------------------------------------------------
# Coloured orientations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColouredOrientation:
    colouring: Dict[int, str]
    orientation: Dict[Edge, str]  # edge_key -> FORWARD / BACKWARD / UNORIENTED


def _orientation_degrees(
    graph: Graph, co: ColouredOrientation, out_vertices: Set[int]
) -> Optional[Tuple[List[int], List[int], List[int]]]:
    """Opposite-colour neighbour counts, indegrees and outdegrees per vertex
    when `co` meets the four conditions of a coloured orientation, else None.

    Malformed input (a colouring that is not total, a missing or foreign
    orientation entry, an oriented dichromatic edge) raises.
    """
    bits = _check_total(graph, co.colouring)
    opposite = [0] * graph.n
    indeg = [0] * graph.n
    outdeg = [0] * graph.n
    unoriented_mono = False
    for e in graph.sorted_edges():
        d = co.orientation.get(e)
        if d not in (FORWARD, BACKWARD, UNORIENTED):
            raise ValidationError(f"edge {e} has no orientation entry")
        u, v = e
        if bits[u] != bits[v]:
            if d != UNORIENTED:
                raise ValidationError(f"dichromatic edge {e} carries an orientation")
            opposite[u] += 1
            opposite[v] += 1
        elif d == UNORIENTED:
            unoriented_mono = True
        else:
            tail, head = e if d == FORWARD else (v, u)
            outdeg[tail] += 1
            indeg[head] += 1
    if len(co.orientation) != graph.m:  # every edge has an entry, so one more is foreign
        foreign = next(e for e in co.orientation if e not in graph.edges)
        raise ValidationError(f"orientation names foreign edge {foreign}")
    if unoriented_mono or any(c > 1 for c in opposite):
        return None
    for v in range(graph.n):
        if v in out_vertices:
            if indeg[v] != 0:
                return None
        elif indeg[v] > 1 or outdeg[v] > 2:
            return None
    return opposite, indeg, outdeg


def verify_coloured_orientation(
    graph: Graph, co: ColouredOrientation, out_vertices: Set[int]
) -> bool:
    """Check the four defining conditions of a coloured orientation.

    An orientation entry on a dichromatic edge is malformed input and raises;
    a monochromatic edge left unoriented merely fails the check.
    """
    return _orientation_degrees(graph, co, out_vertices) is not None


def is_good_orientation(graph: Graph, co: ColouredOrientation, out_vertices: Set[int]) -> bool:
    """Good: every degree-3 vertex has one opposite-colour neighbour and
    indegree = outdegree = 1."""
    degrees = _orientation_degrees(graph, co, out_vertices)
    if degrees is None:
        raise ValidationError("input is not a coloured orientation")
    opposite, indeg, outdeg = degrees
    return all(
        opposite[v] == 1 and indeg[v] == 1 and outdeg[v] == 1
        for v in range(graph.n)
        if graph.degree(v) == 3
    )
