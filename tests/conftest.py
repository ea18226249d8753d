import itertools
import random

import pytest

from planar_l21.graphs import ORIGINAL, Graph, RotationSystem, Vertex, verify_planar
from planar_l21.pipeline import run_reduction

from oracles import rows_are_simple


def make_graph(n, edges):
    return Graph([Vertex(i, ORIGINAL, str(i)) for i in range(n)], edges)


def path_graph(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return make_graph(n, list(itertools.combinations(range(n), 2)))


def star_graph(leaves):
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(rng: random.Random, n, p):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return make_graph(n, edges)


def any_rotation(graph):
    return RotationSystem({v: list(graph.neighbours(v)) for v in range(graph.n)})


@pytest.fixture
def triangle():
    return complete_graph(3)


@pytest.fixture(scope="session")
def reduced():
    """`run_reduction`, run once per (formula, k) in a session and shared by
    the tests that only read the trace.  A test that counts the calls made
    while reducing calls `run_reduction` itself.  Each trace's aux and
    instance stages, which the library certifies by their splices, must pass
    the Euler check as well, and their rows, which are their graphs'
    adjacency, must be symmetric and repeat no entry."""
    traces = {}

    def reduce(formula, k):
        if (formula, k) not in traces:
            trace = traces[formula, k] = run_reduction(formula, k)
            for stage in (trace.aux, trace.instance):
                assert verify_planar(stage.graph, stage.rot) and rows_are_simple(stage.rot)
        return traces[formula, k]

    return reduce
