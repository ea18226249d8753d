import random
from fractions import Fraction

from planar_l21.chords import Crossing, arc_crossings

from oracles import perturbed_crossing_order

# Three semicircles through the common point (4, 2): every pair interleaves
# and all three crossings share the abscissa 4, so only the symbolic
# perturbation (arc i shifted right by epsilon^(i+1)) can order them.
CONCURRENT = [(1, 6), (2, 7), (3, 10)]


def _abscissa(a, b):
    return Fraction(a[0] * a[1] - b[0] * b[1], (a[0] + a[1]) - (b[0] + b[1]))


def test_concurrent_crossings_are_ordered_by_the_perturbation():
    assert {_abscissa(a, b) for i, a in enumerate(CONCURRENT) for b in CONCURRENT[i + 1 :]} == {4}
    per_arc, pairs = arc_crossings(CONCURRENT)
    assert pairs == [(0, 1), (0, 2), (1, 2)]
    # To first order the perturbed abscissae are 4 + eps/2 for pair (0,1),
    # 4 + eps/6 for (0,2) and 4 - eps^2/4 for (1,2); each arc meets its
    # crossings in increasing abscissa from its low end.
    assert per_arc == {
        0: [Crossing(2, True), Crossing(1, True)],
        1: [Crossing(2, True), Crossing(0, False)],
        2: [Crossing(1, False), Crossing(0, False)],
    }


def _random_arcs(rng):
    """2 to 9 arcs with distinct ends over at most 2n + 3 slots, as the chords
    of the planarization stage are."""
    n = rng.randint(2, 9)
    ends = rng.sample(range(2 * n + rng.randint(0, 3)), 2 * n)
    return [tuple(sorted(ends[i : i + 2])) for i in range(0, 2 * n, 2)]


def test_crossing_order_is_that_of_a_drawing():
    # Every comparison the perturbation makes is the sign near eps = 0 of
    # N1*D2 - N2*D1, a polynomial in eps with integer coefficients.  Slots
    # below 21 keep the magnitudes of those coefficients summing to less
    # than 2^20, so for eps < 2^-20 the lowest non-zero term outweighs all
    # the others: the sign at eps = 2^-64 is the sign near zero, and the
    # drawing at that eps realizes exactly the order arc_crossings gives.
    rng = random.Random(25)
    eps = Fraction(1, 2**64)
    concurrent = 0
    for _ in range(3000):
        arcs = _random_arcs(rng)
        per_arc, _ = arc_crossings(arcs)
        assert {i: [c.partner for c in cs] for i, cs in per_arc.items()} == perturbed_crossing_order(
            arcs, eps
        ), arcs
        plain = perturbed_crossing_order(arcs, Fraction(0))
        concurrent += any(
            _abscissa(arcs[i], arcs[a]) == _abscissa(arcs[i], arcs[b])
            for i, js in plain.items()
            for a, b in zip(js, js[1:])
        )
    assert concurrent == 81  # sets holding a concurrence, which only the perturbation orders
