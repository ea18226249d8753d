from fractions import Fraction

from planar_l21.chords import Crossing, arc_crossings

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
