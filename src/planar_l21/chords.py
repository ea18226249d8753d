"""Chord-diagram geometry behind the planarization stage.

Port slots sit at integer positions on a baseline; each identifying edge is a
semicircular arc over its two slots.  Two arcs cross exactly when their slots
interleave, so the crossing set is purely combinatorial.  The order of the
crossings along one arc comes from exact arithmetic: the crossing abscissa of
arcs over [a1,a2] and [b1,b2] is (a1*a2 - b1*b2) / ((a1+a2) - (b1+b2)), and a
symbolic perturbation (arc i translated by epsilon^(i+1)) breaks any
concurrence of three or more arcs deterministically.  Every comparison is the
sign of a polynomial in epsilon near zero, so the resulting orders are
realized by an actual drawing for all small positive epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Dict, List, Tuple

from .errors import ValidationError

Arc = Tuple[int, int]  # (low slot, high slot)
Terms = List[Tuple[int, int]]  # a polynomial in epsilon as (power, coefficient) terms


def interleave(a: Arc, b: Arc) -> bool:
    return a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]


def _sign_near_zero(terms: Terms) -> int:
    """Sign, for all sufficiently small epsilon > 0, of the sum of ``terms``:
    that of the summed coefficient of the lowest power where it is non-zero."""
    sums: Dict[int, int] = {}
    for power, coeff in terms:
        sums[power] = sums.get(power, 0) + coeff
    lowest = min((power for power, coeff in sums.items() if coeff), default=None)
    return 0 if lowest is None else 1 if sums[lowest] > 0 else -1


def _crossing_abscissa(arc_a: Arc, ia: int, arc_b: Arc, ib: int) -> Tuple[Terms, Terms]:
    """x-coordinate of the crossing as a ratio N/D of polynomials in epsilon.

    Arc i is shifted right by epsilon^(i+1); D's constant term never vanishes
    for interleaving arcs, and both are scaled so that it is positive.
    """
    (a1, a2), (b1, b2) = arc_a, arc_b
    da, db = ia + 1, ib + 1
    d0 = (a1 + a2) - (b1 + b2)
    if d0 == 0:
        raise AssertionError("interleaving arcs always have distinct slot sums")
    s = 1 if d0 > 0 else -1
    num = [(0, a1 * a2 - b1 * b2), (da, a1 + a2), (2 * da, 1), (db, -(b1 + b2)), (2 * db, -1)]
    return [(p, s * c) for p, c in num], [(0, s * d0), (da, 2 * s), (db, -2 * s)]


@dataclass(frozen=True)
class Crossing:
    partner: int  # index of the other arc
    partner_starts_inside: bool  # partner's low slot lies under this arc


def arc_crossings(arcs: List[Arc]) -> Tuple[Dict[int, List[Crossing]], List[Tuple[int, int]]]:
    """Crossings of each arc, ordered from its low end to its high end.

    Returns a map arc index -> ordered crossing list, plus every crossing
    pair (i, j), i < j, in lexicographic order.
    """
    for lo, hi in arcs:
        if lo >= hi:
            raise ValidationError(f"arc ({lo},{hi}) is not in low-high form")
    partners: Dict[int, List[int]] = {i: [] for i in range(len(arcs))}
    pairs: List[Tuple[int, int]] = []
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if interleave(arcs[i], arcs[j]):
                partners[i].append(j)
                partners[j].append(i)
                pairs.append((i, j))

    out: Dict[int, List[Crossing]] = {}
    for i, js in partners.items():
        if not js:
            continue
        cache = {j: _crossing_abscissa(arcs[i], i, arcs[j], j) for j in js}

        def compare(j1: int, j2: int) -> int:
            n1, d1 = cache[j1]
            n2, d2 = cache[j2]
            terms = [(p + q, c * e) for p, c in n1 for q, e in d2]
            sign = _sign_near_zero(terms + [(p + q, -c * e) for p, c in n2 for q, e in d1])
            if sign == 0:
                raise AssertionError(
                    f"perturbation failed to separate crossings {j1} and {j2} on arc {i}"
                )
            return sign

        ordered = sorted(js, key=cmp_to_key(compare))
        out[i] = [
            Crossing(partner=j, partner_starts_inside=arcs[i][0] < arcs[j][0] < arcs[i][1])
            for j in ordered
        ]
    return out, pairs

