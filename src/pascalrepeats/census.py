"""Pascal-triangle multiplicity counting and curve-pair intersections.

N(t) counts the pairs (n,k) with C(n,k) = t. Every t >= 3 has the two
edge occurrences (t,1) and (t,t-1); interior occurrences are found by
binary search along each column k, which is sound because C(n,k) is
strictly increasing in n for fixed k >= 1, and only columns with
C(2k,k) <= t can contribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import binomial
from .errors import PreconditionError
from .ratios import ShiftPair
from .search import _solve_row, equality_check


@dataclass(frozen=True)
class MultiplicityRecord:
    """t with its exact multiplicity and every occurrence, sorted by (n,k)."""

    t: int
    count: int
    occurrences: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "t": str(self.t),
            "count": self.count,
            "occurrences": [[str(n), str(k)] for n, k in self.occurrences],
        }


def _interior_occurrences(t: int) -> list[tuple[int, int]]:
    out = []
    k = 2
    while binomial(2 * k, k) <= t:
        # binary search the unique n in [2k, t] with C(n,k) = t, if any
        lo, hi = 2 * k, t
        while lo < hi:
            mid = (lo + hi) // 2
            if binomial(mid, k) < t:
                lo = mid + 1
            else:
                hi = mid
        if binomial(lo, k) == t:
            out.append((lo, k))
            if lo != 2 * k:
                out.append((lo, lo - k))
        k += 1
    return out


def multiplicity(t: int) -> MultiplicityRecord:
    """Exact N(t) with occurrence witnesses; t must be at least 2."""
    if t <= 1:
        raise PreconditionError(f"multiplicity needs t >= 2, got {t} (t=1 occurs infinitely often)")
    occ = {(t, 1), (t, t - 1)}
    occ.update(_interior_occurrences(t))
    ordered = tuple(sorted(occ))
    return MultiplicityRecord(t, len(ordered), ordered)


def scan_high_multiplicity(t_max: int, m_min: int) -> list[MultiplicityRecord]:
    """All t <= t_max with N(t) >= m_min, ascending.

    Enumerates every interior entry C(n,k) <= t_max with 2 <= k <= n/2
    into a tally; a value with m interior occurrences has multiplicity
    m + 2 once the edge occurrences are added.
    """
    if t_max < 2:
        raise PreconditionError(f"scan_high_multiplicity needs t_max >= 2, got {t_max}")
    if m_min < 3:
        raise PreconditionError(f"scan_high_multiplicity needs m_min >= 3, got {m_min}")
    tally: dict[int, int] = {}
    n = 4
    while n <= 2 * t_max and binomial(n, 2) <= t_max:
        for k in range(2, n // 2 + 1):
            v = binomial(n, k)
            if v > t_max:
                break
            tally[v] = tally.get(v, 0) + (1 if n == 2 * k else 2)
        n += 1
    hits = sorted(t for t, interior in tally.items() if interior + 2 >= m_min)
    return [multiplicity(t) for t in hits]


def intersect_curves(s1: ShiftPair, s2: ShiftPair, x_max: int) -> list[tuple[int, int]]:
    """Points (x,y), 0 <= y <= x <= x_max, solving both shift equations.

    Solves each row of the first shift on the bracket x <= x_max and keeps
    the solutions that also solve the second; a nontrivial hit is a value
    repeated at three or more positions in the triangle.
    """
    if s1 == s2:
        raise PreconditionError("intersect_curves needs two distinct shifts")
    if x_max < 1:
        raise PreconditionError(f"intersect_curves needs x_max >= 1, got {x_max}")
    points = []
    for y in range(x_max + 1):
        x = _solve_row(y, s1, 0, x_max)
        if x is not None and equality_check(x, y, s2):
            points.append((x, y))
    return points
