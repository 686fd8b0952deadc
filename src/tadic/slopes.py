"""T-adic Newton polygons and slope structure of Fredholm series.

The polygon of det(1 - s Theta) is the lower convex hull of the points
(k, v_T of the s^k coefficient).  Coefficients indistinguishable from
zero only bound their valuation from below (by the truncation order b),
so hull data derived from them is flagged provisional and never allowed
to masquerade as an exact slope.

Slope decomposition, run on the affine line, groups the slopes into
consecutive blocks of size d and fits the model  slope = r * (n + beta_j),
n the block index, with an increment r > 0 and residues beta_j in
[0, 1).  Each observed slope is
classified exactly-on-model, within the window r*[n, n+1), or violation;
the classifier reports and never absorbs discrepancies.

The polygon is also compared with the T-adic Hodge polygon HP(Delta) of
the Newton polytope Delta = [-d2, d1] of f, which it lies on or above
(Liu-Wan, "T-adic exponential sums over finite fields", 2009).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError
from .fredholm import FredholmSeries


@dataclass(frozen=True)
class PolygonPoint:
    index: int
    valuation: int
    exact: bool


@dataclass(frozen=True)
class PolygonSlope:
    slope: Fraction
    multiplicity: int
    provisional: bool


@dataclass(frozen=True)
class NewtonPolygon:
    points: tuple[PolygonPoint, ...]
    hull: tuple[tuple[int, int], ...]
    slopes: tuple[PolygonSlope, ...]

    def slope_list(self) -> list[Fraction]:
        """The slopes with multiplicity, up to the first provisional one."""
        out = []
        for s in self.slopes:
            if s.provisional:
                break
            out.extend([s.slope] * s.multiplicity)
        return out

    def hull_value(self, k: int) -> Fraction:
        """Height of the hull at abscissa k (hull vertices interpolated)."""
        for (x0, y0), (x1, y1) in zip(self.hull, self.hull[1:]):
            if x0 <= k <= x1:
                return Fraction(y0) + Fraction(y1 - y0, x1 - x0) * (k - x0)
        raise ValueError(f"abscissa {k} outside the polygon")


def lower_convex_hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain lower hull of points sorted by abscissa."""
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(C) -> NewtonPolygon:
    """Polygon of a Fredholm (or any coefficient) series.

    Accepts a FredholmSeries or a list of ZpTSeries."""
    coeffs = C.coeffs if isinstance(C, FredholmSeries) else tuple(C)
    points = []
    for k, c in enumerate(coeffs):
        v = c.vT()
        points.append(PolygonPoint(index=k, valuation=v.value, exact=v.exact))
    hull = lower_convex_hull([(pt.index, pt.valuation) for pt in points])
    exact_at = {pt.index: pt.exact for pt in points}
    slopes: list[PolygonSlope] = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        provisional = not (exact_at[x0] and exact_at[x1])
        slopes.append(PolygonSlope(
            slope=Fraction(y1 - y0, x1 - x0),
            multiplicity=x1 - x0,
            provisional=provisional,
        ))
    return NewtonPolygon(points=tuple(points), hull=tuple(hull), slopes=tuple(slopes))


@dataclass(frozen=True)
class SlopeClassification:
    block: int
    position: int
    slope: Fraction
    quality: str  # "exact" | "within-window" | "violation"


@dataclass(frozen=True)
class SlopeReport:
    block_degree: int
    increment_r: Fraction
    residues: tuple[Fraction, ...]
    classifications: tuple[SlopeClassification, ...]
    normalization: str = "v_t = 1"

    def all_qualities(self) -> list[str]:
        return [c.quality for c in self.classifications]


def _mode(values: list[Fraction]) -> Fraction:
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def slope_decomposition(npoly: NewtonPolygon, d: int) -> SlopeReport:
    """Fit consecutive blocks of d slopes to the arithmetic-progression
    model r*(n + beta_j).  Requires at least 2d non-provisional slopes."""
    if d < 1:
        raise ValueError("block degree must be >= 1")
    slopes = npoly.slope_list()
    if len(slopes) < 2 * d:
        raise PrecisionError(
            f"only {len(slopes)} non-provisional slopes, need {2 * d}: "
            "increase precision b or smax")
    nblocks = len(slopes) // d
    blocks = [slopes[n * d:(n + 1) * d] for n in range(nblocks)]
    diffs = [blocks[n + 1][j] - blocks[n][j]
             for n in range(nblocks - 1) for j in range(d)]
    r = _mode(diffs)
    residues = []
    for j in range(d):
        if r > 0:
            cands = [blocks[n][j] / r - n for n in range(nblocks)]
            beta = _mode([c for c in cands if 0 <= c < 1] or cands)
        else:
            beta = Fraction(0)
        residues.append(beta)
    classifications = []
    for n in range(nblocks):
        for j in range(d):
            s = blocks[n][j]
            if r > 0:
                if s == r * (n + residues[j]):
                    quality = "exact"
                elif r * n <= s < r * (n + 1):
                    quality = "within-window"
                else:
                    quality = "violation"
            else:
                quality = "exact" if s == 0 else "violation"
            classifications.append(SlopeClassification(
                block=n, position=j, slope=s, quality=quality))
    return SlopeReport(
        block_degree=d,
        increment_r=r,
        residues=tuple(residues),
        classifications=tuple(classifications),
    )


def hodge_polygon(p: int, d1: int, d2: int, n: int) -> list[Fraction]:
    """Heights at k = 0..n of HP(Delta) for Delta = [-d2, d1]: the sum of
    the k least Hodge slopes (p-1) w(u) over the basis x^u, with weight
    w(u) = u/d1 for u >= 0 and |u|/d2 for u < 0.  A side of length 0
    adds no basis element past x^0; on the affine line d2 = 0, and the
    heights are (p-1) k (k-1) / (2 d1)."""
    if d1 < 0 or d2 < 0 or not d1 + d2:
        raise ValueError(f"Delta = [{-d2}, {d1}] must be an interval around 0")
    weights = [Fraction(0)]
    for d in (d1, d2):
        if d:
            weights += [Fraction(u, d) for u in range(1, n + 1)]
    heights = [Fraction(0)]
    for w in sorted(weights)[:n]:
        heights.append(heights[-1] + (p - 1) * w)
    return heights


def hodge_bound_report(npoly: NewtonPolygon, p: int, d1: int, d2: int = 0) -> dict:
    """Compare the polygon against HP(Delta), Delta = [-d2, d1].
    Reported, not asserted: a finding of 'below' flags the abscissa,
    never raises.  Only abscissae under non-provisional slopes are
    compared; elsewhere the hull is just a lower bound, and those
    abscissae are listed as unchecked."""
    checked = set()
    for (x0, _), (x1, _), s in zip(npoly.hull, npoly.hull[1:], npoly.slopes):
        if not s.provisional:
            checked.update(range(x0, x1 + 1))
    findings, unchecked = [], []
    heights = hodge_polygon(p, d1, d2, npoly.hull[-1][0])
    for k, bound in enumerate(heights):
        if k not in checked:
            unchecked.append(k)
            continue
        have = npoly.hull_value(k)
        if have < bound:
            findings.append({"index": k, "hull": str(have), "bound": str(bound)})
    return {
        "holds": not findings,
        "violations": findings,
        "unchecked": unchecked,
        "bound": f"HP(Delta) with p={p}, Delta=[{-d2}, {d1}]",
    }
