"""Objects in the (S', U') plane: boundary hyperbola, vector line, segment AB,
special points Q and R, and the subregion -> Rybczynski sign-pattern map."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import gt, lt

import numpy as np

from .errors import (AsymptoteHit, DegenerateShares, DegenerateShock,
                     UnmappedRegion)
from .model import Economy, K, L, RatioPoint, T, intensity_ranked
from .statics import Response
from .tolerances import BORDER_TOL, CHORD_TOL, ZERO_TOL


def boundary_u(s, theta_L_over_K):
    """U' on the boundary hyperbola at abscissa S', a float or an array.

    U' = -(theta_L/theta_K) * S'/(S'+1): passes through the origin, vertical
    asymptote S' = -1, horizontal asymptote U' = -theta_L/theta_K.
    """
    hit = abs(np.add(s, 1.0)) < ZERO_TOL
    if hit.any():
        raise AsymptoteHit(f"boundary evaluated at S' = {np.extract(hit, s)[0]} "
                           "(asymptote S' = -1)")
    return -theta_L_over_K * s / (s + 1.0)


def region_contains(p: RatioPoint) -> bool:
    """Strict feasible-region test for a ratio point.

    The admissible side of the boundary flips with the sign of g_LT the
    point carries: above the curve for g_LT > 0, below it for g_LT < 0.
    """
    b = boundary_u(p.s, p.theta_L_over_K)
    return p.u > b if p.g_LT_sign > 0 else p.u < b


class Quadrant(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    BOUNDARY = "boundary"


#: quadrant of (S', U') -> implied sign triple of (g_LK, g_LT, g_KT)
QUADRANT_SIGNS = {
    Quadrant.I: (1, 1, 1),
    Quadrant.II: (-1, 1, 1),
    Quadrant.III: (1, -1, 1),
    Quadrant.IV: (1, 1, -1),
}


#: the side of zero each of (S', U') lies on inside each quadrant
_SIDES = {Quadrant.I: (gt, gt), Quadrant.II: (lt, gt), Quadrant.III: (lt, lt),
          Quadrant.IV: (gt, lt)}


def in_quadrant(s, u, name: str):
    """Where ratio coordinates (S', U'), floats or arrays of any shape, lie
    in the quadrant named "I" to "IV". A zero or NaN coordinate lies in none."""
    side_s, side_u = _SIDES[Quadrant[name]]
    return side_s(s, 0.0) & side_u(u, 0.0)


def quadrant(p: RatioPoint) -> tuple:
    """Quadrant of the ratio point and the EWS sign triple it implies; a
    point in no quadrant is on the boundary."""
    q = next((q for q, (side_s, side_u) in _SIDES.items()
              if side_s(p.s, 0.0) and side_u(p.u, 0.0)), Quadrant.BOUNDARY)
    return q, QUADRANT_SIGNS.get(q)


@dataclass(frozen=True)
class VectorLine:
    """The straight line U' = -a1*S' + b1 the ratio vector must lie on,
    given one non-degenerate shock."""

    a1: float
    b1: float

    def u_at(self, s: float) -> float:
        return -self.a1 * s + self.b1


def vector_line(resp: Response, e: Economy) -> VectorLine:
    """Build the vector line from a solved response.

    a1 = a_T0' theta_T W_LK / (a_L0' theta_K W_KT),
    b1 = a_K0' W_LT / (a_L0' W_KT), with W_ih = w_i* - w_h*.
    """
    W, a0, tf, band = resp.W, resp.a0_prime, e.theta_factor, resp.shock.zero_band
    if abs(W[K, T]) < band or abs(a0[L]) < band:
        raise DegenerateShock(
            "uniform factor-price change or vanishing a_L0'; vector line undefined")
    a1 = a0[T] * tf[T] * W[L, K] / (a0[L] * tf[K] * W[K, T])
    b1 = a0[K] * W[L, T] / (a0[L] * W[K, T])
    return VectorLine(float(a1), float(b1))


@dataclass(frozen=True)
class SegmentAB:
    """Chord of the boundary cut out by the vector line.

    When both endpoints lie on the same branch of the hyperbola (both
    abscissas on the same side of the asymptote S' = -1), the feasible part
    of the line is exactly this chord and the ratio vector lies on it,
    endpoints included. When the endpoints straddle the asymptote the
    feasible part of the line is the complement of the chord, and the ratio
    vector falls outside the S' interval."""

    point_a: RatioPoint
    point_b: RatioPoint
    line: VectorLine

    def same_branch(self) -> bool:
        return (self.point_a.s + 1.0) * (self.point_b.s + 1.0) > 0

    def s_interval(self) -> tuple:
        return tuple(sorted((self.point_a.s, self.point_b.s)))

    def contains(self, p: RatioPoint) -> bool:
        """Whether `p` is on the Euclidean chord: on the line, with S' in
        the interval between A and B.

        The chord is the feasible part of the line only when `same_branch()`
        holds; for straddling endpoints a feasible point gives False.
        """
        lo, hi = self.s_interval()
        width = max(hi - lo, 1.0)
        if not (lo - CHORD_TOL * width <= p.s <= hi + CHORD_TOL * width):
            return False
        scale = max(1.0, abs(p.u))
        return abs(p.u - self.line.u_at(p.s)) <= CHORD_TOL * scale


def endpoint_a(w_star, theta_factor) -> RatioPoint:
    """Segment endpoint A = (-W_TL/W_KL, (theta_L/theta_K)(-W_LT/W_KT)) from
    the factor-price changes alone, with W_ih = w_i* - w_h*."""
    w = w_star
    r = float(theta_factor[L] / theta_factor[K])
    return RatioPoint(float(-(w[T] - w[L]) / (w[K] - w[L])),
                      float(r * (-(w[L] - w[T]) / (w[K] - w[T]))), r)


def endpoint_b(a0_prime, theta_factor) -> RatioPoint:
    """Segment endpoint B = ((a_K0'/a_T0')(theta_K/theta_T), a_K0'/a_L0') from
    the aggregate input-coefficient changes alone."""
    a0, tf = a0_prime, theta_factor
    return RatioPoint(float(a0[K] / a0[T] * (tf[K] / tf[T])),
                      float(a0[K] / a0[L]), float(tf[L] / tf[K]))


def segment_ab(line: VectorLine, resp: Response, e: Economy) -> SegmentAB:
    """Endpoints A and B of the boundary chord, in closed form: the two
    points where the vector line meets the boundary hyperbola."""
    W, a0 = resp.W, resp.a0_prime
    for name, v in (("W_KL", W[K, L]), ("W_KT", W[K, T]),
                    ("a_T0'", a0[T]), ("a_L0'", a0[L])):
        if abs(v) < resp.shock.zero_band:
            raise DegenerateShock(f"{name} = {v:.3e}; segment endpoints undefined")
    return SegmentAB(endpoint_a(resp.w_star, e.theta_factor),
                     endpoint_b(a0, e.theta_factor), line)


def _point_q(th, r, where=True) -> tuple:
    """(S', U') arrays (n,) of Q for shares th (n, 3, 2) and theta_L/theta_K
    ratios r (n,); raises DegenerateShares at the first row of `where` at
    which Q is undefined."""
    da, db, de = (th[..., 0] - th[..., 1]).T
    bad = ((abs(da) < ZERO_TOL) | (abs(de) < ZERO_TOL)) & where
    if bad.any():
        n = bad.argmax()
        raise DegenerateShares(f"share differences (A, E) = ({da[n]:.3e}, "
                               f"{de[n]:.3e}) vanish; Q undefined")
    return db / da, db / de * r


def point_q(e: Economy) -> RatioPoint:
    """Common intersection point of the subregion border lines.

    Q = (B/A, (B/E)(theta_L/theta_K)) with (A, B, E) the between-sector share
    differences of (T, K, L); under the intensity ranking Q is in quadrant III.
    """
    s, u = _point_q(e.theta_share[None], np.array([e.theta_L_over_K]))
    return RatioPoint(float(s[0]), float(u[0]), e.theta_L_over_K)


def r_thresholds(th) -> np.ndarray:
    """S'(R_L1), S'(R_L2) = theta_Kj/theta_Tj (..., 2) of shares th (..., 3, 2):
    the R points' abscissas, the S' thresholds between quadrant-IV subregions."""
    return th[..., K, :] / th[..., T, :]


def _points_r(th, r) -> tuple:
    """(S', U') arrays (n, 2) of R_L1 and R_L2 for shares th (n, 3, 2) and
    theta_L/theta_K ratios r (n,)."""
    return r_thresholds(th), -th[:, K] / (1.0 - th[:, L]) * r[:, None]


def points_r(e: Economy) -> tuple:
    """Boundary points R_L1 and R_L2 delimiting the quadrant-IV subregions.

    R_Lj = (theta_Kj/theta_Tj, -theta_Kj/(1 - theta_Lj) * theta_L/theta_K);
    both satisfy the boundary equation identically, and the intensity
    ranking puts R_L1 left of R_L2.
    """
    s, u = _points_r(e.theta_share[None], np.array([e.theta_L_over_K]))
    return tuple(RatioPoint(float(s[0, j]), float(u[0, j]), e.theta_L_over_K)
                 for j in range(2))


class SubregionLabel(enum.Enum):
    QUAD_I = "quadrant I"
    QUAD_II = "quadrant II"
    QUAD_III = "quadrant III"
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    QUAD_IV_UNCLASSIFIED = "quadrant IV (unclassified)"
    BOUNDARY = "boundary"


#: the labels that `_subregions` codes index, and the quadrants it codes
_LABELS, _QUADRANTS = tuple(SubregionLabel), tuple(Quadrant)
#: label code of the points in each of _QUADRANTS; quadrant IV's is on a border
_QUADRANT_CODES = np.array([_LABELS.index(SubregionLabel[name]) for name in
                            ("QUAD_I", "QUAD_II", "QUAD_III", "BOUNDARY", "BOUNDARY")])
#: label code of a quadrant-IV point by 2 * (P1 side) + (P3 side), 3 if unranked
_SIDE_CODES = np.array([_LABELS.index(SubregionLabel[name]) for name in
                        ("P2", "P3", "P1", "QUAD_IV_UNCLASSIFIED")])


def _subregions(s, u, th, tf) -> tuple:
    """Quadrant and subregion codes, into _QUADRANTS and _LABELS, of ratio points
    (s, u) (n,) of economies with shares th (n, 3, 2) and theta_factor tf (n, 3).

    The border lines run through Q and R_L1 (P2/P3) and through Q and R_L2
    (P1/P2); a point within BORDER_TOL of either is on the boundary. Under the
    intensity ranking Q is on the boundary's left branch and R_L1, R_L2 on its
    falling right one, so each border is a rising chord that the curve crosses
    from above at R: P3 is above the first border, P1 below the second. Only
    quadrant-IV rows need Q, and raise DegenerateShares where it is undefined;
    those of unranked economies are unclassified.
    """
    quads = np.full(s.shape, 4)  # Quadrant.BOUNDARY, unless in a quadrant
    for k, q in enumerate(_QUADRANTS[:4]):
        quads[in_quadrant(s, u, q.name)] = k
    if not (iv := quads == 3).any():  # Quadrant.IV
        return quads, _QUADRANT_CODES[quads]
    r = tf[:, L] / tf[:, K]
    with np.errstate(divide="ignore", invalid="ignore"):
        qs, qu = (v[:, None] for v in _point_q(th, r, iv))
        rs, ru = _points_r(th, r)
        ds, du = rs - qs, ru - qu
        side = ds * (u[:, None] - qu) - du * (s[:, None] - qs)
        keep = iv & ~(abs(side) / np.hypot(ds, du) < BORDER_TOL).any(axis=1)
        unranked = iv & ~intensity_ranked(th)
    codes = _SIDE_CODES[np.where(unranked, 3, 2 * (side[:, 1] < 0) + (side[:, 0] > 0))]
    return quads, np.where(keep | unranked, codes, _QUADRANT_CODES[quads])


def classify_subregion(p: RatioPoint, e: Economy) -> SubregionLabel:
    """Quadrant-IV subregion (P1/P2/P3) of a ratio point, under the intensity
    ranking, or else its quadrant: `_subregions` of one point."""
    _, codes = _subregions(np.array([p.s]), np.array([p.u]),
                           e.theta_share[None], e.theta_factor[None])
    return _LABELS[codes[0]]


#: subregion -> Rybczynski sign matrix, rows = goods (1, 2), cols = (V_T, V_K, V_L)
RYBCZYNSKI_PATTERNS = {
    SubregionLabel.P1: np.array([[1, -1, -1], [-1, 1, 1]]),
    SubregionLabel.P2: np.array([[1, -1, 1], [-1, 1, 1]]),
    SubregionLabel.P3: np.array([[1, -1, 1], [-1, 1, -1]]),
}


def rybczynski_pattern(label: SubregionLabel) -> np.ndarray:
    """Tabulated sign matrix of output responses to endowment changes."""
    try:
        return RYBCZYNSKI_PATTERNS[label].copy()
    except KeyError:
        raise UnmappedRegion(
            f"no Rybczynski sign matrix is tabulated for {label.value}") from None
