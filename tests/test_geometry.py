"""Ratio-plane geometry: boundary curve, vector line, segment AB, special
points, and the subregion classification."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ews3x2 as m
from ews3x2.geometry import (_LABELS, _QUADRANTS, RYBCZYNSKI_PATTERNS,
                             _point_q, _points_r, _subregions, in_quadrant)
from ews3x2.model import K, L, T, RatioPoint, intensity_ranked
from ews3x2.statics import Shock
from ews3x2.tolerances import BORDER_TOL, ZERO_TOL

from conftest import line_boundary_roots, mixed_pool, near_boundary_economy

R0 = 0.325 / 0.35  # theta_L / theta_K of the reference economy


# ---------------------------------------------------------------------------
# Boundary curve


def test_boundary_passes_through_origin():
    assert m.boundary_u(0.0, R0) == 0.0


def test_boundary_value_at_one():
    assert m.boundary_u(1.0, R0) == pytest.approx(-R0 / 2.0)


def test_boundary_asymptotes():
    with pytest.raises(m.AsymptoteHit):
        m.boundary_u(-1.0, R0)
    # horizontal asymptote U' -> -theta_L/theta_K as S' -> +/- infinity
    assert m.boundary_u(1e12, R0) == pytest.approx(-R0, rel=1e-9)
    assert m.boundary_u(-1e12, R0) == pytest.approx(-R0, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(-50, 50), st.floats(0.05, 20))
def test_region_side_flips_with_g_lt_sign(s, r):
    if abs(s + 1.0) < 1e-3:
        return
    b = m.boundary_u(s, r)
    above = RatioPoint(s, b + 0.1, r, g_LT_sign=1)
    below = RatioPoint(s, b - 0.1, r, g_LT_sign=1)
    assert m.region_contains(above) and not m.region_contains(below)
    assert not m.region_contains(RatioPoint(s, b + 0.1, r, g_LT_sign=-1))
    assert m.region_contains(RatioPoint(s, b - 0.1, r, g_LT_sign=-1))


def test_quadrant_map():
    cases = {(2.0, 3.0): "I", (-2.0, 3.0): "II", (-2.0, -3.0): "III",
             (2.0, -3.0): "IV"}
    for (s, u), name in cases.items():
        quad, triple = m.quadrant(RatioPoint(s, u, R0))
        assert quad.name == name
        assert triple is not None and len(triple) == 3
    quad, triple = m.quadrant(RatioPoint(0.0, 1.0, R0))
    assert quad is m.Quadrant.BOUNDARY and triple is None


def test_in_quadrant_equals_scalar_quadrant():
    # signed zeros and NaN lie in no quadrant, in both
    values = [-np.inf, -2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0, np.inf, np.nan]
    s, u = (a.ravel() for a in np.meshgrid(values, values))
    for name in ("I", "II", "III", "IV"):
        inside = in_quadrant(s, u, name)
        assert inside.shape == s.shape
        for k in range(len(s)):
            quad, _ = m.quadrant(RatioPoint(float(s[k]), float(u[k]), R0))
            assert inside[k] == (quad.value == name), (s[k], u[k])
            assert in_quadrant(float(s[k]), float(u[k]), name) == inside[k]
    for point in [(np.nan, np.nan), (np.nan, 1.0), (-0.0, -1.0)]:
        assert m.quadrant(RatioPoint(*point, R0)) == (m.Quadrant.BOUNDARY, None)


# ---------------------------------------------------------------------------
# Vector line and segment AB on the reference economy, price shock P = 1


@pytest.fixture(scope="module")
def e0_line_segment(e0):
    resp = m.solve_linear(e0, Shock.price(1.0))
    line = m.vector_line(resp, e0)
    seg = m.segment_ab(line, resp, e0)
    return resp, line, seg


def test_ratio_point_lies_on_vector_line(e0, e0_line_segment):
    _, line, _ = e0_line_segment
    pt = m.ews_ratio_vector(m.ews_matrix(e0))
    assert line.u_at(pt.s) == pytest.approx(pt.u, abs=1e-10)


def test_e0_segment_endpoint_values(e0_line_segment):
    _, _, seg = e0_line_segment
    assert seg.point_a.s == pytest.approx(0.608695652, abs=1e-8)
    assert seg.point_a.u == pytest.approx(-0.351351351, abs=1e-8)
    assert seg.point_b.s == pytest.approx(-1.2, abs=1e-8)
    assert seg.point_b.u == pytest.approx(-5.571428571, abs=1e-8)


def test_endpoints_on_boundary_and_line(e0, e0_line_segment):
    _, line, seg = e0_line_segment
    for p in (seg.point_a, seg.point_b):
        assert p.u == pytest.approx(m.boundary_u(p.s, e0.theta_L_over_K),
                                    abs=1e-10)
        assert p.u == pytest.approx(line.u_at(p.s), abs=1e-10)


def test_closed_form_endpoints_match_quadratic_roots(e0, e0_line_segment):
    _, line, seg = e0_line_segment
    assert list(seg.s_interval()) == pytest.approx(
        list(line_boundary_roots(line, e0.theta_L_over_K)), abs=1e-10)


def test_e0_endpoints_straddle_asymptote(e0, e0_line_segment):
    # A is right of S' = -1, B left of it: opposite hyperbola branches, so
    # the feasible part of the line is the complement of the chord and the
    # ratio point falls outside the endpoints' S' interval.
    _, _, seg = e0_line_segment
    assert not seg.same_branch()
    pt = m.ews_ratio_vector(m.ews_matrix(e0))
    assert not seg.contains(pt)
    assert m.region_contains(pt)


def test_segment_contains_respects_interval_and_line(e0_line_segment):
    _, line, seg = e0_line_segment
    lo, hi = seg.s_interval()
    mid = 0.5 * (lo + hi)
    assert seg.contains(RatioPoint(mid, line.u_at(mid), R0))
    assert not seg.contains(RatioPoint(mid, line.u_at(mid) + 1.0, R0))
    assert not seg.contains(RatioPoint(hi + 1.0, line.u_at(hi + 1.0), R0))


def test_degenerate_shock_raises(e0):
    resp = m.solve_linear(e0, Shock.price(1.0))
    flat = m.Response(
        shock=resp.shock, w_star=np.zeros(3), x_star=resp.x_star,
        a_star=resp.a_star, a0_prime=np.zeros(3), W=np.zeros((3, 3)),
        xyz=resp.xyz, H=resp.H, H0=resp.H0, ranking=resp.ranking,
        label=resp.label)
    with pytest.raises(m.DegenerateShock):
        m.vector_line(flat, e0)


def test_segment_refuses_the_terms_the_vector_line_does_not_test(e0):
    # W_KL and a_T0' enter only the endpoints, so segment_ab tests them itself
    resp = m.stolper_samuelson(e0, 1.0)
    line = m.vector_line(resp, e0)
    W, a0 = resp.W.copy(), resp.a0_prime.copy()
    W[K, L] = W[L, K] = 0.0
    a0[T] = 0.0
    for name, flat in (("W_KL", dataclasses.replace(resp, W=W)),
                       ("a_T0'", dataclasses.replace(resp, a0_prime=a0))):
        with pytest.raises(m.DegenerateShock, match=name):
            m.segment_ab(line, flat, e0)


# ---------------------------------------------------------------------------
# Containment is equivalent to the endpoints sharing a hyperbola branch


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_containment_iff_same_branch(seed):
    rng = np.random.default_rng(seed)
    e = m.sample_economy_shares(int(rng.integers(10_000)))
    shock = Shock.price(1.0) if rng.random() < 0.5 else Shock(
        p_star=np.array([1.0, 0.0]), v_star=rng.normal(size=3))
    resp = m.solve_linear(e, shock)
    try:
        line = m.vector_line(resp, e)
        seg = m.segment_ab(line, resp, e)
        pt = m.ews_ratio_vector(m.ews_matrix(e))
    except m.Ews3x2Error:
        return
    assert line.u_at(pt.s) == pytest.approx(pt.u, abs=1e-8 * max(1, abs(pt.u)))
    assert seg.contains(pt) == seg.same_branch()


# ---------------------------------------------------------------------------
# Special points Q, R and the subregion classification


def test_point_q_values(e0):
    q = m.point_q(e0)
    assert q.s == pytest.approx(-1.2, abs=1e-12)
    assert q.u == pytest.approx(-5.571428571428571, abs=1e-9)
    assert m.quadrant(q)[0] is m.Quadrant.III


def test_points_r_on_boundary_and_ordered(e0):
    r_l1, r_l2 = m.points_r(e0)
    assert r_l1.s == pytest.approx(0.2 / 0.45)
    assert r_l2.s == pytest.approx(0.5 / 0.2)
    assert r_l1.s < r_l2.s
    for p in (r_l1, r_l2):
        assert p.u == pytest.approx(m.boundary_u(p.s, e0.theta_L_over_K),
                                    abs=1e-12)


def test_point_q_degenerate_shares():
    th = np.array([[0.35, 0.35], [0.30, 0.35], [0.35, 0.30]])
    e = m.Economy.cobb_douglas(th, [0.5, 0.5])
    with pytest.raises(m.DegenerateShares):
        m.point_q(e)


def test_classify_non_quadrant_iv(e0):
    assert m.classify_subregion(RatioPoint(1.0, 1.0, R0), e0).value == "quadrant I"
    assert m.classify_subregion(RatioPoint(-1.0, 1.0, R0), e0).value == "quadrant II"
    assert m.classify_subregion(RatioPoint(-1.0, -1.0, R0), e0).value == "quadrant III"
    assert m.classify_subregion(RatioPoint(0.0, 1.0, R0), e0).value == "boundary"


def test_classify_thresholds_on_boundary(e0):
    # on-curve points reproduce the S' threshold ordering around R_L1, R_L2
    r = e0.theta_L_over_K
    r_l1, r_l2 = m.points_r(e0)
    for s, expect in ((r_l1.s * 0.8, "P3"), (1.0, "P2"), (r_l2.s * 1.2, "P1")):
        p = RatioPoint(s, m.boundary_u(s, r) * 0.999, r)  # just above the curve
        assert m.classify_subregion(p, e0).value == expect


def test_classify_border_tolerance(e0):
    q = m.point_q(e0)
    r_l1, _ = m.points_r(e0)
    # a quadrant-IV point exactly on the Q--R_L1 border line
    t = (0.02 - q.s) / (r_l1.s - q.s)
    p = RatioPoint(0.02, q.u + t * (r_l1.u - q.u), e0.theta_L_over_K)
    if p.u < 0:
        assert m.classify_subregion(p, e0).value == "boundary"


@pytest.mark.parametrize("region", ["P1", "P2", "P3"])
def test_near_boundary_fixture_classifies(region):
    rng = np.random.default_rng(7)
    e = near_boundary_economy(rng, region)
    pt = m.ews_ratio_vector(m.ews_matrix(e))
    assert m.classify_subregion(pt, e).value == region
    assert m.region_contains(pt)


def test_rybczynski_pattern_table():
    p1 = m.rybczynski_pattern(m.SubregionLabel.P1)
    assert p1.tolist() == [[1, -1, -1], [-1, 1, 1]]
    assert m.rybczynski_pattern(m.SubregionLabel.P2).tolist() == \
        [[1, -1, 1], [-1, 1, 1]]
    assert m.rybczynski_pattern(m.SubregionLabel.P3).tolist() == \
        [[1, -1, 1], [-1, 1, -1]]
    # the returned matrix is a copy, not the shared table entry
    p1[0, 0] = 0
    assert RYBCZYNSKI_PATTERNS[m.SubregionLabel.P1][0, 0] == 1
    with pytest.raises(m.UnmappedRegion):
        m.rybczynski_pattern(m.SubregionLabel.QUAD_I)


# ---------------------------------------------------------------------------
# The subregion kernel against the scalar classification it replaced


def _reference_subregion(p, e):
    """The point-at-a-time classification that the array kernel replaced,
    kept verbatim in substance as the reference the kernel must reproduce."""
    quad, _ = m.quadrant(p)
    if quad is not m.Quadrant.IV:
        return {m.Quadrant.I: m.SubregionLabel.QUAD_I,
                m.Quadrant.II: m.SubregionLabel.QUAD_II,
                m.Quadrant.III: m.SubregionLabel.QUAD_III,
                m.Quadrant.BOUNDARY: m.SubregionLabel.BOUNDARY}[quad]
    th, r = e.theta_share, e.theta_L_over_K
    da, db, de = (th[i, 0] - th[i, 1] for i in (T, K, L))
    if abs(da) < ZERO_TOL or abs(de) < ZERO_TOL:
        raise m.DegenerateShares(
            f"share differences (A, E) = ({da:.3e}, {de:.3e}) vanish; Q undefined")
    q = (float(db / da), float(db / de * r))
    r_l1, r_l2 = ((float(th[K, j] / th[T, j]),
                   float(-th[K, j] / (1.0 - th[L, j]) * r)) for j in range(2))

    def side(b, a):
        return (b[0] - q[0]) * (a[1] - q[1]) - (b[1] - q[1]) * (a[0] - q[0])

    def on_border(b):
        distance = abs(side(b, (p.s, p.u))) / math.hypot(b[0] - q[0], b[1] - q[1])
        return distance < BORDER_TOL

    def boundary(s):
        if abs(s + 1.0) < ZERO_TOL:
            raise m.AsymptoteHit(f"boundary evaluated at S' = {s} (asymptote S' = -1)")
        return -r * s / (s + 1.0)

    if on_border(r_l2) or on_border(r_l1):
        return m.SubregionLabel.BOUNDARY
    s1, s3 = r_l2[0] * (1.0 + 1e-3), r_l1[0] * (1.0 - 1e-3)
    on_p1 = side(r_l2, (p.s, p.u)) * side(r_l2, (s1, boundary(s1))) > 0
    on_p3 = side(r_l1, (p.s, p.u)) * side(r_l1, (s3, boundary(s3))) > 0
    if on_p1 and on_p3:
        return m.SubregionLabel.QUAD_IV_UNCLASSIFIED
    return (m.SubregionLabel.P1 if on_p1 else m.SubregionLabel.P3 if on_p3
            else m.SubregionLabel.P2)


def _assert_kernel_equals_reference(economies, points):
    """Labels of (economy, (s, u)) pairs: the batch kernel over all of them,
    one-point classify_subregion calls and the reference agree."""
    s, u = (np.array(c, dtype=float) for c in zip(*points))
    th = np.array([e.theta_share for e in economies])
    tf = np.array([e.theta_factor for e in economies])
    quads, codes = _subregions(s, u, th, tf)
    seen = set()
    for k, e in enumerate(economies):
        p = RatioPoint(s[k], u[k], e.theta_L_over_K)
        want = _reference_subregion(p, e)
        assert _LABELS[codes[k]] is want, (k, s[k], u[k])
        assert m.classify_subregion(p, e) is want, (k, s[k], u[k])
        assert _QUADRANTS[quads[k]] is m.quadrant(p)[0]
        seen.add(want)
    return seen


@pytest.fixture(scope="module")
def kernel_pool():
    return mixed_pool(2024, 200)


def test_subregion_kernel_equals_scalar_path_on_random_points(kernel_pool):
    rng = np.random.default_rng(17)
    economies = [e for e in kernel_pool for _ in range(100)]
    mag = 10.0 ** rng.uniform(-3, 2, size=(len(economies), 2))
    signs = rng.choice([-1.0, 1.0], size=(len(economies), 2))
    seen = _assert_kernel_equals_reference(economies, list(mag * signs))
    assert len(economies) == 20_000
    assert {m.SubregionLabel.QUAD_I, m.SubregionLabel.QUAD_II,
            m.SubregionLabel.QUAD_III, m.SubregionLabel.P1, m.SubregionLabel.P2,
            m.SubregionLabel.P3} <= seen


def test_subregion_kernel_equals_scalar_path_at_the_borders(kernel_pool):
    # points at R_L1 and R_L2, and 1e-12 to 1e-6 off either border line on
    # both sides, near R and halfway between R and the U' axis
    economies, points = [], []
    for e in kernel_pool[:100]:
        q = np.array(m.point_q(e).coords())
        for r_point in m.points_r(e):
            r = np.array(r_point.coords())
            along = (r - q) / np.hypot(*(r - q))
            normal = np.array([-along[1], along[0]])
            bases = [r, r + 0.5 * (r - q) * (-r[0] / (r - q)[0])]
            points.append(tuple(r))
            points += [tuple(b + d * normal) for b in bases
                       for d in np.outer([-1, 1], 10.0 ** np.arange(-12, -5)).ravel()]
            economies += [e] * (1 + 2 * 2 * 7)
    seen = _assert_kernel_equals_reference(economies, points)
    assert m.SubregionLabel.BOUNDARY in seen and len(seen) > 1


def test_subregion_kernel_equals_scalar_path_on_axes_and_nan(e0):
    values = [-np.inf, -1.0, -0.0, 0.0, 1e-300, 1.0, np.inf, np.nan]
    points = [(s, u) for s in values for u in values]
    seen = _assert_kernel_equals_reference([e0] * len(points), points)
    assert m.SubregionLabel.BOUNDARY in seen


def _extreme_ranked_economies(rng, count):
    """Cobb-Douglas economies of `count` ranked share matrices whose entries
    are log-uniform down to 1e-300 before each column is normalised; only
    those in which Q is defined (A and E at least ZERO_TOL) are kept."""
    th = np.empty((0, 3, 2))
    while len(th) < count:
        draw = 10.0 ** rng.uniform(-300, 0, size=(8 * count, 3, 2))
        draw /= draw.sum(axis=1, keepdims=True)
        da, de = (draw[:, i, 0] - draw[:, i, 1] for i in (T, L))
        th = np.concatenate([th, draw[intensity_ranked(draw) & (da >= ZERO_TOL)
                                      & (de >= ZERO_TOL)]])
    return [m.Economy.cobb_douglas(t, [0.5, 0.5]) for t in th[:count]]


@pytest.fixture(scope="module")
def extreme_pool():
    return _extreme_ranked_economies(np.random.default_rng(1805), 2000)


def test_ranking_puts_q_and_r_on_the_two_branches(kernel_pool, extreme_pool):
    # the premises of the kernel's closed-form sides: Q on the left branch,
    # R_L1 left of R_L2 on the right one, both up and to the right of Q
    economies = kernel_pool + extreme_pool
    th = np.array([e.theta_share for e in economies])
    r = np.array([e.theta_L_over_K for e in economies])
    qs, qu = _point_q(th, r)
    rs, ru = _points_r(th, r)
    assert (qs < -1.0).all()
    assert ((0.0 < rs[:, 0]) & (rs[:, 0] < rs[:, 1])).all()
    assert (rs > qs[:, None]).all() and (ru > qu[:, None]).all()


def test_subregion_kernel_equals_scalar_path_on_extreme_inputs(extreme_pool):
    rng = np.random.default_rng(29)
    mag = 10.0 ** rng.uniform(-300, 300, size=(len(extreme_pool), 2))
    with np.errstate(over="ignore"):  # the border-side products may overflow
        seen = _assert_kernel_equals_reference(extreme_pool,
                                               list(mag * [1.0, -1.0]))
    assert {m.SubregionLabel.P1, m.SubregionLabel.P2, m.SubregionLabel.P3,
            m.SubregionLabel.BOUNDARY} <= seen


def test_subregion_kernel_leaves_unranked_quadrant_iv_unclassified():
    unranked = m.sample_economy(2, m.SampleConstraints(
        ranked=False, quadrant="IV", families=("two_level_ces",))).economy
    ranked = m.sample_economy(7, m.SampleConstraints(ranked=True,
                                                     quadrant="IV")).economy
    assert not m.is_ranked(unranked)
    economies = [unranked, ranked]
    points = [m.ews_ratio_vector(m.ews_matrix(e)) for e in economies]
    quads, codes = _subregions(np.array([p.s for p in points]),
                               np.array([p.u for p in points]),
                               np.array([e.theta_share for e in economies]),
                               np.array([e.theta_factor for e in economies]))
    assert [_QUADRANTS[q] for q in quads] == [m.Quadrant.IV] * 2
    assert [_LABELS[c] for c in codes] == [m.SubregionLabel.QUAD_IV_UNCLASSIFIED,
                                           m.SubregionLabel.P2]


def test_subregion_kernel_keeps_the_scalar_errors(e0):
    # equal land shares (A = 0): Q is undefined, which matters in quadrant IV
    e = m.Economy.cobb_douglas([[0.3, 0.3], [0.2, 0.45], [0.5, 0.25]], [0.5, 0.5])
    inside = RatioPoint(1.0, -0.1, e.theta_L_over_K)
    with pytest.raises(m.DegenerateShares) as want:
        _reference_subregion(inside, e)
    with pytest.raises(m.DegenerateShares) as got:
        m.classify_subregion(inside, e)
    assert str(got.value) == str(want.value)
    outside = RatioPoint(1.0, 0.1, e.theta_L_over_K)
    assert m.classify_subregion(outside, e) is m.SubregionLabel.QUAD_I
    # in a batch too, only its quadrant-IV rows need Q
    th = np.array([e.theta_share, e0.theta_share])
    tf = np.array([e.theta_factor, e0.theta_factor])
    _, codes = _subregions(np.array([1.0, 1.0]), np.array([0.1, -0.1]), th, tf)
    assert [_LABELS[c] for c in codes] == [m.SubregionLabel.QUAD_I, m.SubregionLabel.P2]
    with pytest.raises(m.DegenerateShares):
        _subregions(np.array([1.0, 1.0]), np.array([-0.1, -0.1]), th, tf)
