"""Ratio-plane geometry: boundary curve, vector line, segment AB, special
points, and the subregion classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ews3x2 as m
from ews3x2.geometry import (RYBCZYNSKI_PATTERNS, in_quadrant,
                             line_boundary_intersections)
from ews3x2.model import K, L, T, RatioPoint
from ews3x2.statics import Shock

from conftest import near_boundary_economy

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


def test_closed_form_endpoints_match_quadratic_roots(e0_line_segment):
    _, _, seg = e0_line_segment
    assert sorted((seg.point_a.s, seg.point_b.s)) == pytest.approx(
        list(seg.quadratic_roots), abs=1e-10)


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


def test_tangent_line_raises():
    # a horizontal line (a1 = 0) cannot cut the hyperbola twice
    with pytest.raises(m.TangentOrComplexRoots):
        line_boundary_intersections(m.VectorLine(0.0, 1.0), R0)


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
