"""Linearized comparative statics: solver, diagnostics, rankings, sign labels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ews3x2 as m
from ews3x2 import cli, statics
from ews3x2.model import K, T, _ews, ews_matrix
from ews3x2.statics import (RANKINGS_UNDER_ASSUMPTIONS, Shock, ranking_label,
                            sign_label, solve_partial_pivot)
from ews3x2.tolerances import ZERO_TOL

from conftest import h0_eliminations, mixed_pool
from test_samplers import reference_sample_economy_shares


def hat_system(e):
    """Coefficient matrix (5, 5) of the hat-system of one economy."""
    return statics._hat_matrices(e.theta_share, e.lambda_share, ews_matrix(e).g)


def a0_prime_from_ews(e, w_star):
    """Aggregate input-coefficient changes from the EWS matrix alone:
    a_i0' = sum_{h != i} g_ih (w_h* - w_i*), the solver's allocation-weighted
    aggregate of a_ij* in exact arithmetic."""
    g = ews_matrix(e).g
    return g @ w_star - g.sum(axis=1) * w_star


def checks(e, r):
    """The data-side sign and negativity checks of a solved response."""
    return m.consistency_checks(m.observation_from_response(e, r))


# ---------------------------------------------------------------------------
# Elementary solver


def test_partial_pivot_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=5)
        assert np.allclose(solve_partial_pivot(a, b), np.linalg.solve(a, b),
                           atol=1e-10)


def test_partial_pivot_rejects_singular():
    a = np.ones((3, 3))
    with pytest.raises(m.SingularSystem):
        solve_partial_pivot(a, np.ones(3))


def test_partial_pivot_pivoting_needed():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(solve_partial_pivot(a, np.array([2.0, 3.0])), [3.0, 2.0])


def test_partial_pivot_matrix_rhs_equals_column_solves():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 3))
    x = solve_partial_pivot(a, b)
    assert x.shape == (5, 3)
    for k in range(3):
        assert np.allclose(x[:, k], solve_partial_pivot(a, b[:, k]),
                           rtol=1e-12, atol=0)


def test_partial_pivot_rejects_ill_conditioned():
    # nonsingular, but its condition number (1e14) is past the 1e12 limit
    with pytest.raises(m.SingularSystem):
        solve_partial_pivot(np.diag([1.0, 1e-14, 1.0]), np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_partial_pivot_non_finite_entry_is_singular(bad):
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(m.SingularSystem):
        solve_partial_pivot(a, np.ones(3))


def test_partial_pivot_batch_equals_member_solves():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(7, 5, 5))
    b = rng.normal(size=(7, 5))
    bm = rng.normal(size=(7, 5, 3))
    x, xm = solve_partial_pivot(a, b), solve_partial_pivot(a, bm)
    assert x.shape == (7, 5) and xm.shape == (7, 5, 3)
    for k in range(7):
        assert np.array_equal(x[k], solve_partial_pivot(a[k], b[k]))
        assert np.array_equal(xm[k], solve_partial_pivot(a[k], bm[k]))


def test_partial_pivot_batch_checks_each_member():
    a = np.stack([np.eye(3), np.diag([1.0, 1e-14, 1.0]), 2.0 * np.eye(3)])
    with pytest.raises(m.SingularSystem):
        solve_partial_pivot(a, np.ones((3, 3)))
    x = solve_partial_pivot(a[[0, 2]], np.ones((2, 3)))
    assert np.array_equal(x, [[1.0, 1.0, 1.0], [0.5, 0.5, 0.5]])


# ---------------------------------------------------------------------------
# Shock helpers and labels


def test_shock_helpers():
    s = Shock.price(0.5)
    assert s.relative_price_change == 0.5
    assert np.array_equal(s.v_star, np.zeros(3))
    s2 = Shock.endowment(K, 2.0)
    assert s2.v_star[K] == 2.0 and s2.p_star.sum() == 0.0
    assert Shock.from_dict(s.to_dict()).relative_price_change == 0.5


def test_ranking_label():
    assert ranking_label((3.0, 1.0, 2.0)) == "X>Z>Y"
    assert ranking_label((1.0, 2.0, 3.0)) == "Z>Y>X"
    assert ranking_label((1.0, 1.0, 3.0)) == "tie"


def test_sign_label_letters_and_dead_band():
    assert sign_label((-1.0, 2.0, -3.0)) == "A"
    assert sign_label((-1.0, 2.0, 3.0)) == "B"
    assert sign_label((1.0, 2.0, -3.0)) == "C"
    assert sign_label((-1.0, -2.0, 3.0)) == "D"
    assert sign_label((1.0, -2.0, 3.0)) == "E"
    assert sign_label((1.0, -2.0, -3.0)) == "F"
    assert sign_label((0.0, 2.0, -3.0)) is None
    assert sign_label((1.0, 2.0, 3.0)) is None  # (+,+,+) has no letter


BAND = 1e-10
INSIDE = float(np.nextafter(BAND, 0.0))  # the largest magnitude in the band


@pytest.mark.parametrize("triple, expected", [
    ((-1.0, 2.0, -3.0), "A"), ((-1.0, 2.0, 3.0), "B"), ((1.0, 2.0, -3.0), "C"),
    ((-1.0, -2.0, 3.0), "D"), ((1.0, -2.0, 3.0), "E"), ((1.0, -2.0, -3.0), "F"),
    ((1.0, 2.0, 3.0), None), ((0.0, 2.0, -3.0), None), ((1.0, -0.0, -3.0), None),
    ((BAND, BAND, -BAND), "C"), ((-BAND, -BAND, BAND), "D"),
    ((INSIDE, 2.0, -3.0), None), ((1.0, 2.0, -INSIDE), None),
])
def test_sign_label_same_on_list_tuple_and_array(triple, expected):
    got = [sign_label(t, BAND) for t in (list(triple), tuple(triple), np.array(triple))]
    assert got == [expected] * 3


@pytest.mark.parametrize("xyz, expected", [
    ((3.0, 1.0, 2.0), "X>Z>Y"), ((3.0, 2.0, 1.0), "X>Y>Z"), ((1.0, 3.0, 2.0), "Y>Z>X"),
    ((1.0, 2.0, 3.0), "Z>Y>X"), ((2.0, 1.0, 3.0), "Z>X>Y"), ((2.0, 3.0, 1.0), "Y>X>Z"),
    ((0.0, -0.0, 1.0), "tie"), ((1.0, 1.0, 3.0), "tie"),
    # gaps of exactly the tolerance (0.25) do not tie, gaps just inside it do
    ((0.25, 0.0, 1.0), "Z>X>Y"), ((-0.25, 0.0, -1.0), "Y>X>Z"),
    ((float(np.nextafter(0.25, 0.0)), 0.0, 1.0), "tie"),
    ((1.0, 0.0, float(np.nextafter(0.75, 1.0))), "tie"),
])
def test_ranking_label_same_on_list_tuple_and_array(xyz, expected):
    got = [ranking_label(t, 0.25) for t in (list(xyz), tuple(xyz), np.array(xyz))]
    assert got == [expected] * 3


# ---------------------------------------------------------------------------
# Reference economy, price shock P = 1 (hand-verified against a nonlinear
# finite-difference oracle)


@pytest.fixture(scope="module")
def r0(e0):
    return m.solve_linear(e0, Shock.price(1.0))


def test_e0_factor_price_response(r0):
    assert r0.w_star == pytest.approx(
        [2.18269231, -1.375, 0.83653846], abs=1e-8)
    assert r0.x_star == pytest.approx([3.875, -3.875], abs=1e-8)


def test_e0_ranking_and_label(r0):
    # magnification: the land price overshoots the price rise, capital loses
    assert r0.xyz[T] > 0 > r0.xyz[K]
    assert r0.ranking == "X>Z>Y"
    assert r0.label == "A"


def test_e0_system_residual(e0, r0):
    mtx = hat_system(e0)
    rhs = np.concatenate([r0.shock.p_star, r0.shock.v_star])
    sol = np.concatenate([r0.w_star, r0.x_star])
    assert np.abs(mtx @ sol - rhs).max() < 1e-12


def test_e0_a0_prime_two_routes_agree(e0, r0):
    alt = a0_prime_from_ews(e0, r0.w_star)
    assert np.allclose(alt, r0.a0_prime, atol=1e-12)


def test_e0_h_diagnostics(e0, r0):
    d = checks(e0, r0)
    assert all(h < 0 for h in d["H"])
    assert d["H0"] < 0
    assert d["d10_residual"] < 1e-12
    forms = h0_eliminations(r0.w_star, r0.a0_prime, e0.theta_factor)
    assert max(forms) - min(forms) < 1e-12
    assert forms[0] == pytest.approx(r0.H0, abs=1e-12)
    assert d["H"] == pytest.approx(r0.H.tolist(), abs=1e-12)
    assert d["H0"] == pytest.approx(r0.H0, abs=1e-12)


def test_e0_lemma2(e0, r0):
    d = checks(e0, r0)
    assert d["a0_label"] == "A"
    assert d["ranking"] == "X>Z>Y"
    assert d["consistent"]
    assert all(lbl in ("A", "B", "C", "D", None) for lbl in d["sector_labels"])


def test_stolper_samuelson_negative_p(e0):
    with pytest.raises(ValueError):
        m.stolper_samuelson(e0, -1.0)
    r = m.stolper_samuelson(e0, -1.0, time_reversal=True)
    fwd = m.stolper_samuelson(e0, 1.0)
    assert np.allclose(r.w_star, fwd.w_star)


def test_rybczynski_matrix_structure(e0):
    values, signs = m.rybczynski_matrix(e0)
    assert values.shape == (2, 3) and signs.shape == (2, 3)
    # endowment growth of a factor used intensively in sector 1 expands it
    assert signs[0, T] == 1 and signs[1, T] == -1
    assert signs[0, K] == -1 and signs[1, K] == 1
    # homogeneity: uniform endowment growth scales both outputs equally
    r = m.solve_linear(e0, Shock(np.zeros(2), np.ones(3)))
    assert np.allclose(r.x_star, [1.0, 1.0], atol=1e-12)
    assert np.allclose(r.w_star, 0.0, atol=1e-12)


def test_rybczynski_matrix_equals_endowment_solves():
    # the one three-column solve against three single-shock solves
    for e in mixed_pool(2024, 200):
        values, signs = m.rybczynski_matrix(e)
        cols = np.column_stack([m.solve_linear(e, Shock.endowment(i)).x_star
                                for i in range(3)])
        assert np.allclose(values, cols, rtol=1e-12, atol=0)
        assert np.array_equal(signs, np.sign(cols).astype(int))


# ---------------------------------------------------------------------------
# Property tests on sampled economies


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_price_shock_properties(seed):
    e = m.sample_economy_shares(seed)
    r = m.solve_linear(e, Shock.price(1.0))
    # zero-profit rows hold exactly
    assert e.theta_share[:, 0] @ r.w_star == pytest.approx(1.0, abs=1e-10)
    assert e.theta_share[:, 1] @ r.w_star == pytest.approx(0.0, abs=1e-10)
    # the realized ranking is one of the four admissible ones
    assert r.ranking in RANKINGS_UNDER_ASSUMPTIONS
    # cost-minimization diagnostics are negative
    d = checks(e, r)
    assert all(h < 0 for h in d["H"]) and d["H0"] < 0
    assert d["d10_residual"] < 1e-12
    forms = h0_eliminations(r.w_star, r.a0_prime, e.theta_factor)
    assert max(forms) - min(forms) < 1e-10 * max(1.0, abs(r.H0))
    # two routes to the aggregate coefficient changes agree
    assert np.allclose(a0_prime_from_ews(e, r.w_star), r.a0_prime, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(0.1, 3.0))
def test_linearity_in_shock_scale(seed, scale):
    e = m.sample_economy_shares(seed)
    r1 = m.solve_linear(e, Shock.price(1.0))
    r2 = m.solve_linear(e, Shock.price(scale))
    assert np.allclose(r2.w_star, scale * r1.w_star, atol=1e-10)
    assert np.allclose(r2.x_star, scale * r1.x_star, atol=1e-8)


def test_zero_band_scales_with_the_shock():
    assert Shock.price(1.0).zero_band == ZERO_TOL
    assert Shock.endowment(K, -1.0).zero_band == ZERO_TOL
    assert Shock([1e-6, 0.0], [0.0, 3e-6, 0.0]).zero_band == ZERO_TOL * 3e-6
    assert Shock(np.zeros(2), np.zeros(3)).zero_band > 0.0


def _outcome(f, *args):
    try:
        return f(*args)
    except m.Ews3x2Error as exc:
        return type(exc).__name__


@pytest.mark.parametrize("P", [1e-13, 1e-6, 1.0, 1e6])
def test_solver_verdicts_survive_rescaling_the_shock(P):
    # the solver side's zero and tie bands are relative to the shock's
    # largest rate, so a rescaled shock scales every response linearly and
    # moves no ranking, sign letter, Lemma 2 check or vector-line slope
    for e in mixed_pool(90, 50):
        ref = m.solve_linear(e, Shock.price(1.0))
        r = m.solve_linear(e, Shock.price(P))
        for got, want in ((r.w_star, ref.w_star), (r.x_star, ref.x_star),
                          (r.a_star, ref.a_star)):
            assert np.allclose(got, P * want, rtol=1e-9,
                               atol=1e-9 * P * np.abs(want).max())
        assert (r.ranking, r.label) == (ref.ranking, ref.label)
        got, want = checks(e, r), checks(e, ref)
        assert all(got[k] == want[k] for k in ("ranking", "a0_label",
                                               "sector_labels", "failures"))
        line, ref_line = _outcome(m.vector_line, r, e), _outcome(m.vector_line, ref, e)
        if isinstance(ref_line, str):
            assert line == ref_line
        else:
            assert line.a1 == pytest.approx(ref_line.a1, rel=1e-9)


def test_all_four_rankings_reachable():
    seen = set()
    for e in mixed_pool(2024, 400):
        seen.add(m.solve_linear(e, Shock.price(1.0)).ranking)
        if seen == set(RANKINGS_UNDER_ASSUMPTIONS):
            break
    assert "X>Z>Y" in seen
    assert seen <= set(RANKINGS_UNDER_ASSUMPTIONS)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_labels_restricted_under_main_ranking(seed):
    e = m.sample_economy_shares(seed)
    r = m.solve_linear(e, Shock.price(1.0))
    if r.ranking != "X>Z>Y" or r.label is None:
        return
    assert r.label in ("A", "B", "C", "D")
    d = checks(e, r)
    assert d["ranking"] == "X>Z>Y" and d["a0_label"] in ("A", "B", "C", "D")


def test_ill_conditioned_hat_solve_is_backward_stable():
    # condition 5.8e9 (below COND_LIMIT) and |x| up to 6e8: the residual of
    # the LU solve, 7.4e-9 on one x86-64 host, is large next to |rhs| = 1 but
    # below 1e-15 of |M| |x|, the size backward stability allows; the economy
    # is seed 127115's of the one-at-a-time share-level stream
    e, _ = reference_sample_economy_shares(127115)
    assert m.validate_economy(e, check_ranking=True).ok
    r = m.solve_linear(e, Shock.price(1.0))
    x = np.concatenate([r.w_star, r.x_star])
    assert np.abs(x).max() > 1e8
    mtx = hat_system(e)
    resid = np.abs(mtx @ x - [1.0, 0.0, 0.0, 0.0, 0.0]).max()
    assert resid < 1e-15 * (np.abs(mtx) @ np.abs(x)).max()


def test_hat_solves_are_backward_stable():
    # why `_solve_hats` tests no residual: LU with partial pivoting on 5x5
    # systems is backward stable, so over the sweep's right-hand sides each
    # column's residual stays far inside 1e-13 of max(1, |rhs|, |M| |x|)
    # (5.4e-16 at worst when this was written)
    pool = mixed_pool(2024, 5000)
    th, la, sigma = (np.stack([getattr(e, name) for e in pool])
                     for name in ("theta_share", "lambda_share", "sigma"))
    rhs = cli._SWEEP_RHS
    x, eps = statics._solve_hats(th, la, sigma, rhs)
    mtx = statics._hat_matrices(th, la, _ews(la, eps))
    resid = np.abs(mtx @ x - rhs)
    scale = np.maximum(1.0, np.maximum(abs(rhs), abs(mtx) @ abs(x)))
    assert x.shape == (5000, 5, 4)
    assert (resid.max(axis=-2) <= 1e-13 * scale.max(axis=-2)).all()
