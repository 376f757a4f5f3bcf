"""Cost-function families, the nonlinear equilibrium oracle, samplers, and
the fixed-share elasticity sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ews3x2 as m
from ews3x2.model import K, L, T
from ews3x2.production import (CobbDouglas, Ces, TwoLevelCes, SampledEconomy,
                               _fill_aes_diagonal, _jacobian, _system,
                               spec_from_dict)
from ews3x2.statics import Shock


def fd_gradient(spec, w, h=1e-6):
    w = np.asarray(w, dtype=float)
    out = np.zeros(3)
    for i in range(3):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        out[i] = (spec.unit_cost(wp)[0] - spec.unit_cost(wm)[0]) / (2 * h)
    return out


def fd_aes(spec, w, h=1e-5):
    """sigma_ih = c * (d a_i / d w_h) / (a_i a_h), central differences."""
    w = np.asarray(w, dtype=float)
    c, a = spec.unit_cost(w)
    sig = np.zeros((3, 3))
    for h_idx in range(3):
        wp, wm = w.copy(), w.copy()
        wp[h_idx] += h
        wm[h_idx] -= h
        da = (spec.unit_cost(wp)[1] - spec.unit_cost(wm)[1]) / (2 * h)
        sig[:, h_idx] = c * da / (a * a[h_idx])
    return 0.5 * (sig + sig.T)


SPECS = [
    CobbDouglas([0.45, 0.2, 0.35]),
    Ces([0.45, 0.2, 0.35], s=0.6),
    Ces([0.45, 0.2, 0.35], s=2.5),
    TwoLevelCes(mu=[0.6, 0.4], nu=[0.65, 0.35], s_in=0.1, s_out=1.8),
    TwoLevelCes(mu=[0.5, 0.5], nu=[0.55, 0.45], s_in=0.3, s_out=2.0,
                nest=(T, L)),
    TwoLevelCes(mu=[0.3, 0.7], nu=[0.5, 0.5], s_in=0.2, s_out=1.5,
                nest=(K, L)),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__ + str(
    getattr(s, "nest", "")))
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(1)
    for _ in range(3):
        w = rng.uniform(0.5, 2.0, size=3)
        c, a = spec.unit_cost(w)
        assert c > 0 and np.all(a > 0)
        assert np.allclose(a, fd_gradient(spec, w), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__ + str(
    getattr(s, "nest", "")))
def test_aes_matches_finite_differences(spec):
    rng = np.random.default_rng(2)
    for _ in range(3):
        w = rng.uniform(0.5, 2.0, size=3)
        sig = spec.aes(w)
        assert np.allclose(sig, sig.T, atol=1e-12)
        assert np.allclose(sig, fd_aes(spec, w), rtol=5e-5, atol=5e-6)
        # share-weighted rows sum to zero
        c, a = spec.unit_cost(w)
        shares = a * w / c
        assert np.abs(sig @ shares).max() < 1e-10


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__ + str(
    getattr(s, "nest", "")))
def test_homogeneity(spec):
    w = np.array([0.8, 1.3, 1.1])
    c1, a1 = spec.unit_cost(w)
    c2, a2 = spec.unit_cost(2.0 * w)
    assert c2 == pytest.approx(2.0 * c1, rel=1e-12)
    assert np.allclose(a2, a1, rtol=1e-12)


def test_ces_approaches_cobb_douglas():
    th = np.array([0.45, 0.2, 0.35])
    cd = CobbDouglas(th)
    w = np.array([1.4, 0.7, 1.1])
    near = Ces(th, s=1.0 + 1e-6)
    # with unit calibration prices the two families agree as s -> 1
    assert near.unit_cost(np.ones(3))[0] == pytest.approx(1.0, rel=1e-9)
    sig = near.aes(w)
    assert np.allclose(sig[T, K], 1.0, atol=1e-5)


def test_nested_pair_can_be_complements():
    spec = TwoLevelCes(mu=[0.6, 0.4], nu=[0.65, 0.35], s_in=0.05, s_out=2.0)
    sig = spec.aes(np.ones(3))
    assert sig[T, K] < 0          # inner pair: complements
    assert sig[T, L] > 0 and sig[K, L] > 0
    assert spec.outside == L


def test_two_level_ces_rejects_bad_nest():
    with pytest.raises(ValueError):
        TwoLevelCes(mu=[0.5, 0.5], nu=[0.5, 0.5], s_in=0.5, s_out=2.0,
                    nest=(T, T))
    with pytest.raises(ValueError):
        Ces([0.4, 0.3, 0.3], s=1.0)


def test_spec_round_trip():
    for spec in SPECS:
        again = spec_from_dict(spec.to_dict())
        w = np.array([1.2, 0.9, 1.05])
        assert again.unit_cost(w)[0] == pytest.approx(spec.unit_cost(w)[0],
                                                      rel=1e-12)
    with pytest.raises(ValueError):
        spec_from_dict({"form": "leontief"})


def test_calibrated_spec_hits_target_shares():
    th = np.array([0.45, 0.2, 0.35])
    for family, kw in (("cobb_douglas", {}), ("ces", {"s": 2.0}),
                       ("two_level_ces", {"s_in": 0.2, "s_out": 1.6}),
                       ("two_level_ces", {"s_in": 0.2, "s_out": 1.6,
                                          "nest": (K, L)})):
        spec = m.calibrated_spec(family, th, **kw)
        c, a = spec.unit_cost(np.ones(3))
        assert c == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(a, th, rtol=1e-12)


# ---------------------------------------------------------------------------
# Nonlinear equilibrium


@pytest.fixture(scope="module")
def sampled():
    return m.sample_economy(11, m.SampleConstraints(ranked=True))


def test_solve_equilibrium_residuals(sampled):
    eq = m.solve_equilibrium(sampled.specs, sampled.equilibrium.p,
                             sampled.equilibrium.V)
    res = eq.residuals()
    assert max(res.values()) < 1e-10
    assert np.allclose(eq.w, sampled.equilibrium.w, atol=1e-8)
    assert np.allclose(eq.X, sampled.equilibrium.X, atol=1e-8)


def test_equilibrium_from_far_start(sampled):
    eq = m.solve_equilibrium(sampled.specs, sampled.equilibrium.p,
                             sampled.equilibrium.V,
                             w0=[1.5, 0.7, 1.2], x0=[0.8, 1.5])
    assert np.allclose(eq.w, sampled.equilibrium.w, rtol=1e-8)


def test_snapshot_matches_sample(sampled):
    e = m.economy_snapshot(sampled.equilibrium, sampled.specs)
    assert np.allclose(e.theta_share, sampled.economy.theta_share)
    assert m.validate_economy(e, check_ranking=True).ok


def test_specialization_detection():
    # extreme endowments push one output negative inside Newton or at the end
    specs = (m.calibrated_spec("cobb_douglas", [0.45, 0.2, 0.35]),
             m.calibrated_spec("cobb_douglas", [0.2, 0.5, 0.3]))
    with pytest.raises((m.Specialization, m.NonConvergence)):
        m.solve_equilibrium(specs, [1.0, 1.0], [5.0, 0.01, 0.02])


FAMILY_KW = {
    "cobb_douglas": {},
    "ces": {"s": 0.6},
    "two_level_ces": {"s_in": 0.2, "s_out": 1.8},
}


@pytest.mark.parametrize("family", sorted(FAMILY_KW))
def test_jacobian_matches_central_differences(family):
    specs = tuple(m.calibrated_spec(family, col, **FAMILY_KW[family])
                  for col in ([0.45, 0.2, 0.35], [0.2, 0.5, 0.3]))
    p, V = np.ones(2), np.array([1.1, 0.9, 1.3])
    # off the calibrated point w = (1, 1, 1)
    z = np.array([1.3, 0.8, 1.1, 0.9, 1.4])
    _, a, _ = _system(specs, p, V, z[:3], z[3:])
    jac = _jacobian(specs, z[:3], z[3:], a)
    fd = np.zeros((5, 5))
    for k in range(5):
        h = 1e-6 * z[k]
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        fd[:, k] = (_system(specs, p, V, zp[:3], zp[3:])[0]
                    - _system(specs, p, V, zm[:3], zm[3:])[0]) / (2 * h)
    assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)
    # the element-by-element form, same arithmetic order
    ref = np.zeros((5, 5))
    ref[:2, :3], ref[2:, 3:] = a.T, a
    for j in range(2):
        sig = specs[j].aes(z[:3])
        shares = a[:, j] * z[:3] / float(a[:, j] @ z[:3])
        for i in range(3):
            for h in range(3):
                ref[2 + i, h] += (z[3 + j] * a[i, j] * shares[h] * sig[i, h]
                                  / z[h])
    assert np.array_equal(jac, ref)


def test_fill_aes_diagonal_equals_loop_reference():
    rng = np.random.default_rng(9)
    for _ in range(50):
        sig = rng.normal(size=(3, 3))
        shares = rng.dirichlet(np.ones(3))
        ref = sig.copy()
        for i in range(3):
            off = sum(shares[h] * sig[i, h] for h in range(3) if h != i)
            ref[i, i] = -off / shares[i]
        assert np.array_equal(_fill_aes_diagonal(sig, shares), ref)


def test_fd_rybczynski_matches_linear(sampled):
    fd = m.fd_rybczynski(sampled.specs, sampled.equilibrium.p,
                         sampled.equilibrium.V, h=1e-4,
                         base=sampled.equilibrium)
    lin, signs = m.rybczynski_matrix(sampled.economy)
    assert np.sign(fd).astype(int).tolist() == signs.tolist()
    assert np.allclose(fd, lin, rtol=1e-2)


def test_linear_solver_matches_nonlinear_price_shock(sampled):
    # independent check of the hat-system against the Newton oracle
    e, eq, specs = sampled.economy, sampled.equilibrium, sampled.specs
    h = 1e-6
    pp = eq.p.copy()
    pp[0] *= 1.0 + h
    pm = eq.p.copy()
    pm[0] *= 1.0 - h
    up = m.solve_equilibrium(specs, pp, eq.V, w0=eq.w, x0=eq.X)
    dn = m.solve_equilibrium(specs, pm, eq.V, w0=eq.w, x0=eq.X)
    w_fd = (up.w - dn.w) / eq.w / (2 * h)
    x_fd = (up.X - dn.X) / eq.X / (2 * h)
    r = m.solve_linear(e, Shock.price(1.0))
    assert np.allclose(w_fd, r.w_star, rtol=1e-5, atol=1e-6)
    assert np.allclose(x_fd, r.x_star, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# Samplers


def test_sample_economy_deterministic():
    a = m.sample_economy(42)
    b = m.sample_economy(42)
    assert isinstance(a, SampledEconomy)
    assert np.array_equal(a.economy.sigma, b.economy.sigma)
    assert a.seed == 42


def test_sample_economy_quadrant_iv():
    s = m.sample_economy(7, m.SampleConstraints(ranked=True, quadrant="IV"))
    pt = m.ews_ratio_vector(m.ews_matrix(s.economy))
    assert m.quadrant(pt)[0] is m.Quadrant.IV
    assert m.validate_economy(s.economy, check_ranking=True).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_sampled_economies_validate(seed):
    s = m.sample_economy(seed)
    assert m.validate_economy(s.economy, check_ranking=True).ok
    assert max(s.equilibrium.residuals().values()) < 1e-10


def test_positive_elasticity_families_give_positive_aggregates():
    # Cobb-Douglas or single CES technologies cannot generate economy-wide
    # complements; quadrant IV needs the nested family
    for seed in range(40):
        s = m.sample_economy(seed, m.SampleConstraints(
            ranked=True, families=("cobb_douglas", "ces")))
        g = m.ews_matrix(s.economy)
        assert min(g.g_LK, g.g_LT, g.g_KT) > 0


# ---------------------------------------------------------------------------
# Fixed-share elasticity sweep


def test_sweep_holds_s_fixed_and_moves_u(e0):
    grid = np.linspace(-1.5, 2.5, 10)
    rows = m.appendix_f_sweep(e0, outer_aes=(1.3, 0.9), inner_grid=grid)
    assert len(rows) == 10
    s_vals = np.array([r["s"] for r in rows])
    u_vals = np.array([r["u"] for r in rows])
    assert s_vals.std() < 1e-9
    assert u_vals.min() < 0 < u_vals.max()  # sign of U' flips along the grid
    assert np.all(np.diff(u_vals) > 0)      # monotone in the inner elasticity
