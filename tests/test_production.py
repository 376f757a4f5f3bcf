"""Cost-function families, the nonlinear equilibrium oracle, samplers, and
the fixed-share elasticity sweep."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ews3x2 as m
from ews3x2 import production
from ews3x2.model import K, L, T
from ews3x2.production import (CobbDouglas, Ces, TwoLevelCes, SampledEconomy,
                               _draw_params, _fill_aes_diagonal, _jacobian,
                               _newton, _sample_rounds, _system, _unit_point)
from ews3x2.statics import Shock
from ews3x2.tolerances import STRUCT_TOL

from test_samplers import PRODUCTION_MODES


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


def point_unit_cost(spec, w):
    """The one-point closed forms, in the arithmetic order the spec methods
    keep at a single point: one scalar power per factor (numpy's array power
    may differ from it in the last bit), and plain sums."""
    if isinstance(spec, CobbDouglas):
        c = float(w[0] ** spec.alpha[0] * w[1] ** spec.alpha[1]
                  * w[2] ** spec.alpha[2])
        return c, spec.alpha * c / w
    if isinstance(spec, Ces):
        rho = 1.0 - spec.s
        base = float(spec.delta[0] * w[0] ** rho + spec.delta[1] * w[1] ** rho
                     + spec.delta[2] * w[2] ** rho)
        c = base ** (1.0 / rho)
        return c, c * spec.delta * np.array([x ** (rho - 1.0) for x in w]) / base
    i1, i2 = spec.nest
    out = spec.outside
    rin = 1.0 - spec.s_in
    base_in = spec.mu[0] * w[i1] ** rin + spec.mu[1] * w[i2] ** rin
    q = base_in ** (1.0 / rin)
    rho = 1.0 - spec.s_out
    base = spec.nu[0] * q ** rho + spec.nu[1] * w[out] ** rho
    c = base ** (1.0 / rho)
    a_m = c * spec.nu[0] * q ** (rho - 1.0) / base
    a = np.empty(3)
    a[out] = c * spec.nu[1] * w[out] ** (rho - 1.0) / base
    a[i1] = a_m * spec.mu[0] * w[i1] ** (rin - 1.0) * q / base_in
    a[i2] = a_m * spec.mu[1] * w[i2] ** (rin - 1.0) * q / base_in
    return c, a


def point_aes(spec, w):
    c, a = point_unit_cost(spec, w)
    if isinstance(spec, TwoLevelCes):
        shares = a * w / c
        i1, i2 = spec.nest
        sig = np.full((3, 3), spec.s_out)
        sig[i1, i2] = sig[i2, i1] = (spec.s_out + (spec.s_in - spec.s_out)
                                     / (shares[i1] + shares[i2]))
    else:
        shares = a * w / float(a @ w)
        sig = np.full((3, 3), 1.0 if isinstance(spec, CobbDouglas) else spec.s)
    for i in range(3):
        sig[i, i] = -sum(shares[h] * sig[i, h] for h in range(3) if h != i) \
            / shares[i]
    return sig


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__ + str(
    getattr(s, "nest", "")))
def test_single_point_equals_point_formulas(spec):
    rng = np.random.default_rng(6)
    for w in rng.uniform(0.3, 3.0, size=(50, 3)):
        c, a = spec.unit_cost(w)
        c_ref, a_ref = point_unit_cost(spec, w)
        assert c == c_ref and np.array_equal(a, a_ref)
        assert np.array_equal(spec.aes(w), point_aes(spec, w))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__ + str(
    getattr(s, "nest", "")))
def test_spec_methods_batch_equals_rows(spec):
    W = np.random.default_rng(4).uniform(0.3, 3.0, size=(4, 5, 3))
    c, a = spec.unit_cost(W)
    sig = spec.aes(W)
    assert c.shape == (4, 5) and a.shape == (4, 5, 3)
    assert sig.shape == (4, 5, 3, 3)
    for idx in np.ndindex(4, 5):
        c1, a1 = spec.unit_cost(W[idx])
        # numpy's array power may differ from its scalar power in the last bit
        np.testing.assert_allclose(c[idx], c1, rtol=1e-13, atol=0)
        np.testing.assert_allclose(a[idx], a1, rtol=1e-13, atol=0)
        np.testing.assert_allclose(sig[idx], spec.aes(W[idx]), rtol=1e-13,
                                   atol=1e-13)


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
    for nest in ((T, T), (T, 1.5)):  # int() would have made (T, 1.5) (T, K)
        with pytest.raises(ValueError, match="two distinct factors"):
            TwoLevelCes(mu=[0.5, 0.5], nu=[0.5, 0.5], s_in=0.5, s_out=2.0,
                        nest=nest)
    # calibrated_spec indexes the shares with the nest, so it checks it first
    for nest in ((T, 1.5), (3, 1), (T, K, L)):
        with pytest.raises(ValueError, match="two distinct factors"):
            m.calibrated_spec("two_level_ces", [0.4, 0.3, 0.3], s_in=0.5,
                              s_out=2.0, nest=nest)
    for s in (1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and != 1"):
            Ces([0.4, 0.3, 0.3], s=s)
    with pytest.raises(ValueError, match="positive and != 1"):
        m.calibrated_spec("ces", [0.4, 0.3, 0.3], s=np.nan)


@pytest.mark.parametrize("s_in,s_out", [(1.0, 2.0), (0.5, 1.0), (0.0, 2.0),
                                         (0.5, -1.0), (np.nan, 2.0), (0.5, np.nan),
                                         (0.5, np.inf)])
def test_two_level_ces_rejects_bad_elasticities(s_in, s_out):
    with pytest.raises(ValueError, match="positive and != 1"):
        TwoLevelCes(mu=[0.5, 0.5], nu=[0.5, 0.5], s_in=s_in, s_out=s_out)


def test_calibrated_spec_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown production family 'leontief'"):
        m.calibrated_spec("leontief", [0.45, 0.2, 0.35])


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


def test_newton_raises_after_its_iteration_budget(sampled, monkeypatch):
    monkeypatch.setattr(production, "NEWTON_MAX_ITER", 1)
    with pytest.raises(m.NonConvergence, match="no convergence after 1 iterations"):
        m.solve_equilibrium(sampled.specs, sampled.equilibrium.p,
                            sampled.equilibrium.V, w0=[1.5, 0.7, 1.2], x0=[0.8, 1.5])


def test_newton_rows_converged_at_their_shared_start_keep_the_batch_shape(sampled):
    eq = sampled.equilibrium
    V = np.stack([eq.V] * 4)
    w, X, a = _newton(sampled.specs, eq.p, V, eq.w, eq.X)
    assert (w.shape, X.shape, a.shape) == ((4, 3), (4, 2), (4, 3, 2))
    assert all(np.array_equal(x, np.broadcast_to(ref, x.shape))
               for x, ref in ((w, eq.w), (X, eq.X), (a, eq.a)))
    w[0] = 0.0  # each member owns its rows
    assert np.array_equal(w[1], eq.w)


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


@pytest.mark.parametrize("family, nest", [
    *(pytest.param(family, None, id=family) for family in sorted(FAMILY_KW)),
    pytest.param("two_level_ces", (T, L), id="two_level_ces-TL"),
    pytest.param("two_level_ces", (K, L), id="two_level_ces-KL")])
def test_jacobian_matches_central_differences(family, nest):
    kw = dict(FAMILY_KW[family], **({} if nest is None else {"nest": nest}))
    specs = tuple(m.calibrated_spec(family, col, **kw)
                  for col in ([0.45, 0.2, 0.35], [0.2, 0.5, 0.3]))
    p, V = np.ones(2), np.array([1.1, 0.9, 1.3])
    # off the calibrated point w = (1, 1, 1)
    z = np.array([1.3, 0.8, 1.1, 0.9, 1.4])
    _, a, c = _system(specs, p, V, z[:3], z[3:])
    jac = _jacobian(specs, z[:3], z[3:], a, c)
    fd = np.zeros((5, 5))
    for k in range(5):
        h = 1e-6 * z[k]
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        fd[:, k] = (_system(specs, p, V, zp[:3], zp[3:])[0]
                    - _system(specs, p, V, zm[:3], zm[3:])[0]) / (2 * h)
    assert np.allclose(jac, fd, rtol=1e-6, atol=1e-9)
    # the element-by-element form, same arithmetic order: the cost Hessian
    # (X_j / c_j) a_ij a_hj sigma_jih off the diagonal, then the diagonal
    # that makes each row times w zero
    w = z[:3]
    ref = np.zeros((5, 5))
    ref[:2, :3], ref[2:, 3:] = a.T, a
    for j in range(2):
        sig = specs[j].aes(w)
        for i in range(3):
            for h in range(3):
                if h != i:
                    ref[2 + i, h] += (a[i, j] * (z[3 + j] / c[j]) * a[h, j]
                                      * sig[i, h])
    for i in range(3):
        ref[2 + i, i] = -sum(ref[2 + i, h] * w[h] for h in range(3)
                             if h != i) / w[i]
    assert np.array_equal(jac, ref)
    # the form it replaced: da_ij/dw_h = a_ij * theta_hj * sigma_ihj / w_h
    old = np.zeros((5, 5))
    old[:2, :3], old[2:, 3:] = a.T, a
    for j in range(2):
        sig = specs[j].aes(w)
        shares = a[:, j] * w / float(a[:, j] @ w)
        for i in range(3):
            for h in range(3):
                old[2 + i, h] += (z[3 + j] * a[i, j] * shares[h] * sig[i, h]
                                  / w[h])
    assert np.abs(jac - old).max() <= 1e-13 * np.abs(old).max()
    block = jac[2:, :3]
    assert np.abs(block @ w).max() <= 1e-14 * np.abs(block).max() * w.max()


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


def test_fd_rybczynski_without_a_base_solves_for_it(sampled):
    specs, eq = sampled.specs, sampled.equilibrium
    base = m.solve_equilibrium(specs, eq.p, eq.V)
    assert np.array_equal(m.fd_rybczynski(specs, eq.p, eq.V),
                          m.fd_rybczynski(specs, eq.p, eq.V, base=base))


@pytest.mark.parametrize("h", [0.0, 1.0, -1.0, 2.0, np.nan, np.inf])
def test_fd_rybczynski_refuses_unusable_steps(sampled, h):
    # h = 0 divides by zero, and |h| >= 1 bumps an endowment to zero or below
    eq = sampled.equilibrium
    with pytest.raises(ValueError, match=r"0 < \|h\| < 1"):
        m.fd_rybczynski(sampled.specs, eq.p, eq.V, h=h, base=eq)


def test_fd_rybczynski_batch_equals_solo_solves():
    """The six-member Newton batch against six separate solves, on the
    production-backed half of mixed_pool(2024, 400)."""
    h = 1e-4
    for k in range(1, 400, 2):
        s = m.sample_economy(2024 + k, m.SampleConstraints(ranked=True))
        eq = s.equilibrium
        fd = m.fd_rybczynski(s.specs, eq.p, eq.V, h=h, base=eq)
        ref = np.zeros((2, 3))
        for i in range(3):
            vp, vm = eq.V.copy(), eq.V.copy()
            vp[i] *= 1.0 + h
            vm[i] *= 1.0 - h
            up = m.solve_equilibrium(s.specs, eq.p, vp, w0=eq.w, x0=eq.X)
            dn = m.solve_equilibrium(s.specs, eq.p, vm, w0=eq.w, x0=eq.X)
            ref[:, i] = (up.X - dn.X) / eq.X / (2.0 * h)
        np.testing.assert_allclose(fd, ref, rtol=1e-6, atol=0)
        assert np.array_equal(np.sign(fd), np.sign(ref))


class CountingSpec:
    """Counts residual evaluations (cost_columns) and Newton iterations
    (cross_columns, once per Jacobian)."""

    def __init__(self, spec):
        self.spec, self.costs, self.iterations = spec, 0, 0

    def cost_columns(self, wt):
        self.costs += 1
        return self.spec.cost_columns(wt)

    def cross_columns(self, wt, c, at):
        self.iterations += 1
        return self.spec.cross_columns(wt, c, at)


def test_newton_batch_members_take_their_solo_steps():
    s = m.sample_economy(34)
    eq = s.equilibrium
    V = eq.V * np.array([[1.0, 1.0, 1.0],       # converged at the start
                         [1.0001, 1.0, 1.0],    # two warm steps
                         [0.7, 1.4, 1.2],       # far: extra steps, halvings
                         [1.0, 0.9999, 1.0]])
    w0 = np.array([eq.w, eq.w, [2.0, 2.0, 0.5], eq.w])
    x0 = np.array([eq.X, eq.X, [0.6, 0.6], eq.X])
    counts = []
    for k in range(4):
        specs = tuple(CountingSpec(sp) for sp in s.specs)
        _newton(specs, eq.p, V[k], w0[k], x0[k])
        iters = specs[0].iterations
        counts.append((iters, specs[0].costs - 1 - iters))
    assert counts[0] == (0, 0) and counts[1][1] == 0
    assert counts[2][0] > counts[1][0] and counts[2][1] > 0
    w, X, a = _newton(s.specs, eq.p, V, w0, x0)
    for k in range(4):
        # a batch of one is the same arithmetic, so the same bits
        w1, X1, a1 = _newton(s.specs, eq.p, V[k:k + 1], w0[k:k + 1],
                             x0[k:k + 1])
        assert np.array_equal(w[k], w1[0]) and np.array_equal(X[k], X1[0])
        assert np.array_equal(a[k], a1[0])
        # one point runs on Python floats, whose powers are libm's
        solo = m.solve_equilibrium(s.specs, eq.p, V[k], w0=w0[k], x0=x0[k])
        np.testing.assert_allclose(X[k], solo.X, rtol=1e-10)
        np.testing.assert_allclose(w[k], solo.w, rtol=1e-10)


class ShapeSpec:
    """Records the shape of the factor columns that each family method takes."""

    def __init__(self, spec):
        self.spec, self.calls = spec, []

    def cost_columns(self, wt):
        self.calls.append(("cost", np.shape(wt[0])))
        return self.spec.cost_columns(wt)

    def cross_columns(self, wt, c, at):
        self.calls.append(("cross", np.shape(wt[0])))
        return self.spec.cross_columns(wt, c, at)


def test_members_sharing_a_start_share_its_first_evaluation():
    for s in m.sample_economies(range(2024, 2034), m.SampleConstraints(ranked=True)):
        eq = s.equilibrium
        V = eq.V * (1.0 + 1e-4 * production._BUMPS)
        shared = _newton(s.specs, eq.p, V, eq.w, eq.X)
        repeated = _newton(s.specs, eq.p, V, np.tile(eq.w, (6, 1)),
                           np.tile(eq.X, (6, 1)))
        for x, ref in zip(shared, repeated):
            assert x.shape == ref.shape
            np.testing.assert_allclose(x, ref, rtol=1e-12, atol=0)
        # fd_rybczynski's first residual costs and Jacobian are taken at one
        # point, not on the (6, 3) batch of bumped endowments
        specs = tuple(ShapeSpec(sp) for sp in s.specs)
        m.fd_rybczynski(specs, eq.p, eq.V, base=eq)
        for spec in specs:
            assert spec.calls[:2] == [("cost", ()), ("cross", ())]
            assert spec.calls[2] == ("cost", (6,))


#: seeds of 2024-2323 whose cold far-start solve raised NonConvergence when
#: this guard was written
FAR_START_FAILURES = {2036, 2064, 2074, 2101, 2108, 2137, 2146, 2167, 2179,
                      2193, 2258, 2290, 2297}


def test_far_start_failures_do_not_grow():
    # the oracle workload's cold solve: a change to the Newton step may shrink
    # the failing set, never add to it
    samples = m.sample_economies(range(2024, 2324),
                                 m.SampleConstraints(ranked=True))
    failed = set()
    for s in samples:
        eq = s.equilibrium
        try:
            cold = m.solve_equilibrium(s.specs, eq.p, eq.V, w0=[1.5, 0.7, 1.2],
                                       x0=[0.8, 1.5])
        except m.NonConvergence:
            failed.add(s.seed)
            continue
        np.testing.assert_allclose(cold.w, eq.w, rtol=1e-8)
    assert failed <= FAR_START_FAILURES


def test_cold_solves_meet_their_tolerances():
    # the converged cold far-start solves by tolerance, not by bits: each
    # relative residual of the levels point within 1e-11 (the worst was
    # 9.99e-13 when this was written) and w at the calibrated point
    for s in m.sample_economies(range(2024, 2324), m.SampleConstraints(ranked=True)):
        eq = s.equilibrium
        try:
            cold = m.solve_equilibrium(s.specs, eq.p, eq.V, w0=[1.5, 0.7, 1.2],
                                       x0=[0.8, 1.5])
        except m.NonConvergence:
            continue
        assert max(cold.residuals().values()) <= 1e-11, s.seed
        np.testing.assert_allclose(cold.w, eq.w, rtol=1e-8)


#: sha256 of the cold far-start solves of test_far_start_failures_do_not_grow,
#: with each typed failure's type and message, and of fd_rybczynski on the
#: first 100 of those seeds (numpy 2.4)
COLD_SOLVE_DIGEST = (
    "c3082488663d261a818b03dd9f75864ac83bec9bd63324c8f9503d433f21858f")


def test_cold_solve_digest():
    # pins the Newton oracle bit for bit: a change to its bookkeeping that
    # keeps the arithmetic keeps this digest
    samples = m.sample_economies(range(2024, 2324),
                                 m.SampleConstraints(ranked=True))
    h = hashlib.sha256()
    for s in samples:
        eq = s.equilibrium
        try:
            cold = m.solve_equilibrium(s.specs, eq.p, eq.V, w0=[1.5, 0.7, 1.2],
                                       x0=[0.8, 1.5])
        except m.Ews3x2Error as exc:
            h.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        for x in (cold.w, cold.X, cold.a):
            h.update(x.tobytes())
    for s in samples[:100]:
        eq = s.equilibrium
        h.update(m.fd_rybczynski(s.specs, eq.p, eq.V, h=1e-4, base=eq).tobytes())
    assert h.hexdigest() == COLD_SOLVE_DIGEST


#: starts no Newton solve can begin from: an entry of w0 at -1, 0, NaN or
#: 1e200, or outputs whose coefficient products overflow
BAD_STARTS = [
    *((tuple(bad if k == i else 1.0 for k in range(3)), (1.0, 1.0))
      for bad in (-1.0, 0.0, np.nan, 1e200) for i in range(3)),
    ((1.0, 1.0, 1.0), (1e300, 1e300))]


@pytest.mark.parametrize("families", [
    (f1, f2) for f1 in sorted(FAMILY_KW) for f2 in sorted(FAMILY_KW)],
    ids="-".join)
def test_bad_starts_raise_singular_system(families):
    # the residual or Jacobian at such a start is not finite, so the first
    # solve refuses it; no raw arithmetic error may escape instead
    cols = ([0.45, 0.2, 0.35], [0.2, 0.5, 0.3])
    specs = tuple(m.calibrated_spec(f, col, **FAMILY_KW[f])
                  for f, col in zip(families, cols))
    V = np.array(cols).T @ [1.2, 0.8]
    for w0, x0 in BAD_STARTS:
        with np.errstate(all="ignore"), pytest.raises(m.SingularSystem):
            m.solve_equilibrium(specs, np.ones(2), V, w0=w0, x0=x0)


@pytest.mark.parametrize("x0", [[np.nan, 1.0], [1.0, np.nan]], ids=["X1", "X2"])
def test_nan_output_start_raises_singular_system(sampled, x0):
    # at the calibrated w the zero-profit residuals are exactly 0, so a residual
    # norm that dropped the NaN full-employment residuals would call this start
    # converged and return NaN outputs
    eq = sampled.equilibrium
    with np.errstate(all="ignore"), pytest.raises(m.SingularSystem):
        m.solve_equilibrium(sampled.specs, eq.p, eq.V, w0=eq.w, x0=x0)


def zero_row(jac):
    jac[2] = 0.0


def inf_entry(jac):
    jac[4, 4] = np.inf


@pytest.mark.parametrize("spoil, match", [
    (zero_row, "LU factorisation failed"), (inf_entry, "non-finite Newton step")],
    ids=["zero_row", "inf_entry"])
def test_later_step_refuses_a_bad_jacobian(sampled, monkeypatch, spoil, match):
    # only the first step checks the condition: a later Jacobian that is
    # exactly singular, or gives a non-finite step, still raises SingularSystem,
    # not NonConvergence, a raw LinAlgError or a NaN answer
    calls = []

    def jacobian(*args):
        calls.append(jac := _jacobian(*args))
        if len(calls) == 2:  # the first step's Jacobian stays the real one
            spoil(jac)
        return jac

    monkeypatch.setattr(production, "_jacobian", jacobian)
    eq = sampled.equilibrium
    with pytest.raises(m.SingularSystem, match=match):
        m.solve_equilibrium(sampled.specs, eq.p, eq.V, w0=[1.5, 0.7, 1.2],
                            x0=[0.8, 1.5])
    assert len(calls) == 2


@pytest.mark.parametrize("p, V, x0", [
    (None, None, [0.0, 1.0]), (None, None, [1.0, 0.0]),
    (None, [0.0, 1.0, 1.0], None), ([0.0, 1.0], None, None)],
    ids=["X1", "X2", "V_T", "p_1"])
def test_zero_start_or_scale_is_a_typed_error(sampled, p, V, x0):
    # a zero output or a zero price or endowment divides to inf or nan as over
    # a batch, and the line search stalls; no ZeroDivisionError escapes
    eq = sampled.equilibrium
    with np.errstate(all="ignore"), pytest.raises(m.NonConvergence):
        m.solve_equilibrium(sampled.specs, eq.p if p is None else p,
                            eq.V if V is None else V, x0=x0)


CD_SPECS = (m.calibrated_spec("cobb_douglas", [0.45, 0.2, 0.35]),
            m.calibrated_spec("cobb_douglas", [0.2, 0.5, 0.3]))
CD_A = np.array([[0.45, 0.2], [0.2, 0.5], [0.35, 0.3]])


@pytest.mark.parametrize("V_bad, x0_bad, error", [
    # endowments far outside the diversification cone: the line search stalls
    ([5.0, 0.01, 0.02], [1.0, 1.0], m.NonConvergence),
    # starts at an exact solution with a negative output
    (CD_A @ [1.0, -0.2], [1.0, -0.2], m.Specialization),
], ids=["non_convergence", "specialization"])
def test_newton_batch_raises_the_failing_members_error(V_bad, x0_bad, error):
    p = np.ones(2)
    with pytest.raises(error) as solo:
        _newton(CD_SPECS, p, np.asarray(V_bad), 1.0, np.asarray(x0_bad))
    V = np.stack([CD_A @ [1.0, 1.2], V_bad, CD_A @ [0.8, 1.0]])
    x0 = np.array([[1.0, 1.0], x0_bad, [1.0, 1.0]])
    with pytest.raises(error) as batch:
        _newton(CD_SPECS, p, V, 1.0, x0)
    assert str(batch.value) == str(solo.value)
    # without the failing member the batch solves
    w, X, _ = _newton(CD_SPECS, p, V[[0, 2]], 1.0, 1.0)
    np.testing.assert_allclose(X, [[1.0, 1.2], [0.8, 1.0]], rtol=1e-10)


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


@pytest.mark.parametrize("quadrant", ["iv", "V", "", "boundary", 4])
def test_unknown_quadrant_is_rejected_when_constraints_are_built(quadrant):
    # a wrong name once failed only in the first sampler round, with a bare
    # KeyError
    with pytest.raises(ValueError, match="quadrant must be None or one of"):
        m.SampleConstraints(ranked=True, quadrant=quadrant)
    for name in (None, "I", "II", "III", "IV"):
        assert m.SampleConstraints(quadrant=name).quadrant == name


@pytest.mark.parametrize("families", [(), ("foo",), ("ces", "Ces")])
def test_unknown_family_is_rejected_when_constraints_are_built(families):
    # an empty tuple once surfaced numpy's "high <= 0" and an unknown name a
    # ValueError from the first candidate drawn
    with pytest.raises(ValueError, match="families must name one or more of"):
        m.SampleConstraints(families=families)
    assert m.SampleConstraints(families=("ces",)).families == ("ces",)


@pytest.mark.parametrize("families", [("cobb_douglas",), ("cobb_douglas", "ces")])
def test_quadrant_iv_without_two_level_ces_is_rejected(families):
    # quadrant IV draws only two-level CES, so these families once sampled
    # TwoLevelCes specs regardless
    with pytest.raises(ValueError, match="two_level_ces among them for quadrant IV"):
        m.SampleConstraints(quadrant="IV", families=families)
    assert m.SampleConstraints(quadrant="III", families=families).families == families
    s = m.sample_economy(3, m.SampleConstraints(
        quadrant="IV", families=families + ("two_level_ces",)))
    assert {spec.form for spec in s.specs} == {"two_level_ces"}


UNIT_POINT_DRAWS = [("cobb_douglas", None), ("ces", None),
                    ("two_level_ces", (T, K)), ("two_level_ces", (T, L)),
                    ("two_level_ces", (K, L))]


def test_rounds_test_the_ranking_again_on_the_unit_point(monkeypatch):
    # the first candidate's shares are ranked, but its sector-1 land
    # coefficient is cut so that `a` is not: a later candidate must return
    calls, unit_point = [], production._unit_point

    def cut(*args):
        a, sigma = unit_point(*args)
        if not calls:
            a = [a[0] * 1e-3, *a[1:]]
        calls.append(args)
        return a, sigma

    monkeypatch.setattr(production, "_unit_point", cut)
    s = m.sample_economy(5)
    assert len(calls) > 2  # more than one candidate reached the unit point
    assert m.is_ranked(s.economy)
    assert m.validate_economy(s.economy, check_ranking=True).ok
    monkeypatch.undo()
    assert not np.array_equal(s.economy.theta_share,
                              m.sample_economy(5).economy.theta_share)


@pytest.mark.parametrize("family, nest", UNIT_POINT_DRAWS)
def test_unit_point_equals_the_spec_methods(family, nest):
    # the sampler's float unit point is the calibrated spec's unit_cost and
    # aes at w = (1,1,1), bit for bit: elasticities drawn as the sampler
    # draws them, then each at the values the sampler clamps to
    rng = np.random.default_rng(5)
    w = np.ones(3)
    cases = [(rng.dirichlet(np.ones(3)), _draw_params(rng, family, nest))
             for _ in range(2000)]
    clamps = {"ces": {"s": 1.1}, "two_level_ces": {"s_in": 0.9, "s_out": 1.1}}
    cases += [(col, {**params, **clamps.get(family, {})})
              for col, params in cases[:100]]
    for col, params in cases:
        spec = m.calibrated_spec(family, col, **params)
        a, sigma = _unit_point(family, col.tolist(), params)
        assert np.array_equal(a, spec.unit_cost(w)[1]), (col, params)
        assert np.array_equal(sigma, spec.aes(w)), (col, params)


def test_rejected_candidates_build_no_specs(monkeypatch):
    calls = []
    build = production.calibrated_spec

    def counting(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(production, "calibrated_spec", counting)
    samples = m.sample_economies(range(2024, 2084),
                                 m.SampleConstraints(quadrant="IV"))
    assert len(samples) == 60
    assert len(calls) == 2 * len(samples)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_sampled_economies_validate(seed):
    s = m.sample_economy(seed)
    assert m.validate_economy(s.economy, check_ranking=True).ok
    assert max(s.equilibrium.residuals().values()) < 1e-10


@pytest.mark.parametrize("cons", PRODUCTION_MODES.values(),
                         ids=PRODUCTION_MODES)
def test_production_samples_meet_every_check_the_sampler_skips(cons):
    # `_sample_rounds` tests only the ranking and the quadrant: construction
    # meets every other check of `validate_economy`, and this pins that guarantee
    arrays, *_ = _sample_rounds(range(2000), cons)
    for k in range(2000):
        e = m.Economy(*(x[k] for x in arrays))
        assert m.validate_economy(e, cons.ranked, STRUCT_TOL).ok, k


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


def test_sweep_integer_outer_aes_is_not_truncated(e0):
    # integer outer elasticities must not round the inner one written next
    # to them
    grid = [0.5, -0.7]
    rows = m.appendix_f_sweep(e0, outer_aes=(2, 1), inner_grid=grid)
    assert rows == m.appendix_f_sweep(e0, outer_aes=(2.0, 1.0), inner_grid=grid)
    assert rows[0]["g_KT"] != 0.0


def test_sweep_with_zero_outer_aes_is_a_typed_error(e0):
    # zero cross elasticities with labor make g_LT exactly 0
    with pytest.raises(m.DegenerateDenominator):
        m.appendix_f_sweep(e0, outer_aes=(0.0, 0.0), inner_grid=[0.5])
