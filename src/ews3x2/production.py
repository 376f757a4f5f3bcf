"""Explicit production technologies and the nonlinear equilibrium oracle.

Three cost-function families per sector: Cobb-Douglas, single-elasticity CES,
and two-level CES with a chosen factor pair nested inside (land-capital by
default). The nested family is the only one that can make a factor pair
Allen complements; nesting land with capital is what pushes the EWS-ratio
vector into quadrant IV.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ExhaustedRejection, NonConvergence, SingularSystem, Specialization
from .geometry import in_quadrant
from .model import (Economy, K, L, T, _aes_diagonal, _draw_shares, _epsilon,
                    _ews, _ews_ratios, _fill_aes_diagonal, ews_matrix,
                    ews_ratio_vector, intensity_ranked)
from .statics import _lu_solve, solve_partial_pivot
from .tolerances import NEWTON_MAX_ITER, NEWTON_TOL


class _CostFamily:
    """Unit cost, coefficients and cross Allen elasticities, each stated once on
    factor columns wt[i]: floats, numpy scalars, or the rows of w.T (a batch)."""

    def unit_cost(self, w):
        c, at = self.cost_columns(np.asarray(w, dtype=float).T)
        return c.T, np.array(at, dtype=float).T

    def aes(self, w):
        """`cross_columns` (..., 3, 3) at unit_cost(w), its diagonal set so that
        every share-weighted row sums to zero."""
        w = np.asarray(w, dtype=float)
        c, a = self.unit_cost(w)
        sig, cross = np.empty(w.shape + (3,)), self.cross_columns(w.T, c.T, a.T)
        for i, h in np.ndindex(3, 3):
            sig.T[h, i] = cross[i][h]
        return _fill_aes_diagonal(sig, self._shares(w, c, a))

    @staticmethod
    def _shares(w, c, a):
        """Distributive shares a_i w_i / (a . w) over the last axis."""
        return a * w / np.vecdot(a, w, keepdims=True)

    def cross_columns(self, wt, c, at):  # sig[i][h], i != h
        return [[self.s] * 3 for _ in range(3)]


@dataclass(frozen=True)
class CobbDouglas(_CostFamily):
    """c(w) = prod_i w_i^alpha[i], alpha on the simplex."""

    form = "cobb_douglas"
    s = 1.0  # every Allen elasticity off the diagonal
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.array(self.alpha, dtype=float))

    def cost_columns(self, wt):
        a0, a1, a2 = self.alpha.tolist()
        c = wt[0] ** a0 * wt[1] ** a1 * wt[2] ** a2
        return c, [a0 * c / wt[0], a1 * c / wt[1], a2 * c / wt[2]]


@dataclass(frozen=True)
class Ces(_CostFamily):
    """c(w) = (sum_i delta[i] w_i^(1-s))^(1/(1-s)), s > 0, s != 1."""

    form = "ces"
    delta: np.ndarray
    s: float

    def __post_init__(self):
        object.__setattr__(self, "delta", np.array(self.delta, dtype=float))
        if not 0 < self.s < math.inf or self.s == 1.0:  # NaN fails both
            raise ValueError("CES elasticity must be finite, positive and != 1")

    def cost_columns(self, wt):
        d, rho = self.delta.tolist(), 1.0 - self.s
        base = d[0] * wt[0] ** rho + d[1] * wt[1] ** rho + d[2] * wt[2] ** rho
        c = base ** (1.0 / rho)
        return c, [c * d[i] * wt[i] ** (rho - 1.0) / base for i in range(3)]


def _checked_nest(nest) -> tuple:
    if sorted(nest) not in ([T, K], [T, L], [K, L]):  # int() would floor 1.5
        raise ValueError("nest must name two distinct factors")
    return tuple(int(i) for i in nest)


@dataclass(frozen=True)
class TwoLevelCes(_CostFamily):
    """Nested CES: composite M = CES_{s_in}(nest pair), then
    c = CES_{s_out}(M, remaining factor).

    ``nest`` holds the two factor indices of the inner composite, (T, K) by
    default. mu are the inner share weights in nest order, nu = (nu_M,
    nu_outside) the outer ones. Factors in different nests have Allen
    elasticity s_out; the nested pair has s_out + (s_in - s_out)/theta_M,
    which is negative when the inner elasticity is small enough relative to
    the outer one.
    """

    form = "two_level_ces"
    mu: np.ndarray
    nu: np.ndarray
    s_in: float
    s_out: float
    nest: tuple = (T, K)

    def __post_init__(self):
        object.__setattr__(self, "mu", np.array(self.mu, dtype=float))
        object.__setattr__(self, "nu", np.array(self.nu, dtype=float))
        object.__setattr__(self, "nest", _checked_nest(self.nest))
        for s in (self.s_in, self.s_out):
            if not 0 < s < math.inf or s == 1.0:
                raise ValueError("nest elasticities must be finite, positive and != 1")
        object.__setattr__(self, "outside", ({T, K, L} - set(self.nest)).pop())

    def cost_columns(self, wt):
        (i1, i2), out = self.nest, self.outside
        (mu1, mu2), (nu_m, nu_out) = self.mu.tolist(), self.nu.tolist()
        rin = 1.0 - self.s_in
        base_in = mu1 * wt[i1] ** rin + mu2 * wt[i2] ** rin
        q = base_in ** (1.0 / rin)
        rho = 1.0 - self.s_out
        base = nu_m * q ** rho + nu_out * wt[out] ** rho
        c = base ** (1.0 / rho)
        # outer demands: composite and the outside factor
        a_m = c * nu_m * q ** (rho - 1.0) / base
        at = [None] * 3
        at[out] = c * nu_out * wt[out] ** (rho - 1.0) / base
        at[i1] = a_m * mu1 * wt[i1] ** (rin - 1.0) * q / base_in
        at[i2] = a_m * mu2 * wt[i2] ** (rin - 1.0) * q / base_in
        return c, at

    def cross_columns(self, wt, c, at):
        i1, i2 = self.nest
        sig = [[self.s_out] * 3 for _ in range(3)]
        sig[i1][i2] = sig[i2][i1] = self.s_out + (self.s_in - self.s_out) / (
            at[i1] * wt[i1] / c + at[i2] * wt[i2] / c)  # shares over the unit cost
        return sig

    @staticmethod
    def _shares(w, c, a):
        return a * w / c[..., None]  # over the unit cost itself


#: the cost-function families, by the names `calibrated_spec` takes
FAMILIES = ("cobb_douglas", "ces", "two_level_ces")


def calibrated_spec(family: str, theta_col, **kw):
    """Spec whose input-output coefficients at w = (1,1,1) equal theta_col.

    With unit prices this makes the distributive shares of the snapshot equal
    to theta_col, so test economies stay readable.
    """
    th = np.asarray(theta_col, dtype=float)
    if family == "cobb_douglas":
        return CobbDouglas(th)
    if family == "ces":
        return Ces(th, kw["s"])
    if family == "two_level_ces":
        i1, i2 = nest = _checked_nest(kw.get("nest", (T, K)))
        out = ({T, K, L} - set(nest)).pop()
        nu_m = th[i1] + th[i2]
        return TwoLevelCes(mu=[th[i1] / nu_m, th[i2] / nu_m],
                           nu=[nu_m, th[out]],
                           s_in=kw["s_in"], s_out=kw["s_out"], nest=nest)
    raise ValueError(f"unknown production family {family!r}")


def _unit_point(family: str, th, params) -> tuple:
    """`calibrated_spec(family, th, **params).unit_cost(1)[1]` and `.aes(1)`
    at w = (1,1,1), on floats: (a, Allen matrix) as lists.

    Every power of 1.0 and product with 1.0 in the spec methods is exact, so
    they are taken out; what remains is the methods' arithmetic in their
    order, and Python's float ** and numpy's scalar ** both call libm pow, so
    the results are the methods' bit for bit.
    """
    if family == "two_level_ces":
        i1, i2 = params.get("nest", (T, K))
        out = ({T, K, L} - {i1, i2}).pop()
        s_in, s_out = params["s_in"], params["s_out"]
        nu_m = th[i1] + th[i2]
        mu1, mu2 = th[i1] / nu_m, th[i2] / nu_m
        rho = 1.0 - s_out
        base_in = mu1 + mu2
        q = base_in ** (1.0 / (1.0 - s_in))
        base = nu_m * q ** rho + th[out]
        c = base ** (1.0 / rho)
        a_m = c * nu_m * q ** (rho - 1.0) / base
        a = [0.0] * 3
        a[out] = c * th[out] / base
        a[i1] = a_m * mu1 * q / base_in
        a[i2] = a_m * mu2 * q / base_in
        sh = [x / c for x in a]
        sig = [[s_out] * 3 for _ in range(3)]
        sig[i1][i2] = sig[i2][i1] = s_out + (s_in - s_out) / (sh[i1] + sh[i2])
    else:
        s = params.get("s", 1.0)  # Cobb-Douglas: every Allen elasticity 1
        a = list(th)
        if family == "ces":
            base = th[0] + th[1] + th[2]
            c = base ** (1.0 / (1.0 - s))
            a = [c * d / base for d in th]
        total = a[0] + a[1] + a[2]
        sh = [x / total for x in a]
        sig = [[s] * 3 for _ in range(3)]
    sig[T][T], sig[K][K], sig[L][L] = _aes_diagonal(sig, sh)
    return a, sig


@dataclass(frozen=True)
class EquilibriumPoint:
    """Levels solution: rewards w, prices p, endowments V, outputs X,
    input-output coefficients a, total income I."""

    w: np.ndarray
    p: np.ndarray
    V: np.ndarray
    X: np.ndarray
    a: np.ndarray  # (3, 2)
    income: float

    def residuals(self) -> dict:
        zero_profit = self.a.T @ self.w - self.p
        full_employment = self.a @ self.X - self.V
        income_gap = self.p @ self.X - self.w @ self.V
        return {
            "zero_profit": float(np.max(np.abs(zero_profit / self.p))),
            "full_employment": float(np.max(np.abs(full_employment / self.V))),
            "income": float(abs(income_gap) / self.income),
        }


def _on_columns(build, *arrays):
    """build on the columns x.T of arrays of one batch shape, or on lists: nested
    Python floats at one point, numpy scalars where float arithmetic fails."""
    cols = arrays if isinstance(arrays[0], list) else [
        x.T.tolist() if arrays[0].ndim == 1 else x.T for x in arrays]
    try:
        return build(*cols)
    except (ArithmeticError, TypeError):  # float ** and / raise, or ** is complex,
        return build(*[np.asarray(x, dtype=float) for x in cols])  # numpy: inf, nan


def _system(specs, p, V, w, X):
    """Residuals f (..., 5), coefficients a (..., 3, 2) and unit costs c (..., 2)
    at (w, X) from `cost_columns`, f with V's batch axes; on lists, Python floats."""

    def build(wt, xt):
        (c0, a0), (c1, a1) = specs[0].cost_columns(wt), specs[1].cost_columns(wt)
        ax = [a0[i] * xt[0] + a1[i] * xt[1] for i in range(3)]
        if isinstance(xt, list):  # float() refuses a complex power
            c0, c1, ax = float(c0), float(c1), list(map(float, ax))
        return [c0, c1], [a0, a1], ax

    c, a, ax = _on_columns(build, w, X)
    if isinstance(w, list):
        return [c[0] - p[0], c[1] - p[1], ax[0] - V[0], ax[1] - V[1], ax[2] - V[2]], a, c
    c, a, ax = (np.array(x, dtype=float).T for x in (c, a, ax))
    f = np.empty((fe := ax - V).shape[:-1] + (5,))
    f[..., :2], f[..., 2:] = c - p, fe
    return f, a, c


def _jacobian(specs, w, X, a, c):
    """Newton Jacobian of `_system` in (w, X), from the (c, a) it returned:
    d(a X)/dw is the cost Hessian sum_j (X_j / c_j) a_ij a_hj sigma_jih off
    the diagonal (Allen-Uzawa), and a's homogeneity in w sets the diagonal."""

    def hessian(wt, xt, at, ct):
        sig = [spec.cross_columns(wt, ct[j], at[j]) for j, spec in enumerate(specs)]
        ak = [[a_ij * (xt[j] / ct[j]) for a_ij in at[j]] for j in range(2)]
        hess = [[ak[0][i] * at[0][h] * sig[0][i][h] + ak[1][i] * at[1][h] * sig[1][i][h]
                 if h != i else 0.0 for h in range(3)] for i in range(3)]
        hess[T][T], hess[K][K], hess[L][L] = _aes_diagonal(hess, wt)
        return hess

    h = _on_columns(hessian, w, X, a, c)
    if isinstance(a, list):  # one point: the rows as Python floats
        return np.array([*a[0], 0.0, 0.0, *a[1], 0.0, 0.0, *h[0], a[0][0], a[1][0],
                         *h[1], a[0][1], a[1][1], *h[2], a[0][2], a[1][2]]).reshape(5, 5)
    jac = np.zeros(a.shape[:-2] + (5, 5))
    jac[..., :2, :3], jac[..., 2:, 3:] = a.swapaxes(-1, -2), a
    jac[..., 2:, :3] = np.array(h, dtype=float).T.swapaxes(-1, -2)
    return jac


def _each(op, *xs):  # op on each entry of lists of floats (one point), or on arrays
    return list(map(op, *xs)) if isinstance(xs[0], list) else op(*xs)


def _top(r):  # the largest entry on r's last axis (kept over a batch), NaN if any is
    if isinstance(r, list):  # max() keeps a NaN only in first place
        return math.nan if any(map(math.isnan, r)) else max(r)
    return r.max(axis=-1, keepdims=True)


def _newton(specs, p, V, w0, x0):
    """Damped Newton solve of {zero profit x2, full employment x3} at prices p
    for endowment vectors V (..., 3) from the start (w0, x0), whose leading axes
    are V's or none; members that share it share its costs and first Jacobian.

    Unknowns are z = (w_T, w_K, w_L, X_1, X_2). Steps are clipped to 50% of any
    coordinate to preserve positivity and halved while the residual does not
    decrease. Each member takes the steps of its own solve: once its relative
    residual is below NEWTON_TOL it is frozen, and the line search halves only
    the members whose residual has not fallen. At one point (V (3,), a start
    without batch axes) z is Python floats and only the Jacobian and f become
    arrays. Only the first step checks the Jacobian's condition, which refuses
    a degenerate start (`solve_partial_pivot`); later steps raise SingularSystem
    only on an exactly singular Jacobian or a non-finite step. Returns w (..., 3),
    X (..., 2), a (..., 3, 2); any failure raises for all.
    """
    z = np.empty((np.shape(w0)[:-1] or np.shape(x0)[:-1]) + (5,))
    z[..., :3], z[..., 3:] = w0, x0
    if point := z.ndim == V.ndim == 1:  # a zero stays a numpy scalar: it divides to inf
        z, p, V = (y if 0.0 not in (y := x.tolist()) else list(x) for x in (z, p, V))
    scale = p + V if point else np.concatenate(
        [np.broadcast_to(p, V.shape[:-1] + (2,)), V], axis=-1)
    some, negate, larger, pick = (  # any, not, elementwise max and where
        (bool, operator.not_, max, lambda mask, new, old: new if mask else old) if point
        else (np.ndarray.any, np.invert, np.maximum, np.where))

    def evaluate(z):  # z, f, the Jacobian's (w, X, a, c) and the residual norm
        w, X = (z[:3], z[3:]) if point else (z[..., :3], z[..., 3:])
        f, a, c = _system(specs, p, V, w, X)
        return z, f, (w, X, a, c), _top(_each(lambda x, s: abs(x / s), f, scale))

    z, f, at, norm = evaluate(z)
    for solve in [solve_partial_pivot] + [_lu_solve] * (NEWTON_MAX_ITER - 1):
        live = negate(norm < NEWTON_TOL)
        if not some(live):
            break
        x = solve(_jacobian(specs, *at), f if point else f[..., None])
        if not np.isfinite(x).all():
            raise SingularSystem(f"non-finite Newton step at residual {np.max(norm):.3e}")
        x = x.tolist() if point else x[..., 0]
        clip = larger(_top(_each(lambda s, y: abs(s) / (0.5 * y), x, z)), 1.0)
        step = _each(lambda s: -s / clip, x)  # a NaN clip divides too
        # the live members move; those whose residual did not fall retry at
        # 1/2, 1/4, ..., 1/2^39, the others keep the step they took
        trial = evaluate(_each(operator.add, z, pick(live, step, 0.0)))
        lam, retry = 1.0, live & negate(trial[-1] < norm)
        while some(retry):
            if lam == 0.5 ** 39:
                raise NonConvergence("line search stalled at residual "
                                     f"{np.max(norm, where=retry, initial=0.0):.3e}")
            lam *= 0.5
            trial = evaluate(pick(retry, _each(lambda y, s: y + lam * s, z, step), trial[0]))
            retry &= negate(trial[-1] < norm)
        z, f, at, norm = trial
    else:
        raise NonConvergence(f"no convergence after {NEWTON_MAX_ITER} "
                             f"iterations (residual {np.max(norm):.3e})")
    z, a = (np.array(z), np.array(at[2]).T) if point else (z, at[2])
    if z.shape[:-1] != (n := np.shape(norm)[:-1]):  # converged at the start it shares
        z = np.broadcast_to(z, n + (5,)).copy()
        a = np.broadcast_to(a, n + (3, 2)).copy()
    X = z[..., 3:]
    bad = (X <= 0).any(axis=-1)
    if some(bad):
        raise Specialization(
            f"non-positive output at the solution: X = {X[bad][0]}")
    return z[..., :3], X, a


def solve_equilibrium(specs, p, V, w0=None, x0=None) -> EquilibriumPoint:
    """Damped Newton solve at one endowment vector, from (w0, x0) or the
    unit point: `_newton` with no batch axis. Converges to a relative
    residual below NEWTON_TOL.
    """
    p, V = np.asarray(p, dtype=float), np.asarray(V, dtype=float)
    w, X, a = _newton(specs, p, V, 1.0 if w0 is None else w0, 1.0 if x0 is None else x0)
    return EquilibriumPoint(w, p, V, X, a, float(p @ X))


def _snapshot_shares(w, p, V, X, a, income) -> tuple:
    """(theta_share, lambda_share, theta_good, theta_factor) of equilibria
    over leading axes: w (..., 3), p (..., 2), V (..., 3), X (..., 2),
    a (..., 3, 2) and income (...)."""
    income = np.asarray(income)[..., None]
    return (a * w[..., :, None] / p[..., None, :],
            a * X[..., None, :] / V[..., :, None],
            p * X / income, w * V / income)


def economy_snapshot(eq: EquilibriumPoint, specs) -> Economy:
    """Share/elasticity snapshot of a converged equilibrium."""
    sigma = np.stack([specs[j].aes(eq.w) for j in range(2)])
    return Economy(*_snapshot_shares(eq.w, eq.p, eq.V, eq.X, eq.a, eq.income),
                   sigma)


#: fd_rybczynski's relative endowment bumps: rows V_1 up, V_1 down, V_2 up, ...
_BUMPS = np.kron(np.eye(3), [[1.0], [-1.0]])


def fd_rybczynski(specs, p, V, h: float = 1e-4, base: EquilibriumPoint | None = None):
    """Finite-difference output elasticities to endowment changes.

    Central differences with relative step h, 0 < |h| < 1, on each V_i, the six
    perturbed equilibria solved as one Newton batch from the base point they
    share; the independent nonlinear oracle for the linearized Rybczynski matrix.
    """
    if not (0.0 < abs(h) < 1.0):
        raise ValueError(f"h must be finite with 0 < |h| < 1, not {h!r}")
    p, V = np.asarray(p, dtype=float), np.asarray(V, dtype=float)
    if base is None:
        base = solve_equilibrium(specs, p, V)
    _, X, _ = _newton(specs, p, V * (1.0 + h * _BUMPS), base.w, base.X)
    return ((X[0::2] - X[1::2]) / base.X / (2.0 * h)).T


@dataclass(frozen=True)
class SampleConstraints:
    """What a sampled economy must satisfy.

    quadrant: None, or one of "I", "II", "III", "IV" for the ratio point.
    families: candidate cost-function families for each draw; quadrant IV
    draws only two-level CES nested (T, K), so it needs "two_level_ces".
    """

    ranked: bool = True
    quadrant: str | None = None
    families: tuple = FAMILIES
    min_share: float = 0.02

    def __post_init__(self):
        if self.quadrant not in (None, "I", "II", "III", "IV"):
            raise ValueError(f"quadrant must be None or one of 'I' to 'IV', "
                             f"not {self.quadrant!r}")
        if (not self.families or not set(self.families) <= set(FAMILIES)
                or self.quadrant == "IV" and "two_level_ces" not in self.families):
            raise ValueError(f"families must name one or more of {FAMILIES}, "
                             "two_level_ces among them for quadrant IV, "
                             f"not {self.families!r}")
        if not 0.0 <= self.min_share < 1.0:
            raise ValueError(f"min_share must lie in [0, 1), not {self.min_share}")


@dataclass(frozen=True)
class SampledEconomy:
    economy: Economy
    specs: tuple
    equilibrium: EquilibriumPoint
    seed: int


#: log-uniform ranges of the drawn elasticities: CES, outer and inner nest
_LOG_S, _LOG_S_OUT, _LOG_S_IN = ((np.log(lo), np.log(hi))
                                 for lo, hi in ((0.2, 5.0), (0.3, 5.0), (0.02, 2.0)))


def _draw_params(rng, family: str, nest=None) -> dict:
    """`calibrated_spec` keyword arguments of one drawn `family` spec."""
    if family == "cobb_douglas":
        return {}
    if family == "ces":
        s = float(np.exp(rng.uniform(*_LOG_S)))
        return {"s": 1.1 if abs(s - 1.0) < 1e-3 else s}
    if nest is None:
        nest = ((T, K), (T, L), (K, L))[rng.integers(3)]
    s_out = float(np.exp(rng.uniform(*_LOG_S_OUT)))
    s_in = float(np.exp(rng.uniform(*_LOG_S_IN)))
    return {"s_in": 0.9 if abs(s_in - 1.0) < 1e-3 else s_in,
            "s_out": 1.1 if abs(s_out - 1.0) < 1e-3 else s_out, "nest": nest}


def _sample_rounds(seeds, cons: SampleConstraints, max_draws: int = 100_000):
    """The batch of `sample_economies`, in seed order: the snapshot arrays, V, X,
    a, income and each seed's sectors' (family, column, params). In lockstep
    rounds each pending seed takes its next shares from one `_draw_shares` pass
    and draws the rest of its candidate as it would alone, at the unit point
    (`_unit_point`), into its own row, over the candidate it rejected; a round
    tests only its rows. Raises after the seeds before the first one out of
    budget are accepted. Construction meets each check of `validate_economy`:
    non-finite to share-range, all is finite, sums and share link are off by at
    most 1,000 ulp (far inside STRUCT_TOL), and the 0.02 floor and X in [0.5, 2]
    keep shares and allocations in (0, 1); aes-*, sigma is symmetric,
    `_aes_diagonal` zeroes its rows, and its diagonals are negative (a nested
    factor's numerator is s_out m1 (1 - theta_M) + s_in m2, m the inner shares);
    the ranking is tested again on a, the snapshot shares at w = p = 1, as the
    CES powers can move the shares across a tie."""
    # only land-capital complementarity can reach quadrant IV
    nest = (T, K) if cons.quadrant == "IV" else None
    families = ("two_level_ces",) if nest else cons.families
    rngs, first = [np.random.default_rng(seed) for seed in seeds], {}
    for k, rng in enumerate(rngs):  # two rows on one stream would interleave it
        if (j := first.setdefault(id(rng.bit_generator), k)) < k:
            raise ValueError(f"seeds[{j}] and seeds[{k}] share one bit generator")
    ks, left = list(range(len(rngs))), [max_draws] * len(rngs)
    exhausted = len(rngs)  # index of the first seed out of candidates
    X, a, sigma = (np.empty((len(rngs),) + shape)
                   for shape in ((2,), (3, 2), (2, 3, 3)))
    drawn = [None] * len(rngs)
    while ks:
        shares = _draw_shares({k: rngs[k] for k in ks}, left, cons.min_share,
                              cons.ranked)
        if len(shares) < len(ks):
            exhausted = min([exhausted] + [k for k in ks if k not in shares])
        ks = sorted(shares)
        for k in ks:
            rng, drawn[k] = rngs[k], []
            for col in shares[k].T.tolist():
                family = (families[0] if len(families) == 1
                          else families[rng.integers(len(families))])
                drawn[k].append((family, col, _draw_params(rng, family, nest)))
            X[k] = rng.uniform(0.5, 2.0, size=2)
            for j, args in enumerate(drawn[k]):
                a[k, :, j], sigma[k, j] = _unit_point(*args)
        rows = ks if len(ks) < len(rngs) else slice(None)  # all, sorted: no copy
        th = a[rows]
        ok = intensity_ranked(th) if cons.ranked else np.ones(len(ks), bool)
        if cons.quadrant is not None:  # the allocations of `_snapshot_shares`
            x = X[rows]
            la = th * x[:, None, :] / np.matmul(th, x[..., None])
            ok &= in_quadrant(*_ews_ratios(_ews(la, _epsilon(th, sigma[rows]))),
                              cons.quadrant)
        ks = [k for k, o in zip(ks, ok.tolist()) if not o and k < exhausted]
    if exhausted < len(rngs):
        raise ExhaustedRejection(
            f"no economy satisfying {cons} within {max_draws} draws "
            f"(seed {seeds[exhausted]})")
    V = np.matmul(a, X[..., None])[..., 0]
    income = X[:, 0] + X[:, 1]
    return (_snapshot_shares(np.ones(3), np.ones(2), V, X, a, income) + (sigma,),
            V, X, a, income, drawn)


def sample_economies(seeds, constraints: SampleConstraints = SampleConstraints(),
                     max_draws: int = 100_000) -> list:
    """Rejection-sample one production-backed economy per seed, from the batch
    of `_sample_rounds`. seeds is a sequence of seeds or Generators, each
    passed to np.random.default_rng (two that share a bit generator raise
    ValueError); each sample records its own. Specs are calibrated so that
    w = (1,1,1), p = (1,1) is an exact equilibrium; endowments follow from a
    random output draw. If seeds exhaust the budget, the first of them raises."""
    arrays, V, X, a, income, drawn = _sample_rounds(seeds, constraints, max_draws)
    return [SampledEconomy(
        Economy(*(arr[k] for arr in arrays)),
        tuple(calibrated_spec(f, col, **params) for f, col, params in drawn[k]),
        EquilibriumPoint(np.ones(3), np.ones(2), V[k], X[k], a[k], float(income[k])),
        seed) for k, seed in enumerate(seeds)]


def sample_economy(seed: int, constraints: SampleConstraints = SampleConstraints(),
                   max_draws: int = 100_000) -> SampledEconomy:
    """`sample_economies` for one seed. Deterministic for a fixed seed."""
    return sample_economies([seed], constraints, max_draws)[0]


def appendix_f_sweep(e: Economy, outer_aes, inner_grid) -> list:
    """Vary only the nested-pair Allen elasticity at a fixed share snapshot.

    outer_aes: (c_1, c_2), the constant cross elasticities involving labor.
    inner_grid: values of the (T, K) Allen elasticity, common to both sectors.
    Returns one row per grid point: dict with sigma_KT, the raw (S, T, U)
    aggregates and the ratio coordinates (s, u). S' stays constant across
    the grid while U' moves with the inner elasticity.
    """
    rows = []
    for sig_kt in inner_grid:
        sigma = np.full((2, 3, 3), np.reshape(outer_aes, (2, 1, 1)), dtype=float)
        sigma[:, T, K] = sigma[:, K, T] = sig_kt
        g = ews_matrix(replace(e, sigma=_fill_aes_diagonal(sigma, e.theta_share.T)))
        p = ews_ratio_vector(g)
        rows.append({"sigma_KT": float(sig_kt), "g_LK": g.g_LK, "g_LT": g.g_LT,
                     "g_KT": g.g_KT, "s": p.s, "u": p.u})
    return rows
