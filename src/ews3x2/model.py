"""Economy snapshot (shares and Allen elasticities) and its substitution aggregates.

Factor order is (T, K, L) = (land, capital, labor); sector order is (1, 2).
All matrices are dense: theta/lambda shares are 3x2, per-sector Allen
elasticity matrices are 3x3, and the economy-wide substitution matrix is 3x3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominator, ExhaustedRejection
from .tolerances import CONCAVITY_TOL, STRUCT_TOL, ZERO_TOL

FACTORS = ("T", "K", "L")
SECTORS = ("1", "2")
T, K, L = 0, 1, 2


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Economy:
    """Static snapshot of the 3x2 economy.

    theta_share[i, j]  distributive share of factor i in sector j
    lambda_share[i, j] fraction of factor i's endowment employed in sector j
    theta_good[j]      share of good j in total income
    theta_factor[i]    share of factor i in total income
    sigma[j, i, h]     Allen-partial elasticity of substitution in sector j
    """

    theta_share: np.ndarray
    lambda_share: np.ndarray
    theta_good: np.ndarray
    theta_factor: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in _ARRAYS:
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def theta_L_over_K(self) -> float:
        return float(self.theta_factor[L] / self.theta_factor[K])

    @classmethod
    def from_shares(cls, theta_share, theta_good, sigma,
                    lambda_share=None, theta_factor=None) -> "Economy":
        """Build an economy, deriving lambda_share / theta_factor when absent.

        theta_factor[i] = sum_j theta_good[j] * theta_share[i, j] and
        lambda_share[i, j] = (theta_good[j] / theta_factor[i]) * theta_share[i, j].
        """
        theta_share = np.asarray(theta_share, dtype=float)
        theta_good = np.asarray(theta_good, dtype=float)
        if theta_factor is None:
            theta_factor = theta_share @ theta_good
        theta_factor = np.asarray(theta_factor, dtype=float)
        if lambda_share is None:
            lambda_share = _allocations(theta_share, theta_good, theta_factor)
        return cls(theta_share, lambda_share, theta_good, theta_factor, sigma)

    @classmethod
    def cobb_douglas(cls, theta_share, theta_good) -> "Economy":
        """Economy with all cross Allen elasticities equal to one.

        Diagonals follow from the zero row-sum constraint:
        sigma[j, i, i] = -(1 - theta_share[i, j]) / theta_share[i, j].
        """
        theta_share = np.asarray(theta_share, dtype=float)
        sigma = _fill_aes_diagonal(np.ones((2, 3, 3)), theta_share.T)
        return cls.from_shares(theta_share, theta_good, sigma)

    @classmethod
    def from_dict(cls, d: dict) -> "Economy":
        return cls.from_shares(
            theta_share=d["theta_share"],
            theta_good=d["theta_good"],
            sigma=d["sigma"],
            lambda_share=d.get("lambda_share"),
            theta_factor=d.get("theta_factor"),
        )

    def to_dict(self) -> dict:
        return {
            "factors": list(FACTORS),
            "sectors": list(SECTORS),
            "theta_share": self.theta_share.tolist(),
            "lambda_share": self.lambda_share.tolist(),
            "theta_good": self.theta_good.tolist(),
            "theta_factor": self.theta_factor.tolist(),
            "sigma": self.sigma.tolist(),
        }


def _allocations(th, tg, tf) -> np.ndarray:
    """lambda_share from theta_share, theta_good and theta_factor (..., 3)."""
    return th * tg[..., None, :] / tf[..., :, None]


def _finite_or_null(x: float):
    """x, or None (JSON null) where x is not finite: JSON has no infinity."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str
    magnitude: float

    def __str__(self):
        return f"{self.code}: {self.detail} (magnitude {self.magnitude:.3e})"


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str, magnitude: float):
        self.violations.append(Violation(code, detail, float(magnitude)))

    def codes(self):
        return [v.code for v in self.violations]

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"code": v.code, "detail": v.detail,
                 "magnitude": _finite_or_null(v.magnitude)}
                for v in self.violations
            ],
        }


_ARRAYS = ("theta_share", "lambda_share", "theta_good", "theta_factor", "sigma")


def check_tolerance(tol: float) -> float:
    """tol if it is finite and >= 0, as `validate_economy` needs; else ValueError."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"must be finite and >= 0, not {tol}")
    return tol


def validate_economy(e: Economy, check_ranking: bool = False,
                     tol: float = STRUCT_TOL) -> ValidationReport:
    """Check every structural constraint of the snapshot; report all violations.

    Violations are reported, never raised, so a CLI caller can show them all at
    once, except that the first non-finite array is reported alone; a `tol` that
    `check_tolerance` refuses raises. `check_ranking` also enforces the ranking
    (T/K extreme, L middle, L used intensively in sector 1).
    """
    check_tolerance(tol)
    rep = ValidationReport()
    for name in _ARRAYS:
        if not np.isfinite(getattr(e, name)).all():
            rep.add("non-finite", f"{name} contains non-finite entries", np.inf)
            return rep
    th, la, tg, tf, sg = (getattr(e, name) for name in _ARRAYS)

    def check(code, detail, mag, failed=None):  # fails, by default, past tol
        if mag > tol if failed is None else failed:
            rep.add(code, detail, mag)

    with np.errstate(all="ignore"):
        for j, mag in zip(SECTORS, abs(th.sum(axis=0) - 1.0)):
            check("share-column-sum",
                  f"distributive shares of sector {j} do not sum to 1", mag)
        for i, mag in zip(FACTORS, abs(la.sum(axis=1) - 1.0)):
            check("allocation-row-sum",
                  f"allocation shares of factor {i} do not sum to 1", mag)
        for what, x in (("good", tg), ("factor", tf)):
            check("income-share-sum", f"{what} income shares do not sum to 1",
                  abs(x.sum() - 1.0))
        check("share-link",
              "lambda_share inconsistent with (theta_good/theta_factor)*theta_share",
              np.abs(la - _allocations(th, tg, tf)).max())
        for what, x in (("distributive", th), ("allocation", la)):
            # a share outside (0, 1) makes `out` non-negative; a zero is +0, never -0
            out = np.maximum(-x, x - 1).max()
            check("share-range", f"{what} shares must lie in (0,1)",
                  out if out > 0.0 else 0.0, out >= 0.0)
        rows = abs(np.vecdot(th.T[:, None, :], sg))  # share-weighted Allen rows
        for j, s, row in zip(SECTORS, sg, rows):
            check("aes-symmetry",
                  f"Allen elasticity matrix of sector {j} is not symmetric",
                  np.abs(s - s.T).max())
            for i, f in enumerate(FACTORS):
                check("aes-diagonal-sign", f"sigma[{j}][{f}][{f}] must be negative",
                      s[i, i], s[i, i] >= 0)
                check("aes-row-sum", f"share-weighted Allen row ({f}, sector {j}) "
                      "does not sum to 0", row[i])
        if check_ranking:
            r = th[:, 0] / th[:, 1]
            # max(r_L - r_T, r_K - r_L): the first unless the second is larger
            l_minus_t, k_minus_l = r[L] - r[T], r[K] - r[L]
            check("intensity-ranking",
                  "theta_T1/theta_T2 > theta_L1/theta_L2 > theta_K1/theta_K2 fails",
                  k_minus_l if k_minus_l > l_minus_t else l_minus_t,
                  not r[T] > r[L] > r[K])
            check("middle-factor-intensity", "theta_L1 > theta_L2 fails",
                  th[L, 1] - th[L, 0], not th[L, 0] > th[L, 1])
    return rep


def intensity_ranked(th: np.ndarray) -> np.ndarray:
    """The assumed factor-intensity ranking over shares th (..., 3, 2):
    theta_T1/theta_T2 > theta_L1/theta_L2 > theta_K1/theta_K2 and
    theta_L1 > theta_L2."""
    r = th[..., 0] / th[..., 1]
    return ((r[..., T] > r[..., L]) & (r[..., L] > r[..., K])
            & (th[..., L, 0] > th[..., L, 1]))


def is_ranked(e: Economy) -> bool:
    """True iff the snapshot satisfies the assumed factor-intensity ranking."""
    return bool(intensity_ranked(e.theta_share))


def epsilon(e: Economy) -> np.ndarray:
    """Price elasticities of the input-output coefficients.

    eps[j, i, h] = theta_share[h, j] * sigma[j, i, h]; each (i, j) row sums
    to zero because a_ij is homogeneous of degree zero in factor prices.
    """
    return _epsilon(e.theta_share, e.sigma)


def _epsilon(th, sigma):
    """`epsilon` over leading axes: th (..., 3, 2), sigma (..., 2, 3, 3)."""
    return th.swapaxes(-1, -2)[..., :, None, :] * sigma


def _ews(la, eps):
    """EWS matrices (..., 3, 3) from allocations (..., 3, 2) and eps."""
    return np.einsum("...ij,...jih->...ih", la, eps)


@dataclass(frozen=True)
class EwsMatrix:
    """3x3 matrix of economy-wide substitution terms with its share context."""

    g: np.ndarray
    theta_factor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", _readonly(self.g))
        object.__setattr__(self, "theta_factor", _readonly(self.theta_factor))

    @property
    def g_LK(self) -> float:
        return float(self.g[L, K])

    @property
    def g_LT(self) -> float:
        return float(self.g[L, T])

    @property
    def g_KT(self) -> float:
        return float(self.g[K, T])

    @property
    def theta_L_over_K(self) -> float:
        return float(self.theta_factor[L] / self.theta_factor[K])

    def row_sums(self) -> np.ndarray:
        return self.g.sum(axis=1)

    def reciprocity_residuals(self) -> np.ndarray:
        """Residuals of theta_i * g_ih - theta_h * g_hi (zero in exact arithmetic)."""
        w = self.theta_factor[:, None] * self.g
        return w - w.T

    def sign_triple(self) -> tuple:
        return (int(np.sign(self.g[L, K])), int(np.sign(self.g[L, T])),
                int(np.sign(self.g[K, T])))

    def determinant_identity(self) -> tuple:
        """Three algebraically equal forms of the KT-block determinant.

        Returns (g_KK*g_TT - g_TK*g_KT, the pairwise-product form, the
        share-ratio form), equal in exact arithmetic; positive when both sectors
        are strictly concave (`_concave`), which `validate_economy` does not test.
        """
        g, tf = self.g.tolist(), self.theta_factor.tolist()
        lhs = g[K][K] * g[T][T] - g[T][K] * g[K][T]
        mid = g[K][T] * g[T][L] + g[K][L] * g[T][K] + g[K][L] * g[T][L]
        ltk, lkk = tf[L] / tf[T], tf[L] / tf[K]
        rhs = ltk * (g[K][T] * (g[L][T] + g[L][K]) + lkk * g[L][K] * g[L][T])
        return lhs, mid, rhs


def ews_matrix(e: Economy) -> EwsMatrix:
    """Aggregate the sectoral substitution elasticities into the EWS matrix.

    g[i, h] = sum_j lambda_share[i, j] * eps[j, i, h], the economy-wide
    substitution towards factor i when factor h becomes more expensive,
    holding sector outputs constant.
    """
    return EwsMatrix(_ews(e.lambda_share, epsilon(e)), e.theta_factor)


@dataclass(frozen=True)
class RatioPoint:
    """A point (S', U') in the EWS-ratio plane.

    Carries the theta_L/theta_K ratio the boundary hyperbola needs, and the
    sign of g_LT the ratios were formed from (the region inequality flips
    with it).
    """

    s: float
    u: float
    theta_L_over_K: float
    g_LT_sign: int = 1

    def coords(self) -> tuple:
        return (self.s, self.u)


def _ews_ratios(g) -> tuple:
    """(S', U') = (g_LK/g_LT, g_KT/g_LT) of EWS matrices g (..., 3, 3); NaN
    where g_LT is zero, |g_LT| < ZERO_TOL."""
    g_LT = g[..., L, T]
    g_LT = np.where(abs(g_LT) < ZERO_TOL, np.nan, g_LT)
    return g[..., L, K] / g_LT, g[..., K, T] / g_LT


def ews_ratio_vector(g: EwsMatrix) -> RatioPoint:
    """The ratio point of one EWS matrix; raises where `_ews_ratios` has none."""
    s, u = _ews_ratios(g.g)
    if np.isnan(s):
        raise DegenerateDenominator(
            f"g_LT = {g.g_LT:.3e}; the EWS-ratio vector is undefined")
    return RatioPoint(float(s), float(u), g.theta_L_over_K,
                      1 if g.g_LT > 0 else -1)


SUBSTITUTE = "economy-wide substitute"
SUBSTITUTE_BORDERLINE = "economy-wide substitute (borderline)"
COMPLEMENT = "economy-wide complement"

_PAIRS = ((L, K), (L, T), (K, T))


def classify_substitutes(g: EwsMatrix) -> dict:
    """Label each factor pair by the sign of its off-diagonal EWS term.

    Strictly positive -> substitute, strictly negative -> complement; an
    exact zero gets the borderline substitute label (only strict signs are
    meaningful in the model).
    """
    out = {}
    for i, h in _PAIRS:
        v = g.g[i, h]
        if v > 0:
            label = SUBSTITUTE
        elif v < 0:
            label = COMPLEMENT
        else:
            label = SUBSTITUTE_BORDERLINE
        out[(FACTORS[i], FACTORS[h])] = label
    return out


def _aes_diagonal(sig, th) -> tuple:
    """(sigma_TT, sigma_KK, sigma_LL) that make every share-weighted row of
    the Allen matrix sig[i][h] sum to zero at distributive shares th[i];
    floats or arrays."""
    return (-(sig[T][K] * th[K] + sig[T][L] * th[L]) / th[T],
            -(sig[K][T] * th[T] + sig[K][L] * th[L]) / th[K],
            -(sig[L][T] * th[T] + sig[L][K] * th[K]) / th[L])


def _fill_aes_diagonal(sig: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """Set the diagonals of sig (..., 3, 3) so that every row weighted by
    shares (..., 3) sums to zero."""
    sig = np.array(sig, dtype=float)
    rows = sig.T.swapaxes(0, 1)  # rows[i, h] is sig[..., i, h], axes reversed
    rows[T, T], rows[K, K], rows[L, L] = _aes_diagonal(rows, np.asarray(shares).T)
    return sig


def _dirichlet(e: np.ndarray) -> np.ndarray:
    """Unit-alpha Dirichlet draws from standard exponentials e (..., k): each
    row times 1 / its left-to-right sum, bit for bit rng.dirichlet(np.ones(k))
    on the stream that drew e, without its checks of alpha."""
    acc = e[..., 0]
    for j in range(1, e.shape[-1]):
        acc = acc + e[..., j]
    return e * (1.0 / acc)[..., None]


#: candidates per block, of production rounds (rewound) and of share-level draws (whole)
_BLOCK, _SHARE_BLOCK = 32, 64


def _draw_shares(rngs: dict, left, min_share: float, ranked: bool) -> dict:
    """The production rounds' next shares (3, 2) of each generator rngs[k], by
    k, out of its next left[k] candidates, that pass the floor and, if
    `ranked`, the ranking; `left` loses the candidates used. The blocks of all
    generators still searching are tested as one array; on a hit at i the
    generator is rewound and redraws i + 1, as one at a time."""
    out, e = {}, np.empty((len(rngs) * _BLOCK, 2, 3))
    live = [k for k in rngs if left[k] > 0]  # a budget below one draws nothing
    while live:
        states = []
        for r, k in enumerate(live):
            states.append(rngs[k].bit_generator.state)
            n = min(left[k], _BLOCK)
            if n < _BLOCK:
                e[r * _BLOCK + n:(r + 1) * _BLOCK] = np.nan  # past the budget: no hit
            rngs[k].standard_exponential(out=e[r * _BLOCK:r * _BLOCK + n])
        sh = _dirichlet(e[:len(live) * _BLOCK])
        ok = (sh >= min_share).all(axis=(-2, -1))
        if ranked:
            ok &= intensity_ranked(sh.swapaxes(-1, -2))
        still, first = [], ok.reshape(-1, _BLOCK).argmax(axis=1).tolist()
        for r, (k, i) in enumerate(zip(live, first)):
            if ok[r * _BLOCK + i]:
                rngs[k].bit_generator.state = states[r]
                rngs[k].standard_exponential(6 * (i + 1))
                out[k] = sh[r * _BLOCK + i].T
                left[k] -= i + 1
            else:
                left[k] -= min(left[k], _BLOCK)
                if left[k]:
                    still.append(k)
        live = still
    return out


def _concave(s, th) -> bool:
    """Whether M = diag(th) s diag(th) (M 1 = 0) is strictly concave: its other
    two eigenvalues, of sum tr M and product e2 (the sum of M's principal 2x2
    minors), are both <= -tol iff tr <= -2 tol and tol^2 + tol tr + e2 >= 0."""
    (a, b, c), tol = th, CONCAVITY_TOL
    tt, kk, ll = a * a * s[T][T], b * b * s[K][K], c * c * s[L][L]
    tk, tl, kl = a * b * s[T][K], a * c * s[T][L], b * c * s[K][L]
    e2 = tt * kk - tk * tk + tt * ll - tl * tl + kk * ll - kl * kl
    return (tr := tt + kk + ll) <= -2.0 * tol and tol * (tol + tr) + e2 >= 0.0


def sample_economy_shares(seed, ranked: bool = True, min_share: float = 0.02,
                          max_draws: int = 100_000) -> Economy:
    """Rejection-sample a valid economy directly at the share/AES level.

    Unlike the production-backed sampler this draws the Allen matrices freely, so
    it reaches substitution patterns no single-nest CES technology can produce.
    Deterministic for a fixed seed. Each block draws rows of eight exponentials
    (shares by sector, then goods), then rows of six uniforms (TK, TL, KL by
    sector); one array pass tests the floors and ranking, `_concave` each sector
    of the rows that pass, and the first to pass is kept (a Generator passed in
    ends after its block); `max_draws` caps the rows tested. The rest holds by
    construction. Each check of `validate_economy`: non-finite, no divisor is
    below 0.02 * 0.01; the sums, each is of terms scaled by one over their sum,
    or of such sums, so a few ulp; share-link, lambda_share is `_allocations`;
    share-range, the floors keep shares in [0.02, 0.96] and allocations 0.0002
    from 0 and 1; aes-*, sigma is symmetric, `_aes_diagonal` zeroes its rows and
    its diagonal is negative (below); ranking, the block pass did it. Every EWS
    property follows from strict concavity (Jones and Easton 1983): H =
    diag(theta_factor) g = sum_j theta_good[j] M_j, each M_j the matrix
    `_concave` tests, so H is symmetric, H 1 = 0 and H <= -tol on 1-perp. No e_i
    is in span(1), so each M_ii (hence sigma^j_ii) and H_ii is at most -2/3 tol;
    two negative off-diagonals share a row of zero sum and negative diagonal, so
    at most one pair is complementary; the KT block of H is at most -tol/3, so
    each `determinant_identity` form, det H_KT / (theta_K theta_T), is positive.
    Rounding moves H by a few ulp of |M| <= 3, far inside these margins.
    """
    if not 0.0 <= min_share < 1.0:
        raise ValueError(f"min_share must lie in [0, 1), not {min_share}")
    rng = np.random.default_rng(seed)
    for start in range(0, max_draws, _SHARE_BLOCK):  # none below one candidate
        e = rng.standard_exponential((_SHARE_BLOCK, 8))
        u = rng.uniform(-3.0, 6.0, size=(_SHARE_BLOCK, 6))
        sh, tg = _dirichlet(e[:, :6].reshape(-1, 2, 3)), _dirichlet(e[:, 6:])
        ok = (sh >= min_share).all(axis=(1, 2)) & (tg >= 0.01).all(axis=1)
        if ranked:
            ok &= intensity_ranked(sh.swapaxes(1, 2))
        for i in ok[:max_draws - start].nonzero()[0].tolist():
            x, sigma = u[i].tolist(), []
            for th, (tk, tl, kl) in zip(sh[i].tolist(), (x[:3], x[3:])):
                s = [[0.0, tk, tl], [tk, 0.0, kl], [tl, kl, 0.0]]
                s[T][T], s[K][K], s[L][L] = _aes_diagonal(s, th)
                if not _concave(s, th):
                    break
                sigma.append(s)
            else:
                return Economy.from_shares(sh[i].T, tg[i], sigma)
    raise ExhaustedRejection(
        f"no valid share-level economy within {max_draws} draws")
