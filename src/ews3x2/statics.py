"""Linearized comparative statics: the 5x5 hat-system and its solver.

Everything here works in rates of change (hat calculus): an asterisked
variable x* = dx/x. The solver returns factor-price and output responses to
goods-price / endowment shocks, with the ranking and sign letter of each
response; the data-side checks of the sign lemmas are in `estimate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import SingularSystem
from .model import Economy, _epsilon, _ews
from .tolerances import COND_LIMIT, RESIDUAL_TOL, SCALE_FLOOR, ZERO_TOL


@cache
def _identity(n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n), (n, n))  # read-only, one per size


def solve_partial_pivot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve small dense systems by LAPACK LU with partial pivoting (gesv).

    a is (..., n, n); b is a stack of vectors (..., n) when it has one
    dimension fewer than a, else of matrices (..., n, k), and the leading
    axes of a and b broadcast against each other. One factorisation per
    member solves for [b | I], which yields both x and the inverse; if any
    member's 1-norm condition number ||A||_1 ||A^-1||_1 exceeds COND_LIMIT or
    is not finite, SingularSystem is raised.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.shape[-1]
    if vectors := b.ndim == a.ndim - 1:
        b = b[..., None]
    k = b.shape[-1]
    rhs = np.empty(b.shape[:-1] + (k + n,))  # the solve broadcasts a against it
    rhs[..., :k] = b
    rhs[..., k:] = _identity(n)
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"LU factorisation failed: {exc}") from None
    x, inv = sol[..., :k], sol[..., k:]
    cond = (np.abs(a).sum(axis=-2).max(axis=-1)
            * np.abs(inv).sum(axis=-2).max(axis=-1))
    if not (cond <= COND_LIMIT).all():
        raise SingularSystem(
            f"1-norm condition {np.max(cond):.3e} is not finite or exceeds "
            f"{COND_LIMIT:.1e}")
    return x[..., 0] if vectors else x


def _scale(x) -> float:
    return max(float(np.abs(x).max()), SCALE_FLOOR)


@dataclass(frozen=True)
class Shock:
    """Exogenous rates of change: goods prices p_star (2,) and endowments v_star (3,)."""

    p_star: np.ndarray
    v_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_star", np.array(self.p_star, dtype=float))
        object.__setattr__(self, "v_star", np.array(self.v_star, dtype=float))

    @property
    def relative_price_change(self) -> float:
        """P = p_1* - p_2*."""
        return float(self.p_star[0] - self.p_star[1])

    @cached_property
    def zero_band(self) -> float:
        """ZERO_TOL times the shock's largest rate: the solver side's band in
        which a rate is zero and two rates tie, whatever the shock's scale."""
        return ZERO_TOL * _scale(np.concatenate([self.p_star, self.v_star]))

    @classmethod
    def price(cls, P: float) -> "Shock":
        return cls(np.array([P, 0.0]), np.zeros(3))

    @classmethod
    def endowment(cls, i: int, rate: float = 1.0) -> "Shock":
        v = np.zeros(3)
        v[i] = rate
        return cls(np.zeros(2), v)

    @classmethod
    def from_dict(cls, d: dict) -> "Shock":
        return cls(np.asarray(d["p_star"], dtype=float),
                   np.asarray(d["v_star"], dtype=float))

    def to_dict(self) -> dict:
        return {"p_star": self.p_star.tolist(), "v_star": self.v_star.tolist()}


_SIGN_LABELS = {
    (-1, 1, -1): "A",
    (-1, 1, 1): "B",
    (1, 1, -1): "C",
    (-1, -1, 1): "D",
    (1, -1, 1): "E",
    (1, -1, -1): "F",
}

RANKINGS_UNDER_ASSUMPTIONS = ("X>Y>Z", "X>Z>Y", "Z>X>Y", "Z>Y>X")


def ranking_label(xyz, tol: float = ZERO_TOL) -> str:
    """Order the real factor-price changes (X, Y, Z); 'tie' if any pair is within tol."""
    x, y, z = xyz
    if abs(x - y) < tol or abs(x - z) < tol or abs(y - z) < tol:
        return "tie"
    names = ["X", "Y", "Z"]
    order = sorted(range(3), key=lambda i: -xyz[i])
    return ">".join(names[i] for i in order)


def sign_label(triple, dead_band: float = ZERO_TOL):
    """Map a sign triple of (a_T0', a_K0', a_L0') to its letter A..F, or None."""
    x, y, z = np.asarray(triple, dtype=float).tolist()
    if abs(x) < dead_band or abs(y) < dead_band or abs(z) < dead_band:
        return None
    return _SIGN_LABELS.get(((x > 0) - (x < 0), (y > 0) - (y < 0), (z > 0) - (z < 0)))


@dataclass(frozen=True)
class Response:
    """Solved hat-variables for one shock, plus derived diagnostics.

    w_star (3,), x_star (2,), a_star[i, j] (3, 2), a0_prime (3,) the
    allocation-weighted aggregate of a_star, W[i, h] = w_i* - w_h*,
    xyz = w* - p_1* (real factor-price changes), H[j] the per-sector
    isoquant/isocost diagnostic (scaled by 1/p_j), H0 its aggregate.
    """

    shock: Shock
    w_star: np.ndarray
    x_star: np.ndarray
    a_star: np.ndarray
    a0_prime: np.ndarray
    W: np.ndarray
    xyz: np.ndarray
    H: np.ndarray
    H0: float
    ranking: str
    label: object  # letter A..F or None

    def to_dict(self) -> dict:
        return {
            "w_star": self.w_star.tolist(),
            "x_star": self.x_star.tolist(),
            "a_star": self.a_star.tolist(),
            "a0_prime": self.a0_prime.tolist(),
            "W": self.W.tolist(),
            "xyz": self.xyz.tolist(),
            "H": self.H.tolist(),
            "H0": self.H0,
            "ranking": self.ranking,
            "sign_label": self.label,
            "P": self.shock.relative_price_change,
        }


def _hat_matrices(th, la, g) -> np.ndarray:
    """Coefficient matrices (..., 5, 5) of the hat-system in
    (w_T*, w_K*, w_L*, X_1*, X_2*), from shares th and allocations la
    (..., 3, 2) and EWS matrices g (..., 3, 3).

    Rows 1-2: zero-profit in rates, sum_i theta_ij w_i* = p_j*.
    Rows 3-5: full employment in rates, sum_h g_ih w_h* + sum_j lambda_ij X_j* = V_i*.
    """
    m = np.zeros(g.shape[:-2] + (5, 5))
    m[..., :2, :3] = th.swapaxes(-1, -2)
    m[..., 2:, :3] = g
    m[..., 2:, 3:] = la
    return m


def _solve_hats(th, la, sigma, rhs) -> tuple:
    """Solve the hat-systems of economies stacked on a leading axis.

    th, la (N, 3, 2) and sigma (N, 2, 3, 3) are their shares, allocations
    and Allen elasticities; rhs (..., 5, k) holds right-hand sides that
    broadcast against them. One factorisation per member covers all k
    columns. Returns x (N, 5, k) and the price elasticities eps
    (N, 2, 3, 3). Raises SingularSystem when any member is ill-conditioned,
    or when any member's column has a residual |M x - rhs| above
    RESIDUAL_TOL * max(1, |rhs|, |M| |x|) in the max norm, a bound that a
    backward-stable solve meets however large x is.
    """
    eps = _epsilon(th, sigma)
    m = _hat_matrices(th, la, _ews(la, eps))
    x = solve_partial_pivot(m, rhs)
    resid = np.abs(m @ x - rhs).max(axis=-2)
    scale = np.maximum(1.0, np.maximum(abs(rhs), abs(m) @ abs(x)).max(axis=-2))
    if not np.all(resid <= RESIDUAL_TOL * scale):
        raise SingularSystem(
            f"hat-system residual {np.max(resid):.3e} too large")
    return x, eps


def _response(e: Economy, s: Shock, x: np.ndarray, eps: np.ndarray) -> Response:
    """Every derived rate-of-change field from the solution x (5,) for s."""
    w_star = x[:3]
    x_star = x[3:]
    # a_ij* = sum_h eps[j, i, h] w_h*
    a_star = np.einsum("jih,h->ij", eps, w_star)
    a0_prime = np.einsum("ij,ij->i", e.lambda_share, a_star)
    W = w_star[:, None] - w_star[None, :]
    xyz = w_star - s.p_star[0]
    H = np.einsum("i,ij,ij->j", w_star, a_star, e.theta_share)
    H0 = float(w_star @ (a0_prime * e.theta_factor))
    return Response(
        shock=s, w_star=w_star, x_star=x_star, a_star=a_star,
        a0_prime=a0_prime, W=W, xyz=xyz, H=H, H0=H0,
        ranking=ranking_label(xyz.tolist(), s.zero_band),
        label=sign_label(a0_prime, s.zero_band),
    )


def solve_linear(e: Economy, s: Shock) -> Response:
    """Solve the hat-system and populate every derived rate-of-change field."""
    x, eps = _solve_hats(e.theta_share[None], e.lambda_share[None], e.sigma[None],
                         np.concatenate([s.p_star, s.v_star])[None, :, None])
    return _response(e, s, x[0, :, 0], eps[0])


#: right-hand sides of the Rybczynski solve: column i has p* = 0 and a unit
#: v* on factor i
_ENDOWMENT_RHS = np.eye(5, 3, k=-2)


def rybczynski_matrix(e: Economy) -> tuple:
    """Output responses to unit endowment changes at fixed goods prices.

    Returns (values, signs): values[j, i] = X_j*/V_i* from one solve whose
    three right-hand sides have p* = 0 and a unit v_star on factor i; signs is
    the elementwise sign matrix.
    """
    x, _ = _solve_hats(e.theta_share[None], e.lambda_share[None], e.sigma[None],
                       _ENDOWMENT_RHS[None])
    values = x[0, 3:]
    return values, np.sign(values).astype(int)


def stolper_samuelson(e: Economy, P: float, time_reversal: bool = False) -> Response:
    """Pure goods-price shock p* = (P, 0), v* = 0.

    The ranking lemma assumes P > 0; a negative P is accepted only with
    `time_reversal`, which negates the whole shock (all rates flip sign).
    """
    if P < 0 and not time_reversal:
        raise ValueError("P < 0 requires time_reversal=True; the ranking "
                         "results assume a rising relative price of good 1")
    return solve_linear(e, Shock.price(abs(P) if time_reversal else P))
