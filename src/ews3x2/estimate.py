"""Two-period estimation pipeline: locate the EWS-ratio vector from data.

Given base-period shares and observed rates of change, the pipeline computes
the segment endpoints A and B, applies the quadrant-IV sufficient condition,
runs the subregion sign tests, and reports a Rybczynski sign-pattern verdict
with full diagnostics. All decisions are sign-based with a relative dead
band: measured rates inside the band yield "ambiguous", never a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateObservation, DegenerateShares,
                     UnsupportedRanking, ZeroP)
from .geometry import (RYBCZYNSKI_PATTERNS, SubregionLabel, endpoint_a,
                       endpoint_b, quadrant, r_thresholds)
from .model import (FACTORS, K, L, RatioPoint, T, _allocations,
                    _finite_or_null)
from .statics import _scale, ranking_label, sign_label
from .tolerances import DATA_TOL, DEAD_BAND, SCALE_FLOOR


@dataclass(frozen=True)
class Observation:
    """Base-period shares plus observed rates of change between two periods.

    Either per-sector a_star (3, 2) or the aggregates a0_prime (3,) must be
    present; when a_star is given the aggregates are recomputed from it.
    """

    theta_share: np.ndarray
    theta_good: np.ndarray
    p_star: np.ndarray
    w_star: np.ndarray
    a_star: np.ndarray | None = None
    a0_prime: np.ndarray | None = None

    def __post_init__(self):
        for name in ("theta_share", "theta_good", "p_star", "w_star"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        if self.a_star is not None:
            object.__setattr__(self, "a_star", np.array(self.a_star, dtype=float))
        elif self.a0_prime is not None:
            object.__setattr__(self, "a0_prime", np.array(self.a0_prime, dtype=float))
        else:
            raise DegenerateObservation("need a_star or a0_prime")
        self._aggregate()

    def _aggregate(self):
        """Recompute a0_prime from a_star, when a_star is given."""
        if self.a_star is not None:
            object.__setattr__(self, "a0_prime",
                               np.einsum("ij,ij->i", self.lambda_share, self.a_star))

    @cached_property
    def theta_factor(self) -> np.ndarray:
        return self.theta_share @ self.theta_good

    @property
    def lambda_share(self) -> np.ndarray:
        return _allocations(self.theta_share, self.theta_good, self.theta_factor)

    @property
    def P(self) -> float:
        return self.p_star.item(0) - self.p_star.item(1)

    @property
    def xyz(self) -> np.ndarray:
        return self.w_star - self.p_star[0]

    @cached_property
    def rate_scale(self) -> float:
        a = () if self.a_star is None else self.a_star
        rates = (self.p_star, self.w_star, self.a0_prime, a)
        return _scale(np.concatenate(rates, axis=None))

    @cached_property
    def labels(self) -> tuple:
        """(ranking of xyz, sign letter of a0_prime) in the dead band."""
        band, p1 = DEAD_BAND * self.rate_scale, self.p_star.item(0)
        return (ranking_label([w - p1 for w in self.w_star.tolist()], tol=band),
                sign_label(self.a0_prime, band))

    @classmethod
    def from_dict(cls, d: dict) -> "Observation":
        return cls(theta_share=d["theta_share"], theta_good=d["theta_good"],
                   p_star=d["p_star"], w_star=d["w_star"],
                   a_star=d.get("a_star"), a0_prime=d.get("a0_prime"))

    def to_dict(self) -> dict:
        out = {
            "theta_share": self.theta_share.tolist(),
            "theta_good": self.theta_good.tolist(),
            "p_star": self.p_star.tolist(),
            "w_star": self.w_star.tolist(),
            "a0_prime": self.a0_prime.tolist(),
        }
        if self.a_star is not None:
            out["a_star"] = self.a_star.tolist()
        return out


def observation_from_response(e, resp) -> Observation:
    """Synthetic observation from an economy snapshot and a solved response."""
    return Observation(theta_share=e.theta_share, theta_good=e.theta_good,
                       p_star=resp.shock.p_star, w_star=resp.w_star,
                       a_star=resp.a_star)


def _float_scale(v) -> float:
    """statics._scale on floats; SCALE_FLOOR first, so a NaN is skipped, never kept."""
    return max(SCALE_FLOOR, *map(abs, v))


def _signed(value: float, scale: float) -> int:
    """Sign with the relative dead band DEAD_BAND; 0 means 'ambiguous'."""
    if abs(value) < DEAD_BAND * scale:
        return 0
    return 1 if value > 0 else -1


@dataclass(frozen=True)
class PreprocessInfo:
    permutation: tuple  # role order: which input factor fills (T, K, L)
    reversed: bool


def preprocess(obs: Observation, time_reversal: bool = False) -> tuple:
    """Normalize an observation to the assumed ranking and sign conventions.

    Factor labels are permuted so the intensity ranking holds with L the
    middle factor; a negative relative-price change is flipped (all rates
    negated) only when `time_reversal` is set. Returns (obs, PreprocessInfo);
    a rate that is not finite raises DegenerateObservation.
    """
    th = obs.theta_share.tolist()
    for name, shares in (("distributive", th[T] + th[K] + th[L]),
                         ("goods income", obs.theta_good.tolist())):
        if not all(v > 0.0 for v in shares):  # ratios need them positive; NaN fails
            raise DegenerateShares(f"a {name} share is not positive")
    r = [t1 / t2 for t1, t2 in th]
    order = sorted(range(3), key=r.__getitem__, reverse=True)
    perm = (order[0], order[2], order[1])  # T = max ratio, K = min, L = middle
    # model.intensity_ranked on the relabelled rows th[perm[i]]
    if not (r[perm[T]] > r[perm[L]] > r[perm[K]] and th[perm[L]][0] > th[perm[L]][1]):
        raise UnsupportedRanking(
            "no relabeling gives strict intensity ratios with the middle "
            "factor used intensively in sector 1; this configuration is out "
            "of scope")
    P, scale = obs.P, obs.rate_scale
    if not math.isfinite(scale):
        raise DegenerateObservation("a rate of change is not finite")
    if _signed(P, scale) == 0:
        raise ZeroP("relative goods-price change is zero; nothing to estimate")
    flipped = P < 0 and time_reversal
    sign = -1.0 if flipped else 1.0
    # no constructor copies: these arrays are new (theta_good, never written, is
    # shared); relabelling and sign flips keep rate magnitudes, so the scale stays
    out, a = Observation.__new__(Observation), obs.a_star
    vars(out).update(theta_share=obs.theta_share.take(perm, 0), theta_good=obs.theta_good,
                     rate_scale=scale,
                     p_star=sign * obs.p_star, w_star=sign * obs.w_star.take(perm),
                     a_star=None if a is None else sign * a.take(perm, 0),
                     a0_prime=None if a is not None else sign * obs.a0_prime.take(perm))
    out._aggregate()
    return out, PreprocessInfo(perm, flipped)


def point_a(obs: Observation) -> RatioPoint:
    """Segment endpoint A from the factor-price changes alone."""
    w = obs.w_star.tolist()
    scale = _float_scale(w)
    if _signed(w[K] - w[L], scale) == 0 or _signed(w[K] - w[T], scale) == 0:
        raise DegenerateObservation("W_KL or W_KT inside the dead band; point A undefined")
    # theta_factor stays an array: an entry underflowed to 0 divides to inf, not an error
    return endpoint_a(w, obs.theta_factor)


def point_b(obs: Observation) -> RatioPoint:
    """Segment endpoint B from the aggregate input-coefficient changes."""
    a0 = obs.a0_prime.tolist()
    scale = _float_scale(a0)
    if _signed(a0[T], scale) == 0 or _signed(a0[L], scale) == 0:
        raise DegenerateObservation("a_T0' or a_L0' inside the dead band; point B undefined")
    return endpoint_b(a0, obs.theta_factor)


@dataclass(frozen=True)
class Theorem1Verdict:
    verdict: str  # "quadrant IV", "quadrant IV (case D, reversed bounds)", "inconclusive"
    ranking: str
    a0_label: object
    point_a: RatioPoint | None
    point_b: RatioPoint | None
    bounds: dict | None  # s_low < S' < s_high, u_high > U' > u_low
    failed_preconditions: tuple = ()

    @property
    def quadrant_iv(self) -> bool:
        return self.verdict.startswith("quadrant IV")


def theorem1_verdict(obs: Observation) -> Theorem1Verdict:
    """Quadrant-IV sufficient condition plus the segment bounds it implies.

    The condition: rising relative price of good 1, realized ranking X>Z>Y,
    and aggregate sign pattern (+, +, -). When it holds, both endpoints are
    in quadrant IV, A left of B, and the ratio vector is bracketed by them.
    """
    failed = []
    ranking, label = obs.labels
    if _signed(obs.P, obs.rate_scale) <= 0:
        failed.append("relative price change P > 0")
    if ranking != "X>Z>Y":
        failed.append(f"factor-price-change ranking X>Z>Y (got {ranking})")
    if label != "C" and label != "D":
        failed.append(f"aggregate sign pattern (+, +, -) (got label {label})")

    pa = pb = None
    try:
        pa = point_a(obs)
    except DegenerateObservation:
        failed.append("point A computable")
    try:
        pb = point_b(obs)
    except DegenerateObservation:
        failed.append("point B computable")

    if failed:
        return Theorem1Verdict("inconclusive", ranking, label, pa, pb, None,
                               tuple(failed))
    # case D: both endpoints in quadrant IV but A right of B; no subregion
    # machinery applies, so only report it
    verdict, left, right = (("quadrant IV (case D, reversed bounds)", pb, pa)
                            if label == "D" else ("quadrant IV", pa, pb))
    bounds = {"s_low": left.s, "s_high": right.s, "u_high": left.u, "u_low": right.u}
    return Theorem1Verdict(verdict, ranking, label, pa, pb, bounds)


@dataclass(frozen=True)
class CorollaryResult:
    verdict: str  # "P1", "P2", "P3", "ambiguous"
    shortcut: str | None
    chain: str | None
    tests: dict
    equivalence_mismatches: tuple


def corollary1_subregion(obs: Observation, t1v: Theorem1Verdict) -> CorollaryResult:
    """Subregion sign tests, run both as shortcuts and as raw threshold chains.

    Shortcuts use the signs of w_L* - p_j* and the point-B abscissa; chains
    compare the endpoint abscissas against the R-point thresholds directly.
    The two routes are equivalent on exact data; any disagreement (noise)
    yields 'ambiguous' with both results reported.
    """
    if not t1v.quadrant_iv or t1v.a0_label != "C":
        return CorollaryResult("not-quadrant-IV", None, None, {}, ())
    w, p, scale = obs.w_star.tolist(), obs.p_star.tolist(), obs.rate_scale
    t_1, t_2 = r_thresholds(obs.theta_share).tolist()  # S'(R_L1), S'(R_L2)
    s_a = t1v.point_a.s
    s_b = t1v.point_b.s

    sign_wl_p1 = _signed(w[L] - p[0], scale)
    sign_wl_p2 = _signed(w[L] - p[1], scale)
    thr_scale = max(t_1, t_2, abs(s_a), abs(s_b))

    shortcut = None
    if sign_wl_p2 < 0:
        shortcut = "P1"
    elif (sign_wl_p2 > 0 and sign_wl_p1 < 0
          and _signed(t_2 - s_b, thr_scale) > 0):
        shortcut = "P2"
    elif sign_wl_p1 > 0 and _signed(t_1 - s_b, thr_scale) > 0:
        shortcut = "P3"

    side_2 = _signed(s_a - t_2, thr_scale)
    side_1 = _signed(s_a - t_1, thr_scale)
    chain = None
    if side_2 > 0:
        chain = "P1"
    elif side_1 > 0 and _signed(t_2 - s_b, thr_scale) > 0:
        chain = "P2"
    elif _signed(t_1 - s_b, thr_scale) > 0:
        chain = "P3"

    # threshold/sign equivalences, from the zero-profit rows: t_j < S'_A <->
    # w_L* - p_j* < 0; a mismatch is two nonzero signs that agree
    mism = tuple(f"S'(R_L{j}) threshold vs sign(w_L* - p_{j}*)"
                 for j, side, sign_wl in ((2, side_2, sign_wl_p2),
                                          (1, side_1, sign_wl_p1))
                 if side * sign_wl > 0)

    tests = {
        "w_L_minus_p1_sign": sign_wl_p1,
        "w_L_minus_p2_sign": sign_wl_p2,
        "s_a": s_a, "s_b": s_b,
        "threshold_R_L1": t_1, "threshold_R_L2": t_2,
    }
    if shortcut is not None and shortcut == chain and not mism:
        verdict = shortcut
    else:
        verdict = "ambiguous"
    return CorollaryResult(verdict, shortcut, chain, tests, mism)


def consistency_checks(obs: Observation) -> dict:
    """Model-consistency diagnostics on measured data.

    Reports the signs of H_j and H0, the zero-profit and aggregation
    residuals, and the sign-letter memberships; violations mark the data as
    inconsistent with the 3x2 model assumptions.
    """
    failures = []
    scale = obs.rate_scale
    out = {}

    d10 = abs(float(obs.a0_prime @ obs.theta_factor))
    out["d10_residual"] = d10
    if d10 > DATA_TOL * scale:
        failures.append("aggregate input-coefficient changes do not "
                        "income-weight to zero")

    # at w* times m ~ 1/scale, a power of two, H0 and H_j come out times m and in range
    m = math.ldexp(1.0, -math.frexp(scale)[1])
    w_m, band = obs.w_star * m, (scale * m) ** 2
    h0 = float(w_m @ (obs.a0_prime * obs.theta_factor))
    out["H0"] = _finite_or_null(h0 / m)
    if _signed(h0 * m, band) > 0:
        failures.append("H0 > 0")

    if obs.a_star is not None:
        # sums over i from 0.0 in index order: the bits of einsum on C-ordered arrays
        th, a, w = obs.theta_share.tolist(), obs.a_star.tolist(), w_m.tolist()
        eq5 = [0.0 + th[T][j] * a[T][j] + th[K][j] * a[K][j] + th[L][j] * a[L][j]
               for j in (0, 1)]
        out["zero_profit_residuals"] = res = [abs(v) for v in eq5]
        if any(r > DATA_TOL * scale for r in res):
            failures.append("per-sector share-weighted a* rows do not sum to zero")
        H = [0.0 + w[T] * a[T][j] * th[T][j] + w[K] * a[K][j] * th[K][j]
             + w[L] * a[L][j] * th[L][j] for j in (0, 1)]
        out["H"] = [_finite_or_null(h / m) for h in H]
        failures += [f"H_{j} > 0" for j, h in enumerate(H, 1)
                     if _signed(h * m, band) > 0]

    out["ranking"], out["a0_label"] = ranking, agg = obs.labels
    if ranking == "X>Z>Y" and agg in ("E", "F"):
        failures.append(f"aggregate sign label {agg} excluded under ranking X>Z>Y")
    if obs.a_star is not None:
        sec = [sign_label(col, DEAD_BAND * scale) for col in zip(*a)]
        out["sector_labels"] = sec
        if ranking == "X>Z>Y":
            for j, lab in enumerate(sec):
                if lab in ("E", "F"):
                    failures.append(f"sector {j+1} sign label {lab} excluded "
                                    "under ranking X>Z>Y")
    out["consistent"] = not failures
    out["failures"] = failures
    return out


@dataclass(frozen=True)
class EstimateReport:
    P: float
    preprocess: PreprocessInfo
    theorem1: Theorem1Verdict
    corollary: CorollaryResult | None
    diagnostics: dict
    subregion_verdict: str
    rybczynski: object  # sign matrix (list) or list of candidate matrices or None

    def to_dict(self) -> dict:
        t = self.theorem1
        return {
            "P": self.P,
            "factor_permutation": list(FACTORS),
            "input_factor_roles": list(self.preprocess.permutation),
            "time_reversed": self.preprocess.reversed,
            "ranking": t.ranking,
            "a0_sign_label": t.a0_label,
            "point_a": None if t.point_a is None else list(t.point_a.coords()),
            "point_b": None if t.point_b is None else list(t.point_b.coords()),
            "point_a_quadrant": None if t.point_a is None
            else quadrant(t.point_a)[0].value,
            "point_b_quadrant": None if t.point_b is None
            else quadrant(t.point_b)[0].value,
            "bounds": t.bounds,
            "quadrant_verdict": t.verdict,
            "failed_preconditions": list(t.failed_preconditions),
            "subregion_verdict": self.subregion_verdict,
            "corollary": None if self.corollary is None else {
                "verdict": self.corollary.verdict,
                "shortcut": self.corollary.shortcut,
                "chain": self.corollary.chain,
                "tests": self.corollary.tests,
                "equivalence_mismatches": list(self.corollary.equivalence_mismatches),
            },
            "rybczynski": self.rybczynski,
            "diagnostics": self.diagnostics,
        }


def run_pipeline(obs: Observation, time_reversal: bool = False) -> EstimateReport:
    """Full estimation pipeline on one observation."""
    norm, info = preprocess(obs, time_reversal=time_reversal)
    t1v = theorem1_verdict(norm)
    diag = consistency_checks(norm)
    corol = None
    if t1v.verdict == "quadrant IV":
        corol = corollary1_subregion(norm, t1v)
        sub = corol.verdict
    elif t1v.quadrant_iv:
        sub = "quadrant-IV (case D); no subregion test applies"
    else:
        sub = "not-quadrant-IV"

    ryb = None
    if sub in ("P1", "P2", "P3"):
        ryb = RYBCZYNSKI_PATTERNS[SubregionLabel[sub]].tolist()
    elif t1v.quadrant_iv:
        ryb = [RYBCZYNSKI_PATTERNS[lab].tolist()
               for lab in (SubregionLabel.P1, SubregionLabel.P2, SubregionLabel.P3)]
    return EstimateReport(norm.P, info, t1v, corol, diag, sub, ryb)
