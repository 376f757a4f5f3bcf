"""Shared fixtures: a hand-checked reference economy, targeted constructions
that place the EWS-ratio vector at a chosen point, and synthetic observation
builders used by the estimation tests."""

from __future__ import annotations

import numpy as np
import pytest

import ews3x2 as m
from ews3x2.estimate import Observation
from ews3x2.model import T, K, L


# ---------------------------------------------------------------------------
# Reference economy E0 (Cobb-Douglas shares, hand-verified throughout).

E0_THETA_SHARE = np.array([[0.45, 0.20], [0.20, 0.50], [0.35, 0.30]])
E0_THETA_GOOD = np.array([0.5, 0.5])


@pytest.fixture(scope="session")
def e0():
    return m.Economy.cobb_douglas(E0_THETA_SHARE, E0_THETA_GOOD)


# ---------------------------------------------------------------------------
# Targeted construction: both sectors share one substitution matrix, so the
# aggregate matrix factors as g_ih = sigma_ih * c_ih with
# c_ih = sum_j lambda_ij theta_hj.  Off-diagonal sigmas can then be solved
# from any target ratio point (s0, u0), up to one positive scale.

def economy_with_point(theta_share, theta_good, s0, u0):
    th = np.asarray(theta_share, dtype=float)
    tg = np.asarray(theta_good, dtype=float)
    tf = th @ tg
    lam = th * tg[None, :] / tf[:, None]
    c = np.zeros((3, 3))
    for i in range(3):
        for h in range(3):
            if i != h:
                c[i, h] = float(np.dot(lam[i], th[h]))
    t = c[L, T] / th[L, 0]
    sig = np.zeros((3, 3))
    sig[L, T] = sig[T, L] = t / c[L, T]
    sig[L, K] = sig[K, L] = s0 * t / c[L, K]
    sig[K, T] = sig[T, K] = u0 * t / c[K, T]
    sigma = np.empty((2, 3, 3))
    for j in range(2):
        s = sig.copy()
        for i in range(3):
            s[i, i] = -sum(th[h, j] * s[i, h] for h in range(3) if h != i) / th[i, j]
        sigma[j] = s
    return m.Economy.from_shares(th, tg, sigma)


def near_boundary_economy(rng, region, gap=0.03, max_draws=50_000,
                          fires=False):
    """Valid ranked economy whose ratio point sits just above the boundary
    curve inside the requested quadrant-IV subregion (P1, P2, or P3).

    With ``fires`` the economy is additionally required to make the
    subregion sufficient condition identify `region` on crafted data (the
    condition is only sufficient, so not every in-region economy triggers it).
    """
    for _ in range(max_draws):
        th = rng.dirichlet(np.ones(3), size=2).T
        if np.min(th) < 0.05:
            continue
        rt, rk, rl = th[0, 0] / th[0, 1], th[1, 0] / th[1, 1], th[2, 0] / th[2, 1]
        if not (rt > rl > rk and th[2, 0] > th[2, 1]):
            continue
        tg = rng.dirichlet(np.ones(2))
        if np.min(tg) < 0.1:
            continue
        t1, t2 = th[K, 0] / th[T, 0], th[K, 1] / th[T, 1]
        if region == "P3":
            s0 = t1 * rng.uniform(0.4, 0.8)
        elif region == "P2":
            if t1 * 1.2 >= t2 * 0.8:
                continue
            s0 = rng.uniform(t1 * 1.2, t2 * 0.8)
        else:
            s0 = t2 * rng.uniform(1.3, 2.5)
        tf = th @ tg
        r = float(tf[L] / tf[K])
        u0 = m.boundary_u(s0, r) * (1.0 - gap)
        e = economy_with_point(th, tg, s0, u0)
        if not m.validate_economy(e, check_ranking=True).ok:
            continue
        g = m.ews_matrix(e)
        if min(g.determinant_identity()) <= 0:
            continue
        if m.classify_subregion(m.ews_ratio_vector(g), e).value != region:
            continue
        if fires and not _corollary_fires(e, region, np.random.default_rng(0)):
            continue
        return e
    raise RuntimeError(f"no {region} fixture found in {max_draws} draws")


def _corollary_fires(e, region, rng, probes=2000, need=10):
    from ews3x2.estimate import corollary1_subregion, theorem1_verdict

    hits = 0
    for _ in range(probes):
        w = rng.normal(size=3)
        if not (w[0] > w[2] > w[1]):
            continue
        p = e.theta_share.T @ w
        if p[0] - p[1] <= 1e-9:
            continue
        obs = crafted_observation(e, w, p)
        v = theorem1_verdict(obs)
        if v.verdict != "quadrant IV":
            continue
        if corollary1_subregion(obs, v).verdict == region:
            hits += 1
            if hits >= need:
                return True
    return False


# ---------------------------------------------------------------------------
# Synthetic observations.  Given an economy and a factor-price response w*,
# the technique response follows from the aggregate-substitution tensor, so
# the observation is internally consistent by construction.

def crafted_observation(e, w_star, p_star=None):
    eps = m.epsilon(e)
    w = np.asarray(w_star, dtype=float)
    p = e.theta_share.T @ w if p_star is None else np.asarray(p_star, dtype=float)
    return Observation(
        theta_share=e.theta_share,
        theta_good=e.theta_good,
        p_star=p,
        w_star=w,
        a_star=np.einsum("jih,h->ij", eps, w),
    )


def crafted_case_observations(e, rng, count, require_verdict=None):
    """Draw crafted observations with ranking X > Z > Y and positive relative
    price change; optionally keep only those reaching a given verdict."""
    from ews3x2.estimate import theorem1_verdict

    out = []
    tries = 0
    while len(out) < count and tries < 400 * count:
        tries += 1
        w = rng.normal(size=3)
        if not (w[0] > w[2] > w[1]):
            continue
        p = e.theta_share.T @ w
        if p[0] - p[1] <= 1e-9:
            continue
        obs = crafted_observation(e, w, p)
        if require_verdict is not None:
            if theorem1_verdict(obs).verdict != require_verdict:
                continue
        out.append(obs)
    if len(out) < count:
        raise RuntimeError("could not craft enough observations")
    return out


# ---------------------------------------------------------------------------
# Mixed economy pool: alternate the production-backed sampler and the raw
# share-level sampler so every admissible sign pattern is reachable.

def mixed_pool(seed, size, produced=None):
    """Economies of seeds seed, seed + 1, ...: the share-level sampler's at
    even offsets, the production-backed sampler's, in one batch, at odd ones;
    `produced` is that batch when it is already drawn."""
    produced = iter(produced or m.sample_economies(range(seed + 1, seed + size, 2),
                                                   m.SampleConstraints(ranked=True)))
    return [next(produced).economy if k % 2 else m.sample_economy_shares(seed + k)
            for k in range(size)]


@pytest.fixture(scope="session")
def share_samples():
    """(economy, end generator state) of `sample_economy_shares` on
    default_rng(seed), seeds 0-4,999, by `ranked`: one draw per seed and mode
    serves every share-sampler test."""
    out = {}
    for ranked in (True, False):
        out[ranked] = []
        for seed in range(5000):
            rng = np.random.default_rng(seed)
            out[ranked].append((m.sample_economy_shares(rng, ranked),
                                rng.bit_generator.state))
    return out


# ---------------------------------------------------------------------------
# Second routes to results the library computes one way, kept as checks.

def line_boundary_roots(line, theta_L_over_K):
    """S' roots, smaller first, of the vector line meeting the boundary:
    a1*S'^2 - (b1 - a1 + r)*S' - b1 = 0 with r = theta_L/theta_K. Raises
    Ews3x2Error on a horizontal line or a discriminant below 1e-14 (a line
    tangent to or missing the hyperbola)."""
    qa, qb, qc = line.a1, -(line.b1 - line.a1 + theta_L_over_K), -line.b1
    disc = qb * qb - 4.0 * qa * qc
    if abs(qa) < 1e-15 or disc < 1e-14:
        raise m.Ews3x2Error(f"slope {qa:.3e}, discriminant {disc:.3e}: "
                            "no two intersections")
    sq = np.sqrt(disc)
    return tuple(sorted(((-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa))))


def h0_eliminations(w, a0, tf):
    """H0 = sum_i w_i* a_i0' theta_i with one factor eliminated through
    sum_i a_i0' theta_i = 0, for each of L, K and T: three algebraically
    equal forms."""
    return (float((w[T] - w[L]) * a0[T] * tf[T] + (w[K] - w[L]) * a0[K] * tf[K]),
            float((w[T] - w[K]) * a0[T] * tf[T] + (w[L] - w[K]) * a0[L] * tf[L]),
            float((w[K] - w[T]) * a0[K] * tf[K] + (w[L] - w[T]) * a0[L] * tf[L]))
