"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Criteria run against large seeded samples; shared pools are built once per
module. Criterion 3 checks the segment claim in the form the geometry
supports: the ratio point lies inside the chord AB exactly when A and B lie
on the same branch of the boundary hyperbola (otherwise the feasible part of
the vector line is the two outer rays, see SegmentAB), and under Theorem 1's
hypotheses the endpoints are always on one branch with the point between them.
"""

import numpy as np
import pytest

import ews3x2 as m
from ews3x2.cli import _SHOCK, _SWEEP_RHS, main as cli_main
from ews3x2.estimate import corollary1_subregion, theorem1_verdict
from ews3x2.model import K, L, T, epsilon
from ews3x2.production import _jacobian, _system
from ews3x2.statics import (RANKINGS_UNDER_ASSUMPTIONS, Shock, _response,
                            _solve_hats)

from conftest import (crafted_observation, h0_eliminations, line_boundary_roots,
                      mixed_pool)

POOL_SIZE = 10_000
BASE_SEED = 2024


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def produced():
    """The pool's production-backed economies: the sampler's draw of its odd
    seeds."""
    return m.sample_economies(range(BASE_SEED + 1, BASE_SEED + POOL_SIZE, 2),
                              m.SampleConstraints(ranked=True))


@pytest.fixture(scope="module")
def pool(produced):
    return mixed_pool(BASE_SEED, POOL_SIZE, produced)


@pytest.fixture(scope="module")
def responses(pool):
    """(economy, solve_linear(economy, P = 1)) over the pool, from one
    stacked solve of the hat-systems a sweep row solves."""
    x, eps = _solve_hats(*(np.stack([getattr(e, name) for e in pool])
                           for name in ("theta_share", "lambda_share", "sigma")),
                         _SWEEP_RHS)
    return [(e, _response(e, _SHOCK, x[n, :, 0], eps[n]))
            for n, e in enumerate(pool)]


@pytest.fixture(scope="module")
def quadrant_iv_samples():
    return m.sample_economies(range(BASE_SEED, BASE_SEED + 300),
                              m.SampleConstraints(ranked=True, quadrant="IV"))


@pytest.fixture(scope="module")
def theorem1_observations(quadrant_iv_samples):
    """Quadrant-IV verdicts (cases C and D) of 80 random endowment shocks on
    each of the first 60 quadrant-IV economies, as (economy, response,
    ratio point, verdict)."""
    rng = np.random.default_rng(BASE_SEED)
    out = []
    for s in quadrant_iv_samples[:60]:
        e = s.economy
        pt = m.ews_ratio_vector(m.ews_matrix(e))
        for _ in range(80):
            shock = Shock(p_star=np.array([1.0, 0.0]), v_star=rng.normal(size=3))
            resp = m.solve_linear(e, shock)
            v = theorem1_verdict(m.observation_from_response(e, resp))
            if v.quadrant_iv:
                out.append((e, resp, pt, v))
    return out


def test_criterion_1_structural_identities(pool):
    worst = 0.0
    triples_ok = 0
    det_ok = 0
    for e in pool:
        g = m.ews_matrix(e)
        eps = epsilon(e)
        res = max(
            float(np.abs(g.row_sums()).max()),
            float(np.abs(g.reciprocity_residuals()).max()),
            float(np.abs(eps.sum(axis=2)).max()),
            float(np.abs(e.lambda_share.sum(axis=1) - 1.0).max()),
            float(np.abs(e.lambda_share
                         - e.theta_share * e.theta_good[None, :]
                         / e.theta_factor[:, None]).max()),
        )
        worst = max(worst, res)
        if sum(v < 0 for v in g.sign_triple()) <= 1:
            triples_ok += 1
        forms = g.determinant_identity()
        scale = max(abs(forms[0]), 1e-300)
        if min(forms) > 0 and (max(forms) - min(forms)) / scale < 1e-10:
            det_ok += 1
    ok = worst < 1e-10 and triples_ok == len(pool) and det_ok == len(pool)
    assert report(1, ok, f"max residual {worst:.2e}; sign triples "
                         f"{triples_ok}/{len(pool)}; determinant forms "
                         f"{det_ok}/{len(pool)}")


def test_criterion_2_boundary_containment(pool):
    inside = 0
    total = 0
    for e in pool:
        try:
            pt = m.ews_ratio_vector(m.ews_matrix(e))
        except m.DegenerateDenominator:
            continue
        total += 1
        if m.region_contains(pt):
            inside += 1
    ok = total > 0 and inside == total
    assert report(2, ok, f"strict region inequality {inside}/{total}")


def test_criterion_3_line_and_segment(responses, theorem1_observations):
    on_line = endpoints_ok = total = 0
    same = inside_same = straddle = outside_straddle = feasible = 0
    for e, resp in responses:
        try:
            line = m.vector_line(resp, e)
            seg = m.segment_ab(line, resp, e)
            roots = line_boundary_roots(line, e.theta_L_over_K)
            pt = m.ews_ratio_vector(m.ews_matrix(e))
        except m.Ews3x2Error:
            continue  # degenerate shock for this economy
        total += 1
        if abs(pt.u - line.u_at(pt.s)) <= 1e-8 * max(1.0, abs(pt.u)):
            on_line += 1
        root_gap = max(abs(a - b) for a, b in zip(seg.s_interval(), roots))
        if root_gap <= 1e-8:
            endpoints_ok += 1
        if seg.same_branch():
            same += 1
            inside_same += seg.contains(pt)
        else:
            straddle += 1
            outside_straddle += not seg.contains(pt)
        feasible += m.region_contains(pt)

    # Theorem 1: under its hypotheses both endpoints are in quadrant IV, so
    # on one branch, and the ratio point lies on the chord between them.
    contained = 0
    for e, resp, pt, _ in theorem1_observations:
        try:
            seg = m.segment_ab(m.vector_line(resp, e), resp, e)
        except m.Ews3x2Error:
            continue  # left out of `contained`, so the criterion fails
        if seg.same_branch() and seg.contains(pt):
            contained += 1
    verdicts = len(theorem1_observations)

    ok = (total >= POOL_SIZE * 0.95 and on_line == total
          and endpoints_ok == total and feasible == total
          and same > 0 and inside_same == same
          and outside_straddle == straddle
          and verdicts > 100 and contained == verdicts)
    assert report(3, ok, f"on line {on_line}/{total}; closed-form endpoints "
                         f"{endpoints_ok}/{total}; inside chord "
                         f"{inside_same}/{same} same-branch; outside "
                         f"{outside_straddle}/{straddle} straddling; "
                         f"Theorem-1 verdicts contained {contained}/{verdicts}")


def test_criterion_4_rankings(responses):
    counts = {}
    for _, resp in responses:
        counts[resp.ranking] = counts.get(resp.ranking, 0) + 1
    only_four = set(counts) <= set(RANKINGS_UNDER_ASSUMPTIONS)
    all_four = set(counts) >= set(RANKINGS_UNDER_ASSUMPTIONS)
    assert report(4, only_four and all_four, f"realized rankings {counts}")


def test_criterion_5_sign_labels_and_negativity(responses):
    n = labels_ok = h_ok = d10_ok = dec_ok = 0
    for e, resp in responses:
        if resp.ranking != "X>Z>Y":
            continue
        n += 1
        d = m.consistency_checks(m.observation_from_response(e, resp))
        if (d["a0_label"] in ("A", "B", "C", "D")
                and all(lbl in ("A", "B", "C", "D", None)
                        for lbl in d["sector_labels"])):
            labels_ok += 1
        if all(h < 0 for h in d["H"]) and d["H0"] < 0:
            h_ok += 1
        if d["d10_residual"] < 1e-12:
            d10_ok += 1
        forms = h0_eliminations(resp.w_star, resp.a0_prime, e.theta_factor)
        if max(forms) - min(forms) < 1e-10 * max(1.0, abs(resp.H0)):
            dec_ok += 1
    ok = n > 0 and labels_ok == h_ok == d10_ok == dec_ok == n
    assert report(5, ok, f"labels {labels_ok}/{n}; negativity {h_ok}/{n}; "
                         f"aggregation residual {d10_ok}/{n}; "
                         f"decompositions {dec_ok}/{n}")


def test_criterion_6_subregion_patterns_and_bounds(quadrant_iv_samples,
                                                   theorem1_observations):
    pattern_ok = pattern_total = 0
    for s in quadrant_iv_samples:
        e = s.economy
        label = m.classify_subregion(m.ews_ratio_vector(m.ews_matrix(e)), e)
        if label.value not in ("P1", "P2", "P3"):
            continue  # border or unclassified points are out of scope
        pattern_total += 1
        _, signs = m.rybczynski_matrix(e)
        if np.array_equal(m.rybczynski_pattern(label), signs):
            pattern_ok += 1

    bracket_ok = verdicts = 0
    for _, _, pt, v in theorem1_observations:
        if v.verdict != "quadrant IV":
            continue
        verdicts += 1
        b = v.bounds
        if (b["s_low"] <= pt.s <= b["s_high"]
                and b["u_low"] <= pt.u <= b["u_high"]):
            bracket_ok += 1
    ok = (pattern_total > 0 and pattern_ok == pattern_total
          and verdicts > 100 and bracket_ok == verdicts)
    assert report(6, ok, f"sign patterns {pattern_ok}/{pattern_total}; "
                         f"bounds bracket {bracket_ok}/{verdicts}")


def test_criterion_7_equivalences(quadrant_iv_samples):
    rng = np.random.default_rng(BASE_SEED + 1)
    checked = mismatches = 0
    i = 0
    while checked < 1000:
        e = quadrant_iv_samples[i % len(quadrant_iv_samples)].economy
        i += 1
        for _ in range(40):
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
            res = corollary1_subregion(obs, v)
            checked += 1
            mismatches += len(res.equivalence_mismatches)
            if checked >= 1000:
                break
    assert report(7, mismatches == 0,
                  f"{mismatches} mismatches in {checked} observations")


def test_criterion_8_finite_difference_oracle():
    sign_ok = value_ok = 0
    n = 100
    for k in range(n):
        s = m.sample_economy(7000 + k, m.SampleConstraints(ranked=True))
        fd = m.fd_rybczynski(s.specs, s.equilibrium.p, s.equilibrium.V,
                             h=1e-4, base=s.equilibrium)
        lin, signs = m.rybczynski_matrix(s.economy)
        if np.array_equal(np.sign(fd).astype(int), signs):
            sign_ok += 1
        if np.all(np.abs(fd - lin) <= 0.01 * np.abs(lin)):
            value_ok += 1
    ok = sign_ok == n and value_ok == n
    assert report(8, ok, f"signs {sign_ok}/{n}; within 1% {value_ok}/{n}")


def test_newton_jacobian_gives_the_rybczynski_matrix(produced):
    """The implicit function theorem on Newton's own Jacobian: at an
    equilibrium, F(w, X; V) = 0 has dF/dV = [0; -I], so dz/dV = J^-1 [0; I],
    and scaled by V_i/X_j this is the Rybczynski matrix, with no step size.
    The hat system comes from the snapshot's shares, allocations and EWS
    matrix, so this checks that it is the derivative of the production model
    the snapshot came from."""
    jac = np.empty((len(produced), 5, 5))
    for n, s in enumerate(produced):
        eq = s.equilibrium
        _, a, c = _system(s.specs, eq.p, eq.V, eq.w, eq.X)
        jac[n] = _jacobian(s.specs, eq.w, eq.X, a, c)
    dz = np.linalg.solve(jac, np.eye(5, 3, k=-2))
    V, X = (np.array([getattr(s.equilibrium, f) for s in produced]) for f in "VX")
    exact = dz[:, 3:] * V[:, None, :] / X[:, :, None]
    values, signs = zip(*(m.rybczynski_matrix(s.economy) for s in produced))
    values = np.array(values)
    err = np.abs(exact - values) / np.maximum(1.0, np.abs(values))
    assert len(produced) == POOL_SIZE // 2
    assert err.max() <= 1e-10
    assert np.array_equal(np.sign(exact), np.array(signs))


def test_criterion_9_elasticity_sweep_and_positive_families(e0):
    grid = np.linspace(-1.5, 2.5, 10)
    rows = m.appendix_f_sweep(e0, outer_aes=(1.3, 0.9), inner_grid=grid)
    s_std = float(np.std([r["s"] for r in rows]))
    u_vals = [r["u"] for r in rows]
    sweep_ok = s_std < 1e-9 and min(u_vals) < 0 < max(u_vals)

    positive = 0
    n = 1000
    for k in range(n):
        s = m.sample_economy(3000 + k, m.SampleConstraints(
            ranked=True, families=("cobb_douglas", "ces")))
        g = m.ews_matrix(s.economy)
        if min(g.g_LK, g.g_LT, g.g_KT) > 0:
            positive += 1
    ok = sweep_ok and positive == n
    assert report(9, ok, f"S' std {s_std:.2e}, U' sign flips {min(u_vals) < 0 < max(u_vals)}; "
                         f"positive aggregates {positive}/{n}")


def test_criterion_10_sweep_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = cli_main(["--out", str(out1), "sweep", "--seed", "1234", "--count", "50"])
    rc2 = cli_main(["--out", str(out2), "sweep", "--seed", "1234", "--count", "50"])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    assert report(10, ok, f"exit codes ({rc1}, {rc2}); byte-identical {identical}")
