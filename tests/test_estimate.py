"""Two-period estimation pipeline: preprocessing, endpoints, quadrant
verdicts, subregion sign tests, and consistency diagnostics."""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

import ews3x2 as m
from ews3x2.estimate import (Observation, corollary1_subregion, point_a,
                             point_b, preprocess, theorem1_verdict)
from ews3x2.model import K, L, T
from ews3x2.statics import Shock

from conftest import crafted_case_observations, crafted_observation, \
    mixed_pool, near_boundary_economy


@pytest.fixture(scope="module")
def obs0(e0):
    return m.observation_from_response(e0, m.solve_linear(e0, Shock.price(1.0)))


# ---------------------------------------------------------------------------
# Observation container


def test_observation_recomputes_aggregates(e0, obs0):
    r = m.solve_linear(e0, Shock.price(1.0))
    assert np.allclose(obs0.a0_prime, r.a0_prime, atol=1e-12)
    assert obs0.P == 1.0
    assert np.allclose(obs0.theta_factor, e0.theta_factor)
    assert np.allclose(obs0.lambda_share, e0.lambda_share)


def test_observation_requires_some_a():
    with pytest.raises(m.DegenerateObservation):
        Observation(theta_share=np.full((3, 2), 1 / 3.0),
                    theta_good=[0.5, 0.5], p_star=[1.0, 0.0],
                    w_star=[1.0, 0.0, 0.5])


def test_observation_round_trip(obs0):
    again = Observation.from_dict(obs0.to_dict())
    assert np.allclose(again.a0_prime, obs0.a0_prime)
    assert np.allclose(again.a_star, obs0.a_star)


# ---------------------------------------------------------------------------
# Preprocessing


def test_preprocess_identity_when_already_ranked(obs0):
    norm, info = preprocess(obs0)
    assert info.permutation == (T, K, L)
    assert not info.reversed
    assert np.allclose(norm.w_star, obs0.w_star)


def test_preprocess_relabels_factors(obs0):
    # scramble the factor rows; preprocessing must recover the role order
    perm = [2, 0, 1]
    scrambled = Observation(
        theta_share=obs0.theta_share[perm, :], theta_good=obs0.theta_good,
        p_star=obs0.p_star, w_star=obs0.w_star[perm],
        a_star=obs0.a_star[perm, :])
    norm, info = preprocess(scrambled)
    assert np.allclose(norm.theta_share, obs0.theta_share)
    assert np.allclose(norm.w_star, obs0.w_star)
    assert np.allclose(norm.a_star, obs0.a_star)


def test_preprocess_zero_p(obs0):
    flat = Observation(theta_share=obs0.theta_share, theta_good=obs0.theta_good,
                       p_star=[0.3, 0.3], w_star=obs0.w_star,
                       a_star=obs0.a_star)
    with pytest.raises(m.ZeroP):
        preprocess(flat)


def test_verdicts_survive_rescaling_rates_by_1e_13():
    # ZeroP, like every other dead band, is relative to the observation's
    # rate scale, so shrinking every rate by 1e-13 changes no verdict
    rng = np.random.default_rng(41)
    quad4 = m.SampleConstraints(ranked=True, quadrant="IV")
    keys = ("quadrant_verdict", "subregion_verdict", "ranking",
            "a0_sign_label", "rybczynski")
    for k in range(40):
        e = m.sample_economy(500 + k, quad4).economy
        for _ in range(5):
            shock = Shock(p_star=[1.0, 0.0], v_star=rng.normal(size=3))
            o = m.observation_from_response(e, m.solve_linear(e, shock))
            tiny = Observation(theta_share=o.theta_share, theta_good=o.theta_good,
                               p_star=1e-13 * o.p_star, w_star=1e-13 * o.w_star,
                               a_star=1e-13 * o.a_star)
            ref = m.run_pipeline(o).to_dict()
            got = m.run_pipeline(tiny).to_dict()
            assert [got[key] for key in keys] == [ref[key] for key in keys]
            assert (got["diagnostics"]["sector_labels"]
                    == ref["diagnostics"]["sector_labels"])
    # an exact zero stays zero at any scale
    flat = Observation(theta_share=o.theta_share, theta_good=o.theta_good,
                       p_star=[3e-14, 3e-14], w_star=1e-13 * o.w_star,
                       a_star=1e-13 * o.a_star)
    with pytest.raises(m.ZeroP):
        preprocess(flat)


def test_verdicts_survive_rescaling_rates_by_1e6():
    rng = np.random.default_rng(43)
    quad4 = m.SampleConstraints(ranked=True, quadrant="IV")
    keys = ("quadrant_verdict", "subregion_verdict", "ranking",
            "a0_sign_label", "rybczynski", "failed_preconditions")
    for sample in m.sample_economies(range(700, 760), quad4):
        e = sample.economy
        for _ in range(5):
            shock = Shock(p_star=[1.0, 0.0], v_star=rng.normal(size=3))
            o = m.observation_from_response(e, m.solve_linear(e, shock))
            for time_reversal in (False, True):
                ref = m.run_pipeline(o, time_reversal).to_dict()
                got = m.run_pipeline(_variant(o, scale=1e6), time_reversal).to_dict()
                assert [got[key] for key in keys] == [ref[key] for key in keys]
                for key in ("consistent", "sector_labels"):
                    assert got["diagnostics"][key] == ref["diagnostics"][key]


def test_reports_survive_relabelling_the_factors():
    # preprocess puts the factors in role order, so under each relabelling the
    # report is the same but for the input rows that fill the roles
    rng = np.random.default_rng(44)
    cons = (m.SampleConstraints(ranked=True),
            m.SampleConstraints(ranked=True, quadrant="IV"))
    for k in range(50):
        e = m.sample_economy(800 + k, cons[k % 2]).economy
        for sign in (1.0, -1.0, 1.0):
            shock = Shock(p_star=[1.0, 0.0], v_star=rng.normal(size=3))
            o = _variant(m.observation_from_response(e, m.solve_linear(e, shock)),
                         sign=sign)
            for time_reversal in (False, True):
                ref = m.run_pipeline(o, time_reversal).to_dict()
                roles = ref.pop("input_factor_roles")
                for idx in PERMUTATIONS:
                    got = m.run_pipeline(_variant(o, idx), time_reversal).to_dict()
                    assert [idx[i] for i in got.pop("input_factor_roles")] == roles
                    assert got == ref


def test_preprocess_time_reversal(obs0):
    rev = Observation(theta_share=obs0.theta_share, theta_good=obs0.theta_good,
                      p_star=-obs0.p_star, w_star=-obs0.w_star,
                      a_star=-obs0.a_star)
    # without time_reversal a falling relative price passes through unflipped
    norm, info = preprocess(rev)
    assert norm.P == pytest.approx(-1.0) and not info.reversed
    norm, info = preprocess(rev, time_reversal=True)
    assert info.reversed
    assert norm.P == pytest.approx(1.0)
    assert np.allclose(norm.w_star, obs0.w_star)


def test_preprocess_unsupported_ranking():
    for th in (
        [[0.4, 0.4], [0.3, 0.3], [0.3, 0.3]],  # all ratios tied
        # strict ratios 3 > 0.6 > 1/3, but the middle factor has
        # theta_L1 < theta_L2
        [[0.6, 0.2], [0.1, 0.3], [0.3, 0.5]],
    ):
        obs = Observation(theta_share=th, theta_good=[0.5, 0.5],
                          p_star=[1.0, 0.0], w_star=[1.0, 0.0, 0.5],
                          a0_prime=[-0.1, 0.2, -0.1])
        with pytest.raises(m.UnsupportedRanking):
            preprocess(obs)


# ---------------------------------------------------------------------------
# Endpoints from data match the model-side segment


def test_points_match_segment_endpoints(e0):
    # both routes evaluate one closed form, so on the same shares and rates
    # they agree exactly; each sampled economy is rebuilt from its shares so
    # that its theta_factor and lambda_share are the ones an observation
    # derives from them
    checked = 0
    for e in [e0] + mixed_pool(2024, 200):
        e = m.Economy.from_shares(e.theta_share, e.theta_good, e.sigma)
        resp = m.solve_linear(e, Shock.price(1.0))
        try:
            seg = m.segment_ab(m.vector_line(resp, e), resp, e)
        except m.Ews3x2Error:
            continue
        obs = m.observation_from_response(e, resp)
        assert np.array_equal(obs.a0_prime, resp.a0_prime)
        assert point_a(obs) == seg.point_a
        assert point_b(obs) == seg.point_b
        checked += 1
    assert checked > 190


def test_point_a_degenerate():
    obs = Observation(theta_share=[[0.45, 0.2], [0.2, 0.5], [0.35, 0.3]],
                      theta_good=[0.5, 0.5], p_star=[1.0, 0.0],
                      w_star=[1.0, 1.0, 1.0], a0_prime=[-0.1, 0.2, -0.1])
    with pytest.raises(m.DegenerateObservation):
        point_a(obs)
    obs2 = Observation(theta_share=[[0.45, 0.2], [0.2, 0.5], [0.35, 0.3]],
                       theta_good=[0.5, 0.5], p_star=[1.0, 0.0],
                       w_star=[2.0, -1.0, 0.5], a0_prime=[0.0, 0.2, -0.1])
    with pytest.raises(m.DegenerateObservation):
        point_b(obs2)


def test_theorem1_inconclusive_without_point_a(e0):
    v = theorem1_verdict(crafted_observation(e0, [1.0, 0.5, 0.5]))
    assert v.verdict == "inconclusive" and v.point_a is None
    assert "point A computable" in v.failed_preconditions


# ---------------------------------------------------------------------------
# Quadrant-IV sufficient condition


def test_theorem1_inconclusive_on_label_a(obs0):
    v = theorem1_verdict(obs0)
    assert v.verdict == "inconclusive"
    assert v.a0_label == "A"
    assert not v.quadrant_iv
    assert any("sign pattern" in f for f in v.failed_preconditions)


@pytest.fixture(scope="module")
def case_c_setup():
    rng = np.random.default_rng(42)
    s = m.sample_economy(3, m.SampleConstraints(ranked=True, quadrant="IV"))
    return s.economy, rng


def test_theorem1_brackets_true_point(case_c_setup):
    e, rng = case_c_setup
    pt = m.ews_ratio_vector(m.ews_matrix(e))
    hits = 0
    for _ in range(4000):
        shock = Shock(p_star=np.array([1.0, 0.0]), v_star=rng.normal(size=3))
        resp = m.solve_linear(e, shock)
        obs = m.observation_from_response(e, resp)
        v = theorem1_verdict(obs)
        if v.verdict != "quadrant IV":
            continue
        hits += 1
        b = v.bounds
        assert b["s_low"] <= pt.s <= b["s_high"]
        assert b["u_low"] <= pt.u <= b["u_high"]
        assert m.quadrant(v.point_a)[0] is m.Quadrant.IV
        assert m.quadrant(v.point_b)[0] is m.Quadrant.IV
    assert hits > 50  # the sufficient condition fires on a healthy fraction


def test_theorem1_case_d_reversed_bounds(case_c_setup):
    e, rng = case_c_setup
    pt = m.ews_ratio_vector(m.ews_matrix(e))
    seen = 0
    for _ in range(20000):
        shock = Shock(p_star=np.array([1.0, 0.0]), v_star=rng.normal(size=3))
        obs = m.observation_from_response(e, m.solve_linear(e, shock))
        v = theorem1_verdict(obs)
        if v.verdict.startswith("quadrant IV (case D"):
            seen += 1
            b = v.bounds
            assert b["s_low"] <= pt.s <= b["s_high"]
            assert b["u_low"] <= pt.u <= b["u_high"]
            if seen >= 5:
                break
    assert seen >= 1


# ---------------------------------------------------------------------------
# Subregion sign tests fire and agree with the geometric classification


@pytest.mark.parametrize("region,seed", [("P1", 11), ("P2", 12), ("P3", 13)])
def test_corollary_identifies_subregion(region, seed):
    rng = np.random.default_rng(seed)
    e = near_boundary_economy(rng, region, fires=True)
    label = m.classify_subregion(m.ews_ratio_vector(m.ews_matrix(e)), e).value
    assert label == region
    fired = 0
    for obs in crafted_case_observations(e, rng, 300, require_verdict="quadrant IV"):
        v = theorem1_verdict(obs)
        res = corollary1_subregion(obs, v)
        assert res.equivalence_mismatches == ()
        if res.verdict in ("P1", "P2", "P3"):
            fired += 1
            assert res.verdict == region
            assert res.shortcut == res.chain == region
    assert fired > 10


def test_corollary_skips_non_quadrant_iv(obs0):
    res = corollary1_subregion(obs0, theorem1_verdict(obs0))
    assert res.verdict == "not-quadrant-IV"


# ---------------------------------------------------------------------------
# Consistency diagnostics


def test_consistency_on_model_data(obs0):
    out = m.consistency_checks(obs0)
    assert out["consistent"]
    assert out["d10_residual"] < 1e-12
    assert out["H0"] < 0
    assert all(h < 0 for h in out["H"])
    assert out["ranking"] == "X>Z>Y"
    assert out["a0_label"] == "A"


def test_consistency_flags_bad_data(obs0):
    bad = Observation(theta_share=obs0.theta_share, theta_good=obs0.theta_good,
                      p_star=obs0.p_star, w_star=obs0.w_star,
                      a0_prime=[0.2, -0.1, -0.05])
    out = m.consistency_checks(bad)
    assert not out["consistent"]
    assert any("income-weight" in f for f in out["failures"])


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-9, 1e-13, 1e-250, 1e160])
def test_consistency_verdicts_survive_rescaling(obs0, scale):
    def rescaled(**rates):
        return m.consistency_checks(Observation(
            theta_share=obs0.theta_share, theta_good=obs0.theta_good,
            p_star=obs0.p_star * scale, w_star=obs0.w_star * scale,
            **{k: np.asarray(v) * scale for k, v in rates.items()}))

    assert rescaled(a_star=obs0.a_star)["consistent"]
    bad = rescaled(a0_prime=[0.2, -0.1, -0.05])
    assert "aggregate input-coefficient changes do not income-weight to zero" \
        in bad["failures"]
    bad = rescaled(a_star=obs0.a_star + [[0.01, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert "per-sector share-weighted a* rows do not sum to zero" \
        in bad["failures"]
    # H0 and the H_j multiply two rates, which leave the float range at the
    # ends of the scales
    bad = rescaled(a_star=-obs0.a_star)
    assert {"H0 > 0", "H_1 > 0", "H_2 > 0"} <= set(bad["failures"])


def test_consistency_flags_excluded_letter(obs0):
    # letter E = (+, -, +) is impossible under the realized ranking X>Z>Y
    tf = obs0.theta_factor
    a0 = np.array([0.1, -0.2, 0.05])
    a0 -= tf * (a0 @ tf) / (tf @ tf)  # keep the zero income-weighted sum
    bad = Observation(theta_share=obs0.theta_share, theta_good=obs0.theta_good,
                      p_star=obs0.p_star, w_star=obs0.w_star, a0_prime=a0)
    out = m.consistency_checks(bad)
    assert out["a0_label"] == "E"
    assert not out["consistent"]
    assert any("excluded" in f for f in out["failures"])


def test_consistency_flags_excluded_sector_letter(obs0):
    # sector 1's column gets letter E = (+, -, +), and its share-weighted
    # rows still sum to zero, so only the sector-letter rule objects to it
    a = obs0.a_star.copy()
    a[:, 0] = [0.2, -(0.45 * 0.2 + 0.35 * 0.2) / 0.2, 0.2]
    assert obs0.theta_share[:, 0] @ a[:, 0] == pytest.approx(0.0, abs=1e-15)
    bad = Observation(theta_share=obs0.theta_share, theta_good=obs0.theta_good,
                      p_star=obs0.p_star, w_star=obs0.w_star, a_star=a)
    out = m.consistency_checks(bad)
    assert out["ranking"] == "X>Z>Y"
    assert out["sector_labels"][0] == "E"
    assert "sector 1 sign label E excluded under ranking X>Z>Y" in out["failures"]
    assert not any("do not" in f for f in out["failures"])


def test_aggregate_in_the_dead_band_has_no_letter(obs0):
    flat = Observation(theta_share=obs0.theta_share, theta_good=obs0.theta_good,
                       p_star=obs0.p_star, w_star=obs0.w_star,
                       a0_prime=np.zeros(3))
    assert m.consistency_checks(flat)["a0_label"] is None
    assert ("aggregate sign pattern (+, +, -) (got label None)"
            in theorem1_verdict(flat).failed_preconditions)


# ---------------------------------------------------------------------------
# End-to-end pipeline


def test_pipeline_on_reference(obs0):
    rep = m.run_pipeline(obs0)
    d = rep.to_dict()
    assert d["quadrant_verdict"] == "inconclusive"
    assert d["subregion_verdict"] == "not-quadrant-IV"
    assert d["rybczynski"] is None
    assert d["diagnostics"]["consistent"]


def test_pipeline_quadrant_iv_reports_candidates(case_c_setup):
    e, rng = case_c_setup
    for _ in range(5000):
        shock = Shock(p_star=np.array([1.0, 0.0]), v_star=rng.normal(size=3))
        obs = m.observation_from_response(e, m.solve_linear(e, shock))
        rep = m.run_pipeline(obs)
        if rep.theorem1.verdict == "quadrant IV":
            d = rep.to_dict()
            assert d["bounds"] is not None
            assert rep.rybczynski is not None
            if rep.subregion_verdict == "ambiguous":
                assert len(rep.rybczynski) == 3  # all candidate patterns
            else:
                assert rep.subregion_verdict in ("P1", "P2", "P3")
            return
    pytest.fail("no quadrant-IV observation found")


def test_pipeline_subregion_pattern(e0):
    rng = np.random.default_rng(5)
    e = near_boundary_economy(rng, "P2", fires=True)
    for obs in crafted_case_observations(e, rng, 200, require_verdict="quadrant IV"):
        rep = m.run_pipeline(obs)
        if rep.subregion_verdict == "P2":
            assert rep.rybczynski == [[1, -1, 1], [-1, 1, 1]]
            return
    pytest.fail("sufficient condition never identified P2")


# ---------------------------------------------------------------------------
# Pinned output bytes

PERMUTATIONS = list(itertools.permutations(range(3)))


def _variant(o, idx=(0, 1, 2), sign=1.0, scale=1.0, aggregate=False):
    """`o` with its factor rows taken in the order `idx`, every rate times
    sign * scale, and only a0_prime when `aggregate`."""
    idx, c = list(idx), sign * scale
    return Observation(theta_share=o.theta_share[idx], theta_good=o.theta_good,
                       p_star=c * o.p_star, w_star=c * o.w_star[idx],
                       a_star=None if aggregate else c * o.a_star[idx],
                       a0_prime=c * o.a0_prime[idx] if aggregate else None)


def estimate_reference_runs(seeds):
    """(observation, time_reversal) pairs: each seed's economy (ranked and
    quadrant-IV by turns) observed under p* = (1, 0) and a random v*, in five
    variants, each with and without time reversal."""
    cons = (m.SampleConstraints(ranked=True),
            m.SampleConstraints(ranked=True, quadrant="IV"))
    rng = np.random.default_rng(5)
    for k, seed in enumerate(seeds):
        e = m.sample_economy(seed, cons[k % 2]).economy
        shock = Shock(p_star=[1.0, 0.0], v_star=rng.normal(size=3) * 0.3)
        o = m.observation_from_response(e, m.solve_linear(e, shock))
        idx = PERMUTATIONS[1 + k % 5]
        for obs in (o, _variant(o, idx), _variant(o, sign=-1.0),
                    _variant(o, scale=1e-13, aggregate=True),
                    _variant(o, idx, sign=-1.0, aggregate=True)):
            for time_reversal in (False, True):
                yield obs, time_reversal


def estimate_reference_lines(seeds):
    """One line per run of `estimate_reference_runs`: the report's JSON, or
    the typed error's name."""
    for obs, time_reversal in estimate_reference_runs(seeds):
        try:
            yield json.dumps(m.run_pipeline(obs, time_reversal).to_dict())
        except m.Ews3x2Error as exc:
            yield type(exc).__name__


#: sha256 of the report lines of seeds 3000-3099 (numpy 2.4)
ESTIMATE_DIGEST = (
    "cfd5a01d2b630ac77510049469b72c529d676ec42cfe5234d9064a40712d552a")


def test_estimate_reference_json_digest():
    h = hashlib.sha256()
    for line in estimate_reference_lines(range(3000, 3100)):
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == ESTIMATE_DIGEST


def _bits(x):
    """x as exact bytes: an array's dtype, shape and buffer, a float's bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    return np.float64(x).tobytes() if isinstance(x, float) else x


def test_preprocess_equals_the_constructor_on_relabelled_arrays():
    # preprocess builds its observation from the permuted, sign-flipped arrays
    # without the constructor's copies, and carries the input's rate_scale
    # over; every field, and what is derived from them, must be the bits the
    # public constructor gives on the same arrays
    names = [f.name for f in dataclasses.fields(Observation)]
    runs = 0
    for obs, time_reversal in estimate_reference_runs(range(3000, 3100)):
        norm, info = preprocess(obs, time_reversal)
        idx, c = list(info.permutation), -1.0 if info.reversed else 1.0
        ref = Observation(theta_share=obs.theta_share[idx], theta_good=obs.theta_good,
                          p_star=c * obs.p_star, w_star=c * obs.w_star[idx],
                          a_star=None if obs.a_star is None else c * obs.a_star[idx],
                          a0_prime=c * obs.a0_prime[idx])
        for name in names + ["rate_scale", "theta_factor", "labels"]:
            assert _bits(getattr(norm, name)) == _bits(getattr(ref, name)), name
        runs += 1
    assert runs == 1000


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["p_star", "w_star", "a_star", "a0_prime"])
def test_non_finite_rate_is_a_degenerate_observation(obs0, field, value):
    # a0_prime is data only when a_star is absent; with a_star it is derived.
    # Every entry in turn: Python's max and min keep or skip a NaN by where it sits
    d = {"theta_share": obs0.theta_share, "theta_good": obs0.theta_good,
         "p_star": obs0.p_star, "w_star": obs0.w_star,
         "a_star": None if field == "a0_prime" else obs0.a_star,
         "a0_prime": obs0.a0_prime}
    for k in range(d[field].size):
        rates = d[field].copy()
        rates.flat[k] = value
        obs = Observation(**{**d, field: rates})
        assert not np.isfinite(obs.rate_scale)
        for time_reversal in (False, True):
            with pytest.raises(m.DegenerateObservation, match="not finite"):
                preprocess(obs, time_reversal)
            with pytest.raises(m.DegenerateObservation, match="not finite"):
                m.run_pipeline(obs, time_reversal)


@pytest.mark.parametrize("field,k", [("theta_share", k) for k in range(6)]
                         + [("theta_good", k) for k in range(2)])
def test_nan_share_is_degenerate_shares(obs0, field, k):
    # the share test must fail on a NaN wherever it sits, as numpy's min did
    shares = getattr(obs0, field).copy()
    shares.flat[k] = np.nan
    obs = dataclasses.replace(obs0, **{field: shares})
    for time_reversal in (False, True):
        with pytest.raises(m.DegenerateShares, match="share is not positive"):
            preprocess(obs, time_reversal)
        with pytest.raises(m.DegenerateShares, match="share is not positive"):
            m.run_pipeline(obs, time_reversal)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_factor_income_share_that_underflows_is_degenerate_shares(obs0):
    # every distributive share is positive, but the factor income share of K,
    # theta_good @ theta_share, is 0 (half the smallest subnormal rounds to 0);
    # it once reached the endpoint divisions
    obs = Observation([[0.7, 0.2], [5e-324, 5e-324], [0.45, 0.3]], [0.5, 0.5],
                      obs0.p_star, obs0.w_star, a0_prime=obs0.a0_prime)
    assert obs.theta_factor.tolist()[K] == 0.0
    for time_reversal in (False, True):
        with pytest.raises(m.DegenerateShares,
                           match="^a factor income share is not positive$"):
            preprocess(obs, time_reversal)
        with pytest.raises(m.DegenerateShares,
                           match="^a factor income share is not positive$"):
            m.run_pipeline(obs, time_reversal)


def corollary_reference_lines():
    """One line per run, as in `estimate_reference_lines`, over crafted
    observations of one P1, one P2 and one P3 economy: 40 quadrant-IV
    observations each, taken as they are, permuted and negated under time
    reversal, shrunk to 1e-13 as aggregates, and with p_2* (then p_1*)
    reflected about w_L*, which breaks a threshold/sign equivalence."""
    for region, seed in (("P1", 11), ("P2", 12), ("P3", 13)):
        rng = np.random.default_rng(seed)
        e = near_boundary_economy(rng, region, fires=True)
        for k, o in enumerate(crafted_case_observations(
                e, rng, 40, require_verdict="quadrant IV")):
            w, p = o.w_star, o.p_star
            flip_2 = Observation(o.theta_share, o.theta_good,
                                 [p[0], 2 * w[L] - p[1]], w, o.a_star)
            flip_1 = Observation(o.theta_share, o.theta_good,
                                 [2 * w[L] - p[0], p[1]], w, o.a_star)
            for obs, time_reversal in (
                    (o, False),
                    (_variant(o, PERMUTATIONS[1 + k % 5], sign=-1.0), True),
                    (_variant(o, scale=1e-13, aggregate=True), False),
                    (flip_2, False), (flip_1, True)):
                try:
                    yield json.dumps(m.run_pipeline(obs, time_reversal).to_dict())
                except m.Ews3x2Error as exc:
                    yield type(exc).__name__


#: sha256 of `corollary_reference_lines()` (numpy 2.4)
COROLLARY_DIGEST = (
    "3e68d47420dc331ee09985726a03081b21de7472b5ff9623748001a78c4642a1")


def test_corollary_reference_json_digest():
    h = hashlib.sha256()
    verdicts = set()
    mismatches = 0
    for line in corollary_reference_lines():
        h.update(line.encode() + b"\n")
        if line.startswith("{"):
            report = json.loads(line)
            verdicts.add(report["subregion_verdict"])
            mismatches += bool(report["corollary"] and
                               report["corollary"]["equivalence_mismatches"])
    # the decisive branches and the mismatch messages are all reached
    assert {"P1", "P2", "P3", "ambiguous"} <= verdicts and mismatches > 0
    assert h.hexdigest() == COROLLARY_DIGEST
