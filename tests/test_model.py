"""Economy snapshot, validation, and the economy-wide substitution matrix."""

import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ews3x2 as m
from ews3x2.model import (K, L, T, _aes_diagonal, _concave, _dirichlet,
                          _ews_ratios, _fill_aes_diagonal)
from ews3x2.tolerances import CONCAVITY_TOL, IDENT_TOL, STRUCT_TOL, ZERO_TOL

from conftest import E0_THETA_GOOD, E0_THETA_SHARE, mixed_pool
from test_samplers import PRODUCTION_MODES, reference_sample_economy_shares


def ranked_economy(seed):
    return m.sample_economy_shares(seed)


# ---------------------------------------------------------------------------
# Construction and validation


def test_cobb_douglas_construction(e0):
    assert np.allclose(e0.theta_factor, [0.325, 0.35, 0.325])
    expected_lambda = (E0_THETA_SHARE * E0_THETA_GOOD[None, :]
                       / e0.theta_factor[:, None])
    assert np.allclose(e0.lambda_share, expected_lambda)
    # cross elasticities are one, diagonals follow from the zero row sum
    for j in range(2):
        for i in range(3):
            for h in range(3):
                if i != h:
                    assert e0.sigma[j, i, h] == 1.0
            expect = -(1.0 - e0.theta_share[i, j]) / e0.theta_share[i, j]
            assert e0.sigma[j, i, i] == pytest.approx(expect)
    assert m.validate_economy(e0, check_ranking=True).ok
    assert m.is_ranked(e0)


def test_round_trip_dict(e0):
    again = m.Economy.from_dict(e0.to_dict())
    for name in ("theta_share", "lambda_share", "theta_good",
                 "theta_factor", "sigma"):
        assert np.array_equal(getattr(again, name), getattr(e0, name))


def test_arrays_are_readonly(e0):
    with pytest.raises(ValueError):
        e0.theta_share[0, 0] = 0.9


def test_validation_flags_bad_column_sum(e0):
    th = E0_THETA_SHARE.copy()
    th[0, 0] += 0.05
    rep = m.validate_economy(m.Economy.cobb_douglas(th, E0_THETA_GOOD))
    assert not rep.ok
    assert "share-column-sum" in rep.codes()


def test_validation_flags_asymmetric_sigma(e0):
    sigma = np.array(e0.sigma)
    sigma[0, T, K] = 2.0  # break symmetry and the row sum at once
    bad = m.Economy.from_shares(E0_THETA_SHARE, E0_THETA_GOOD, sigma)
    codes = m.validate_economy(bad).codes()
    assert "aes-symmetry" in codes
    assert "aes-row-sum" in codes


def test_validation_flags_positive_diagonal(e0):
    sigma = np.array(e0.sigma)
    sigma[1, L, L] = 0.5
    bad = m.Economy.from_shares(E0_THETA_SHARE, E0_THETA_GOOD, sigma)
    assert "aes-diagonal-sign" in m.validate_economy(bad).codes()


def test_validation_flags_broken_ranking():
    th = np.array([[0.2, 0.45], [0.5, 0.2], [0.3, 0.35]])  # T/K roles swapped
    rep = m.validate_economy(m.Economy.cobb_douglas(th, [0.5, 0.5]),
                             check_ranking=True)
    assert "intensity-ranking" in rep.codes()


def test_validation_reports_all_violations_at_once():
    th = np.array([[0.5, 0.2], [0.2, 0.5], [0.35, 0.3]])  # column 1 sums to 1.05
    sigma = np.ones((2, 3, 3))
    bad = m.Economy.from_shares(th, [0.5, 0.5], sigma)
    rep = m.validate_economy(bad)
    assert len(rep.violations) > 2  # column sum, diagonals, row sums ...
    assert "share-column-sum" in rep.codes()
    assert "aes-diagonal-sign" in rep.codes()
    # a share exactly at 0 lies outside (0, 1) by a distance of +0, not -0
    th = np.array([[0.0, 0.2], [0.55, 0.5], [0.45, 0.3]])
    rep = m.validate_economy(m.Economy.from_shares(th, [0.5, 0.5], sigma))
    ranges = [v for v in rep.violations if v.code == "share-range"]
    assert len(ranges) == 2  # distributive and allocation shares
    assert all(v.magnitude == 0.0 and not np.signbit(v.magnitude)
               for v in ranges)
    assert "magnitude 0.000e+00" in str(rep) and "-0.000e+00" not in str(rep)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_validation_refuses_a_tolerance_that_is_not_finite_and_not_negative(e0, tol):
    with pytest.raises(ValueError, match="finite and >= 0"):
        m.validate_economy(e0, tol=tol)


def test_validation_accepts_a_zero_tolerance(e0):
    # at 0 every residual above zero is reported: e0's weighted Allen rows
    # sum to a few ulp, and nothing else is off
    rep = m.validate_economy(e0, tol=0.0)
    assert set(rep.codes()) == {"aes-row-sum"}
    assert all(0 < v.magnitude < 1e-15 for v in rep.violations)


ARRAY_NAMES = ("theta_share", "lambda_share", "theta_good", "theta_factor", "sigma")


def validate_report_inputs():
    """Five-array tuples: sampled share-level and production economies, each
    as drawn and with seeded perturbations of one entry (NaN, +-inf, 0, 1,
    +-1e300, negated, nudged by about 1e-9) in each array, and with the
    factor rows of its shares permuted."""
    bases = [m.sample_economy_shares(seed, ranked)
             for seed in range(2) for ranked in (True, False)]
    bases += [m.sample_economy(seed, cons).economy
              for seed, cons in enumerate(PRODUCTION_MODES.values())]
    rng = np.random.default_rng(27)
    for e in bases:
        arrays = [np.array(getattr(e, name)) for name in ARRAY_NAMES]
        yield arrays
        for a, arr in enumerate(arrays):
            for edit in (np.nan, np.inf, -np.inf, 0.0, 1.0, 1e300, -1e300,
                         "negate", "nudge"):
                idx = tuple(rng.integers(arr.shape))
                x, out = arr[idx], [b.copy() for b in arrays]
                out[a][idx] = (-x if edit == "negate" else
                               x + rng.uniform(-2e-9, 2e-9) if edit == "nudge" else edit)
                yield out
        for perm in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
            yield [arrays[0][perm, :], arrays[1][perm, :], *arrays[2:]]


#: sha256 of the `validate_economy` report lines of `validate_report_inputs`,
#: each with and without the ranking at three tolerances (numpy 2.4)
VALIDATE_DIGEST = (
    "ff92cba63ede3f7329b2dafcabeabfeb7256386a0ddda8fb299d7b98351d78ca")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_report_digest():
    start, h = time.perf_counter(), hashlib.sha256()
    for arrays in validate_report_inputs():
        e = m.Economy(*arrays)
        for ranking in (False, True):
            for tol in (STRUCT_TOL, 0.0, 1e-3):
                rep = m.validate_economy(e, ranking, tol)
                h.update(f"{json.dumps(rep.to_dict())}\n{rep}\n".encode())
    assert h.hexdigest() == VALIDATE_DIGEST
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# epsilon and the aggregate matrix on the hand-checked economy


def test_epsilon_rows_sum_to_zero(e0):
    eps = m.epsilon(e0)
    assert eps.shape == (2, 3, 3)
    assert np.abs(eps.sum(axis=2)).max() < IDENT_TOL
    # eps[j, i, h] = theta_share[h, j] * sigma[j, i, h]
    assert eps[0, L, K] == pytest.approx(e0.theta_share[K, 0])


def test_e0_aggregate_values(e0):
    g = m.ews_matrix(e0)
    assert g.g_LK == pytest.approx(0.3384615384615385, abs=1e-14)
    assert g.g_LT == pytest.approx(0.3346153846153846, abs=1e-14)
    assert g.g_KT == pytest.approx(0.2714285714285714, abs=1e-14)
    assert g.sign_triple() == (1, 1, 1)
    assert g.theta_L_over_K == pytest.approx(0.325 / 0.35)


def test_e0_ratio_vector(e0):
    pt = m.ews_ratio_vector(m.ews_matrix(e0))
    assert pt.s == pytest.approx(1.011494252873563, abs=1e-12)
    assert pt.u == pytest.approx(0.8111658456486043, abs=1e-12)
    assert pt.g_LT_sign == 1
    assert pt.coords() == (pt.s, pt.u)


def test_e0_determinant_identity_three_forms_agree(e0):
    forms = m.ews_matrix(e0).determinant_identity()
    assert forms[0] == pytest.approx(0.28785714285714287, abs=1e-13)
    assert max(forms) - min(forms) < IDENT_TOL
    assert min(forms) > 0


def test_classify_substitutes_labels(e0):
    labels = m.classify_substitutes(m.ews_matrix(e0))
    assert set(labels) == {("L", "K"), ("L", "T"), ("K", "T")}
    assert all(v == "economy-wide substitute" for v in labels.values())


def test_classify_substitutes_complement():
    sigma = np.ones((2, 3, 3))
    sigma[:, T, K] = sigma[:, K, T] = -2.0
    th = E0_THETA_SHARE
    for j in range(2):
        for i in range(3):
            w = sum(th[h, j] * sigma[j, i, h] for h in range(3) if h != i)
            sigma[j, i, i] = -w / th[i, j]
    e = m.Economy.from_shares(th, E0_THETA_GOOD, sigma)
    labels = m.classify_substitutes(m.ews_matrix(e))
    assert labels[("K", "T")] == "economy-wide complement"
    assert labels[("L", "K")] == "economy-wide substitute"


def test_classify_substitutes_exact_zero_is_borderline(e0):
    g = m.ews_matrix(e0).g.copy()
    g[L, K] = g[K, L] = 0.0
    labels = m.classify_substitutes(m.EwsMatrix(g, e0.theta_factor))
    assert labels[("L", "K")] == "economy-wide substitute (borderline)"
    assert labels[("L", "T")] == labels[("K", "T")] == "economy-wide substitute"


def test_ratio_vector_degenerate_denominator(e0):
    g = m.ews_matrix(e0)
    zeroed = m.EwsMatrix(np.zeros((3, 3)), g.theta_factor)
    with pytest.raises(m.DegenerateDenominator):
        m.ews_ratio_vector(zeroed)


def test_ratio_home_is_nan_exactly_where_the_ratio_vector_raises(e0):
    # g_LT at +-0.0, inside and outside the zero tolerance, and ordinary
    g = np.repeat(m.ews_matrix(e0).g[None], 5, axis=0)
    g[:, L, T] = [0.0, -0.0, 0.5 * ZERO_TOL, -2.0 * ZERO_TOL, 0.3]
    s, u = _ews_ratios(g)
    for k in range(len(g)):
        one = m.EwsMatrix(g[k], e0.theta_factor)
        if abs(g[k, L, T]) < ZERO_TOL:
            assert np.isnan(s[k]) and np.isnan(u[k])
            with pytest.raises(m.DegenerateDenominator):
                m.ews_ratio_vector(one)
        else:
            p = m.ews_ratio_vector(one)
            assert (p.s, p.u) == (s[k], u[k])
            assert (p.s, p.u) == (one.g_LK / one.g_LT, one.g_KT / one.g_LT)


# ---------------------------------------------------------------------------
# Structural identities on sampled economies (property tests)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_aggregate_identities_hold_everywhere(seed):
    e = ranked_economy(seed)
    g = m.ews_matrix(e)
    assert np.abs(g.row_sums()).max() < 1e-10
    assert np.abs(g.reciprocity_residuals()).max() < 1e-10
    forms = g.determinant_identity()
    scale = max(1.0, abs(forms[0]))
    assert max(forms) - min(forms) < 1e-10 * scale
    assert np.all(np.diag(g.g) < 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sign_triple_never_two_negative(seed):
    # at most one of the three off-diagonal aggregates can be negative
    g = m.ews_matrix(ranked_economy(seed))
    assert sum(s < 0 for s in g.sign_triple()) <= 1


def test_sampler_is_deterministic():
    a = m.sample_economy_shares(77)
    b = m.sample_economy_shares(77)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.theta_share, b.theta_share)


def test_sampler_respects_ranking_flag():
    e = m.sample_economy_shares(5, ranked=True)
    assert m.is_ranked(e)
    assert m.validate_economy(e, check_ranking=True).ok


#: sha256 of `sample_economy_shares`'s five arrays and the generator's end
#: state, seeds 0-1,999 in order, by `ranked`
SHARE_SAMPLER_DIGESTS = {
    True: "199edbe54235b682a21d588faae5f8eaac37ca69b270f17087c5b8d3f8d04934",
    False: "64eadc8d013901af8c9957bff7cc4d0d9578eda0216150d6926d0f8c09eb2ea5",
}


@pytest.mark.parametrize("ranked", [True, False])
def test_share_sampler_digest(ranked, share_samples):
    h = hashlib.sha256()
    for e, state in share_samples[ranked][:2000]:
        for name in ("theta_share", "lambda_share", "theta_good",
                     "theta_factor", "sigma"):
            h.update(getattr(e, name).tobytes())
        h.update(json.dumps(state, sort_keys=True).encode())
    assert h.hexdigest() == SHARE_SAMPLER_DIGESTS[ranked]


def _lapack_concave(a):
    return np.linalg.eigvalsh(a)[-2] <= -CONCAVITY_TOL


def test_concavity_test_is_the_lapack_decision(monkeypatch):
    # every share-weighted Allen matrix the eigvalsh reference sampler tests
    reached, lapack = [], np.linalg.eigvalsh

    def recording(a):
        reached.append(a)
        return lapack(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    for seed in range(1000):
        reference_sample_economy_shares(seed)
    monkeypatch.undo()
    verdicts = [_concave(a.tolist(), [1.0, 1.0, 1.0]) for a in reached]
    assert verdicts == [_lapack_concave(a) for a in reached]
    assert 0 < sum(verdicts) < len(reached)
    # M 1 = 0 with the other eigenvalues (x, y) in an orthonormal basis of 1-perp
    basis = np.linalg.qr(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0],
                                   [1.0, 0.0, -1.0]]))[0]
    tol = CONCAVITY_TOL
    for x, y in [(0.0, -1.0), (-tol * (1 - 1e-3), -1.0), (-tol * (1 + 1e-3), -1.0),
                 (0.0, 0.0), (-tol * (1 - 1e-3), -0.01), (-tol * (1 + 1e-3), -0.01),
                 (-3 * tol, -3 * tol), (1.0, -2.0), (2.0, 3.0)]:
        a = basis @ np.diag([0.0, x, y]) @ basis.T
        assert abs(a.sum(axis=1)).max() < 1e-15
        assert _concave(a.tolist(), [1.0, 1.0, 1.0]) == _lapack_concave(a) == (
            max(x, y) <= -tol), (x, y)


@pytest.mark.parametrize("ranked", [True, False])
def test_sampled_economies_meet_every_check_the_sampler_skips(ranked,
                                                             share_samples):
    # `sample_economy_shares` runs neither `validate_economy` nor a ranking re-test:
    # construction guarantees them, and this pins that guarantee
    for seed, (e, _) in enumerate(share_samples[ranked]):
        assert m.validate_economy(e, check_ranking=ranked).ok, seed
        g = m.ews_matrix(e)
        assert np.all(np.diag(g.g) < 0), seed
        assert sum(v < 0 for v in (g.g_LK, g.g_LT, g.g_KT)) <= 1, seed
        forms = g.determinant_identity()
        assert min(forms) > 0, seed
        assert max(forms) - min(forms) < 1e-10 * max(1.0, abs(forms[0])), seed


def _edge_sector(rng, th, x):
    """Allen matrix (3x3 floats), built as `sample_economy_shares` builds it,
    of a sector with shares th whose M has eigenvalues 0 (on 1), x and a
    log-uniform y in [-20, -CONCAVITY_TOL]."""
    u, w = np.linalg.qr(np.column_stack([np.ones(3), rng.normal(size=(3, 2))]))[0].T[1:]
    y = -np.exp(rng.uniform(np.log(CONCAVITY_TOL), np.log(20.0)))
    a = (x * np.outer(u, u) + y * np.outer(w, w)) / np.outer(th, th)
    s = [[0.0, a[T, K], a[T, L]], [a[T, K], 0.0, a[K, L]], [a[T, L], a[K, L], 0.0]]
    s[T][T], s[K][K], s[L][L] = _aes_diagonal(s, th)
    return s


@pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3, 1.0])
def test_strict_concavity_carries_every_ews_property_in_float(delta):
    # `sample_economy_shares` accepts on `_concave` alone: economies whose
    # sectors have one eigenvalue of M at -tol (1 + delta) and the other in
    # [-20, -tol] keep negative Allen diagonals, at most one complementary
    # pair and positive determinant forms in float arithmetic, at the share
    # and goods floors too; and `_concave` refuses an eigenvalue in (-tol, tol]
    rng, tol, accepted = np.random.default_rng(18), CONCAVITY_TOL, 0
    for _ in range(1000):
        theta_share = 0.02 + 0.94 * rng.dirichlet(np.ones(3), size=2).T
        theta_good = [g := 0.01 + 0.98 * rng.uniform(), 1.0 - g]
        sigma = [_edge_sector(rng, th, -tol * (1 + delta))
                 for th in theta_share.T.tolist()]
        accepted += all(map(_concave, sigma, theta_share.T.tolist()))
        e = m.Economy.from_shares(theta_share, theta_good, sigma)
        g = m.ews_matrix(e)
        assert (np.diagonal(e.sigma, axis1=1, axis2=2) < 0).all()
        assert (g.g_LK < 0) + (g.g_LT < 0) + (g.g_KT < 0) <= 1
        assert min(g.determinant_identity()) > 0
        th = theta_share[:, 0].tolist()
        for x in (-tol * (1 - 1e-3), -tol / 2, 0.0, tol):
            assert not _concave(_edge_sector(rng, th, x), th), x
    assert accepted == 1000 or delta < 1.0  # nearer, rounding of M decides


def test_mixed_pool_builds_valid_economies():
    for e in mixed_pool(31, 6):
        assert m.validate_economy(e, check_ranking=True).ok


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("size", [None, (1,), (7,), (32,), (1, 2), (7, 2), (32, 2)])
def test_dirichlet_equals_the_library_draw(k, size):
    for seed in range(50):
        lib, own = np.random.default_rng(seed), np.random.default_rng(seed)
        want = lib.dirichlet(np.ones(k), size=size)
        got = _dirichlet(own.standard_exponential((size or ()) + (k,)))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert own.bit_generator.state == lib.bit_generator.state


def test_allen_diagonal_is_one_formula_on_floats_and_arrays():
    rng = np.random.default_rng(3)
    shares = rng.dirichlet(np.ones(3), size=(4, 2))
    sig = rng.normal(size=(4, 2, 3, 3))
    filled = _fill_aes_diagonal(sig, shares)
    for idx in np.ndindex(4, 2):
        diag = _aes_diagonal(sig[idx].tolist(), shares[idx].tolist())
        assert np.diagonal(filled[idx]).tolist() == list(diag)
