"""Share-level blocks of whole candidates, and lockstep production rounds that
keep the one-at-a-time stream.

`reference_sample_economy_shares` and `reference_sample_economy` are the
one-at-a-time loops that the block draws replaced, kept as they were apart
from counting the candidates they use and sharing their tests of a candidate;
the first is the share-level sampler's stream before it drew whole candidates
in blocks. `reference_block_sample_economy_shares` is today's share-level
stream, written as a plain loop over the same two block draws. Each stream
test hands the same fresh Generator to a reference and to the library sampler
and asserts the same result, bit for bit, and the same generator state
afterwards; the share-level blocks are also tested to draw from the
one-at-a-time distribution.
"""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

import ews3x2 as m
from ews3x2.errors import ExhaustedRejection
from ews3x2.geometry import in_quadrant
from ews3x2.model import (K, L, T, _aes_diagonal, _concave, _dirichlet, _epsilon,
                          _ews, _ews_ratios, ews_matrix, validate_economy)
from ews3x2.production import (EquilibriumPoint, SampledEconomy, _draw_params,
                               calibrated_spec, economy_snapshot)

SEEDS = range(200)
#: whole candidates per block of the share-level sampler
SHARE_BLOCK = 64


def reference_ranked(theta_share):
    rt = theta_share[T, 0] / theta_share[T, 1]
    rk = theta_share[K, 0] / theta_share[K, 1]
    rl = theta_share[L, 0] / theta_share[L, 1]
    return rt > rl > rk and theta_share[L, 0] > theta_share[L, 1]


def reference_sector(tth, off):
    """Allen matrix of a sector with shares tth and off-diagonals off (TK, TL,
    KL), or None where its share-weighted matrix has an eigenvalue above 1e-10."""
    s = np.zeros((3, 3))
    s[T, K] = s[K, T] = off[0]
    s[T, L] = s[L, T] = off[1]
    s[K, L] = s[L, K] = off[2]
    for i in range(3):
        w = sum(tth[h] * s[i, h] for h in range(3) if h != i)
        s[i, i] = -w / tth[i]
    weighted = tth[:, None] * s * tth[None, :]
    if np.linalg.eigvalsh(weighted)[-1] > 1e-10:
        return None
    return s


def reference_accepts(e, ranked):
    """The structural and EWS tests of an economy whose sectors are concave."""
    if not validate_economy(e, check_ranking=ranked).ok:
        return False
    g = ews_matrix(e)
    off = (g.g_LK, g.g_LT, g.g_KT)
    return bool(np.all(np.diag(g.g) < 0)
                and sum(v < 0 for v in off) <= 1
                and min(g.determinant_identity()) > 0)


def reference_sample_economy_shares(seed, ranked=True, min_share=0.02,
                                    max_draws=100_000):
    """One-at-a-time share-level sampler; returns (economy, candidates)."""
    rng = np.random.default_rng(seed)
    draws = 0
    for _ in range(max_draws):
        draws += 1
        theta_share = rng.dirichlet(np.ones(3), size=2).T
        if np.min(theta_share) < min_share:
            continue
        if ranked and not reference_ranked(theta_share):
            continue
        theta_good = rng.dirichlet(np.ones(2))
        if np.min(theta_good) < 0.01:
            continue
        sigma = np.zeros((2, 3, 3))
        concave = True
        for j in range(2):
            s = reference_sector(theta_share[:, j], rng.uniform(-3.0, 6.0, size=3))
            if s is None:
                concave = False
                break
            sigma[j] = s
        if not concave:
            continue
        e = m.Economy.from_shares(theta_share, theta_good, sigma)
        if reference_accepts(e, ranked):
            return e, draws
    raise ExhaustedRejection(
        f"no valid share-level economy within {max_draws} draws")


def reference_block_sample_economy_shares(seed, ranked=True, min_share=0.02,
                                          max_draws=100_000):
    """Block share-level sampler: each block draws SHARE_BLOCK rows of eight
    exponentials (sector 1's shares, sector 2's, the goods), then rows of six
    uniforms (TK, TL, KL of sector 1, of sector 2), and its candidates are
    tested in order as the one-at-a-time reference tests them; returns
    (economy, candidates)."""
    rng = np.random.default_rng(seed)
    draws = 0
    while draws < max_draws:
        expo = rng.standard_exponential((SHARE_BLOCK, 8))
        unif = rng.uniform(-3.0, 6.0, size=(SHARE_BLOCK, 6))
        for x, off in zip(expo[:max_draws - draws], unif):
            draws += 1
            sectors = x[:6].reshape(2, 3)  # rng.dirichlet's arithmetic by row
            theta_share = (sectors * (1.0 / (sectors[:, 0] + sectors[:, 1]
                                             + sectors[:, 2]))[:, None]).T
            if np.min(theta_share) < min_share:
                continue
            if ranked and not reference_ranked(theta_share):
                continue
            theta_good = x[6:] * (1.0 / (x[6] + x[7]))
            if np.min(theta_good) < 0.01:
                continue
            sigma = [reference_sector(theta_share[:, j], off[3 * j:3 * j + 3])
                     for j in range(2)]
            if any(s is None for s in sigma):
                continue
            e = m.Economy.from_shares(theta_share, theta_good, sigma)
            if reference_accepts(e, ranked):
                return e, draws
    raise ExhaustedRejection(
        f"no valid share-level economy within {max_draws} draws")


def reference_sample_economy(seed, constraints=m.SampleConstraints(),
                             max_draws=100_000):
    """One-at-a-time production-backed sampler; returns (sample, candidates)."""
    rng = np.random.default_rng(seed)
    cons = constraints
    draws = 0
    for _ in range(max_draws):
        draws += 1
        theta_share = rng.dirichlet(np.ones(3), size=2).T
        if np.min(theta_share) < cons.min_share:
            continue
        if cons.ranked and not reference_ranked(theta_share):
            continue
        families = cons.families
        nest = None
        if cons.quadrant == "IV":
            families = ("two_level_ces",)
            nest = (T, K)
        specs = []
        for j in range(2):
            family = families[rng.integers(len(families))]
            specs.append(calibrated_spec(family, theta_share[:, j],
                                         **_draw_params(rng, family, nest)))
        specs = tuple(specs)
        X = rng.uniform(0.5, 2.0, size=2)
        w = np.ones(3)
        p = np.ones(2)
        a = np.stack([specs[j].unit_cost(w)[1] for j in range(2)], axis=1)
        V = a @ X
        eq = EquilibriumPoint(w, p, V, X, a, float(p @ X))
        e = economy_snapshot(eq, specs)
        if not validate_economy(e, check_ranking=cons.ranked).ok:
            continue
        if cons.quadrant is not None:
            g = ews_matrix(e)
            if abs(g.g_LT) < 1e-12:
                continue
            s_dir = g.g_LK / g.g_LT
            u_dir = g.g_KT / g.g_LT
            quad = ("I" if u_dir > 0 else "IV") if s_dir > 0 else \
                   ("II" if u_dir > 0 else "III")
            if quad != cons.quadrant:
                continue
        return SampledEconomy(e, specs, eq, seed), draws
    raise ExhaustedRejection(
        f"no economy satisfying {cons} within {max_draws} draws (seed {seed})")


def assert_same_economy(a, b):
    for name in ("theta_share", "lambda_share", "theta_good", "theta_factor",
                 "sigma"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_same_sample(a, b):
    assert_same_economy(a.economy, b.economy)
    for x, y in zip(a.specs, b.specs, strict=True):
        assert type(x) is type(y)
        for f in dataclasses.fields(x):
            assert np.array_equal(getattr(x, f.name), getattr(y, f.name)), f.name
    for name in ("w", "p", "V", "X", "a"):
        assert np.array_equal(getattr(a.equilibrium, name),
                              getattr(b.equilibrium, name)), name
    assert a.equilibrium.income == b.equilibrium.income


def same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


SHARE_MODES = {"shares_ranked": True, "shares_unranked": False}
PRODUCTION_MODES = {
    "ranked": m.SampleConstraints(ranked=True),
    "quadrant_iv": m.SampleConstraints(ranked=True, quadrant="IV"),
    "unranked": m.SampleConstraints(ranked=False),
    "cd_ces": m.SampleConstraints(families=("cobb_douglas", "ces")),
}


@pytest.mark.parametrize("ranked", SHARE_MODES.values(), ids=SHARE_MODES)
def test_share_sampler_keeps_the_stream(ranked, share_samples):
    for seed in SEEDS:
        e, state = share_samples[ranked][seed]  # drawn from default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        ref, _ = reference_block_sample_economy_shares(ref_rng, ranked=ranked)
        assert_same_economy(e, ref)
        assert state == ref_rng.bit_generator.state, seed


@pytest.mark.parametrize("cons", PRODUCTION_MODES.values(),
                         ids=PRODUCTION_MODES)
def test_production_sampler_keeps_the_stream(cons):
    for seed in SEEDS:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        s = m.sample_economy(rng, cons)
        ref, _ = reference_sample_economy(ref_rng, cons)
        assert_same_sample(s, ref)
        assert same_state(rng, ref_rng), seed
    # an integer seed is still what the sample records
    assert m.sample_economy(7, cons).seed == 7


def _outcome(fn, *args, **kwargs):
    """Message from an integer seed, and the generator state a run leaves."""
    with pytest.raises(ExhaustedRejection) as info:
        fn(11, *args, **kwargs)
    rng = np.random.default_rng(11)
    with pytest.raises(ExhaustedRejection):
        fn(rng, *args, **kwargs)
    return str(info.value), rng.bit_generator.state


@pytest.mark.parametrize("max_draws", [-31, -1, 0, 1, 31, 32, 33, 63, 64, 65,
                                       100, 128, 129])
def test_exhausted_budget_matches_reference(max_draws):
    # three shares of at least 0.34 cannot sum to one; a share-level block is
    # drawn whole however few of its candidates the budget leaves
    assert (_outcome(m.sample_economy_shares, min_share=0.34,
                     max_draws=max_draws)
            == _outcome(reference_block_sample_economy_shares, min_share=0.34,
                        max_draws=max_draws))
    cons = m.SampleConstraints(min_share=0.34)
    assert (_outcome(m.sample_economy, cons, max_draws=max_draws)
            == _outcome(reference_sample_economy, cons, max_draws=max_draws))


def _share_outcome(fn, seed, ranked, max_draws):
    """The economy, or the ExhaustedRejection message, and the end state of
    the generator it drew from."""
    rng = np.random.default_rng(seed)
    try:
        out = fn(rng, ranked, max_draws=max_draws)
    except ExhaustedRejection as exc:
        return str(exc), rng.bit_generator.state
    return (out[0] if isinstance(out, tuple) else out), rng.bit_generator.state


@pytest.mark.parametrize("ranked", SHARE_MODES.values(), ids=SHARE_MODES)
def test_share_budget_ending_on_the_accepted_candidate(ranked):
    # budgets that end mid-block, at a block's edges, on the accepted
    # candidate and one before it: every budget from the accepted candidate
    # on gives its economy, and each leaves the generator where the reference
    # leaves it
    for seed in range(10):
        expected, draws = reference_block_sample_economy_shares(seed, ranked)
        for budget in (1, SHARE_BLOCK - 1, SHARE_BLOCK, SHARE_BLOCK + 1,
                       draws - 1, draws):
            got, state = _share_outcome(m.sample_economy_shares, seed, ranked, budget)
            ref, ref_state = _share_outcome(reference_block_sample_economy_shares,
                                            seed, ranked, budget)
            assert state == ref_state, (seed, budget)
            if budget < draws:
                assert got == ref == (f"no valid share-level economy within "
                                      f"{budget} draws"), (seed, budget)
            else:
                assert_same_economy(got, expected)
                assert_same_economy(ref, expected)


@pytest.mark.parametrize("min_share", [np.nan, -0.01, 1.0, np.inf])
def test_min_share_that_cannot_be_a_floor_is_refused(min_share):
    # a NaN floor once spent the whole budget and named only the budget
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match=r"^min_share must lie in \[0, 1\), not "):
        m.sample_economy_shares(rng, min_share=min_share)
    assert same_state(rng, np.random.default_rng(3))  # refused before any draw
    with pytest.raises(ValueError, match=r"^min_share must lie in \[0, 1\), not "):
        m.SampleConstraints(min_share=min_share)


def unit_dirichlet(x):
    """rng.dirichlet(np.ones(len(x))) on floats, from its standard exponentials x."""
    acc = x[0]
    for v in x[1:]:
        acc = acc + v
    inv = 1.0 / acc
    return [v * inv for v in x]


def one_at_a_time_shares(rng, ranked):
    """`reference_sample_economy_shares` on Python floats, at the library's
    cost before block draws: `_concave` decides concavity, and no validation
    or EWS test is run, since strict concavity implies them. Returns
    (economy, candidates)."""
    for draws in itertools.count(1):
        x = rng.standard_exponential(6).tolist()
        sectors = [unit_dirichlet(x[:3]), unit_dirichlet(x[3:])]
        if min(sectors[0] + sectors[1]) < 0.02:
            continue
        r = [a / b for a, b in zip(*sectors)]
        if ranked and not (r[T] > r[L] > r[K] and sectors[0][L] > sectors[1][L]):
            continue
        theta_good = unit_dirichlet(rng.standard_exponential(2).tolist())
        if min(theta_good) < 0.01:
            continue
        sigma = []
        for th in sectors:
            tk, tl, kl = rng.uniform(-3.0, 6.0, size=3).tolist()
            s = [[0.0, tk, tl], [tk, 0.0, kl], [tl, kl, 0.0]]
            s[T][T], s[K][K], s[L][L] = _aes_diagonal(s, th)
            if not _concave(s, th):
                break
            sigma.append(s)
        else:
            return m.Economy.from_shares(np.array(sectors).T, theta_good, sigma), draws


@pytest.fixture(scope="module")
def one_at_a_time_samples():
    """(economy, candidates, end generator state) of `one_at_a_time_shares` on
    default_rng(seed), seeds 0-3,999, by `ranked`."""
    out = {}
    for ranked in (True, False):
        out[ranked] = []
        for seed in range(4000):
            rng = np.random.default_rng(seed)
            out[ranked].append(one_at_a_time_shares(rng, ranked)
                               + (rng.bit_generator.state,))
    return out


def economy_digest(samples):
    """sha256 of each (economy, end generator state)'s five arrays and state."""
    h = hashlib.sha256()
    for e, state in samples:
        for name in ("theta_share", "lambda_share", "theta_good",
                     "theta_factor", "sigma"):
            h.update(getattr(e, name).tobytes())
        h.update(json.dumps(state, sort_keys=True).encode())
    return h.hexdigest()


#: `economy_digest` of the share-level sampler, seeds 0-1,999, by `ranked`,
#: while it drew one candidate at a time (numpy 2.4)
ONE_AT_A_TIME_DIGESTS = {
    True: "199edbe54235b682a21d588faae5f8eaac37ca69b270f17087c5b8d3f8d04934",
    False: "64eadc8d013901af8c9957bff7cc4d0d9578eda0216150d6926d0f8c09eb2ea5",
}


@pytest.mark.parametrize("ranked", [True, False])
def test_one_at_a_time_references_are_the_old_stream(ranked, one_at_a_time_samples):
    # the float loop is bit for bit the sampler before block draws, and so is
    # the one-at-a-time reference, LAPACK, validation and EWS tests and all
    samples = one_at_a_time_samples[ranked]
    assert economy_digest((e, state) for e, _, state in samples[:2000]) == (
        ONE_AT_A_TIME_DIGESTS[ranked])
    for seed in itertools.chain(range(50), [127115]):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        e, draws = one_at_a_time_shares(rng, ranked)
        ref, ref_draws = reference_sample_economy_shares(ref_rng, ranked)
        assert_same_economy(e, ref)
        assert (draws, rng.bit_generator.state) == (
            ref_draws, ref_rng.bit_generator.state), seed


def block_candidates(seed, e):
    """1 + the place of e's shares among the candidates of default_rng(seed)'s
    share-level blocks."""
    rng = np.random.default_rng(seed)
    for start in range(0, 100 * SHARE_BLOCK, SHARE_BLOCK):
        x = rng.standard_exponential((SHARE_BLOCK, 8))
        rng.uniform(size=(SHARE_BLOCK, 6))
        sh = _dirichlet(x[:, :6].reshape(-1, 2, 3))
        hit = np.flatnonzero((sh == e.theta_share.T).all(axis=(1, 2)))
        if hit.size:
            return start + hit.item(0) + 1
    raise AssertionError(f"seed {seed}: shares not among its candidates")


def share_statistics(economies, candidates):
    """Per economy: the six theta_share entries, theta_good[0], whether an EWS
    off-diagonal is negative, whether the ratio point is in quadrant IV, and
    the candidates used."""
    th, la, tg, sigma = (np.stack([getattr(e, name) for e in economies])
                         for name in ("theta_share", "lambda_share",
                                      "theta_good", "sigma"))
    g = _ews(la, _epsilon(th, sigma))
    negative = (g[:, L, K] < 0) | (g[:, L, T] < 0) | (g[:, K, T] < 0)
    return np.column_stack([th.reshape(-1, 6), tg[:, 0], negative,
                            in_quadrant(*_ews_ratios(g), "IV"), candidates])


@pytest.mark.parametrize("ranked", [True, False])
def test_block_sampler_draws_from_the_one_at_a_time_distribution(
        ranked, share_samples, one_at_a_time_samples):
    # the stream pins compare the sampler with a reference of the same block
    # layout; this compares it with the one-at-a-time stream, 5,000 economies
    # against 4,000: every mean within 4 standard errors of the difference
    blocks = share_samples[ranked]
    new = share_statistics([e for e, _ in blocks],
                           [block_candidates(seed, e)
                            for seed, (e, _) in enumerate(blocks)])
    old = share_statistics([e for e, _, _ in one_at_a_time_samples[ranked]],
                           [n for _, n, _ in one_at_a_time_samples[ranked]])
    gap = new.mean(axis=0) - old.mean(axis=0)
    se = np.sqrt(new.var(axis=0, ddof=1) / len(new) + old.var(axis=0, ddof=1) / len(old))
    assert (abs(gap) <= 4 * se).all(), (gap / se).round(2).tolist()
    assert 0 < old[:, 7].mean() < 1 and 0 < old[:, 8].mean() < 1


@pytest.mark.parametrize("cons", PRODUCTION_MODES.values(),
                         ids=PRODUCTION_MODES)
def test_production_budget_ending_on_the_accepted_candidate(cons):
    for seed in range(10):
        expected, draws = reference_sample_economy(seed, cons)
        assert_same_sample(m.sample_economy(seed, cons, draws), expected)
        with pytest.raises(ExhaustedRejection,
                           match=f"within {draws - 1} draws"):
            m.sample_economy(seed, cons, draws - 1)


@pytest.mark.parametrize("cons", PRODUCTION_MODES.values(),
                         ids=PRODUCTION_MODES)
def test_batched_production_sampler_keeps_every_stream(cons):
    rngs = [np.random.default_rng(seed) for seed in SEEDS]
    samples = m.sample_economies(rngs, cons)
    for seed, rng, s in zip(SEEDS, rngs, samples):
        ref_rng = np.random.default_rng(seed)
        ref, _ = reference_sample_economy(ref_rng, cons)
        assert_same_sample(s, ref)
        assert s.seed is rng
        assert same_state(rng, ref_rng), seed


def test_batched_sampler_raises_for_the_first_exhausted_seed():
    cons = m.SampleConstraints(ranked=True)
    draws = {seed: reference_sample_economy(seed, cons)[1] for seed in range(9)}
    budget = sorted(draws.values())[-2] - 1
    short = [seed for seed in draws if draws[seed] > budget]
    assert len(short) == 2
    for seeds in (list(draws), list(draws)[::-1]):
        first = next(seed for seed in seeds if seed in short)
        with pytest.raises(ExhaustedRejection) as info:
            m.sample_economies(seeds, cons, budget)
        with pytest.raises(ExhaustedRejection) as ref:
            reference_sample_economy(first, cons, budget)
        assert str(info.value) == str(ref.value)
    # with the budget met, every seed gets its own economy
    samples = m.sample_economies(list(draws), cons, max(draws.values()))
    for seed, s in zip(draws, samples):
        assert_same_sample(s, reference_sample_economy(seed, cons)[0])


@pytest.mark.parametrize("max_draws", [-31, -3, -1, 0])
def test_batch_without_a_budget_names_the_first_seed(max_draws):
    cons = m.SampleConstraints(ranked=True)
    rngs = [np.random.default_rng(seed) for seed in (1, 2, 3)]
    with pytest.raises(ExhaustedRejection,
                       match=rf"within {max_draws} draws \(seed 1\)$"):
        m.sample_economies([1, 2, 3], cons, max_draws)
    with pytest.raises(ExhaustedRejection):
        m.sample_economies(rngs, cons, max_draws)
    for seed, rng in zip((1, 2, 3), rngs):  # no generator drew
        assert same_state(rng, np.random.default_rng(seed)), seed


def _reference_outcome(seed, cons, max_draws):
    """The reference's sample, or its ExhaustedRejection, and its generator."""
    rng = np.random.default_rng(seed)
    try:
        return reference_sample_economy(rng, cons, max_draws)[0], rng
    except ExhaustedRejection as exc:
        return exc, rng


@pytest.mark.parametrize("max_draws", [33, 40, 65])
def test_budgets_ending_mid_block_in_one_round(max_draws, monkeypatch):
    # one budget for every seed, but quadrant-IV seeds spend different
    # numbers of candidates on the rounds they fail, so a later round tests
    # blocks that the budget cuts short at different lengths
    import ews3x2.production as production
    cons = PRODUCTION_MODES["quadrant_iv"]
    seeds = list(range(128))
    refs = [_reference_outcome(seed, cons, max_draws) for seed in seeds]
    fits = [seed for seed, (ref, _) in zip(seeds, refs)
            if not isinstance(ref, ExhaustedRejection)]
    first = next(seed for seed, (ref, _) in zip(seeds, refs)
                 if isinstance(ref, ExhaustedRejection))
    lengths = []
    draw = production._draw_shares

    def recording(rngs, left, *args):
        lengths.append({min(left[k], 32) for k in rngs} - {32})
        return draw(rngs, left, *args)

    monkeypatch.setattr(production, "_draw_shares", recording)
    rngs = [np.random.default_rng(seed) for seed in fits]
    for seed, rng, s in zip(fits, rngs, m.sample_economies(rngs, cons, max_draws)):
        ref, ref_rng = refs[seed]
        assert_same_sample(s, ref)
        assert same_state(rng, ref_rng), seed
    assert any(len(cut) > 1 for cut in lengths)
    # with every seed: the first out of budget raises, after the seeds
    # before it have met their economies
    with pytest.raises(ExhaustedRejection) as info:
        m.sample_economies(seeds, cons, max_draws)
    with pytest.raises(ExhaustedRejection) as ref:
        reference_sample_economy(first, cons, max_draws)
    assert str(info.value) == str(ref.value)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    with pytest.raises(ExhaustedRejection):
        m.sample_economies(rngs, cons, max_draws)
    for seed in seeds[:first + 1]:
        assert same_state(rngs[seed], refs[seed][1]), seed


@pytest.mark.parametrize("cons", PRODUCTION_MODES.values(),
                         ids=PRODUCTION_MODES)
def test_round_arrays_are_the_samples_fields(cons):
    from ews3x2.production import _sample_rounds
    seeds = list(SEEDS)
    samples = m.sample_economies(seeds, cons)
    arrays, V, X, a, income, drawn = _sample_rounds(seeds, cons)
    assert len(drawn) == len(V) == len(seeds)
    for k, s in enumerate(samples):
        eq = s.equilibrium
        fields = [getattr(s.economy, f.name) for f in dataclasses.fields(s.economy)]
        fields += [eq.V, eq.X, eq.a, eq.income]
        for got, want in zip([arr[k] for arr in arrays + (V, X, a, income)],
                             fields, strict=True):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert [family for family, _, _ in drawn[k]] == [
            spec.form for spec in s.specs]


def test_empty_batch_is_empty():
    assert m.sample_economies([]) == []


@pytest.mark.parametrize("cons", [PRODUCTION_MODES["ranked"],
                                  PRODUCTION_MODES["quadrant_iv"]],
                         ids=["ranked", "quadrant_iv"])
def test_repeated_seeds_each_get_their_own_economy(cons):
    # rows are written in place round by round: a seed drawn twice, around
    # another, still gets at each position the economy it gets alone
    seeds = [5, 5, 8, 5]
    for seed, s in zip(seeds, m.sample_economies(seeds, cons), strict=True):
        assert_same_sample(s, m.sample_economy(seed, cons))
        assert s.seed == seed


def test_entries_that_share_a_bit_generator_are_refused():
    # default_rng returns a Generator itself and wraps a BitGenerator, so
    # both rows would draw from one stream
    g = np.random.default_rng(3)
    state = g.bit_generator.state
    with pytest.raises(ValueError, match=r"seeds\[0\] and seeds\[1\]"):
        m.sample_economies([g, g])
    assert g.bit_generator.state == state  # refused before any draw
    with pytest.raises(ValueError, match=r"seeds\[0\] and seeds\[1\]"):
        m.sample_economies([np.random.PCG64(3)] * 2)
    bits = np.random.PCG64(3)
    with pytest.raises(ValueError, match=r"seeds\[1\] and seeds\[3\]"):
        m.sample_economies([4, bits, 5, np.random.Generator(bits)])
    # two generators of one seed are two streams
    one = m.sample_economy(3)
    for s in m.sample_economies([np.random.default_rng(3), np.random.default_rng(3)]):
        assert_same_sample(s, one)
