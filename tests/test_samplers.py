"""Block-drawn share candidates and lockstep rounds across seeds: the samplers
keep the one-at-a-time stream.

The reference samplers below are the one-candidate-per-iteration loops the
block draw replaced, kept as they were apart from counting the candidates
they use. Each test hands the same fresh Generator to a reference and to the
library sampler and asserts the same result, bit for bit, and the same
generator state afterwards.
"""

import dataclasses

import numpy as np
import pytest

import ews3x2 as m
from ews3x2.errors import ExhaustedRejection
from ews3x2.model import K, L, T, ews_matrix, validate_economy
from ews3x2.production import (EquilibriumPoint, SampledEconomy, _draw_params,
                               calibrated_spec, economy_snapshot)

SEEDS = range(200)


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
        if ranked:
            rt = theta_share[T, 0] / theta_share[T, 1]
            rk = theta_share[K, 0] / theta_share[K, 1]
            rl = theta_share[L, 0] / theta_share[L, 1]
            if not (rt > rl > rk and theta_share[L, 0] > theta_share[L, 1]):
                continue
        theta_good = rng.dirichlet(np.ones(2))
        if np.min(theta_good) < 0.01:
            continue
        sigma = np.zeros((2, 3, 3))
        concave = True
        for j in range(2):
            off = rng.uniform(-3.0, 6.0, size=3)
            s = np.zeros((3, 3))
            s[T, K] = s[K, T] = off[0]
            s[T, L] = s[L, T] = off[1]
            s[K, L] = s[L, K] = off[2]
            for i in range(3):
                w = sum(theta_share[h, j] * s[i, h]
                        for h in range(3) if h != i)
                s[i, i] = -w / theta_share[i, j]
            tth = theta_share[:, j]
            weighted = tth[:, None] * s * tth[None, :]
            if np.linalg.eigvalsh(weighted)[-1] > 1e-10:
                concave = False
                break
            sigma[j] = s
        if not concave:
            continue
        e = m.Economy.from_shares(theta_share, theta_good, sigma)
        if not validate_economy(e, check_ranking=ranked).ok:
            continue
        g = ews_matrix(e)
        off = (g.g_LK, g.g_LT, g.g_KT)
        if not (np.all(np.diag(g.g) < 0)
                and sum(v < 0 for v in off) <= 1
                and min(g.determinant_identity()) > 0):
            continue
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
        if cons.ranked:
            rt = theta_share[T, 0] / theta_share[T, 1]
            rl = theta_share[L, 0] / theta_share[L, 1]
            rk = theta_share[K, 0] / theta_share[K, 1]
            if not (rt > rl > rk and theta_share[L, 0] > theta_share[L, 1]):
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
        ref, _ = reference_sample_economy_shares(ref_rng, ranked=ranked)
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


@pytest.mark.parametrize("max_draws", [-31, -1, 0, 1, 31, 32, 33, 100])
def test_exhausted_budget_matches_reference(max_draws):
    # three shares of at least 0.34 cannot sum to one
    assert (_outcome(m.sample_economy_shares, min_share=0.34,
                     max_draws=max_draws)
            == _outcome(reference_sample_economy_shares, min_share=0.34,
                        max_draws=max_draws))
    cons = m.SampleConstraints(min_share=0.34)
    assert (_outcome(m.sample_economy, cons, max_draws=max_draws)
            == _outcome(reference_sample_economy, cons, max_draws=max_draws))


@pytest.mark.parametrize("ranked", SHARE_MODES.values(), ids=SHARE_MODES)
def test_share_budget_ending_on_the_accepted_candidate(ranked):
    for seed in range(10):
        expected, draws = reference_sample_economy_shares(seed, ranked)
        assert_same_economy(
            m.sample_economy_shares(seed, ranked, max_draws=draws), expected)
        with pytest.raises(ExhaustedRejection,
                           match=f"within {draws - 1} draws"):
            m.sample_economy_shares(seed, ranked, max_draws=draws - 1)


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
