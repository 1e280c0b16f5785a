"""The random streams, pinned to plain numpy calls.

Every expectation below is built from numpy alone, with none of the
package's seeding or draw helpers, so a change that moves a single bit of
any stream fails here: the tuple-keyed ``SeedSequence`` the streams have used
since v0, and ``Generator.normal`` / ``Generator.random`` draws in the order
the per-trial functions make them.
"""
import numpy as np
import pytest

from bankcascades import (
    BalanceParams,
    LoanSizeDistribution,
    ThetaDistribution,
    build_sheets,
    draw_inactive_flips,
    draw_shocks,
    generate_er,
    sample_thresholds,
)
from bankcascades.rng import stream_rng, stream_rngs, stream_seed

from conftest import sheets_from_worth

KEYS = [
    (0, 0),
    (0, 4, 0, 0, 0),
    (2**32 - 1, 3, 2**32 - 1, 0, 1),
    (2**32, 1, 7),
    (2**64 + 5, 4, 0, 2**32, 9),
    (7, 2, 2**64 + 5),
]

# trial indices of one, two and three 32-bit words, at the word edges
TRIALS = [0, 2**32 - 1, 2**32, 2**64 + 5]

PARAMS = BalanceParams(0.1, 0.01, ThetaDistribution.uniform(0.2, 0.4))


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("key", KEYS)
def test_stream_state_equals_tuple_keyed_seed_sequence(key):
    oracle = np.random.default_rng(np.random.SeedSequence(key))
    rng = stream_rng(*key)
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert rng.integers(0, 2**63, size=4).tolist() == oracle.integers(0, 2**63, size=4).tolist()


def _assert_streams_equal_seed_sequences(rngs, key, trials):
    rngs = list(rngs)
    assert len(rngs) == len(trials)
    for rng, trial in zip(rngs, trials):
        oracle = np.random.default_rng(np.random.SeedSequence((*key, trial)))
        assert rng.bit_generator.state == oracle.bit_generator.state, (key, trial)
        assert rng.standard_normal(3).tobytes() == oracle.standard_normal(3).tobytes()
        assert rng.random(3).tobytes() == oracle.random(3).tobytes()


@pytest.mark.parametrize("key", KEYS)
def test_batched_streams_equal_tuple_keyed_seed_sequences(key):
    _assert_streams_equal_seed_sequences(stream_rngs(*key, trials=TRIALS), key, TRIALS)
    contiguous = range(2**32 - 2, 2**32 + 2)  # one batch across the word boundary
    _assert_streams_equal_seed_sequences(stream_rngs(*key, trials=contiguous), key, contiguous)


def test_batched_streams_keep_the_order_of_a_non_contiguous_trial_list():
    trials = [9, 2**64 + 5, 3, 2**32 + 1, 0, 3, 2**32 - 1, 2**96 + 7]
    _assert_streams_equal_seed_sequences(stream_rngs(21, 4, 2, 1, trials=trials),
                                         (21, 4, 2, 1), trials)


def test_batched_streams_of_an_empty_batch():
    assert list(stream_rngs(21, 3, 0, 0, trials=[])) == []
    assert list(stream_rngs(21, 3, 0, 0, trials=range(5, 5))) == []


def test_negative_key_coordinate_is_a_clear_error():
    with pytest.raises(ValueError, match="non-negative"):
        stream_seed(-1, 3)
    with pytest.raises(ValueError, match="non-negative"):
        stream_rng(5, 3, 0, -2)


@pytest.mark.parametrize("key,trials", [((5, 3, 0), [1, -2]), ((-1, 3), [0]),
                                        ((5, 3, -4), [])])
def test_negative_coordinate_of_a_batch_raises_like_stream_seed(key, trials):
    negative = next(v for v in (*key, *trials) if v < 0)
    with pytest.raises(ValueError) as single:
        stream_seed(*key[:2], negative)
    with pytest.raises(ValueError) as batched:
        stream_rngs(*key, trials=trials)  # raised on the call, before any draw
    assert str(batched.value) == str(single.value)


@pytest.mark.parametrize("seed", [0, 1, 2**40])
def test_draw_shocks_is_numpy_normal(seed):
    net = generate_er(400, 3.0, LoanSizeDistribution.constant(1.0), 11)
    sheets = build_sheets(net, PARAMS, rng_seed=12)
    got = draw_shocks(sheets, np.random.default_rng(seed)).asset_returns
    want = np.random.default_rng(seed).normal(0.0, sheets.return_std)
    assert _bits(got) == _bits(want)


def test_draw_shocks_keeps_the_sign_of_zero_at_zero_volatility():
    # numpy computes 0.0 + 0.0 * z, which is +0.0 even when z < 0
    n = 64
    sigma = np.zeros(n)
    sigma[::4] = 0.5
    sheets = sheets_from_worth(np.ones(n), np.ones(n), sigma=sigma)
    got = draw_shocks(sheets, np.random.default_rng(3)).asset_returns
    want = np.random.default_rng(3).normal(0.0, sigma)
    assert not np.signbit(got[sigma == 0]).any()
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("degree,seed", [(0.5, 0), (1.0, 5), (4.0, 2**40)])
def test_sampled_thresholds_then_flips_are_numpy_draws(degree, seed):
    n = 500
    net = generate_er(n, degree, LoanSizeDistribution.constant(1.0), 21)
    thetas = np.random.default_rng(22).uniform(0.2, 0.4, n)
    lends = net.interbank_assets > 0
    assert lends.any() and not lends.all()

    rng = np.random.default_rng(seed)
    thr = sample_thresholds(net, PARAMS, thetas, rng)
    flips = draw_inactive_flips(thr.active, PARAMS.default_prob, rng)

    oracle = np.random.default_rng(seed)
    ratio = PARAMS.capital_ratio / thetas
    want = oracle.normal(ratio, ratio / abs(PARAMS.default_quantile))
    want[~lends] = np.nan
    want_flips = ~lends & (oracle.random(n) < PARAMS.default_prob)
    assert np.array_equal(thr.active, lends)
    assert _bits(thr.thresholds) == _bits(want)
    assert np.array_equal(flips, want_flips)
