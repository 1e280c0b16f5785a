"""The random streams, pinned to plain numpy calls.

Every expectation below is built from numpy alone, with none of the
package's seeding or draw helpers, so a change that moves a single bit of
any stream fails here: the tuple-keyed ``SeedSequence`` the streams have used
since v0, and ``Generator.normal`` / ``Generator.random`` draws in the order
the per-trial functions make them.
"""
import json

import numpy as np
import pytest

from bankcascades import (
    BalanceParams,
    LoanSizeDistribution,
    ThetaDistribution,
    build_sheets,
    draw_shocks,
    draw_thresholds,
    generate_er,
)
from bankcascades.rng import draw_rows, stream_rng, stream_rngs, stream_seed

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
    got = draw_shocks(sheets, np.random.default_rng(seed))
    want = np.random.default_rng(seed).normal(0.0, sheets.return_std)
    assert _bits(got) == _bits(want)


def test_draw_shocks_keeps_the_sign_of_zero_at_zero_volatility():
    # numpy computes 0.0 + 0.0 * z, which is +0.0 even when z < 0
    n = 64
    sigma = np.zeros(n)
    sigma[::4] = 0.5
    sheets = sheets_from_worth(np.ones(n), np.ones(n), sigma=sigma)
    got = draw_shocks(sheets, np.random.default_rng(3))
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

    thresholds, flips = draw_thresholds(net, PARAMS, thetas, np.random.default_rng(seed))

    oracle = np.random.default_rng(seed)
    ratio = PARAMS.capital_ratio / thetas
    want = oracle.normal(ratio, ratio / abs(PARAMS.default_quantile))
    want[~lends] = np.nan
    want_flips = ~lends & (oracle.random(n) < PARAMS.default_prob)
    assert _bits(thresholds) == _bits(want)
    assert np.array_equal(flips, want_flips)


def _state(rng) -> str:
    """A generator's whole state, MT19937's key array included, comparable with ==."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def _full_row(rng, n, delta, inactive):
    """The reference row: n normals, then n uniforms u; a masked bank keeps u - delta."""
    normals, u = rng.standard_normal(n), rng.random(n)
    return np.where(inactive, u - delta, normals)


def test_a_standalone_row_is_its_normals_then_its_uniforms_minus_delta():
    # one row draws n normals, then n uniforms u; a non-lender keeps u - delta,
    # which is negative exactly when u < delta, the draw's round-0 flip. A row
    # reads only the uniforms up to its last non-lender, yet its generator ends
    # where the full draw leaves it
    n = 1000
    sparse = generate_er(n, 1.0, LoanSizeDistribution.constant(1.0), 23)
    dense = generate_er(n, 6.0, LoanSizeDistribution.constant(1.0), 10)
    assert dense.is_lender[n // 2:].all()  # three non-lenders, none late: rows skip uniforms
    thetas = np.random.default_rng(24).uniform(0.2, 0.4, n)
    delta = PARAMS.default_prob
    n_flips = 0
    for net in (sparse, dense):
        lends = net.is_lender
        assert lends.any() and not lends.all()
        for seed in range(50):
            oracle = np.random.default_rng(seed)
            normals, u = oracle.standard_normal(n), oracle.random(n)
            (row,) = draw_rows([np.random.default_rng(seed)], 1, n, delta, ~lends)
            assert _bits(row[lends]) == _bits(normals[lends])
            assert _bits(row[~lends]) == _bits(u[~lends] - delta)
            caller = np.random.default_rng(seed)
            _, flips = draw_thresholds(net, PARAMS, thetas, caller)
            assert np.array_equal(flips, (u < delta) & ~lends)
            assert caller.bit_generator.state == oracle.bit_generator.state
            n_flips += flips.sum()
    assert n_flips  # some non-lender flips: the comparison is not vacuous

    banks = np.arange(n)
    masks = {"none": banks < 0, "all": banks >= 0, "last": banks == n - 1, "first": banks == 0,
             "second to last": banks == n - 2, "random": np.random.default_rng(25).random(n) < 0.3,
             # one non-lender: 49 to 949 unread uniforms, on both sides of the floor
             **{f"only {i}": banks == i for i in range(50, n - 1, 50)}}
    for name, inactive in masks.items():
        for bitgen in (np.random.PCG64, np.random.MT19937):
            for seed in range(3):
                oracle, rng = (np.random.Generator(bitgen(seed)) for _ in range(2))
                (row,) = draw_rows([rng], 1, n, delta, inactive)
                assert _bits(row) == _bits(_full_row(oracle, n, delta, inactive)), (name, bitgen)
                assert _state(rng) == _state(oracle), (name, bitgen)

    # one batch of mixed generators, each row its own full draw
    oracles, rngs = ([np.random.Generator(bitgen(7)) for bitgen in (np.random.PCG64, np.random.MT19937)]
                     for _ in range(2))
    rows = draw_rows(iter(rngs), 2, n, delta, masks["first"])
    for row, rng, oracle in zip(rows, rngs, oracles):
        assert _bits(row) == _bits(_full_row(oracle, n, delta, masks["first"]))
        assert _state(rng) == _state(oracle)

    # a caller's PCG64 holding a buffered 32-bit half, which PCG64.advance
    # drops, keeps it through draw_thresholds
    caller, oracle = (np.random.Generator(np.random.PCG64(8)) for _ in range(2))
    for rng in (caller, oracle):
        rng.random(dtype=np.float32)
    assert oracle.bit_generator.state["has_uint32"]
    draw_thresholds(dense, PARAMS, thetas, caller)
    _full_row(oracle, n, delta, ~dense.is_lender)
    assert _state(caller) == _state(oracle)
