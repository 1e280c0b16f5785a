import math

import numpy as np
import pytest

from bankcascades import BalanceParams, BalanceSheets, ThetaDistribution, from_edges


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def quantile_bisect(p: float, iters: int = 200) -> float:
    """Independent normal-quantile oracle: plain bisection on the CDF."""
    lo, hi = -13.0, 13.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sheets_from_worth(worth, lent, *, sigma=None, theta=0.3) -> BalanceSheets:
    """Minimal consistent sheet set for engine-level tests: only net worth
    (and the volatility, for shock draws) matters to the cascades."""
    worth = np.asarray(worth, dtype=np.float64)
    lent = np.asarray(lent, dtype=np.float64)
    n = len(worth)
    external = np.full(n, 10.0)
    total = external + lent
    return BalanceSheets(
        external_assets=external,
        interbank_assets=lent,
        riskless_assets=np.zeros(n),
        deposits=total - worth,
        interbank_liabilities=np.zeros(n),
        net_worth=worth,
        interbank_share=np.full(n, theta),
        return_std=np.full(n, 0.5) if sigma is None else np.asarray(sigma, dtype=np.float64),
    )


def lowered_margin(net, margin):
    """The mutant coupled map: ``margin`` with the K of the bank that lends
    most often lowered to the next K below (K - 1 under unit loans)."""
    s, bank = net.loan_unit_exponent, int(np.argmax(net.out_degree))
    out = margin.copy()
    k = np.ldexp(np.floor(np.ldexp(margin[:, bank], s)), -s)
    out[:, bank] = np.nextafter(k, -np.inf)
    return out


@pytest.fixture
def case_a_params() -> BalanceParams:
    return BalanceParams(0.1, 0.01, ThetaDistribution.constant(0.3))


@pytest.fixture
def chain_net():
    """Bank 0 lends to 1, bank 1 lends to 2, unit loans."""
    return from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
