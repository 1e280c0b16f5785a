"""Bank balance sheets built from the loan network.

Every bank starts from a tentative sheet with a common capital ratio and a
per-bank interbank-asset share, then riskless assets or deposits close the
balance identity. The volatility of each bank's external-asset return is set
so that the probability of a solo (fundamental) default equals a common
target, which requires the inverse standard-normal CDF implemented below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

from .network import DirectedNetwork, LoanSizeDistribution
from .rng import as_generator

__all__ = [
    "ThetaDistribution",
    "BalanceParams",
    "BalanceSheets",
    "normal_quantile",
    "build_sheets",
]


# Rational approximation for the inverse normal CDF (Acklam's coefficients),
# accurate to ~1.2e-9 relative; one Newton step below takes it to machine
# precision.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal, |CDF(result) - p| <= 1e-12.

    Rational approximation refined by a single Newton step on the CDF.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        z = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        z = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        z = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
    if pdf > 0.0:
        z -= (_norm_cdf(z) - p) / pdf
    return z


class ThetaDistribution(LoanSizeDistribution):
    """Law of the tentative interbank-asset share, values in (0, 1)."""

    quantity: ClassVar[str] = "interbank shares"

    def __post_init__(self):
        super().__post_init__()
        if not self.hi < 1:
            raise ValueError(f"interbank shares must lie in (0, 1), got hi={self.hi}")


def _require_shares(thetas: np.ndarray) -> None:
    """Raise ValueError unless every interbank share is finite and in (0, 1),
    the range :class:`ThetaDistribution` enforces on its law."""
    bad = np.flatnonzero(~((thetas > 0) & (thetas < 1)))  # NaN fails both
    if bad.size:
        raise ValueError(f"{ThetaDistribution.quantity} must be finite and lie in (0, 1), "
                         f"got {thetas[bad[0]]} for bank {bad[0]}")


@dataclass(frozen=True)
class BalanceParams:
    """Common sheet parameters.

    capital_ratio
        Tentative net worth over tentative total assets, shared by all banks.
    default_prob
        Target probability that a bank fails from its own asset losses alone.
        Must be below 0.5 so the matching normal quantile is negative.
    theta_dist
        Distribution of the tentative interbank-asset share.
    """

    capital_ratio: float
    default_prob: float
    theta_dist: ThetaDistribution

    def __post_init__(self):
        if not 0 < self.capital_ratio < 1:
            raise ValueError("capital_ratio must lie in (0, 1)")
        if not 0 < self.default_prob < 0.5:
            raise ValueError("default_prob must lie in (0, 0.5)")

    @cached_property
    def default_quantile(self) -> float:
        """Normal quantile of the default probability (always negative)."""
        return normal_quantile(self.default_prob)


@dataclass(frozen=True, eq=False)
class BalanceSheets:
    """Sheets for all banks, one frozen column per item. Assets: external +
    interbank + riskless. Liabilities: deposits + interbank + net worth. The
    two sides balance bank by bank."""

    external_assets: np.ndarray
    interbank_assets: np.ndarray
    riskless_assets: np.ndarray
    deposits: np.ndarray
    interbank_liabilities: np.ndarray
    net_worth: np.ndarray
    interbank_share: np.ndarray
    return_std: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.net_worth)


def build_sheets(
    net: DirectedNetwork,
    params: BalanceParams,
    rng_seed=None,
    *,
    thetas: np.ndarray | None = None,
) -> BalanceSheets:
    """Construct every bank's sheet from the network and shared parameters.

    For a bank that lends (interbank assets L > 0) the tentative total is
    T = L / theta, net worth is capital_ratio * T and external assets fill
    the remainder (tentative riskless assets are zero, so the external-assets
    to net-worth ratio is the same for every bank with a given theta). Banks
    that lend nothing get a unit-scale sheet T = 1 / E[theta]; they can only
    default on their own. Each bank's return volatility is then pinned to
    -net_worth / default_quantile, which makes the solo-default probability
    exactly ``params.default_prob`` regardless of sheet size. Finally the
    identity is closed: extra riskless assets if liabilities exceed T,
    deposits otherwise.

    Share draws come from ``rng_seed``; pass ``thetas`` instead to reuse
    draws made elsewhere (exactly one of the two must be given).
    """
    if (rng_seed is None) == (thetas is None):
        raise ValueError("pass exactly one of rng_seed or thetas")
    n = net.n_nodes
    if thetas is None:
        thetas = params.theta_dist.sample(n, as_generator(rng_seed))
    else:
        thetas = np.array(thetas, dtype=np.float64)  # copy: columns get frozen
        if thetas.shape != (n,):
            raise ValueError("thetas must have one entry per bank")
        _require_shares(thetas)

    lent = net.interbank_assets
    borrowed = net.interbank_liabilities

    total = np.where(net.is_lender, lent / thetas, 1.0 / params.theta_dist.mean())
    worth = params.capital_ratio * total
    external = total - lent
    sigma = -worth / params.default_quantile

    riskless = np.maximum(borrowed + worth - total, 0.0)
    deposits = np.maximum(total - borrowed - worth, 0.0)

    return BalanceSheets(
        external_assets=external,
        interbank_assets=lent.copy(),
        riskless_assets=riskless,
        deposits=deposits,
        interbank_liabilities=borrowed.copy(),
        net_worth=worth,
        interbank_share=thetas,
        return_std=sigma,
    )

