"""Anatomy of one default cascade.

Builds a small random interbank network, gives every bank a balance sheet,
draws one round of asset returns and watches the defaults spread. Run it a
few times with different seeds to see quiet draws, partial cascades and
system-wide wipeouts.
"""
import numpy as np

import bankcascades as bc

SEED = 42
N = 60

net = bc.generate_er(N, 3.0, bc.LoanSizeDistribution.constant(1.0), SEED)
print(f"network: {N} banks, {net.n_edges} loans, mean out-degree {net.n_edges / N:.2f}")

params = bc.BalanceParams(capital_ratio=0.1, default_prob=0.01,
                          theta_dist=bc.ThetaDistribution.constant(0.3))
sheets = bc.build_sheets(net, params, rng_seed=SEED)
print(f"bank 0 sheet: external {sheets.external_assets[0]:.2f}, "
      f"interbank {sheets.interbank_assets[0]:.2f}, net worth {sheets.net_worth[0]:.3f}, "
      f"return std {sheets.return_std[0]:.4f}")

# a 1% fundamental default probability means quiet draws are common at
# N=60, so exaggerate the volatility for the demonstration; the returns are
# a plain array, one per bank
returns = 3.0 * bc.draw_shocks(sheets, SEED)
result = bc.run_balance_cascade(net, sheets, returns)

print(f"\nfundamental defaults (own losses only): {result.n_fundamental}")
print(f"total defaults after contagion:          {result.n_total}  "
      f"({result.fraction:.0%} of the system)")
print(f"propagation rounds:                      {result.rounds}")

# result.step holds the round in which each bank defaulted (-1: survived)
hit = np.flatnonzero(result.defaulted)
print(f"defaults per round:                      {np.bincount(result.step[hit]).tolist()}")
for i in hit[:12]:
    kind = "fundamental" if result.step[i] == 0 else f"round {result.step[i]}"
    print(f"  bank {i:3d} [{kind:11s}] lent {net.interbank_assets[i]:4.1f} to "
          f"{net.out_degree[i]} banks, borrowed {net.interbank_liabilities[i]:4.1f}")
if len(hit) > 12:
    print(f"  ... and {len(hit) - 12} more")
