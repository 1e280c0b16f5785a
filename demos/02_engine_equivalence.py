"""The two engines are one model.

The balance-sheet engine needs every bank's full sheet. The threshold
engine needs a single number per bank: the weighted fraction of its
borrowers whose default it can absorb, (net worth + return) / lending.
Feed both the same shock draw and they agree default for default, round
for round, on every instance.
"""
import numpy as np

import bankcascades as bc

params = bc.BalanceParams(0.1, 0.01, bc.ThetaDistribution.uniform(0.2, 0.4))
loan_dist = bc.LoanSizeDistribution.uniform(0.2, 1.8)

print("seed   z   defaults(BS)  defaults(threshold)  rounds  identical?")
all_equal = True
for seed in range(12):
    rng = np.random.default_rng(seed)
    z = float(rng.uniform(1.0, 8.0))
    net = bc.generate_er(500, z, loan_dist, rng)
    sheets = bc.build_sheets(net, params, rng_seed=rng)
    returns = bc.draw_shocks(sheets, rng)

    balance = bc.run_balance_cascade(net, sheets, returns)

    # the entire mapping: thresholds for lenders, outright failures for the rest
    thresholds, initial_flips = bc.thresholds_from_shocks(net, sheets, returns)
    threshold = bc.run_threshold_cascade(net, thresholds, initial_flips)

    same = balance.same_outcome(threshold)
    all_equal &= same
    print(f"{seed:4d}  {z:4.1f}  {balance.n_total:10d}  {threshold.n_total:17d}"
          f"  {balance.rounds:6d}  {same}")

print(f"\nsample-path equivalence on all instances: {all_equal}")

# the threshold engine never looked at a balance sheet; standalone, it can
# sample its thresholds directly from the law the sheet parameters imply,
# and the round-0 flips of the banks that lend nothing, in one draw
net = bc.generate_er(500, 4.0, loan_dist, 99)
thetas = params.theta_dist.sample(500, np.random.default_rng(1))
thresholds, flips = bc.draw_thresholds(net, params, thetas, 2)
standalone = bc.run_threshold_cascade(net, thresholds, flips)
print(f"standalone threshold run (no sheets built): {standalone.n_total} defaults, "
      f"{standalone.rounds} rounds")
