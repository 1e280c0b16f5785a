"""Where the flip thresholds come from.

A lender with share theta of its assets in interbank loans, capital ratio
gamma and normal asset returns calibrated to a default probability delta
carries a threshold distributed Normal(gamma/theta, (gamma/theta/|q|)^2),
with q the normal quantile of delta. This script samples thresholds,
compares the histogram with the transformed density, and checks the two
facts that make the model tick: the negative-threshold mass equals delta,
and the mean sits at gamma/theta.
"""
import math

import numpy as np

import bankcascades as bc

GAMMA, DELTA, THETA = 0.1, 0.01, 0.3

params = bc.BalanceParams(GAMMA, DELTA, bc.ThetaDistribution.constant(THETA))
net = bc.generate_er(1000, 3.0, bc.LoanSizeDistribution.constant(1.0), 4)
thetas = np.full(1000, THETA)
active = net.is_lender

samples = []
for trial in range(120):
    thresholds, _ = bc.draw_thresholds(net, params, thetas, 1000 + trial)
    samples.append(thresholds[active])
sample = np.concatenate(samples)

q = params.default_quantile
mean_ref = GAMMA / THETA
sd_ref = mean_ref / abs(q)
print(f"normal quantile of delta={DELTA}: {q:.6f}")
print(f"{len(sample)} sampled thresholds")
print(f"  mean {sample.mean():.6f}   (theory {mean_ref:.6f})")
print(f"  std  {sample.std(ddof=1):.6f}   (theory {sd_ref:.6f})")
print(f"  P(threshold < 0) = {(sample < 0).mean():.5f}   (theory {DELTA})")

# histogram vs the transformed density of a unit lender's threshold
L = 3.0
sigma = GAMMA * L / (THETA * abs(q))
g = lambda x: np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
sub = sample[:50_000]
edges = np.linspace(mean_ref - 3.1 * sd_ref, mean_ref + 3.1 * sd_ref, 13)
mids = 0.5 * (edges[:-1] + edges[1:])
hist, _ = np.histogram(sub, bins=edges, density=True)
density = bc.shadow_threshold_pdf(mids, L, GAMMA, THETA, g)

print("\n   x     empirical  density")
for x, h, f in zip(mids, hist, density):
    bar = "#" * int(round(10 * h))
    print(f"{x:7.3f}  {h:9.4f}  {f:7.4f}  {bar}")
