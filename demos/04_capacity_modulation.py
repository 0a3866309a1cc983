#!/usr/bin/env python3
"""Switching a server pool off below a job-count threshold.

Ten servers, each with the Coxian two-phase service; the pool switches
entirely off whenever the total job count drops to K and back on at the
next arrival.  A larger K saves energy (fewer operative servers on average)
at the price of longer queues; the cost-minimising threshold grows with the
unit price of energy.
"""

from fbq import CostCoefficients, MultiServerModel, evaluate_cost_multi, sweep_thresholds, verify_multi

base = MultiServerModel(lam=5.0, mu1=1.0, mu2=0.2, q=0.1, m=10)
print(f"offered load {base.offered_load():.2f} of {base.m} servers\n")

# one sweep solves every threshold; the cost is linear in (L, U), so any
# number of cost vectors can be scored afterwards
sweep = sweep_thresholds(base)
print("per-threshold metrics:")
print(f"{'K':>2} {'L':>8} {'U':>8}")
for sol in sweep:
    print(f"{sol.threshold:2d} {sol.L:8.4f} {sol.U:8.4f}")

print("\ncost-minimising threshold as energy gets pricier:")
for c2 in (0.5, 1.0, 1.5):
    cost = [evaluate_cost_multi(sol, CostCoefficients(1.0, c2)) for sol in sweep]
    best = min(range(len(cost)), key=cost.__getitem__)
    print(f"  c2={c2:3.1f}: K* = {best}   C(K) = " + " ".join(f"{y:.2f}" for y in cost))

sol = sweep[5]
res = verify_multi(MultiServerModel(5.0, 1.0, 0.2, 0.1, 10, threshold=5), sol)
print("\nstructural identities at K=5:", {k: f"{v:.1e}" for k, v in res.items()})
print("determinant zeros used by the solve:", [f"{z:.4f}" for z in sol.roots])
