#!/usr/bin/env python3
"""Choosing intermediate speed levels to balance holding and energy costs.

With the idle and top speeds pinned, the cost as a function of the single
intermediate speed is convex: too slow piles up jobs, too fast burns energy.
One well-chosen intermediate level captures most of the achievable saving;
a second level refines it only modestly.
"""

from fbq import (
    CostCoefficients,
    CoxianService,
    SingleServerModel,
    SpeedProfile,
    evaluate_cost_single,
    optimize_intermediate_speeds,
    solve_k1_closed_form,
)

service = CoxianService(5.0, 1.0, 0.1)
costs = CostCoefficients(c1=1.0, c2=20.0)
ALPHA = 2.0

print("cost vs intermediate speed at lambda = 2.5 (idle 0, top 1):")
base = SingleServerModel(2.5, service, SpeedProfile((0.0, 0.5, 1.0), alpha=ALPHA))
profile, best_cost, curve = optimize_intermediate_speeds(base, 2, costs)
for x, y in zip(curve.xs, curve.ys):
    if round(x * 10) == x * 10:
        bar = "#" * int((y - 16.2) * 40)
        print(f"  s1={x:.1f}: C={y:7.4f} {bar}")
print(f"  optimum: s1 = {profile.levels[1]:.3f}, cost {best_cost:.4f}")

print("\none vs two intermediate levels across the load range:")
print(f"{'lambda':>7} {'plain two-speed':>16} {'one level':>10} {'two levels':>11}")
for lam in (0.8, 1.6, 2.4, 3.0):
    m1 = SingleServerModel(lam, service, SpeedProfile((0.0, 1.0), alpha=ALPHA))
    c1 = evaluate_cost_single(solve_k1_closed_form(m1), costs)
    b2 = SingleServerModel(lam, service, SpeedProfile((0.0, 0.5, 1.0), alpha=ALPHA))
    _, c2, _ = optimize_intermediate_speeds(b2, 2, costs)
    b3 = SingleServerModel(lam, service, SpeedProfile((0.0, 0.4, 0.7, 1.0), alpha=ALPHA))
    _, c3, _ = optimize_intermediate_speeds(b3, 3, costs)
    print(f"{lam:7.1f} {c1:16.4f} {c2:10.4f} {min(c3, c2):11.4f}")
print("\nthe second level helps least exactly where modulation matters least: at high load")
