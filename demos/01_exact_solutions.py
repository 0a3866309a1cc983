#!/usr/bin/env python3
"""Tour of the exact solvers.

Jobs arrive in a Poisson stream and carry an exponential first work phase
(rate nu1) followed, with probability q, by a slower second phase (rate
nu2).  First-phase work runs in the foreground queue; second-phase work
waits in a background queue that is served only when the foreground is
empty.  A single server picks its speed from a staircase s_0 <= ... <= s_K
driven by the total number of jobs present.

This script solves a few instances exactly and shows how the boundary
probabilities, queue-length means, and energy draw respond to the staircase.
"""

from fbq import (
    CostCoefficients,
    CoxianService,
    SingleServerModel,
    SpeedProfile,
    evaluate_cost_single,
    solve,
    solve_general,
    solve_k1_closed_form,
    verify_single,
)

service = CoxianService(nu1=5.0, nu2=1.0, q=0.1)
lam = 2.5

print("two-speed closed form (idle speed 0, full speed above):")
m1 = SingleServerModel(lam, service, SpeedProfile((0.0, 1.0), alpha=2.0))
sol1 = solve_k1_closed_form(m1)
print(f"  L1={sol1.L1:.6f}  L2={sol1.L2:.6f}  L={sol1.L:.6f}")
print(f"  P(empty)={sol1.boundary[(0, 0)]:.6f}  energy rate={sol1.energy_rate:.6f}")

print("\nthree-level staircase (0, 0.6, 1.0) solved by the transform method:")
m2 = SingleServerModel(lam, service, SpeedProfile((0.0, 0.6, 1.0), alpha=2.0))
sol2 = solve_general(m2)
print(f"  L1={sol2.L1:.6f}  L2={sol2.L2:.6f}  L={sol2.L:.6f}")
print("  boundary probabilities (i fg jobs, j bg jobs):")
for (i, j), p in sorted(sol2.boundary.items()):
    print(f"    pi({i},{j}) = {p:.6f}")
res = verify_single(m2, sol2)
print(f"  identity residuals: flow balance {res['flow_balance']:.1e}, "
      f"normalisation {res['normalization']:.1e}")

print("\nthe same staircase trades mean queue length against energy:")
costs = CostCoefficients(c1=1.0, c2=20.0)
for s1 in (0.3, 0.6, 1.0):
    sp = SpeedProfile((0.0, s1, 1.0), alpha=2.0)
    sol = solve_general(SingleServerModel(lam, service, sp))
    print(f"  s1={s1:.1f}: L={sol.L:.4f}  energy={sol.energy_rate:.4f}  "
          f"cost={evaluate_cost_single(sol, costs):.4f}")

print("\nall-stop profile (processor only works with K or more jobs);")
print("solve() picks the zero-speed closed form for it:")
m3 = SingleServerModel(2.0, service, SpeedProfile((0.0, 0.0, 0.0, 1.0)))
sol3 = solve(m3)
print(f"  the background queue can never drop below K-1 = 2 jobs:")
print(f"  L1={sol3.L1:.6f}  L2={sol3.L2:.6f} (= 2 + {sol3.L2 - 2:.6f})  L={sol3.L:.6f}")
