"""A double resonance splits at the square-root rate.

The rotation triple carries a resonance pair of multiplicity two.  An
analytic one-parameter perturbation of the first coin splits each double
root into two simple ones separated by a gap proportional to sqrt(eps),
so the log-log slope of gap against eps is 1/2.
"""

import numpy as np

from qwres import (
    PerturbationFamily,
    find_resonances,
    perturb,
    splitting_experiment,
    splitting_slope,
    triple_barrier,
)

PHI = 0.0
EPSILONS = (0.0, 1e-3, 1e-4, 1e-5, 1e-6)

base = triple_barrier()
print("base walk: rotation triple (3/4, 12/13, 1/3)")
for r in find_resonances(base):
    print(f"  lambda = {r.lam:.6f}  multiplicity {r.alg_multiplicity}")

rows = splitting_experiment(PerturbationFamily(base, PHI, EPSILONS))
print()
print(f"{'eps':>8} {'gap':>12} {'gap/sqrt(eps)':>14}  multiplicities")
for eps, gap, mults in rows:
    ratio = f"{gap / np.sqrt(eps):>14.6f}" if eps else f"{'':>14}"
    print(f"{eps:>8.0e} {gap:>12.3e} {ratio}  {mults}")

slope = splitting_slope([row for row in rows if row[0] > 0])
print()
print(f"log-log slope of gap vs eps: {slope:.4f}  (square-root splitting is 0.5)")

d = np.max(np.abs(perturb(base, 1e-4, PHI).coins[0].matrix - base.coins[0].matrix))
print(f"perturbation size at eps = 1e-4: {d:.2e} (linear in eps by construction)")
