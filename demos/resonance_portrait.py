"""Three ways to find the same resonances.

For a random coin window the resonances are read off (1) as roots of the
transfer polynomial, (2) as nonzero eigenvalues of the compressed window
matrix K, and (3) as winding numbers of the transfer-product entry T_22
around each candidate.  The three answers agree to machine precision,
which is the whole point of having them.
"""

import numpy as np

from qwres import (
    build_K,
    find_resonances,
    random_sequence,
    transfer_polynomial,
    triple_barrier,
    validate_multiplicity,
    winding_count,
)

N0 = 4
SEED = 71

cs = random_sequence(np.random.default_rng(SEED), N0)

tp = transfer_polynomial(cs)
print(f"random window, n0 = {N0}, seed {SEED}")
print(f"transfer polynomial degree {tp.degree}, leading |1/prod d_n| = {abs(tp.leading):.4f}")
print()

rs = find_resonances(cs)
evals = np.linalg.eigvals(build_K(cs))
nonzero = sorted(evals[np.abs(evals) > 1e-6], key=lambda z: (z.real, z.imag))

print(f"{'xi':>24} {'lambda':>24} {'mult':>5} {'winding':>8} {'|p(mu)|':>10}")
for r in rs:
    w = validate_multiplicity(cs, r, others=rs)
    print(f"{r.xi:>24.6f} {r.lam:>24.6f} {r.alg_multiplicity:>5} {w:>8} {abs(tp(r.mu)):>10.1e}")

print()
print("nonzero eigenvalues of dense K, for comparison:")
for e in nonzero:
    print(f"  {e:.6f}")
lams = sorted((r.lam for r in rs), key=lambda z: (z.real, z.imag))
worst = max(abs(a - b) for a, b in zip(lams, nonzero))
print(f"max |lambda - eig| after sorting: {worst:.2e}")

print()
print("winding integral around an empty circle (radius 0.1 at xi = -1 - 0.2j):")
print(f"  {abs(winding_count(cs, -1 - 0.2j, 0.1)):.2e}  (should be ~0)")

print()
print("the rotation triple has one double pair:")
for r in find_resonances(triple_barrier()):
    print(f"  lambda = {r.lam:.6f}  multiplicity {r.alg_multiplicity}")
