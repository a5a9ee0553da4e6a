"""Reconstructing a walk from its resonance expansion.

A finitely supported state is evolved two ways: directly, and by summing
its resonance blocks with binomial-in-t weights.  Inside the light-cone
window the two agree to ten digits, even though the expansion only keeps
one complex coefficient per chain vector.
"""

import numpy as np

from qwres import (
    basis_state,
    evolve,
    expand,
    random_sequence,
    reconstruct,
    resonant_chain,
)

N0 = 3
SEED = 29
T_MAX = 30

cs = random_sequence(np.random.default_rng(SEED), N0)

# an initial state with an incoming tail: R amplitude two sites left of
# the window still has to travel before the expansion takes over
psi0 = basis_state(0, "L") + 0.5 * basis_state(-2, "R")

ed = expand(cs, psi0)
print(f"random window, n0 = {N0}, seed {SEED}")
print(f"nu = {ed.nu} incoming steps, zero block dies after iota0 = {ed.zero_part_index}")
print(f"{len(ed.blocks)} resonance blocks:")
for b in ed.blocks:
    cstr = ", ".join(f"{c:.4f}" for c in b.coefficients)
    print(f"  lambda = {b.resonance.lam:>22.6f}  mult {b.resonance.alg_multiplicity}  c = ({cstr})")

chains = [resonant_chain(cs, b.resonance, T_MAX) for b in ed.blocks]
traj = evolve(psi0, cs, T_MAX)

print()
print(f"{'t':>3} {'window':>14} {'true norm':>12} {'rel error':>12}")
for t in range(ed.nu + ed.zero_part_index, T_MAX + 1, 3):
    lo, hi = -(t - ed.nu), t + N0 - ed.nu
    got = reconstruct(ed, chains, t, (lo, hi))
    true = traj[t].restrict(lo, hi)
    rel = (got - true).norm() / true.norm()
    print(f"{t:>3} {f'[{lo}, {hi}]':>14} {true.norm():>12.3e} {rel:>12.2e}")

print()
print("outside the cone the finite sum is wrong on purpose, and the")
print("library refuses to evaluate it there (WindowOutsideCone).")
