"""Survival probability decay for the two worked barrier examples.

The Hadamard pair loses exactly half its window norm every step, so the
survival norm is 2^(-t/2) on the nose.  The rotation triple has one
resonance pair of multiplicity two, which forces a t * M^t envelope on
top of the geometric decay; the fitted order comes out near 2.
"""

from qwres import (
    basis_state,
    decay_fit_full,
    evolve,
    find_resonances,
    hadamard_pair,
    survival_norm,
    triple_barrier,
)

T_HAD = 30          # horizon for the exact halving law
T_TRIPLE = 800      # the triple-barrier fit needs a long tail
T_MIN = 300         # parity of t wiggles the prefactor; fit late times only

psi0 = basis_state(0, "L")

print("Hadamard double barrier, psi0 = delta_0 L")
cs = hadamard_pair()
s = survival_norm(evolve(psi0, cs, T_HAD), 1)
print(f"  {'t':>3}  {'survival':>12}  {'2^(-t/2)':>12}")
for t in (0, 1, 2, 4, 8, 16, 30):
    print(f"  {t:>3}  {s[t]:>12.3e}  {2.0 ** (-t / 2):>12.3e}")
worst = max(abs(s[t] - 2.0 ** (-t / 2)) for t in range(T_HAD + 1))
print(f"  max deviation over t <= {T_HAD}: {worst:.2e}")

print()
print("rotation triple (3/4, 12/13, 1/3), psi0 = delta_0 L")
cs = triple_barrier()
for r in find_resonances(cs):
    print(f"  resonance lambda = {r.lam:.6f}, multiplicity {r.alg_multiplicity}")
s = survival_norm(evolve(psi0, cs, T_TRIPLE), 2)
m_rate, m_order, c = decay_fit_full(s, T_MIN)
print(f"  fit over t in [{T_MIN}, {T_TRIPLE}]:")
print(f"  M_est = {m_rate:.6f}   (|lambda| = {2.0 ** -0.5:.6f})")
print(f"  m_est = {m_order:.4f}   (double block means order 2)")
print(f"  C_est = {c:.4f}")
