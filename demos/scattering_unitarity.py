"""The scattering matrix on and off the real axis.

On the real axis Sigma(xi) is unitary, so each row of the table below
has |t|^2 + |r|^2 = 1 to machine precision.  Continued into the lower
half plane, Sigma blows up as xi approaches a resonance; the last block
walks toward one and watches |det Sigma| grow through three decades.
"""

import numpy as np

from qwres import (
    find_resonances,
    hadamard_pair,
    scattering_matrix,
    triple_barrier,
)

cs = triple_barrier()

print("rotation triple on the real axis")
print(f"{'xi':>8} {'|t-|^2':>10} {'|r-|^2':>10} {'sum':>18} {'||S*S-I||':>11}")
for xi in np.linspace(-np.pi, np.pi, 9):
    sm = scattering_matrix(cs, complex(xi))
    sigma = sm.matrix
    u = np.linalg.norm(sigma.conj().T @ sigma - np.eye(2))
    t2 = abs(sm.t_minus) ** 2
    r2 = abs(sm.r_minus) ** 2
    print(f"{xi:>8.3f} {t2:>10.6f} {r2:>10.6f} {t2 + r2:>18.15f} {u:>11.2e}")

print()
print("walking toward a resonance of the Hadamard pair")
had = hadamard_pair()
res = find_resonances(had)[0]
print(f"target xi = {res.xi:.6f}")
print(f"{'distance':>10} {'|det Sigma|':>12}")
for k in range(1, 6):
    xi = res.xi + 10.0 ** (-k)
    sm = scattering_matrix(had, xi)
    print(f"{10.0 ** (-k):>10.0e} {abs(np.linalg.det(sm.matrix)):>12.3e}")
print("at the resonance itself the Wronskian denominator vanishes and")
print("scattering_matrix raises AtResonance instead of returning garbage.")
