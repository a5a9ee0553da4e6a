"""Reference numerics the benchmark checks qwres outputs against.

Nothing here imports qwres.  The window matrix K, the walk and the
spectral projections are rebuilt from the raw coin entries, so a check
never rests on the code it checks.  A coin array has shape (n0 + 1, 4)
and holds the entries (a, b, c, d) of the coins on sites 0..n0.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps


def haar_coins(rng: np.random.Generator, n0: int, min_a: float = 0.1) -> np.ndarray:
    """n0 + 1 Haar-random unitaries, each resampled until |a| >= min_a."""
    out = np.empty((n0 + 1, 4), dtype=complex)
    k = 0
    while k <= n0:
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        if abs(q[0, 0]) >= min_a:
            out[k] = q.reshape(4)
            k += 1
    return out


def rotation_coins(rs) -> np.ndarray:
    """Real rotation coins a = d = sqrt(1 - r^2), b = r, c = -r."""
    return np.array(
        [[math.sqrt(1 - r * r), r, -r, math.sqrt(1 - r * r)] for r in rs], dtype=complex
    )


def hadamard_pair() -> np.ndarray:
    s = 2.0**-0.5
    return np.array([[s, s, s, -s], [s, s, s, -s]], dtype=complex)


def config(coins: np.ndarray) -> dict:
    """The qwres JSON config for a coin array, entries written exactly."""
    keys = "abcd"
    return {
        "n0": len(coins) - 1,
        "coins": [
            {k: [float(z.real), float(z.imag)] for k, z in zip(keys, row)} for row in coins
        ],
    }


def window_matrix(coins: np.ndarray) -> np.ndarray:
    """K: the walk step restricted to sites 0..n0, index 2n + (0 L, 1 R).

    The L slot at n receives a_{n+1} L + b_{n+1} R from site n + 1 and the R
    slot receives c_{n-1} L + d_{n-1} R from site n - 1; input from outside
    the window is dropped.
    """
    n0 = len(coins) - 1
    k = np.zeros((2 * (n0 + 1), 2 * (n0 + 1)), dtype=complex)
    for n in range(n0 + 1):
        if n < n0:
            k[2 * n, 2 * n + 2 : 2 * n + 4] = coins[n + 1, 0:2]
        if n > 0:
            k[2 * n + 1, 2 * n - 2 : 2 * n] = coins[n - 1, 2:4]
    return k


def scaled_norm(v) -> float:
    """l2 norm that neither underflows nor overflows in the squares.

    Scaling by a power of two is exact, also for subnormal entries.
    """
    v = np.asarray(v, dtype=complex)
    m = float(np.max(np.abs(v))) if v.size else 0.0
    if m == 0:
        return 0.0
    e = int(np.frexp(m)[1])
    w = np.ldexp(v.real, -e) + 1j * np.ldexp(v.imag, -e)
    return float(np.ldexp(np.linalg.norm(w), e))


def survival_norms(coins: np.ndarray, T: int) -> np.ndarray:
    """||K^t e_0|| for t = 0..T: the survival norm of L at site 0.

    The state starts inside the window with nothing incoming, so its
    restriction to the window evolves by K alone.
    """
    k = window_matrix(coins)
    out = np.empty(T + 1)
    v = np.zeros(len(k), dtype=complex)
    v[0] = 1.0
    for t in range(T + 1):
        out[t] = scaled_norm(v)
        v = k @ v
    return out


def walk(coins: np.ndarray, lo: int, amps: np.ndarray, T: int):
    """Dense trajectory of the walk, psi_0 .. psi_T on one fixed site range.

    amps[k] is the (L, R) pair at site lo + k.  Returns (first_site, traj)
    with traj[t, i] the pair at site first_site + i after t steps.  One step
    sends L at n + 1 through the upper coin row at n + 1 to L at n, and R at
    n - 1 through the lower row at n - 1 to R at n; coins are the identity
    outside 0..n0.
    """
    n0 = len(coins) - 1
    first = min(lo, 0) - T - 1
    last = max(lo + len(amps) - 1, n0) + T + 1
    sites = np.arange(first, last + 1)
    entries = np.tile(np.array([1, 0, 0, 1], dtype=complex), (len(sites), 1))
    entries[-first : -first + n0 + 1] = coins
    a, b, c, d = entries.T
    traj = np.zeros((T + 1, len(sites), 2), dtype=complex)
    traj[0, lo - first : lo - first + len(amps)] = amps
    for t in range(T):
        cur, nxt = traj[t], traj[t + 1]
        nxt[:-1, 0] = a[1:] * cur[1:, 0] + b[1:] * cur[1:, 1]
        nxt[1:, 1] = c[:-1] * cur[:-1, 0] + d[:-1] * cur[:-1, 1]
    return first, traj


def match_eigenvalues(lams, k: np.ndarray) -> str | None:
    """Pair (lambda, multiplicity) items with the nonzero eigenvalues of K.

    Dense QR fixes an m-fold eigenvalue only to about eps^(1/m), so the
    pairing radius widens with m; eigenvalues left over must be the zero
    group.  Returns None on a match, otherwise the reason it failed.
    """
    remaining = list(np.linalg.eigvals(k))
    for lam, m in lams:
        tol = max(1e-8, 50 * EPS ** (1.0 / m)) * max(1.0, abs(lam))
        for _ in range(m):
            if not remaining:
                return f"no eigenvalue left for lambda={lam:.6g}"
            dists = np.abs(np.array(remaining) - lam)
            i = int(np.argmin(dists))
            if not dists[i] <= tol:
                return f"lambda={lam:.6g} is {dists[i]:.2e} from the nearest eigenvalue of K"
            remaining.pop(i)
    stray = [e for e in remaining if abs(e) > 1e-6]
    if stray:
        return f"{len(stray)} nonzero eigenvalues of K missing, largest |e|={max(map(abs, stray)):.3g}"
    return None


def projection_norm(k: np.ndarray, lam: complex, x: np.ndarray) -> float:
    """||P x|| for the spectral projector P of K at a simple eigenvalue lam.

    P x = (w^H x / w^H v) v with v and w the right and left null vectors
    of K - lam; ||P x|| is the modulus of the expansion coefficient of x
    on the unit-norm resonant state, whatever phase that state carries.
    """
    shifted = k - lam * np.eye(len(k))
    v = np.linalg.svd(shifted)[2][-1].conj()
    w = np.linalg.svd(shifted.conj().T)[2][-1].conj()
    return abs(np.vdot(w, x) / np.vdot(w, v)) * float(np.linalg.norm(v))
