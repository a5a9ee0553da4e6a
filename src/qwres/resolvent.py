"""Resolvent of the walk on finitely supported states, on any finite window.

For a finitely supported f the resolvent (e^{-i xi} - U)^{-1} f reduces to
one dense solve against the window matrix K plus explicit one-sided
geometric sums.  The incoming chiralities (R on the left, L on the right)
feel only the forcing and are finite sums of shifted f values; they feed
the window system through the two rows of K that drop outside input.  The
outgoing chiralities propagate the window solution outward with phase
e^{i xi} per step, again with forcing corrections.  Everything is entire
in xi except the window solve, which is singular exactly at the
resonances and at xi with e^{-i xi} = 0 eigenvalue directions.

The identity (e^{-i xi} - U) R f = f is checked on every call; a quiet
wrong answer is worse than an exception.
"""

from __future__ import annotations

import cmath

import numpy as np

from .coins import CoinSequence
from .errors import AtResonance, InvariantViolation
from .states import WaveState
from .transfer import _refuse_overflow
from .walk import _parity_blocks, _parity_eig, _placed, _sweep, _walk

__all__ = ["apply_resolvent", "identity_residual", "neumann_resolvent"]


@np.errstate(over="ignore", invalid="ignore")
def _resolve(cs: CoinSequence, xi: np.ndarray, f: WaveState, lo: int, hi: int):
    """Resolvent on [lo - 1, hi + 1] for each xi of a 1-D array.

    Returns (amplitudes of shape (len(xi), hi - lo + 3, 2), relative
    residual of the defining identity on [lo, hi], condition number of
    the window solve), one residual and condition number per point.  K,
    its eigenvalues (walk._parity_eig) and the forcing are formed once per
    call; the condition numbers and window solves run on stacks of points,
    each stack solved only once none of its points is refused.  Far out in
    either half plane e^{+-i xi}, or the sums that grow with it along a
    long source or window, leave the float range: SpectralOverflow names
    the first such point, in place of numpy's overflow warnings.
    """
    if hi < lo:
        raise ValueError(f"empty window [{lo}, {hi}]")
    n0 = cs.n0
    lam = np.exp(-1j * xi)
    e = np.exp(1j * xi)
    _refuse_overflow(xi, lam, e)
    a, b = _parity_blocks(cs)
    kmat = _placed(a, b)
    dim = 2 * (n0 + 1)
    evals = _parity_eig(a, b)
    dist = np.min(np.abs(lam[:, None] - evals[None, :]), axis=1)

    # every site the answer, the source or the two junctions touch;
    # row i of fa and of amps is site s_lo + i, row z is site 0
    s_lo = min(lo - 1, f.support_lo, -1)
    s_hi = max(hi + 1, f.support_hi, n0 + 1)
    z = -s_lo
    fa = np.zeros((s_hi - s_lo + 1, 2), dtype=complex)
    if not f.is_zero():
        fa[f.support_lo - s_lo : f.support_hi - s_lo + 1] = f.amplitudes
    amps = np.zeros((len(xi), len(fa), 2), dtype=complex)

    # outside [0, n0] the walk is a pure shift, so each chirality obeys
    # w(n) = e^{i xi} (w(n -+ 1) + f(n)) along its direction of travel;
    # the incoming ones (R on the left, L on the right) start at zero far out
    amps[:, :z, 1] = _sweep(e, fa[:z, 1]).T
    amps[:, : z + n0 : -1, 0] = _sweep(e, fa[: z + n0 : -1, 0]).T

    # the two rows of K that drop outside input pick it up from the
    # incoming amplitudes just left of 0 and just right of n0
    rhs = np.tile(fa[z : z + n0 + 1].reshape(-1), (len(xi), 1))
    rhs[:, 1] += amps[:, z - 1, 1]
    rhs[:, 2 * n0] += amps[:, z + n0 + 1, 0]
    # the window systems go to LAPACK stacked, at most 4096 entries at a
    # time: one stack for a short grid at small n0, where the calls cost
    # most, and no more memory than a few systems however long the grid
    v = np.empty((len(xi), dim), dtype=complex)
    cond = np.empty(len(xi))
    near = dist <= 1e-10
    step = max(1, 4096 // dim**2)
    for k0 in range(0, len(xi), step):
        part = slice(k0, k0 + step)
        systems = lam[part, None, None] * np.eye(dim)
        systems -= kmat
        cond[part] = np.linalg.cond(systems)
        bad = near[part] | (cond[part] > 1e12)
        if bad.any():
            k = k0 + int(np.argmax(bad))  # the first refused point in grid order
            if near[k]:
                raise AtResonance(
                    f"e^(-i xi) = {complex(lam[k])} is within 1e-10 of an eigenvalue of K"
                )
            raise AtResonance(
                f"window system at xi = {complex(xi[k])} has condition number {cond[k]:.2e}"
            )
        v[part] = np.linalg.solve(systems, rhs[part, :, None])[:, :, 0]
    amps[:, z : z + n0 + 1] = v.reshape(len(xi), n0 + 1, 2)

    # the outgoing chiralities leave the window through the junction coins,
    # one step of the walk from the window carries them to -1 and n0 + 1
    _, emitted = _walk(cs, 0, amps[:, z : z + n0 + 1])
    amps[:, z - 1 :: -1, 0] = _sweep(e, fa[z - 1 :: -1, 0], emitted[:, 0, 0]).T
    amps[:, z + n0 + 1 :, 1] = _sweep(e, fa[z + n0 + 1 :, 1], emitted[:, -1, 1]).T

    # (e^{-i xi} - U) w = f on [lo, hi]
    wide = amps[:, lo - 1 - s_lo : hi + 2 - s_lo]
    _, uw = _walk(cs, lo - 1, wide)
    check = lam[:, None, None] * wide[:, 1:-1] - fa[lo - s_lo : hi + 1 - s_lo] - uw[:, 2:-2]
    scale = np.maximum(np.max(np.abs(wide), axis=(1, 2)), max(np.max(np.abs(fa)), 1e-300))
    resid = np.max(np.abs(check), axis=(1, 2)) / scale
    _refuse_overflow(xi, wide, resid)
    return wide, resid, cond


def apply_resolvent(cs: CoinSequence, xi: complex, f: WaveState, window) -> WaveState:
    """(e^{-i xi} - U)^{-1} f restricted to window = (lo, hi).

    xi may be anywhere the window system is regular; near a resonance (or
    at condition number beyond 1e12) the call refuses with AtResonance.
    The defining identity is verified on the full requested window before
    returning, at relative 1e-10 in the sup norm.
    """
    lo, hi = int(window[0]), int(window[1])
    wide, resid, _ = _resolve(cs, np.array([complex(xi)]), f, lo, hi)
    if resid[0] > 1e-10:
        raise InvariantViolation(f"resolvent identity fails by {resid[0]:.2e} at xi = {xi}")
    return WaveState(lo, wide[0, 1:-1])


def identity_residual(cs: CoinSequence, xi, f: WaveState, window):
    """(relative residual of the defining identity, condition number).

    Same computation as apply_resolvent, but reporting the numbers instead
    of enforcing them, for diagnostics and tabulation.  xi is a scalar or
    an array; an array gives two arrays of its shape, and AtResonance
    names the first grid point where the window system is singular,
    SpectralOverflow the first where e^{+-i xi} or the answer is not a
    finite float.
    """
    xi = np.asarray(xi, dtype=complex)
    _, resid, cond = _resolve(cs, xi.reshape(-1), f, int(window[0]), int(window[1]))
    return resid.reshape(xi.shape)[()], cond.reshape(xi.shape)[()]


def neumann_resolvent(cs: CoinSequence, xi: complex, f: WaveState, window) -> WaveState:
    """Direct series sum_k e^{i (k+1) xi} U^k f, the resolvent for Im xi > 0.

    The sum stops at k = 200.  Convergence needs |e^{i xi}| < 1, so xi in the upper half plane is
    required.  Slow and only as accurate as the truncation; this exists as
    an independent check on apply_resolvent, not for production use.
    """
    if not complex(xi).imag > 0:
        raise ValueError("the series only converges for Im xi > 0")
    lo, hi = int(window[0]), int(window[1])
    e = cmath.exp(1j * xi)
    # U^k f lives on the sites of f widened by k on each side, so the sum
    # fits on f's sites widened by 200, from the site start
    start = f.support_lo - 200
    total = np.zeros((len(f.amplitudes) + 400, 2), dtype=complex)
    site, rows, w = f.support_lo, f.amplitudes, e
    for _ in range(201):
        total[site - start : site - start + len(rows)] += rows * w
        site, rows = _walk(cs, site, rows)
        w = w * e
    return WaveState(start, total).restrict(lo, hi)
