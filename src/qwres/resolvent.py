"""Resolvent of the walk on finitely supported states, on any finite window.

For a finitely supported f the resolvent (e^{-i xi} - U)^{-1} f reduces to
one solve against the window matrix K plus explicit one-sided geometric
sums.  The incoming chiralities (R on the left, L on the right) feel only
the forcing and are finite sums of shifted f values; they feed the window
system through the two rows of K that drop outside input.  The outgoing
chiralities propagate the window solution outward with phase e^{i xi} per
step, again with forcing corrections.  Everything is entire in xi except
the window solve, which is singular exactly at the resonances and at xi
with e^{-i xi} = 0 eigenvalue directions.

K maps even sites to odd ones and back, K = [[0, A], [B, 0]] with the even
sites first, so (lam - K)^{-1}, lam = e^{-i xi}, comes in blocks from one
inverse of its parity Schur complement S = lam^2 - BA, half its size.
BA is the product whose eigenvalues give K's (walk._parity_eig).  Those
blocks give both the window system's solution and its exact 1-norm
condition number kappa_1 = |lam - K|_1 |(lam - K)^{-1}|_1, LAPACK's
convention, the one figure the refusal near a pole reads, with no SVD, no
eigensolve, no assembled inverse and no second factorization.

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
from .walk import _parity_blocks, _sweep, _walk

__all__ = ["apply_resolvent", "identity_residual", "neumann_resolvent"]


_STACK_ENTRIES = 1 << 16  # window-system entries per stack: 1 MiB of matrices


def _inverse(s):
    """np.linalg.inv on a stack of matrices, NaN in place of an exactly singular one's inverse."""
    try:
        return np.linalg.inv(s)
    except np.linalg.LinAlgError:
        if len(s) == 1:
            return np.full_like(s, np.nan)
        return np.concatenate([_inverse(s[k : k + 1]) for k in range(len(s))])


def _window_solves(xi, lam, a, b, rhs):
    """Solutions and 1-norm condition numbers of (lam - K) v = rhs, point by point.

    rhs has shape (points, n0 + 1, 2).  With the even sites first
    K = [[0, A], [B, 0]], and eliminating the even unknowns leaves the
    parity Schur complement S = lam^2 - BA, so (lam - K)^{-1} comes in
    blocks from one inverse of S: with X = S^{-1} B and Y = A S^{-1} its
    odd rows are [X, lam S^{-1}] and its even rows [(I + A X) / lam, Y].
    The solution is read off them, v_o = X r_e + lam S^{-1} r_o and
    v_e = (I + A X) r_e / lam + Y r_o, and so is the exact
    kappa_1 = |lam - K|_1 |(lam - K)^{-1}|_1: the inverse's column sums are
    sum|I + A X| / |lam| + sum|X| (even) and sum|Y| + |lam| sum|S^{-1}|
    (odd), and |lam - K|_1 = |lam| + K's largest column sum, as K's
    diagonal is zero.  S is lam^2 * 0 - BA off the diagonal and
    lam^2 * 1 - BA on it, the bits of lam^2 I - BA.  Points run in stacks
    of up to 2^16 // dim^2, each inverted once, and a stack's solutions are
    read off only once none of its points is refused: AtResonance names
    the first point in grid order with kappa_1 > 1e12 (inf where S is
    exactly singular), the one pole test, which needs no eigensolve.  Every
    product runs per point over the leading axis, so each point's bits are
    its lone call's.
    """
    ba = b @ a
    n, g, h = len(lam), len(a), len(ba)  # points, even and odd unknowns
    step = max(1, _STACK_ENTRIES // (g + h) ** 2)
    k_norm = max(np.abs(a).sum(0).max(), np.abs(b).sum(0).max())
    r_e, r_o = rhs[:, 0::2].reshape(n, g, 1), rhs[:, 1::2].reshape(n, h, 1)
    v = np.empty(rhs.shape, dtype=complex)
    cond = np.empty(n)
    for k0 in range(0, n, step):
        part = slice(k0, k0 + step)
        lp = lam[part, None, None]
        l2 = lp * lp
        s = l2 * 0.0 - ba
        s.reshape(len(l2), -1)[:, :: h + 1] = l2[:, 0] * 1.0 - ba.diagonal()
        s_inv = _inverse(s)
        x, y = s_inv @ b, a @ s_inv
        ax = a @ x
        ax.reshape(len(l2), -1)[:, :: g + 1] += 1  # I + A S^-1 B
        lm = np.abs(lp[:, 0])
        even = np.abs(ax).sum(1) / lm + np.abs(x).sum(1)
        odd = np.abs(y).sum(1) + lm * np.abs(s_inv).sum(1)
        norm = np.maximum(even.max(1), odd.max(1))
        kappa = (lm[:, 0] + k_norm) * norm
        cond[part] = np.where(np.isnan(kappa), np.inf, kappa)
        bad = cond[part] > 1e12
        if bad.any():
            k = k0 + int(np.argmax(bad))
            raise AtResonance(f"window system at xi = {complex(xi[k])} has condition number {cond[k]:.2e}")
        r_ep, r_op = r_e[part], r_o[part]
        v[part, 1::2] = (x @ r_ep + lp * (s_inv @ r_op)).reshape(len(s), -1, 2)
        v[part, 0::2] = (ax @ r_ep / lp + y @ r_op).reshape(len(s), -1, 2)
    return v, cond


@np.errstate(over="ignore", invalid="ignore")
def _resolve(cs: CoinSequence, xi: np.ndarray, f: WaveState, lo: int, hi: int):
    """Resolvent on [lo - 1, hi + 1] for each xi of a 1-D array.

    Returns (amplitudes of shape (len(xi), hi - lo + 3, 2), relative
    residual of the defining identity on [lo, hi], 1-norm condition number
    of the window system), one residual and condition number per point.
    K's parity blocks and the forcing are formed once per call, and the
    window systems are inverted, checked and solved in stacks of points
    (_window_solves), where AtResonance names the first refused point.
    It all runs on f scaled to order one by an exact power of 2, and the
    answer is scaled back once, so a tiny or huge f keeps its digits.  Far
    out in either half plane e^{+-i xi}, or the sums that grow with it
    along a long source or window, leave the float range: SpectralOverflow
    names the first such point, in place of numpy's overflow warnings.
    """
    if hi < lo:
        raise ValueError(f"empty window [{lo}, {hi}]")
    n0 = cs.n0
    lam = np.exp(-1j * xi)
    e = np.exp(1j * xi)
    _refuse_overflow(xi, lam, e)

    # every site the answer, the source or the two junctions touch;
    # row i of fa and of amps is site s_lo + i, row z is site 0
    s_lo = min(lo - 1, f.support_lo, -1)
    s_hi = max(hi + 1, f.support_hi, n0 + 1)
    z = -s_lo
    fa = np.zeros((s_hi - s_lo + 1, 2), dtype=complex)
    f_exp = np.frexp(np.abs(f.amplitudes.view(float)).max(initial=0.0))[1]  # |parts of f| < 2^f_exp
    fa[f.support_lo - s_lo : f.support_hi - s_lo + 1] = np.ldexp(f.amplitudes.view(float), -f_exp).view(complex)
    amps = np.zeros((len(xi), len(fa), 2), dtype=complex)

    # outside [0, n0] the walk is a pure shift, so each chirality obeys
    # w(n) = e^{i xi} (w(n -+ 1) + f(n)) along its direction of travel;
    # the incoming ones (R on the left, L on the right) start at zero far out
    amps[:, :z, 1] = _sweep(e, fa[:z, 1]).T
    amps[:, : z + n0 : -1, 0] = _sweep(e, fa[: z + n0 : -1, 0]).T

    # the two rows of K that drop outside input pick it up from the
    # incoming amplitudes just left of 0 and just right of n0
    rhs = np.tile(fa[z : z + n0 + 1], (len(xi), 1, 1))
    rhs[:, 0, 1] += amps[:, z - 1, 1]
    rhs[:, n0, 0] += amps[:, z + n0 + 1, 0]
    amps[:, z : z + n0 + 1], cond = _window_solves(xi, lam, *_parity_blocks(cs), rhs)

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
    wide = np.ldexp(wide.view(float), f_exp).view(complex)
    _refuse_overflow(xi, wide, resid)
    return wide, resid, cond


def apply_resolvent(cs: CoinSequence, xi: complex, f: WaveState, window) -> WaveState:
    """(e^{-i xi} - U)^{-1} f restricted to window = (lo, hi).

    xi may be anywhere the window system is regular.  The window system is
    solved through its parity Schur complement lam^2 - BA, lam = e^{-i xi};
    at a 1-norm condition number kappa_1(lam - K) beyond 1e12, which is
    where lam comes near an eigenvalue of K, the call refuses with
    AtResonance.  The defining identity is verified on the full requested
    window before returning, at relative 1e-10 in the sup norm.
    """
    lo, hi = int(window[0]), int(window[1])
    wide, resid, _ = _resolve(cs, np.array([complex(xi)]), f, lo, hi)
    if resid[0] > 1e-10:
        raise InvariantViolation(f"resolvent identity fails by {resid[0]:.2e} at xi = {xi}")
    return WaveState(lo, wide[0, 1:-1])


def identity_residual(cs: CoinSequence, xi, f: WaveState, window):
    """(relative residual of the defining identity, condition number).

    Same computation as apply_resolvent, but reporting the numbers instead
    of enforcing them, for diagnostics and tabulation.  The condition
    number is kappa_1(lam - K) = |lam - K|_1 |(lam - K)^{-1}|_1 of the
    window system, lam = e^{-i xi}, exact up to rounding and read off the
    inverse of its parity Schur complement.  xi is a scalar or an array; an
    array gives two arrays of its shape, and AtResonance names the first
    grid point where the window system is refused (kappa_1 beyond 1e12, or
    exactly singular), SpectralOverflow the first where e^{+-i xi} or the
    answer is not a finite float.  No eigensolve runs.
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
