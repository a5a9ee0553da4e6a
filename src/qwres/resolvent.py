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

Row n of lam - K, lam = e^{-i xi}, is lam L_n - alpha_{n+1} and
lam R_n - beta_{n-1}, with alpha_n = a L_n + b R_n and beta_n = c L_n + d R_n
what site n's coin sends left and right.  Its homogeneous solutions psi^<
from (L, R)_0 = (1, 0) and psi^> from (L, R)_n0 = (0, 1) fail only the far
edge's row, so with W^L = lam (L^< beta^> - L^> beta^<) and
W^R = lam (R^> alpha^< - R^< alpha^>) at m, column (m, L) of (lam - K)^{-1}
is psi^<(n) beta^>_m / W^L_m for n <= m and psi^>(n) beta^<_m / W^L_m
after, column (m, R) psi^<(n) alpha^>_m / W^R_m for n < m and
psi^>(n) alpha^<_m / W^R_m after.  The solution is two running sums, and
the exact kappa_1 = |lam - K|_1 |(lam - K)^{-1}|_1 (LAPACK's convention, the
refusal's one figure) sums of |L| + |R|: O(n0) a point, no BLAS or LAPACK.

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
from .walk import _kept_rows, _sweep, _walk

__all__ = ["apply_resolvent", "identity_residual", "neumann_resolvent"]


_HEADROOM = 300  # bits a homogeneous solution may grow or shrink between two renormalizations
_CHUNK = 256  # points per window solve, whose transients peak near 26 complex numbers a site and point


def _exclusive_sums(y, cuts, out):
    """out[i] = y[0] + ... + y[i - 1] down the first axis of y, (sites, solution, points), into a zeroed out.

    A cut (i, s, e) scales solution s and its running sum by 2^-e from site i on; the bits are one cumsum's.
    """
    np.cumsum(y[:-1], axis=0, out=out[1:])
    for i, s, e in cuts:
        out[i, s] *= np.ldexp(1.0, -e)
        np.cumsum(np.concatenate([out[i : i + 1, s], y[i:-1, s]]), axis=0, out=out[i:, s])
    return out


def _green(co, lam):
    """Both homogeneous solutions, each one's coefficients at its X and Y rows, their cuts, and |(lam - K)^{-1}|_1.

    co[i, s, :, 0] is solution s's coin at its i-th site: psi^< runs as
    (X, Y) = (L, R) from site 0, psi^> as (R, L) from site n0 with the coins
    read (d, c, b, a), each from (1, 0) by Y' = (c X + d Y) / lam and
    X' = (lam X - b Y') / a', which scales it by at most
    (|lam| + sqrt 2 / |lam|) / min(|a'|, |d|).  Where that bound over the
    grid passes 2^300 since its last cut, a solution is cut: scaled by an
    exact power of 2 per point, so no point's bits depend on the others'.
    The coefficients (over W^L and W^R for psi^<, W^R and W^L for psi^>)
    are read off the partner at each site, and so is each column's 1-norm.
    """
    n, p = len(co), len(lam)
    a, b, c, d = abcd = co.transpose(2, 0, 1, 3)
    grow = np.log2(abs(lam).max() + np.sqrt(2) / abs(lam).min()) - np.log2(np.minimum(abs(a[1:]), abs(d[:-1])))
    m = np.empty((n - 1, 2, 2, 2, p), dtype=complex)  # step k: (X, Y)' = m[k, 0] X + m[k, 1] Y
    np.multiply(co[:-1, :, 2:].swapaxes(1, 2), 1 / lam, out=m[:, :, 1])
    np.multiply(-(b / a)[1:, None], m[:, :, 1], out=m[:, :, 0])
    m[:, 0, 0] += lam / a[1:]
    xy = np.empty((2, n, 2, p), dtype=complex)  # xy[:, i, s]: solution s at its i-th site
    xy[0, 0], xy[1, 0] = 1, 0
    lg, total, cuts = grow[..., 0].tolist(), [0.0, 0.0], []
    for k in range(n - 1):
        np.add(m[k, 0] * xy[0, k], m[k, 1] * xy[1, k], out=xy[:, k + 1])
        for s in (0, 1):
            total[s] += lg[k][s]
            if total[s] > _HEADROOM:
                e = np.frexp(np.abs(xy[:, k + 1, s]).max(0))[1]
                xy[:, k + 1, s] *= np.ldexp(1.0, -e)
                cuts.append((k + 1, s, e))
                total[s] = 0.0
    (x, y), (ox, oy) = xy, xy[:, ::-1, ::-1]  # the partner, in own coordinates
    sent = abcd[::2] * x + abcd[1::2] * y  # (alpha, beta) for psi^<, (beta, alpha) for psi^>
    op, oq = sent[:, ::-1, ::-1]
    cx, cy = op / (lam * (x * op - oy * sent[1])), oq / (lam * (ox * sent[0] - y * oq))
    amp = np.abs(x) + np.abs(y)
    before = _exclusive_sums(amp, cuts, np.zeros_like(amp))
    cols = np.abs(cx) * (before + amp) + (np.abs(cy) * before)[::-1, ::-1]  # (m, L) at [m, 0], (m, R) at [n0 - m, 1]
    return xy, cx, cy, cuts, cols.max(axis=(0, 1))


def _window_solves(xi, lam, cs, rhs):
    """Solutions and 1-norm condition numbers of (lam - K) v = rhs, rhs of shape (points, n0 + 1, 2).

    One refinement step, v + (lam - K)^{-1} (rhs - (lam - K) v) with K v
    from the walk's coins, keeps the identity at rounding where the
    solutions grow fast.  AtResonance names the first point in grid order
    with kappa_1 > 1e12, inf where a Wronskian is exactly zero, and says so
    where that point's |lam| <= 1e-6 puts it at K's zero eigenvalue, the
    kernel witnesses' (find_resonances' zero group), not at a resonance.
    """
    k_norm = np.abs(_kept_rows(cs)).sum(axis=1).max()  # |K|_1: column (s, c) of K holds site s's kept column c
    xy, cx, cy, cuts, inv_norm = _green(np.stack([cs.table, cs.table[::-1, ::-1]], axis=1)[..., None], lam)
    cond = (np.abs(lam) + k_norm) * inv_norm
    cond[np.isnan(cond)] = np.inf
    if (cond > 1e12).any():
        k = np.argmax(cond > 1e12)
        at = abs(lam[k])
        zero = f": |lambda| = {at:.2e}, within 1e-6 of K's zero eigenvalue, not a resonance" if at <= 1e-6 else ""
        raise AtResonance(f"window system at xi = {complex(xi[k])} has condition number {cond[k]:.2e}{zero}")

    to_own = np.arange(2 * len(cx)).reshape(-1, 2).T
    to_own = np.stack([to_own, to_own[::-1, ::-1]], axis=-1)  # rhs entry at each (X/Y, site, solution)
    flipped = [(len(cx) - i, s, e) for i, s, e in reversed(cuts)]

    def solve(r):
        rt = r.reshape(len(r), -1).T
        here = cx * rt[to_own[0]]
        w = here + cy * rt[to_own[1]]
        sums = np.zeros_like(here)  # of its X rows from its site on and its Y rows after it
        _exclusive_sums(w[::-1], flipped, sums[::-1])
        v = xy * np.add(sums, here, out=sums)
        return (v[:, :, 0] + v[::-1, ::-1, 1]).transpose(2, 1, 0)

    v = solve(rhs)
    return v + solve(rhs - lam[:, None, None] * v + _walk(cs, 0, v)[1][:, 1:-1]), cond


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _resolve(cs: CoinSequence, xi: np.ndarray, f: WaveState, lo: int, hi: int):
    """Resolvent on [lo - 1, hi + 1] for each xi of a 1-D array.

    Returns (amplitudes of shape (len(xi), hi - lo + 3, 2), relative
    residual of the defining identity on [lo, hi], 1-norm condition number
    of the window system), one residual and condition number per point.
    The forcing is formed once per call, and the window systems are
    checked and solved in passes over _CHUNK points at a time
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
    cond = np.empty(len(xi))
    for part in (slice(i, i + _CHUNK) for i in range(0, len(xi), _CHUNK)):  # bits are per point
        amps[part, z : z + n0 + 1], cond[part] = _window_solves(xi[part], lam[part], cs, rhs[part])

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
    solved from its two homogeneous solutions, lam = e^{-i xi}, refined
    once; at a 1-norm condition number kappa_1(lam - K) beyond 1e12, which
    is where lam comes near an eigenvalue of K, the call refuses with
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
    window system, lam = e^{-i xi}, exact up to rounding and summed from
    its two homogeneous solutions.  xi is a scalar or an array; an
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
