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

On a grid of xi the window systems are solved in stacks.  A grid long
enough to give each CPU of the process's affinity a stack that numpy
solves without the interpreter lock is split into one contiguous share
per CPU, run on worker threads made on first use; the answer and any
refusal are the serial path's bit for bit.
"""

from __future__ import annotations

import cmath
import contextvars
import os
import threading

import numpy as np

from .coins import CoinSequence
from .errors import AtResonance, InvariantViolation
from .states import WaveState
from .transfer import _refuse_overflow
from .walk import _parity_blocks, _parity_eig, _placed, _sweep, _walk

__all__ = ["apply_resolvent", "identity_residual", "neumann_resolvent"]


_SERIAL_ENTRIES = 4096  # matrix entries per stack on one CPU
_SHARE_ENTRIES = 1 << 16  # per stack of a share: 1 MiB of systems, or one lock-free stack

_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    # a forked child has none of its parent's threads, only their handles
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _lock_free(dim: int) -> int:
    """The fewest systems of size dim that numpy solves without the interpreter lock.

    numpy's stacked SVD and solve release the lock only when the systems
    in a stack times dim exceed 500 (measured: 83 against 84 systems at
    dim 6, 14 against 15 at dim 34); on smaller stacks threads take turns.
    """
    return 500 // dim + 1


def _share_count(points: int, dim: int) -> int:
    """How many CPUs the window solves of one call are split across.

    One share per CPU, as long as every share is a lock-free stack; one
    share means the serial path.
    """
    return max(1, min(_cpus(), points // _lock_free(dim)))


def _workers():
    """The process's worker threads, made on first use; import stays cheap."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="qwres-resolve")
        return _pool


def _stack_solves(lam, kmat, rhs, near, v, cond, points: range, step: int):
    """Condition numbers and solves of the window systems at points, stacked.

    Writes v and cond on points, a stack of step points at a time, and
    solves a stack only once none of its points is refused; returns the
    first refused point, or None.
    """
    eye = np.eye(len(kmat))
    for k0 in range(points.start, points.stop, step):
        part = slice(k0, min(k0 + step, points.stop))
        systems = lam[part, None, None] * eye
        systems -= kmat
        cond[part] = np.linalg.cond(systems)
        bad = near[part] | (cond[part] > 1e12)
        if bad.any():
            return k0 + int(np.argmax(bad))
        v[part] = np.linalg.solve(systems, rhs[part, :, None])[:, :, 0]
    return None


def _window_solves(lam, kmat, rhs, near, v, cond):
    """_stack_solves on every point, split across the process's CPUs.

    Each CPU takes one contiguous share of the points, the calling thread
    the first, in stacks of up to _SHARE_ENTRIES entries that numpy solves
    without the interpreter lock; each system is the same LAPACK call on
    the same matrix either way, so the output is the serial one bit for
    bit.  Workers run under a copy of the caller's context, which carries
    numpy's errstate.  A grid too short for that (_share_count) runs
    serially in stacks of _SERIAL_ENTRIES entries: one stack for a short
    grid at small n0, where the calls cost most, and no more memory than a
    few systems however long the grid.  Returns the first refused point
    in grid order, or None: a share stops at its own first refused point,
    and the earliest share that has one names it.
    """
    n, dim = len(lam), len(kmat)
    args = lam, kmat, rhs, near, v, cond
    shares = _share_count(n, dim)
    if shares == 1:
        return _stack_solves(*args, range(n), max(1, _SERIAL_ENTRIES // dim**2))
    pool = _workers()
    from concurrent.futures import wait  # imported with the pool, on first use

    step = max(_lock_free(dim), _SHARE_ENTRIES // dim**2)
    bounds = [n * i // shares for i in range(shares + 1)]
    rest = [
        pool.submit(contextvars.copy_context().run, _stack_solves, *args, range(a, b), step)
        for a, b in zip(bounds[1:-1], bounds[2:])
    ]
    try:
        first = _stack_solves(*args, range(bounds[1]), step)
    finally:
        # every share ends before the arrays it writes are read or dropped
        wait(rest)
    if first is not None:
        return first
    for share in rest:
        k = share.result()
        if k is not None:
            return k
    return None


@np.errstate(over="ignore", invalid="ignore")
def _resolve(cs: CoinSequence, xi: np.ndarray, f: WaveState, lo: int, hi: int):
    """Resolvent on [lo - 1, hi + 1] for each xi of a 1-D array.

    Returns (amplitudes of shape (len(xi), hi - lo + 3, 2), relative
    residual of the defining identity on [lo, hi], condition number of
    the window solve), one residual and condition number per point.  K,
    its eigenvalues (walk._parity_eig) and the forcing are formed once per
    call; the condition numbers and window solves run on stacks of points
    (_window_solves: 4096-entry stacks serially, one contiguous share per
    CPU on a long grid), each stack solved only once none of its points is
    refused.  Far out in either half plane e^{+-i xi}, or the sums that
    grow with it along a long source or window, leave the float range:
    SpectralOverflow names the first such point, in place of numpy's
    overflow warnings.
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
    v = np.empty((len(xi), dim), dtype=complex)
    cond = np.empty(len(xi))
    near = dist <= 1e-10
    k = _window_solves(lam, kmat, rhs, near, v, cond)
    if k is not None:  # the first refused point in grid order
        if near[k]:
            raise AtResonance(
                f"e^(-i xi) = {complex(lam[k])} is within 1e-10 of an eigenvalue of K"
            )
        raise AtResonance(
            f"window system at xi = {complex(xi[k])} has condition number {cond[k]:.2e}"
        )
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
