"""Resonance expansion of evolved states and the survival-decay bound.

After the incoming part of an initial state has fully entered the window
(nu steps), the restriction of the evolution to [0, n0] is governed by the
matrix K alone.  Decomposing that restriction over the Jordan chains of K
at its nonzero eigenvalues plus a complement annihilated by a power of K
turns every later window value into an explicit finite sum

    psi_t(n) = sum_j sum_l sigma_l^{(j)}(t) phi_j^l(n),

with polynomial-in-t weights built from binomials and powers of lambda_j.
The slowest resonance therefore pins the decay rate of the survival
probability: s_t <= C t^{m-1} M^t with M the largest |lambda_j| and m its
multiplicity.

For the double-barrier walk (n0 = 1, both coins non-diagonal) the two
resonance coefficients have a closed form, exposed here both as the linear
functional gamma and as the resulting bound constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coins import CoinSequence
from .errors import A3Violated, AllZeroTail, InvariantViolation, SpectralOverflow, UnsupportedN0
from .errors import WindowOutsideCone
from .resonances import (
    Resonance,
    _resonances,
    _spectrum,
    _window_chains,
    strip_pair,
)
from .states import WaveState, _norms, incoming_length, window_vector
from .walk import _window_blocks

__all__ = [
    "ResonanceBlock",
    "ExpansionData",
    "nilpotency_index",
    "expand",
    "reconstruct",
    "decay_fit_full",
    "double_barrier_closed_form",
    "double_barrier_bound",
]


@dataclass(frozen=True)
class ResonanceBlock:
    """Chain coefficients c_1 .. c_m of one resonance in an expansion."""

    resonance: Resonance
    coefficients: tuple


@dataclass(frozen=True)
class ExpansionData:
    """A window state decomposed over Jordan chains plus the zero block.

    nu is the number of steps run before decomposing; zero_part_index is
    the smallest power of K that kills the complement, so reconstruction
    is claimed only for t >= nu + zero_part_index.
    """

    n0: int
    nu: int
    blocks: tuple
    zero_part_index: int
    zero_coefficients: tuple


def _rank(s: np.ndarray) -> int:
    """Numerical rank from singular values s, largest first: those above 1e-11 s[0]."""
    return int(np.sum(s > 1e-11 * s[0])) if s[0] > 0 else 0


def _zero_block(kentries: np.ndarray):
    """nilpotency_index of K and the full SVD (u, s, vh) of K^iota.

    The rank test of each next power reads its singular values alone.
    """
    power = kentries
    svd = np.linalg.svd(power)
    for k in range(1, len(kentries) + 2):
        following = power @ kentries
        if _rank(np.linalg.svd(following, compute_uv=False)) == _rank(svd[1]):
            return k, svd
        power = following
        svd = np.linalg.svd(power)
    raise InvariantViolation("rank sequence of K powers failed to stabilize")


def nilpotency_index(kentries: np.ndarray) -> int:
    """Smallest k >= 1 with rank K^k = rank K^{k+1}."""
    return _zero_block(kentries)[0]


def expand(cs: CoinSequence, psi0: WaveState) -> ExpansionData:
    """Expansion coefficients of psi0 over the resonant chains of cs.

    Steps the window nu = incoming_length times so the incoming part is
    inside it, then solves one square system by LU whose columns are the
    restricted chain vectors and a basis of the kernel of K^{iota_0}.  The
    residual must vanish to 1e-9 |x|; anything else, a singular basis
    too, means the chains do not span what they should: InvariantViolation.
    It is solved for the window vector x scaled by a power of 2 to order
    one, so x may lie at either end of the float range; a coefficient
    that leaves the range raises SpectralOverflow.

    K, its eigenvalues and eigenvectors come from the walk's spectral record
    (resonances._spectrum, one eigensolve of K's parity product BA): its
    eigenvalues give the resonances, witnessed on the transfer polynomial
    built before it as in find_resonances, and the chains are
    resonances._window_chains', the ones resonant_chain extends, so
    reconstruct pairs each coefficient with its own chain vector; the
    certified simple ones, and their residuals, are read off the record
    without a product with K.  Where the resonances' total multiplicity is
    dim - 2, K's zero eigenvalue has algebraic multiplicity 2 and the
    record's two disjoint unit edge witnesses span its kernel: iota_0 = 1,
    and they are its basis; elsewhere one full SVD of K^{iota_0}
    (_zero_block) gives the rank test and the kernel basis.  A chain
    coefficient near eps kappa(basis) max|c| has no digits: compare normwise.
    """
    n0 = cs.n0
    nu = incoming_length(psi0, n0)
    *_, rows = _window_blocks(psi0, cs, nu)
    # through the trimmed state, as the light cone gives it: the window walk
    # may leave -0 on rows the light cone has not reached
    x = window_vector(WaveState(0, rows[-1, 1:-1]), n0)
    [resonances] = _resonances(cs, lambda: _spectrum(cs).evals)
    spec = _spectrum(cs)
    mults = [r.alg_multiplicity for r in resonances]
    cols = [v for chain in _window_chains(spec, [r.lam for r in resonances], mults) for v in chain]
    total_m = len(cols)
    zdim = 2 * (n0 + 1) - total_m
    if zdim == 2:  # iota = 1: the record's two edge witnesses span K's kernel
        iota, zero_basis = 1, list(spec.evecs.T[-2:])
    else:
        iota, (_, s, vh) = _zero_block(spec.k)
        kp_rank = _rank(s)
        if kp_rank != total_m:
            raise InvariantViolation(f"rank of K^{iota} is {kp_rank}, expected total multiplicity {total_m}")
        zero_basis = list(vh[::-1][:zdim].conj())
    basis = np.column_stack(cols + zero_basis)
    e = math.frexp(float(np.abs(x.view(float)).max()))[1]
    x = np.ldexp(x.view(float), -e).view(complex)
    try:
        coef = np.linalg.solve(basis, x)
    except np.linalg.LinAlgError:
        raise InvariantViolation("expansion basis of chains and kernel is singular") from None
    resid, size = _norms(np.array([basis @ coef - x, x]))
    if not resid <= 1e-9 * size:
        raise InvariantViolation(f"expansion basis missed the state by {resid / size:.2e} |x|, above 1e-9 |x|")
    with np.errstate(over="ignore"):
        coef = np.ldexp(coef.view(float), e).view(complex)
    if not np.isfinite(coef).all():
        raise SpectralOverflow("an expansion coefficient leaves the float range")
    coef = coef.tolist()
    blocks = []
    pos = 0
    for r in resonances:
        m = r.alg_multiplicity
        blocks.append(ResonanceBlock(r, tuple(coef[pos : pos + m])))
        pos += m
    zero_part = tuple(coef[pos:])
    return ExpansionData(n0, nu, tuple(blocks), iota, zero_part)


def reconstruct(ed: ExpansionData, chains, t: int, window) -> WaveState:
    """The expansion's prediction for psi_t restricted to window.

    chains holds one JordanChainStates per block, in block order: chains[i]
    is the chain of ed.blocks[i], with the same resonance, built with
    whatever radius the window needs; a list of another length, or a chain
    at another resonance, raises ValueError naming the block.  Valid for
    t >= nu + zero_part_index and windows inside [-r, n0 + r] with
    r = t - nu - (zero_part_index - 1); outside that cone the finite sum
    provably diverges from the true state, so the call is refused.  The
    window state at step nu lies in the range of K, so K^{iota_0 - 1}
    kills its zero part; the zero part emits in the iota_0 - 1 steps
    before that, and the sum does not describe the outermost iota_0 - 1
    sites on each side, where those emissions sit at time t.
    """
    lo, hi = int(window[0]), int(window[1])
    nu = ed.nu
    if t < nu + ed.zero_part_index:
        raise WindowOutsideCone(f"time {t} is below nu + zero_part_index = {nu + ed.zero_part_index}")
    reach = t - nu - (ed.zero_part_index - 1)
    if lo < -reach or hi > ed.n0 + reach:
        raise WindowOutsideCone(f"window [{lo}, {hi}] leaves the cone [{-reach}, {ed.n0 + reach}] at t={t}")
    nb, nc = len(ed.blocks), len(chains)
    for i, block in enumerate(ed.blocks):
        name = f"block {i} (resonance at xi={block.resonance.xi})"
        if i == nc:
            raise ValueError(f"{name} has no chain: {nc} chains for {nb} blocks")
        if chains[i].resonance != block.resonance:
            raise ValueError(f"chains[{i}] is not the chain of {name}")
    if nc > nb:
        raise ValueError(f"chains[{nb}] has no block: {nc} chains for {nb} blocks")
    total = np.zeros((max(hi - lo + 1, 0), 2), dtype=complex)
    j = t - nu
    for block, ch in zip(ed.blocks, chains):
        if lo < -ch.window_radius or hi > ed.n0 + ch.window_radius:
            raise ValueError(f"chain radius {ch.window_radius} does not cover window [{lo}, {hi}]")
        lam = block.resonance.lam
        m = len(block.coefficients)
        for ell in range(1, m + 1):
            sigma = 0j
            for s in range(0, m - ell + 1):
                b = math.comb(j, s) if s <= j else 0
                if b:
                    sigma += b * lam ** (j - s) * block.coefficients[ell - 1 + s]
            state = ch.states[ell - 1]
            first, last = max(lo, state.support_lo), min(hi, state.support_hi)
            if sigma != 0 and first <= last:
                # total never holds -0, so the +-0 rows a WaveState trims add nothing (sigma is finite)
                rows = state.amplitudes[first - state.support_lo : last - state.support_lo + 1]
                total[first - lo : last - lo + 1] += rows * sigma  # __mul__'s order: AVX-512 rounds sigma * rows apart
    return WaveState(lo, total)


def decay_fit_full(survival, t_min: int):
    """Least-squares fit of log s_t = log C + (m - 1) log t + t log M.

    survival[t] is the window norm at step t.  Only entries with
    t >= max(t_min, 1) and s_t > 0 enter the fit; fewer than 20 such
    points raises AllZeroTail.  Returns (M, m, C); a fitted log M or log C
    whose exponential leaves the float range raises SpectralOverflow.

    The fit is modified Gram-Schmidt on [design | y] with elementwise sums,
    which, unlike LAPACK, rounds the same on every BLAS kernel.
    """
    s = np.asarray(survival, dtype=float)
    ts = np.arange(len(s))
    keep = (ts >= max(t_min, 1)) & (s > 0)
    if int(np.count_nonzero(keep)) < 20:
        raise AllZeroTail(
            f"only {int(np.count_nonzero(keep))} usable survival values, need 20"
        )
    tt = ts[keep].astype(float)
    y = np.log(s[keep])
    a = np.array([np.ones(len(tt)), np.log(tt), tt, y])  # [design | y], one column per row
    r = np.zeros((3, 4))
    for j in range(3):
        r[j, j] = math.sqrt(np.add.reduce(a[j] * a[j]))
        a[j] /= r[j, j]
        r[j, j + 1 :] = np.add.reduce(a[j] * a[j + 1 :], axis=1)
        a[j + 1 :] -= r[j, j + 1 :, None] * a[j]
    # column 3 of r is Q^T y; back-substitute R coef = Q^T y
    coef = [0.0] * 3
    for j in (2, 1, 0):
        coef[j] = (r[j, 3] - sum(r[j, k] * coef[k] for k in range(j + 1, 3))) / r[j, j]
    try:
        return math.exp(coef[2]), coef[1] + 1.0, math.exp(coef[0])
    except OverflowError:
        raise SpectralOverflow(f"e^ of fitted log M {coef[2]:.6g} or log C {coef[0]:.6g}") from None


def double_barrier_closed_form(cs: CoinSequence):
    """Resonances and expansion coefficients of an n0 = 1 walk, in closed form.

    Returns (resonances, gamma, states).  resonances is the strip pair at
    mu = c_0 b_1, with Im xi = log |lambda| taken from |mu|^2 =
    (1 - |a_0|^2)(1 - |a_1|^2) through log1p: a width read off the rounded
    mu would carry an error of about eps / width.  Writing lambda = e^{-i xi}
    for the first of them, states are the two resonant states on the window,

        phi_plus  = (+b_1, 0) at site 0, (0, lambda) at site 1,
        phi_minus = (-b_1, 0) at site 0, (0, lambda) at site 1,

    with K phi_plus = lambda phi_plus and K phi_minus = -lambda phi_minus.
    gamma maps an initial state supported in {0, 1} to the pair
    (gamma_plus, gamma_minus) such that on the window

        psi_t = gamma_plus lambda^t phi_plus + gamma_minus (-lambda)^t phi_minus

    for every t past the first step.  Requires both coins non-diagonal; a
    diagonal coin decouples the barriers and the closed form breaks down.
    """
    if cs.n0 != 1:
        raise UnsupportedN0(f"closed form needs n0 = 1, got n0 = {cs.n0}")
    u0 = cs.coin_at(0)
    u1 = cs.coin_at(1)
    if abs(u0.b) <= 1e-14 or abs(u1.b) <= 1e-14:
        raise A3Violated("closed form needs |b_0| and |b_1| bounded away from zero")
    re_xi = strip_pair(u0.c * u1.b, 1)[0].xi.real
    xi = complex(re_xi, (math.log1p(-abs(u0.a) ** 2) + math.log1p(-abs(u1.a) ** 2)) / 4)
    lam = cmath.exp(-1j * xi)
    pair = (Resonance(xi, lam, lam * lam, 1), Resonance(xi + math.pi, -lam, lam * lam, 1))

    def gamma(psi0: WaveState):
        if not psi0.is_zero() and (psi0.support_lo < 0 or psi0.support_hi > 1):
            raise ValueError("gamma is defined for states supported in {0, 1}")
        am0 = psi0.amplitude(0)
        am1 = psi0.amplitude(1)
        swing = (u0.c * am0[0] + u0.d * am0[1]) / (2 * lam * lam)
        base = (u1.a * am1[0] + u1.b * am1[1]) / (2 * u1.b * lam)
        return (swing + base, -swing + base)

    phi_plus = WaveState(0, np.array([[u1.b, 0.0], [0.0, lam]], dtype=complex))
    phi_minus = WaveState(0, np.array([[-u1.b, 0.0], [0.0, lam]], dtype=complex))
    return pair, gamma, (phi_plus, phi_minus)


def double_barrier_bound(cs: CoinSequence, psi0: WaveState):
    """The decay rate triple (M, m, C) for a double-barrier walk and state.

    M = |lambda|, m = 1, and
    C^2 = |b_1| (|b_1| + |c_0|) (|gamma_+|^2 + |gamma_-|^2), using that both
    resonant states have squared window norm |b_1| (|b_1| + |c_0|).  The two
    states are orthogonal exactly when |c_0| = |b_1|; then s_t <= C M^t
    pointwise.  In general their overlap makes s_t oscillate with the parity
    of t around C M^t, within a factor sqrt(2) of it pointwise, and C still
    controls the prefactor of a least-squares decay fit.
    """
    resonances, gamma, _states = double_barrier_closed_form(cs)
    g = gamma(psi0)
    u0 = cs.coin_at(0)
    u1 = cs.coin_at(1)
    state_sq = abs(u1.b) * (abs(u1.b) + abs(u0.c))
    c_sq = state_sq * (abs(g[0]) ** 2 + abs(g[1]) ** 2)
    return abs(resonances[0].lam), 1, math.sqrt(c_sq)
