"""Resonances located three independent ways, with their resonant states.

A resonance is simultaneously a pole of the scattering matrix, a zero of
the lower-right transfer-product entry, and a nonzero eigenvalue of the
window restriction K through lambda = e^{-i xi}.  This module computes the
set from the transfer polynomial, cross-checks it against a dense
eigensolve of K on every call, and exposes a contour winding count as the
third, analytically independent characterization.

Root finding.  Every nonzero root mu of the transfer polynomial lies in the
unit disk, so Aberth iteration starts on the unit circle, and each sweep
reads p, p' and the backward-error floor from one transfer._horner pass.
Roots within 1e-6 max(1, |mu|) of each other chain into one cluster, whose
size is the multiplicity and whose mean Newton polishes as a simple root
of p^(m-1) until a step fails to halve the one before.  Both stages take a
stack of polynomials, so a family of walks (the splitting experiment's
perturbed walks) roots in one pass, each walk bit for bit as on its own.

Jordan chains.  Resonances are generically simple, so the chain at a
resonance is usually one eigenvector of K.  _spectrum keeps one eig(K)
record for the last walk, and _window_chain reads a simple chain off it
wherever a rank certificate holds; multiple resonances and uncertified
blocks take an SVD of K - lambda.  expand and resonant_chain both go through
_window_chain, so expansion coefficients and resonant states share chains.

Conventions.  Each nonzero polynomial root mu = lambda^2 inside the unit
disk produces a pair of resonances: the strip representative with
Re xi in [-pi, 0) and its partner at xi + pi, carrying lambda and -lambda.
Multiplicities come from root clustering and are validated by the winding
integral.  Geometric multiplicity is always one, so the resonant states at
one resonance form a single Jordan chain.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .coins import CoinSequence
from .errors import (
    ChainSolveFailed,
    InvariantViolation,
    RootFindingDiverged,
    SpectralOverflow,
)
from .states import WaveState
from .transfer import _horner, transfer_polynomial, transfer_product
from .walk import _sweep, _walk, build_K

__all__ = [
    "Resonance",
    "JordanChainStates",
    "aberth_roots",
    "find_resonances",
    "winding_count",
    "validate_multiplicity",
    "resonant_chain",
    "strip_pair",
]

CLUSTER_SCALE = 1e-6


@dataclass(frozen=True)
class Resonance:
    """One resonance: strip coordinate xi, eigenvalue lam, root mu.

    lam = e^{-i xi} and mu = lam^2 are stored redundantly and checked
    against each other; Im xi < 0 so |lam| < 1.
    """

    xi: complex
    lam: complex
    mu: complex
    alg_multiplicity: int

    def __post_init__(self):
        if not -math.pi <= self.xi.real < math.pi:
            raise InvariantViolation(f"Re xi = {self.xi.real} outside [-pi, pi)")
        if not self.xi.imag < 0:
            raise InvariantViolation(f"Im xi = {self.xi.imag} not negative")
        if abs(self.lam) >= 1:
            raise InvariantViolation(f"|lambda| = {abs(self.lam)} not below 1")
        if abs(cmath.exp(-1j * self.xi) - self.lam) > 1e-12 * (1 + abs(self.lam)):
            raise InvariantViolation("xi and lambda disagree beyond 1e-12")
        if abs(self.lam**2 - self.mu) > 1e-12 * (1 + abs(self.mu)):
            raise InvariantViolation("lambda^2 and mu disagree beyond 1e-12")
        if self.alg_multiplicity < 1:
            raise InvariantViolation("multiplicity must be positive")


def aberth_roots(coeffs) -> np.ndarray:
    """All roots of monic polynomials by simultaneous Aberth iteration.

    coeffs is lowest degree first with a trailing 1: one polynomial of
    shape (d + 1,), whose roots come back with shape (d,), or a stack of
    shape (F, d + 1), whose roots come back with shape (F, d).  A stack
    iterates together, one transfer._horner pass a sweep for all of its
    polynomials, and each polynomial freezes on its own stop test, so its
    roots are bit for bit those of a call on it alone.

    The iterates start on the unit circle.  Resonances have |lambda| < 1,
    so every root the transfer polynomial can contribute lies in the unit
    disk (K is a contraction, and find_resonances refuses
    |mu| >= 1 + 1e-12): the start circle encloses all of them and lies near
    the outer ones, the resonances closest to the real axis, which keeps
    the sweep count low (Bini 1996).  Roots outside the disk converge too,
    from further away.

    A polynomial stops when every residual |p(x)| sits below the
    backward-error floor 16 eps sum |c_k||x|^k or every correction stalls
    at 1e-13 (1 + |x|); 500 sweeps without that raises RootFindingDiverged,
    and so does a residual or floor past the float range, where inf <= inf
    would pass for convergence.
    """
    c = np.asarray(coeffs, dtype=complex)
    shape, d = c.shape[:-1], c.shape[-1] - 1
    if d <= 0:
        return np.zeros(shape + (0,), dtype=complex)
    if d == 1:
        return -c[..., :1]
    high = c.reshape(-1, d + 1)[:, ::-1]
    # rows[0], rows[1] and rows[2] give p, p' (padded to p's length) and
    # sum |c_k| |x|^k of each live polynomial, one Horner pass a sweep
    dhigh = np.concatenate([np.zeros_like(high[:, :1]), _derivative(high)], axis=1)
    rows = np.stack([high, dhigh, np.abs(high)])
    eps = np.finfo(float).eps
    # the angular offset keeps the start away from real-axis root symmetry
    x = np.tile(np.exp(2j * np.pi * (np.arange(d) + 0.37) / d), (len(high), 1))
    roots = np.empty_like(x)
    live = np.arange(len(high))
    diagonal = np.arange(d)
    for _ in range(500):
        with np.errstate(over="ignore", invalid="ignore"):
            # the floor rows run at |x| + 0j: their real part is the real Horner
            values = _horner(rows.reshape(-1, d + 1), np.concatenate([x, x, np.abs(x) + 0j]))
            p, dp, floor = values.reshape(3, -1, d)
            floor = 16 * eps * floor.real
        if not (np.isfinite(p).all() and np.isfinite(floor).all()):
            raise RootFindingDiverged("Aberth residual |p(x)| or its floor is not a finite float")
        done = np.abs(p) <= floor
        dp = np.where(dp == 0, eps, dp)
        w = p / dp
        diff = x[:, :, None] - x[:, None, :]
        diff[:, diagonal, diagonal] = np.inf
        diff = np.where(diff == 0, 1e-300, diff)
        s = (1.0 / diff).sum(axis=2)
        delta = w / (1.0 - w * s)
        delta = np.where(np.isfinite(delta), delta, w)
        x = np.where(done, x, x - delta)
        # a polynomial whose residuals all sit below the floor, or whose
        # corrections all stall, keeps its iterates as roots and leaves the stack
        settled = (done | (np.abs(delta) <= 1e-13 * (1 + np.abs(x)))).all(axis=1)
        if settled.any():
            roots[live[settled]], keep = x[settled], ~settled
            live, x, rows = live[keep], x[keep], rows[:, keep]
        if not live.size:
            return roots.reshape(shape + (d,))
    raise RootFindingDiverged("Aberth iteration did not settle in 500 sweeps")


def _cluster(roots: np.ndarray) -> list[np.ndarray]:
    """Group root approximations within radius 1e-6 max(1, |mu|)."""
    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    size = np.maximum(np.abs(roots), 1.0)
    tol = CLUSTER_SCALE * np.maximum(size[:, None], size[None, :])
    # each root's neighbours in increasing index, itself included
    neighbours = [[] for _ in roots]
    rows, cols = np.nonzero(np.abs(roots[:, None] - roots[None, :]) <= tol)
    for j, k in zip(rows.tolist(), cols.tolist()):
        neighbours[j].append(k)
    used = [False] * len(roots)
    clusters = []
    for i in range(len(roots)):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        frontier = [i]
        while frontier:
            for k in neighbours[frontier.pop()]:
                if not used[k]:
                    used[k] = True
                    group.append(k)
                    frontier.append(k)
        clusters.append(roots[group])
    return clusters


def _derivative(high: np.ndarray) -> np.ndarray:
    """np.polyder of each coefficient row (highest degree first) on the last axis."""
    return high[..., :-1] * np.arange(high.shape[-1] - 1, 0, -1)


def _polish(coeffs: np.ndarray, x0: np.ndarray, m: int) -> np.ndarray:
    """Refine m-fold roots as simple roots of the (m-1)-th derivative.

    An m-fold cluster centroid is accurate to about sqrt-of-eps digits; the
    derivative p^(m-1) has a simple root at the same point, where Newton is
    well posed and recovers nearly full precision.  x0 holds centroids of
    one multiplicity m, polished together, and coeffs holds one monic row,
    lowest degree first, per entry of x0, so that the roots of several
    polynomials polish in one pass.

    Each entry stops on its own: at dq == 0; at a Newton step that fails to
    halve the step before it, keeping the iterate from before that step,
    since Newton has stopped contracting and only rounding moves it; at a
    step |dx| <= 1e-15 (1 + |x|); or after 60 steps.  An entry that ran
    away beyond 1e-3 (1 + |x0|) keeps its centroid.
    """
    x0 = np.asarray(x0, dtype=complex)
    high = np.asarray(coeffs)[:, ::-1]
    for _ in range(m - 1):
        high = _derivative(high)
    # rows[j] holds q and q' (padded to q's length) of entry j
    dhigh = np.concatenate([np.zeros_like(high[:, :1]), _derivative(high)], axis=1)
    rows = np.stack([high, dhigh], axis=1)
    x = x0.copy()
    last = np.full(len(x), np.inf)
    live = np.arange(len(x))
    for _ in range(60):
        if not live.size:
            break
        points = np.repeat(x[live], 2)[:, None]
        q, dq = _horner(rows[live].reshape(len(points), -1), points).reshape(-1, 2).T
        moving = dq != 0
        live, dx = live[moving], q[moving] / dq[moving]
        halved = np.abs(dx) <= 0.5 * last[live]
        live, dx = live[halved], dx[halved]
        last[live] = np.abs(dx)
        x[live] -= dx
        live = live[~(np.abs(dx) <= 1e-15 * (1 + np.abs(x[live])))]
    runaway = np.abs(x - x0) > 1e-3 * (1 + np.abs(x0))
    return np.where(runaway, x0, x)


def strip_pair(mu: complex, multiplicity: int) -> tuple[Resonance, Resonance]:
    """The two resonances attached to one nonzero root mu of p.

    The square roots of mu are the eigenvalues; the strip coordinates are
    placed with the primary in Re xi in [-pi, 0) and the partner at +pi.
    A primary within half an ulp of 0 would round its partner onto pi, so
    it takes the other branch: the primary sits at -pi and the partner at 0.
    """
    lam = cmath.sqrt(mu)
    xi = 1j * cmath.log(lam)
    if not (-math.pi <= xi.real < 0 and xi.real + math.pi < math.pi):
        xi, lam = xi - math.pi, -lam
    first = Resonance(xi, lam, mu, multiplicity)
    second = Resonance(xi + math.pi, -lam, mu, multiplicity)
    return first, second


def _dense_crosscheck(resonances: list[Resonance], evals: np.ndarray) -> None:
    """Match the polynomial eigenvalues against a dense eigensolve of K.

    An m-fold eigenvalue is only determined to about eps^(1/m) by QR
    iteration, so the matching tolerance widens with multiplicity.  After
    all resonant eigenvalues are consumed, whatever remains must be the
    zero group (which spreads to eps^(1/index) for nilpotent blocks).
    """
    eps = np.finfo(float).eps
    remaining = list(evals)
    for r in resonances:
        tol = max(1e-8, 50 * eps ** (1.0 / r.alg_multiplicity)) * max(1, abs(r.lam))
        for _ in range(r.alg_multiplicity):
            dists = [abs(e - r.lam) for e in remaining]
            i = int(np.argmin(dists))
            if dists[i] > tol:
                raise InvariantViolation(
                    f"no dense eigenvalue within {tol:.2e} of lambda={r.lam}"
                )
            remaining.pop(i)
    stray = [e for e in remaining if abs(e) > 1e-6]
    if stray:
        raise InvariantViolation(
            f"dense eigensolve has nonzero eigenvalues {stray} the polynomial missed"
        )


def _deflated(cs: CoinSequence) -> np.ndarray:
    """The monic transfer polynomial of cs with its zero roots deflated."""
    coeffs = np.array(transfer_polynomial(cs).coeffs)
    scale = np.max(np.abs(coeffs))
    while len(coeffs) > 1 and abs(coeffs[0]) <= 1e-13 * scale:
        coeffs = coeffs[1:]
    return coeffs


def _polynomial_resonances(walks: list[CoinSequence]) -> list[list[Resonance]]:
    """find_resonances of each walk without the dense cross-check.

    Each walk's transfer polynomial is built, relation check included, in
    order.  The polynomials of one degree then root in one stacked
    aberth_roots pass, and their clusters of one multiplicity polish in one
    _polish call, so every walk gets bit for bit the roots it would get on
    its own.  The checks run walk by walk, each in cluster order, so the
    first bad cluster of the first bad walk is the one named.
    """
    polys = [_deflated(cs) for cs in walks]
    # (multiplicity, polished mu) of each cluster of each walk
    found: list = [None] * len(walks)
    for size in dict.fromkeys(len(c) for c in polys):
        group = [i for i, c in enumerate(polys) if len(c) == size]
        stack = np.array([polys[i] for i in group])
        clusters = [_cluster(r) for r in aberth_roots(stack)]
        owner = np.repeat(np.arange(len(group)), [len(walk) for walk in clusters])
        mults = np.array([len(c) for walk in clusters for c in walk], dtype=int)
        mus = np.array([np.mean(c) for walk in clusters for c in walk], dtype=complex)
        for m in set(mults.tolist()):
            sel = mults == m
            mus[sel] = _polish(stack[owner[sel]], mus[sel], m)
        for j, i in enumerate(group):
            found[i] = list(zip(mults[owner == j].tolist(), mus[owner == j]))
    family = []
    for cs, pairs in zip(walks, found):
        out: list[Resonance] = []
        for m, mu in pairs:
            if abs(mu) >= 1 + 1e-12:
                raise InvariantViolation(
                    f"transfer polynomial root mu={mu} lies outside the unit disk"
                )
            if m > cs.n0:
                raise InvariantViolation(
                    f"root multiplicity {m} exceeds the window size {cs.n0}"
                )
            out.extend(strip_pair(mu, m))
        out.sort(key=lambda r: (r.xi.real, r.xi.imag))
        family.append(out)
    return family


def _family_resonances(walks: list[CoinSequence]) -> list[list[Resonance]]:
    """find_resonances of each walk, the root finding stacked over the walks.

    Each walk's list is bit for bit what find_resonances gives for it; the
    dense cross-checks run walk by walk after all the polynomial checks.
    """
    family = _polynomial_resonances(walks)
    for cs, out in zip(walks, family):
        if cs.n0 >= 1:
            _dense_crosscheck(out, np.linalg.eigvals(build_K(cs).entries))
    return family


def find_resonances(cs: CoinSequence) -> list[Resonance]:
    """All resonances of the walk, sorted by (Re xi, Im xi).

    Roots of the transfer polynomial are found by Aberth iteration,
    clustered into multiplicities, polished, and mapped into the strip.
    Zero roots of p are structural (they never correspond to resonances)
    and are deflated before iteration.  Every call cross-checks the
    eigenvalue multiset against numpy's dense eigensolver on K.
    """
    return _family_resonances([cs])[0]


def winding_count(cs: CoinSequence, center: complex, rho: float) -> complex:
    """Contour integral counting zeros of the transfer-product 22 entry.

    Trapezoid rule, 512 nodes on a circle of radius rho around center, with
    the logarithmic derivative from central differences at step 1e-4 rho.
    Exact integer values signal correct multiplicities; the caller decides
    how much drift to accept.  A negative rho traces the same circle; a
    zero or non-finite rho or center is a ValueError.
    """
    if not (cmath.isfinite(center) and math.isfinite(rho) and rho != 0):
        raise ValueError(f"need a finite center and a finite nonzero rho, got {center}, {rho}")
    nodes = 512
    theta = 2 * np.pi * np.arange(nodes) / nodes
    e = np.exp(1j * theta)
    zeta = center + rho * e
    h = 1e-4 * rho
    pts = np.concatenate([zeta, zeta + h, zeta - h])
    t22 = transfer_product(cs, pts)[:, 1, 1]
    f0 = t22[:nodes]
    deriv = (t22[nodes : 2 * nodes] - t22[2 * nodes :]) / (2 * h)
    return complex(rho * np.sum(deriv / f0 * e) / nodes)


def validate_multiplicity(cs: CoinSequence, res: Resonance, others: list[Resonance]) -> int:
    """Independent multiplicity of a resonance by the argument principle.

    others is the full resonance list of cs, as find_resonances returns
    it.  The circle radius is 0.1 or 0.45 times the distance to the
    nearest other resonance, whichever is smaller.
    """
    dists = [abs(o.xi - res.xi) for o in others if abs(o.xi - res.xi) > 1e-9]
    rho = 0.1 if not dists else min(0.1, 0.45 * min(dists))
    val = winding_count(cs, res.xi, rho)
    count = round(val.real)
    if abs(val - count) > 0.25:
        raise InvariantViolation(
            f"winding integral {val} is not close to an integer"
        )
    return count


@dataclass(frozen=True)
class JordanChainStates:
    """The Jordan chain phi^1 .. phi^m at one resonance, extended outward.

    Each state lives on the window [-window_radius, n0 + window_radius].
    phi^1 has a unit-norm restriction; the others solve the shifted chain
    equations with the minimum-norm choice, so nothing is orthonormalized.
    """

    resonance: Resonance
    states: tuple[WaveState, ...]
    window_radius: int


@dataclass(frozen=True)
class _Spectrum:
    """The eig(K) record of one walk; every array is read-only.

    evals, evecs = np.linalg.eig(k) = (lambda_j, V).  The certificate's
    constants inv_cond = 1 / kappa(V) and delta = |K V - V diag(evals)|_F /
    sigma_min(V), inf for a singular V, come from one values-only SVD of V.
    """

    k: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray
    inv_cond: float
    delta: float


def _decompose(kentries: np.ndarray) -> _Spectrum:
    """The _Spectrum of a window matrix, with its own read-only copy of it."""
    k = np.array(kentries, dtype=complex)
    evals, evecs = np.linalg.eig(k)
    s = np.linalg.svd(evecs, compute_uv=False)
    delta = np.linalg.norm(k @ evecs - evecs * evals) / s[-1] if s[-1] > 0 else np.inf
    for a in (k, evals, evecs):
        a.flags.writeable = False
    return _Spectrum(k, evals, evecs, float(s[-1] / s[0]), float(delta))


@functools.lru_cache(maxsize=1)
def _spectrum(cs: CoinSequence) -> _Spectrum:
    """The _Spectrum of cs's K, kept for the last walk: one build_K and eig per walk."""
    return _decompose(build_K(cs).entries)


def _check_links(errs: np.ndarray, scales: np.ndarray, what: str) -> None:
    """Refuse the first link k = 1 .. m whose residual exceeds 1e-8 scales[k]."""
    bad = np.flatnonzero(errs > 1e-8 * scales)
    if bad.size:
        raise ChainSolveFailed(f"{what} residual {errs[bad[0]]:.2e} at chain index {bad[0] + 1}")


def _unit_phase(v: np.ndarray) -> np.ndarray:
    """v in the canonical phase: its leading entry made real positive.

    The leading entry is the first whose modulus is within a relative 1e-8
    of the largest, so entries tied in modulus (as in the Hadamard pair's
    resonant vectors) pick the same one whichever way rounding orders them.
    """
    size = np.abs(v)
    j = int(np.argmax(size >= (1 - 1e-8) * size.max()))
    return v * (abs(v[j]) / v[j])


def _svd_chain(shifted: np.ndarray, lam: complex, m: int) -> np.ndarray:
    """phi^1 .. phi^m of _window_chain from one SVD of shifted = K - lam."""
    dim = len(shifted)
    u_svd, s, vh = np.linalg.svd(shifted)
    rank = int(np.sum(s > 1e-8 * s[0]))
    if rank != dim - 1:
        raise InvariantViolation(
            f"kernel of K - lambda at lambda={lam} has dimension {dim - rank}, not 1"
        )
    flats = [_unit_phase(vh[-1].conj())]
    if m >= 2:
        inv_s = np.where(s > 1e-8 * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
        pinv = (vh.conj().T * inv_s) @ u_svd.conj().T
        for _ in range(1, m):
            flats.append(pinv @ flats[-1])
    return np.array(flats)


def _window_chain(spec: _Spectrum, lam: complex, m: int) -> np.ndarray:
    """The Jordan chain phi^1 .. phi^m of K at lam, one window vector per row.

    phi^1 spans the kernel of K - lambda (geometric multiplicity is always
    one, which is verified), in _unit_phase's canonical phase; phi^k for
    k >= 2 is the minimum-norm solution of (K - lambda) v = phi^{k-1}.
    Each solve must hold to 1e-8 |phi^{k-1}|, and each link of the chain
    relation (K - lambda) phi^k = phi^{k-1}, phi^0 = 0, to
    1e-8 max(|phi^k|, 1).

    For m = 1, phi^1 is the eigenvector v_j of spec nearest lambda wherever
    a certificate shows that the rank test of the SVD path would accept
    lambda.  The pair (evals, V) is exact for
    K + F = V diag(evals) V^-1, F = -E V^-1 with E = K V - V diag(evals),
    so |F| <= delta = |E|_F / sigma_min(V).  By Weyl, with sep the
    second-smallest |lambda_j - lambda|,

        sigma_{dim-1}(K - lambda) >= low = sep / kappa(V) - delta,
        sigma_1(K - lambda) >= max_j |lambda_j - lambda| - delta,

    while sigma_1(K - lambda) <= |K| + |lambda| < 2 and, for the unit
    vector v_j, sigma_dim <= r = |(K - lambda) v_j|.  Hence low >= 4e-8 and
    r <= 0.5e-8 (max_j |lambda_j - lambda| - delta) certify the rank test
    with a factor 2 to spare.  The certificate reads lambda and spec alone,
    so expand and resonant_chain take the same path and get the same bits.
    Multiple resonances and uncertified simple ones (V near singular, as
    where K has a nilpotent block of index 2 or more) take one SVD of
    K - lambda.  Every chain runs both checks.
    """
    shifted = spec.k - lam * np.eye(len(spec.k))
    chain = None
    if m == 1:
        dist = np.abs(spec.evals - lam)
        if np.partition(dist, 1)[1] * spec.inv_cond - spec.delta >= 4e-8:
            chain = _unit_phase(spec.evecs[:, np.argmin(dist)])[None]
            errs = np.linalg.norm(chain @ shifted.T, axis=1)
            if not errs[0] <= 0.5e-8 * (dist.max() - spec.delta):
                chain = None
    if chain is None:
        chain = _svd_chain(shifted, lam, m)
        resid = chain @ shifted.T  # row k - 1 is (K - lambda) phi^k - phi^{k-1}
        resid[1:] -= chain[:-1]
        errs = np.linalg.norm(resid, axis=1)
    norms = np.linalg.norm(chain, axis=1)
    _check_links(errs, np.concatenate([[np.inf], norms[:-1]]), "chain solve")
    _check_links(errs, np.maximum(norms, 1.0), "window chain relation")
    return chain


@np.errstate(over="ignore", invalid="ignore")
def resonant_chain(cs: CoinSequence, res: Resonance, N: int) -> JordanChainStates:
    """Build the resonant state and its Jordan chain on [-N, n0 + N].

    On the window the chain is the one of K at lambda (see _window_chain),
    read from the walk's spectral record, so it is bit for bit the chain
    that expand's coefficients refer to.
    Outside, only the outgoing chirality survives (L on the left, R on the
    right): one step of the walk carries phi^k to -1 and n0 + 1, and from
    there walk._sweep continues phi^k = (U phi^k - phi^{k-1}) / lambda along
    the shift.  The chain relation (U - lambda) phi^k = phi^{k-1} is then
    verified by one application of the walk on [-N + 1, n0 + N - 1], to
    1e-8 max(|phi^k|, 1) as on the window.  The states grow like
    |lambda|^-N outward; where they leave the float range the call raises
    SpectralOverflow.
    """
    if N < 1:
        raise ValueError(f"window radius must be at least 1, got {N}")
    n0 = cs.n0
    lam = res.lam
    chain = _window_chain(_spectrum(cs), lam, res.alg_multiplicity)
    m = len(chain)

    amps = np.zeros((m, n0 + 2 * N + 1, 2), dtype=complex)  # row N is site 0
    amps[:, N : N + n0 + 1] = chain.reshape(m, n0 + 1, 2)
    _, emitted = _walk(cs, 0, amps[:, N : N + n0 + 1])
    for k in range(m):
        prev = amps[k - 1] if k else np.zeros(amps.shape[1:])
        amps[k, N - 1 :: -1, 0] = _sweep(1 / lam, -prev[N - 1 :: -1, 0], emitted[k, 0, 0])
        amps[k, N + n0 + 1 :, 1] = _sweep(1 / lam, -prev[N + n0 + 1 :, 1], emitted[k, -1, 1])

    # rows 2..-3 of the step are the sites -N + 1 .. n0 + N - 1
    _, stepped = _walk(cs, -N, amps)
    inner = amps[:, 1:-1].reshape(m, -1)
    resid = stepped[:, 2:-2].reshape(m, -1) - lam * inner
    resid[1:] -= inner[:-1]
    # resid holds every row of the step the check reads
    if not (np.isfinite(amps).all() and np.isfinite(resid).all()):
        raise SpectralOverflow(
            f"resonant states on [{-N}, {n0 + N}] at xi={res.xi} leave the float range"
        )
    # scaled by the largest amplitude, the norms cannot overflow, as their
    # squares do once amplitudes pass about 1e154
    top = max(float(np.max(np.abs(inner))), 1.0)
    scales = np.maximum(np.linalg.norm(inner / top, axis=1), 1.0 / top)
    _check_links(np.linalg.norm(resid / top, axis=1), scales, "chain relation")

    states = tuple(WaveState(-N, a) for a in amps)
    return JordanChainStates(res, states, N)
