"""Resonances located three independent ways, with their resonant states.

A resonance is simultaneously a pole of the scattering matrix, a zero of
the lower-right transfer-product entry, and a nonzero eigenvalue of the
window restriction K through lambda = e^{-i xi}.  This module reads the
set off the eigenvalues of K, checks it on every call against the
transfer polynomial, and exposes a contour winding count as the third,
analytically independent characterization.

Root finding.  The transfer polynomial p is built first, with its
relation check, and its degree d counts the nonzero resonances.  The
roots come from one eigensolve of the odd-site product BA of K's
site-parity blocks (walk._parity_eig): its d largest eigenvalues
mu = lambda^2 within 1e-6 max(1, |mu|) of each other chain into one
cluster, whose size is the multiplicity and whose mean is the root: p
witnesses it, by one Newton step on p^(m-1) that must land near every
member, and does not move it.  A root p does not witness, an eigenvalue
p does not account for, or a p with more roots than K has eigenvalue
pairs is refused.  A family of walks of one n0, as a splitting
experiment roots, takes each stage at once on a leading walk axis
(_resonance_family): one polynomial recursion and relation-check pass,
one eigvals call on the stacked BA, then one pass for the clustering, the
witness and each check over all walks' clusters; every walk gets its lone
call's bits, and a refused family is rooted again walk by walk so that
the first failure names the error.

Jordan chains.  Resonances are generically simple, so the chain at a
resonance is usually one eigenvector of K.  _spectrum keeps one spectral
record for the last walk, from the same eigensolve with eigenvectors
and one stacked residual product, and _window_chains reads simple chains
and their residuals off it wherever a rank certificate holds, all in one
array pass; multiple resonances and uncertified blocks take an SVD of
K - lambda.  expand and resonant_chain both go through _window_chains,
so expansion coefficients and resonant states share chains.

Conventions.  Each nonzero polynomial root mu = lambda^2 inside the unit
disk produces a pair of resonances: the strip representative with
Re xi in [-pi, 0) and its partner at xi + pi, carrying lambda and -lambda.
Multiplicities come from eigenvalue clustering and are validated by the
winding integral.  Geometric multiplicity is always one, so the resonant
states at one resonance form a single Jordan chain.
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
    SpectralOverflow,
)
from .states import WaveState, _norms
from .transfer import _horner, _refuse_overflow, _transfer_entries, _transfer_polynomials
from .walk import _parity_blocks, _parity_eig, _placed, _sweep, _walk

__all__ = [
    "Resonance",
    "JordanChainStates",
    "find_resonances",
    "winding_count",
    "validate_multiplicity",
    "resonant_chain",
    "strip_pair",
]

CLUSTER_SCALE = 1e-6
_EPS = np.finfo(float).eps


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


def _cluster(roots: np.ndarray, walk: np.ndarray) -> list[np.ndarray]:
    """Group roots within radius 1e-6 max(1, |mu|) in one pairwise pass, each only with its walk's (walk nondecreasing)."""
    roots = roots[np.lexsort((roots.imag, roots.real, walk))]  # the walks keep their places, as walk leads the sort
    size = np.maximum(np.abs(roots), 1.0)
    near = np.abs(roots[:, None] - roots[None, :]) <= CLUSTER_SCALE * np.maximum(size[:, None], size[None, :])
    near &= walk[:, None] == walk[None, :]
    rows, cols = np.nonzero(near)
    if len(rows) == len(roots):  # each root its own only neighbour
        return list(roots[:, None])
    neighbours = [[] for _ in roots]  # each root's, in increasing index, itself included
    for j, k in zip(rows.tolist(), cols.tolist()):
        neighbours[j].append(k)
    used, clusters = [False] * len(roots), []
    for i in range(len(roots)):
        if used[i]:
            continue
        group, frontier, used[i] = [i], [i], True
        while frontier:
            for k in neighbours[frontier.pop()]:
                if not used[k]:
                    used[k] = True
                    group.append(k)
                    frontier.append(k)
        clusters.append(roots[group])
    return clusters


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _witness(coeffs: np.ndarray, x: np.ndarray, m) -> np.ndarray:
    """x less one Newton step q / q' on q = p^(m-1), nan where q' is 0 or the step not finite.

    Row j of coeffs is entry j's p, lowest degree first, zero-padded to one
    length; x holds the cluster means, m their multiplicities (one for all
    or one each).  Each row is differentiated to its own m at full length,
    zero-padded at the top, where Horner keeps its +0 start, so one
    transfer._horner pass serves every multiplicity.
    """
    m, q = np.asarray(m)[..., None], coeffs[:, ::-1]
    top, powers = int(m.max(initial=1)), np.arange(q.shape[1] - 1, 0, -1)
    for k in range(1, top + 1):
        dq = np.zeros_like(q)
        dq[:, 1:] = q[:, :-1] * powers  # q', zero-padded at the top
        if k < top:
            q = np.where(m > k, dq, q)  # p^(k) where m exceeds k
    q, dq = _horner(np.concatenate([q, dq]), np.concatenate([x, x])[:, None]).reshape(2, -1)
    step = q / dq
    return np.where(np.isfinite(step), x - step, np.nan)


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


def _resonances(walks, eigenvalues) -> list[list[Resonance]]:
    """The resonances of one walk, or of each walk of a list of one n0.

    The transfer polynomials come first, relation checks included
    (transfer._transfer_polynomials); at n0 = 0, p = 1 and there is none.
    eigenvalues() then gives K's spectrum, a row per walk, as
    walk._parity_eig lays it out: lambda_j over the r = n0 eigenvalues of
    BA, then -lambda_j, then the two zeros.  Each p is deflated of its zero
    roots, structural and never resonances, to a degree d, and its walk's d
    largest mu_j = lambda_j^2 cluster into multiplicities (_cluster); each
    cluster's mean is its root, witnessed by one Newton step on its walk's
    p^(m-1) (_witness).  Every stage takes all walks' clusters in one array
    pass; only what a Resonance holds (mu_j, each mean, each strip_pair) is
    formed walk by walk and cluster by cluster.

    The checks run in this order over all walks: every cluster against the
    unit disk and the strip (Resonance), cluster by cluster; the
    cross-check: an m-fold eigenvalue is determined only to about
    eps^(1/m) by QR iteration, so each member's +-sqrt(mu_j) must lie
    within max(1e-8, 50 eps^(1/m)) max(1, |lambda|) of the witness
    +-sqrt(mean - step), and a zero or non-finite step has no witness and
    is refused; every eigenvalue outside the d within 1e-6 of 0 (the zero
    group spreads to eps^(1/index) for nilpotent blocks); and d <= r.  A
    lone walk raises its first failure; _resonance_family finds a family's.
    """
    tps = _transfer_polynomials(walks)
    if (walks if isinstance(walks, CoinSequence) else walks[0]).n0 < 1:
        return [[] for _ in tps]
    walk_evals = eigenvalues().reshape(len(tps), -1)
    r = walk_evals.shape[1] // 2 - 1
    polys = []
    for tp, scale in zip(tps, np.abs([tp.coeffs for tp in tps]).max(axis=1).tolist()):
        coeffs = tp.coeffs
        while len(coeffs) > 1 and abs(coeffs[0]) <= 1e-13 * scale:
            coeffs = coeffs[1:]
        polys.append(coeffs)
    mus = np.array([evals[:r] ** 2 for evals in walk_evals])
    order = np.argsort(-np.abs(mus), axis=1, kind="stable")  # each walk's mu_j by |mu_j|, largest first
    taken = np.array([min(len(coeffs) - 1, r) for coeffs in polys])  # each walk's d largest, at most r
    owner, tops = np.repeat(np.arange(len(polys)), taken), np.concatenate([row[:t] for row, t in zip(order, taken)])
    clusters = _cluster(mus[owner, tops], owner)
    mults = np.array([len(c) for c in clusters], dtype=int)
    # walk w's clusters at ends[w]:ends[w + 1]; no cluster spans two walks
    ends = [0, *np.searchsorted(mults.cumsum(), taken.cumsum(), side="right").tolist()]
    roots = np.array([c[0] if len(c) == 1 else np.mean(c) for c in clusters], dtype=complex)
    rows = np.zeros((len(clusters), max(map(len, polys))), dtype=complex)  # each cluster's p, zero-padded
    for w, coeffs in enumerate(polys):
        rows[ends[w] : ends[w + 1], : len(coeffs)] = coeffs
    witness = _witness(rows, roots, mults)

    pairs = []
    for m, root in zip(mults.tolist(), roots):
        if abs(root) >= 1 + 1e-12:
            raise InvariantViolation(f"transfer polynomial root mu={root} lies outside the unit disk")
        pairs.append(strip_pair(root, m))
    lam = np.array([res.lam for res, _ in pairs], dtype=complex).repeat(mults)  # each member's cluster lambda
    wit = np.sqrt(witness).repeat(mults)
    tol = np.maximum(1e-8, 50 * _EPS ** (1.0 / mults.repeat(mults))) * np.maximum(1, np.abs(lam))
    near = np.sqrt(np.concatenate([lam[:0], *clusters]))
    far = ~(np.minimum(np.abs(near - wit), np.abs(near + wit)) <= tol)  # a nan witness is far
    if far.any():
        k = np.argmax(far)
        raise InvariantViolation(f"no dense eigenvalue within {tol[k]:.2e} of p's witness +-{wit[k]} at lambda={lam[k]}")
    stray = np.abs(walk_evals[:, :r]) > 1e-6
    stray[owner, tops] = False  # the nonzero eigenvalues outside each walk's d
    if stray.any():
        w = np.argmax(stray.any(axis=1))
        missed = walk_evals[w, :r][stray[w]].tolist()
        raise InvariantViolation(f"dense eigensolve has nonzero eigenvalues +-{missed} the polynomial missed")
    for d in (len(coeffs) - 1 for coeffs in polys):
        if d > r:
            raise InvariantViolation(
                f"no dense eigenvalue within reach of {d - r} of the polynomial's {d} roots:"
                f" K has {r} nonzero eigenvalue pairs"
            )
    return [
        sorted((res for pair in pairs[lo:hi] for res in pair), key=lambda res: (res.xi.real, res.xi.imag))
        for lo, hi in zip(ends, ends[1:])
    ]


def _resonance_family(walks: list[CoinSequence]) -> list[list[Resonance]]:
    """find_resonances of each walk of a list of one n0, in one stacked pass.

    Every stage takes all walks in one array pass (_resonances), each walk's
    numbers bit for bit its lone call's.  Walks of different n0 are a
    ValueError.  Where the family is refused, at any walk, its walks are
    rooted again one at a time, so the first to fail names the error.
    """
    if len({cs.n0 for cs in walks}) > 1:
        raise ValueError(f"the walks of a family share n0, got {[cs.n0 for cs in walks]}")
    try:
        return _resonances(walks, lambda: _parity_eig(*_parity_blocks(walks)))
    except Exception:  # any refusal: the rerun below raises what the first walk raises alone
        pass
    return [find_resonances(cs) for cs in walks]


def find_resonances(cs: CoinSequence) -> list[Resonance]:
    """All resonances of the walk, sorted by (Re xi, Im xi).

    The transfer polynomial is built first, relation check included, and
    its zero roots, which are structural and never resonances, deflated.
    The resonances are then K's nonzero eigenvalues, from numpy's dense
    eigensolver on the parity product BA of half K's size
    (walk._parity_eig, on blocks written from the coin table with K's norm
    check), clustered, and witnessed on the polynomial by _resonances.  At
    n0 = 0, p = 1 and there is none.
    """
    [found] = _resonances(cs, lambda: _parity_eig(*_parity_blocks(cs)))
    return found


def winding_count(cs: CoinSequence, center: complex, rho: float) -> complex:
    """Contour integral counting zeros of the transfer-product 22 entry.

    Trapezoid rule on 512 nodes of the circle |xi - center| = rho, with
    t22'/t22 from the transfer kernel's exact slope.  Exact integer values
    signal correct multiplicities; the caller decides how much drift to
    accept.  A negative rho traces the same circle; a zero or non-finite
    rho or center is a ValueError, an overflow on it SpectralOverflow.
    """
    if not (cmath.isfinite(center) and math.isfinite(rho) and rho != 0):
        raise ValueError(f"need a finite center and a finite nonzero rho, got {center}, {rho}")
    nodes = 512
    theta = 2 * np.pi * np.arange(nodes) / nodes
    e = np.exp(1j * theta)
    zeta = center + rho * e
    ((t12,), (dt12,)), ((t22,), (dt22,)), _ = _transfer_entries(cs, zeta, cols=1, slope=True)
    _refuse_overflow(zeta, t12, dt12, t22, dt22)
    return complex(rho * np.sum(1j * dt22 / t22 * e) / nodes)  # the kernel's slope is d/dxi over i


def validate_multiplicity(cs: CoinSequence, res: Resonance, others: list[Resonance]) -> int:
    """Independent multiplicity of a resonance by the argument principle.

    others is the full resonance list of cs, as find_resonances returns
    it.  The circle radius is 0.1 or 0.45 times the distance to the
    nearest other resonance, whichever is smaller, with Re xi taken modulo
    2 pi: t22 repeats there, and near Re xi = +-pi a circle sized by the
    plain distance can enclose another resonance's periodic image.
    """
    dists = [abs(g - math.tau * round(g.real / math.tau)) for g in (o.xi - res.xi for o in others)]
    rho = min([0.1] + [0.45 * d for d in dists if d > 1e-9])
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
    """The spectral record of one walk; every array is read-only.

    evals, V = walk._parity_eig(A, B, k) on K's blocks, each column of V in
    _unit_phase's canonical phase.  resid_j = |K v_j - lambda_j v_j| are
    the column norms of one stacked E = K V - V diag(evals), and the
    certificate's constants inv_cond = 1 / kappa(V) and
    delta = |E|_F / sigma_min(V), inf for a singular V, come from E and one
    values-only SVD of the assembled V, so they price whatever the lift
    did at a zero or near-zero mu.
    """

    k: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray
    resid: np.ndarray
    inv_cond: float
    delta: float


@functools.lru_cache(maxsize=1)
def _spectrum(cs: CoinSequence) -> _Spectrum:
    """The _Spectrum of cs's K, kept for the last walk: one K and eigensolve per walk."""
    a, b = _parity_blocks(cs)
    k = _placed(a, b)
    evals, evecs = _parity_eig(a, b, k)
    evecs = _unit_phase(evecs)
    resid = np.linalg.norm(k @ evecs - evecs * evals, axis=0)
    s = np.linalg.svd(evecs, compute_uv=False)
    delta = np.linalg.norm(resid) / s[-1] if s[-1] > 0 else np.inf
    for x in (k, evals, evecs, resid):
        x.flags.writeable = False
    return _Spectrum(k, evals, evecs, resid, float(s[-1] / s[0]), float(delta))


def _check_links(errs: np.ndarray, scales: np.ndarray | float, what: str) -> None:
    """Refuse the first link k = 1 .. m whose residual exceeds 1e-8 scales[k] (rows are chains)."""
    bad = errs > 1e-8 * scales
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        raise ChainSolveFailed(f"{what} residual {errs[first]:.2e} at chain index {first[-1] + 1}")


def _unit_phase(v: np.ndarray) -> np.ndarray:
    """v in the canonical phase: its leading entry made real positive.

    The leading entry is the first whose modulus is within a relative 1e-8
    of the largest, so entries tied in modulus (as in the Hadamard pair's
    resonant vectors) pick the same one whichever way rounding orders them.
    A 2-D v is taken column by column, and a zero column is left as it is.
    """
    size = np.abs(v)
    j = np.argmax(size >= (1 - 1e-8) * size.max(axis=0), axis=0)
    lead = v[j, np.arange(v.shape[1])] if v.ndim == 2 else v[j]
    lead = np.where(lead == 0, 1, lead)
    return v * (np.abs(lead) / lead)


def _svd_chain(shifted: np.ndarray, lam: complex, m: int) -> np.ndarray:
    """phi^1 .. phi^m of _window_chains from one SVD of shifted = K - lam, checked."""
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
    chain = np.array(flats)
    resid = chain @ shifted.T  # row k - 1 is (K - lambda) phi^k - phi^{k-1}
    resid[1:] -= chain[:-1]
    errs = np.linalg.norm(resid, axis=1)
    norms = np.linalg.norm(chain, axis=1)
    _check_links(errs, np.concatenate([[np.inf], norms[:-1]]), "chain solve")
    _check_links(errs, np.maximum(norms, 1.0), "window chain relation")
    return chain


def _window_chains(spec: _Spectrum, lams, mults) -> list[np.ndarray]:
    """The Jordan chain phi^1 .. phi^m of K at each lam, one window vector per row.

    phi^1 spans the kernel of K - lambda (geometric multiplicity is always
    one, which is verified), in _unit_phase's canonical phase; phi^k for
    k >= 2 is the minimum-norm solution of (K - lambda) v = phi^{k-1}.
    Each such solve must hold to 1e-8 |phi^{k-1}|, a check on the links
    k >= 2 that only SVD chains have, and each link of the chain relation
    (K - lambda) phi^k = phi^{k-1}, phi^0 = 0, to 1e-8 max(|phi^k|, 1).

    For m = 1, phi^1 is the eigenvector v_j of spec nearest lambda wherever
    a certificate shows that the rank test of the SVD path would accept
    lambda.  The pair (evals, V) is exact for
    K + F = V diag(evals) V^-1, F = -E V^-1 with E = K V - V diag(evals),
    so |F| <= delta = |E|_F / sigma_min(V).  By Weyl, with sep the
    second-smallest |lambda_j - lambda|,

        sigma_{dim-1}(K - lambda) >= low = sep / kappa(V) - delta,
        sigma_1(K - lambda) >= max_j |lambda_j - lambda| - delta,

    while sigma_1(K - lambda) <= |K| + |lambda| < 2 and, for the unit
    vector v_j, sigma_dim <= |(K - lambda) v_j| <= r = resid_j +
    |lambda_j - lambda|.  Hence low >= 4e-8 and
    r <= 0.5e-8 (max_j |lambda_j - lambda| - delta) certify the rank test
    with a factor 2 to spare; r stands for the residual in both checks, so
    a certified chain needs no product with K.  The certificate reads
    lambda and spec alone, so expand and resonant_chain take the same path
    and get the same bits.  Multiple resonances and uncertified simple
    ones (V near singular, as where K has a nilpotent block of index 2 or
    more) take one SVD of K - lambda.  Every chain runs the relation
    check; one array pass reads every certificate.
    """
    dist = np.abs(spec.evals - np.asarray(lams, dtype=complex)[:, None])
    j = np.argmin(dist, axis=1)
    ranked = np.sort(dist, axis=1)
    errs = spec.resid[j] + ranked[:, 0]
    certified = (np.asarray(mults) == 1) & (ranked[:, 1] * spec.inv_cond - spec.delta >= 4e-8)
    certified &= errs <= 0.5e-8 * (ranked[:, -1] - spec.delta)
    j = j[certified]
    _check_links(errs[certified, None], 1.0, "window chain relation")  # each v_j has unit or zero length
    taken = iter(spec.evecs.T[j, None])
    return [
        next(taken) if ok else _svd_chain(spec.k - lam * np.eye(len(spec.k)), lam, m)
        for ok, lam, m in zip(certified.tolist(), lams, mults)
    ]


@np.errstate(over="ignore", invalid="ignore")
def resonant_chain(cs: CoinSequence, res: Resonance, N: int) -> JordanChainStates:
    """Build the resonant state and its Jordan chain on [-N, n0 + N].

    On the window the chain is the one of K at lambda (see _window_chains),
    read from the walk's spectral record, so it is bit for bit the chain
    that expand's coefficients refer to.
    Outside, only the outgoing chirality survives (L on the left, R on the
    right): one step of the walk carries phi^k to -1 and n0 + 1, and from
    there walk._sweep continues phi^k = (U phi^k - phi^{k-1}) / lambda along
    the shift.  Off the window that step is the shift, so with the sweeps
    copied in it verifies the chain relation (U - lambda) phi^k = phi^{k-1}
    on [-N + 1, n0 + N - 1], to 1e-8 max(|phi^k|, 1) as on the window.  The
    states grow like |lambda|^-N outward; where they leave the float range
    the call raises SpectralOverflow.
    """
    if N < 1:
        raise ValueError(f"window radius must be at least 1, got {N}")
    n0 = cs.n0
    lam = res.lam
    [chain] = _window_chains(_spectrum(cs), [lam], [res.alg_multiplicity])
    m = len(chain)

    amps = np.zeros((m, n0 + 2 * N + 1, 2), dtype=complex)  # row N is site 0
    amps[:, N : N + n0 + 1] = chain.reshape(m, n0 + 1, 2)
    # row N + 1 + n of the step is site n; its coins read only the window
    _, stepped = _walk(cs, -N, amps)
    for k in range(m):
        prev = amps[k - 1] if k else np.zeros(amps.shape[1:])
        amps[k, N - 1 :: -1, 0] = _sweep(1 / lam, -prev[N - 1 :: -1, 0], stepped[k, N, 0])
        amps[k, N + n0 + 1 :, 1] = _sweep(1 / lam, -prev[N + n0 + 1 :, 1], stepped[k, N + n0 + 2, 1])
    # off the window the step is the shift: the swept L move left, the R right
    stepped[:, :N, 0], stepped[:, N + n0 + 3 :, 1] = amps[:, :N, 0], amps[:, N + n0 + 1 :, 1]

    # rows 2..-3 of the step are the sites -N + 1 .. n0 + N - 1
    inner = amps[:, 1:-1].reshape(m, -1)
    resid = stepped[:, 2:-2].reshape(m, -1) - lam * inner
    resid[1:] -= inner[:-1]
    # resid holds every row of the step the check reads
    if not (np.isfinite(amps).all() and np.isfinite(resid).all()):
        raise SpectralOverflow(f"resonant states on [{-N}, {n0 + N}] at xi={res.xi} leave the float range")
    norms = _norms(np.concatenate([resid, inner]))  # row by row, as two calls give them
    _check_links(norms[:m], np.maximum(norms[m:], 1.0), "chain relation")

    states = tuple(WaveState(-N, a) for a in amps)
    return JordanChainStates(res, states, N)
