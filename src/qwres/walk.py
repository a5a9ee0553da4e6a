"""Time evolution of the walk and its compression to the perturbed window.

One step is U = S∘C: the coin C acts on the (L, R) pair at each site, then
the shift S moves L one site left and R one site right.  Outside the window
[0, n0] the coins are the identity, so the step is a pure shift there, with
no rounding at all.  Every use of U reads the one coin kernel :func:`_coin`.
It lays a site range out chirality-major, the L of each site, a spare slot,
then the R in reverse, so the row read backward pairs each L with its own R
and all the coins take three contiguous ufunc calls, c1 x + c2 x[::-1].
Its products are the coin's (a L + b R, c L + d R), only c L + d R is summed
as d R + c L, and IEEE addition commutes exactly, signed zeros included.
:func:`_walk` gathers its window rows into this layout and shifts the
result for :func:`step`, :func:`build_K` and the resolvent, :func:`_states`
steps the whole light cone in time, and :func:`_window_blocks` steps only
the window, in place, in this layout (what leaves never returns).  Its rows
also hold what the coins send out through the sites -1 and n0 + 1, so they
serve both the survival norms and the ``evolve`` trajectory, whose
off-window part is the pure shift of psi0 and of those edge amplitudes.
:func:`_sweep` solves (1/e - U) w = f off the window.

K is the restriction of the step to the sites 0..n0.  It is a contraction;
the norm it loses in one application is exactly what the walk radiates out
of the window, which is the content of :func:`norm_defect`.  Every
amplitude moves by one site, so K maps even sites to odd ones and back:
with the even sites first, K = [[0, A], [B, 0]], its same-parity entries
exactly +0.  :func:`_parity_eig` reads K's spectrum off the smaller product
BA, for the resonances and the spectral record.
"""

from __future__ import annotations

import numpy as np

from .coins import CoinSequence, _tables
from .errors import SpectralOverflow, UnsupportedN0
from .states import WaveState, _norms, _window_norms, window_vector

__all__ = [
    "step",
    "evolve",
    "build_K",
    "survival_norm",
    "norm_defect",
    "kernel_witnesses",
]


# window rows per block of _window_blocks; memory is O(BLOCK * n0), not O(T)
BLOCK = 512


def _kernel(table: np.ndarray) -> np.ndarray:
    """_coin's columns (a, 0, d reversed) and (b, 0, c reversed) for the N sites of table."""
    n = len(table)
    c = np.zeros((2, 2 * n + 1), dtype=complex)
    c[:, :n] = table[:, :2].T
    c[:, n + 1 :] = table[::-1, :1:-1].T
    return c


def _coin(c1: np.ndarray, c2: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = c1 x + c2 x[..., ::-1], the coins of N sites on x of shape (..., 2N + 1).

    x holds the N sites' L, a spare slot, then their R reversed; (c1, c2) = _kernel(...).
    """
    np.multiply(c1, x, out)
    return np.add(out, np.multiply(c2, x[..., ::-1]), out)


def _walk(cs: CoinSequence, lo: int, rows: np.ndarray):
    """U = S∘C on amplitude rows for the sites lo..lo+N-1.

    rows has shape (..., N, 2); the coins touch only the rows at sites
    0..n0, gathered into _coin's layout.  Returns (lo - 1, out) with out of
    shape (..., N + 2, 2), row k of out holding site lo - 1 + k.
    """
    n = rows.shape[-2]
    out = np.zeros(rows.shape[:-2] + (n + 2, 2), dtype=complex)
    out[..., :-2, 0] = rows[..., 0]
    out[..., 2:, 1] = rows[..., 1]
    # rows i0..i1-1 sit on the window; their shifted images take the coin
    i0, i1 = max(-lo, 0), min(cs.n0 + 1 - lo, n)
    if i0 < i1:
        m = i1 - i0
        x = np.zeros(rows.shape[:-2] + (2 * m + 1,), dtype=complex)
        x[..., :m], x[..., : m : -1] = rows[..., i0:i1, 0], rows[..., i0:i1, 1]
        y = _coin(*_kernel(cs.table[lo + i0 : lo + i1]), x, np.empty_like(x))
        out[..., i0:i1, 0], out[..., i0 + 2 : i1 + 2, 1] = y[..., :m], y[..., : m : -1]
    return lo - 1, out


def step(psi: WaveState, cs: CoinSequence) -> WaveState:
    """Apply the walk once; the window grows by one site on each side."""
    return WaveState(*_walk(cs, psi.support_lo, psi.amplitudes))


def _states(psi: WaveState, cs: CoinSequence, T: int):
    """Yield psi_0 .. psi_T one at a time, keeping only the current state."""
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    yield psi
    for _ in range(T):
        psi = step(psi, cs)
        yield psi


def _window_blocks(psi0: WaveState, cs: CoinSequence, T: int):
    """Yield psi_0 .. psi_T on the sites -1..n0+1 as blocks of rows, in order.

    Each block has shape (k, n0 + 3, 2), one row per step laid out as
    :func:`_walk`'s output, and is a view of one array that the next block
    overwrites.  Nothing that leaves the window comes back, so a step needs
    only the window rows and what arrives at the two edges: psi0's R at -t
    reaches site 0 and its L at n0 + t reaches site n0 at step t, untouched
    by any coin.

    The steps run on rows in :func:`_coin`'s layout, the L at -1..n0 then
    the R at n0 + 1..0: a step is one :func:`_coin` call from slot 1 on (the
    R at n0 + 1 is the spare) into the next row's slots but the last, then
    the L at n0 and the R at 0 take psi0's incoming amplitudes, +0 once the
    last has arrived.  Each block is copied into the yielded layout once.

    The window rows[:, 1:-1] are bit for bit those of :func:`_states` on
    the support of psi_t, signed zeros included; off it they hold zeros of
    either sign.  The edge rows hold only what leaves: the L at -1
    (rows[:, 0, 0]) and the R at n0 + 1 (rows[:, -1, 1]), psi0's at step 0
    and the coins' after, bit for bit where :func:`_states` has a nonzero
    and zero where it has a zero.  Their other slots stay +0.

    A state keeps only its support, from its first nonzero site to its
    last, so a step reads +0 from any site off it.  While psi_t has a
    nonzero left of the window (and one right of it) every site a step
    reads is on the support; otherwise the window row and the amplitudes
    at -1 and n0 + 1 say where the support starts (ends).

    An amplitude that leaves the float range raises SpectralOverflow,
    naming the step and the site, before its block is yielded.
    """
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    n0 = cs.n0
    rows = np.zeros((min(BLOCK, T + 1), n0 + 3, 2), dtype=complex)
    rows[0, 1:-1] = window_vector(psi0, n0).reshape(-1, 2)
    rows[0, 0, 0], rows[0, -1, 1] = psi0.amplitude(-1)[0], psi0.amplitude(n0 + 1)[1]
    if T == 0:
        yield rows
        return
    block = np.empty((len(rows), 2 * n0 + 4), dtype=complex)
    block[0, : n0 + 2], block[0, n0 + 2 :] = rows[0, : n0 + 2, 0], rows[0, :0:-1, 1]
    views, xs, outs = list(block), list(block[:, 1:]), list(block[:, :-1])
    c1, c2 = _kernel(cs.table)
    amps, lo = psi0.amplitudes, psi0.support_lo
    # psi0's R and L by the step at which they reach site 0 and site n0, the last at step arrive
    from_l = dict(zip(range(-lo, -lo - len(amps), -1), amps[:, 1].tolist()))
    from_r = dict(zip(range(lo - n0, lo - n0 + len(amps)), amps[:, 0].tolist()))
    arrive = max(-lo, lo + len(amps) - 1 - n0)
    # from these steps on, psi0's own amplitudes leave psi_t nothing left of
    # the window (an L moving out or an R still moving in), and right of
    # it; T stands for never, as after the window sends out a nonzero
    sites = np.arange(lo, lo + len(amps))
    moving_l, moving_r = sites[amps[:, 0] != 0], sites[amps[:, 1] != 0]
    bare_l = T if (moving_l < 0).any() else -moving_r.min(initial=0)
    bare_r = T if (moving_r > n0).any() else moving_l.max(initial=n0) - n0
    first = t = 0
    while t < T:
        steps = min(len(block) - 1, T - t)
        block[1:, -1] = 0  # no coin writes the R at 0: the rows reused from the last block drop psi0's
        # one errstate a block, not spanning the yield (the consumer would run
        # under it): an amplitude past the float range is refused, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(steps):
                t += 1
                src, row = views[i], views[i + 1]
                # L leaves through site -1 and R through n0 + 1 for good; the
                # L at n0 is rewritten every step, over the coins' spare slot
                _coin(c1, c2, xs[i], outs[i + 1])
                if t <= arrive:
                    row[-1] = in_l = from_l.get(t, 0)
                    row[n0 + 1] = in_r = from_r.get(t, 0)
                else:
                    row[n0 + 1] = in_l = in_r = 0
                if t > bare_l or t > bare_r:
                    on = src[1:] != 0
                    nonzero = np.flatnonzero(on[: n0 + 1] | on[: n0 + 1 : -1])
                    # zeroing an edge slot only rewrites a zero: the coins read
                    # zeros where the support is not
                    if t > bare_l:
                        start = nonzero[0] if nonzero.size else n0 + 1 if src[n0 + 2] or in_r else n0 + 2
                        row[max(2 * n0 + 3 - start, n0 + 2) :] = 0
                        row[:start] = 0
                    if t > bare_r:
                        end = nonzero[-1] if nonzero.size else -1 if src[0] or in_l else -2
                        row[max(end + 1, 0) : n0 + 2] = 0
                        row[n0 + 2 : 2 * n0 + 2 - end] = 0
                if bare_l < T or bare_r < T:
                    if row[0]:
                        bare_l = T
                    if row[n0 + 2]:
                        bare_r = T
        done = slice(first, steps + 1)
        rows[done, : n0 + 2, 0] = block[done, : n0 + 2]
        rows[done, :0:-1, 1] = block[done, n0 + 2 :]
        if not np.isfinite(rows[done]).all():
            k, site, c = np.argwhere(~np.isfinite(rows[done]))[0].tolist()
            raise SpectralOverflow(
                f"the {'LR'[c]} amplitude at site {site - 1} leaves the float range at t={t - steps + first + k}"
            )
        yield rows[done]
        # the last row is the next block's row 0, already yielded
        block[0], first = block[steps], 1


def evolve(psi0: WaveState, cs: CoinSequence, T: int) -> list[WaveState]:
    """Trajectory [psi_0, ..., psi_T] under repeated steps."""
    return list(_states(psi0, cs, T))


def _sweep(e, f, w=0j) -> np.ndarray:
    """w_i = e (w_{i-1} + f_i) down the first axis of f, from w_{-1} = w.

    Outside [0, n0] the step is a pure shift, so along its direction of
    travel each chirality of a solution of (1/e - U) w = f obeys this
    recursion.  e and w broadcast against one row f_i; complex scalars on a
    1-D f run as Python complex numbers, numpy's scalar formula undispatched.
    """
    if isinstance(e, complex) and isinstance(w, complex) and f.ndim == 1:
        e, w, f = complex(e), complex(w), f.astype(complex).tolist()
    out = []
    for fi in f:
        w = e * (w + fi)
        out.append(w)
    return np.array(out, dtype=complex)


def _checked_norm(m: np.ndarray) -> float:
    """K's operator norm in O(n0) from m[s] = P_s C_s, refused above 1 + 1e-12.

    m[s], site s's coin rows kept in the window, fills K's columns at s; distinct
    sites fill distinct rows, so |K|_2 = max_s |m[s]|_2 exactly.  lambda_max(G),
    G = m[s]* m[s], is taken without the trace-determinant form's cancellation.
    Leading axes of m stack walks, whose largest norm is checked.
    """
    top = np.abs(m).max()
    if not np.isfinite(top):
        raise ValueError("K has non-finite entries")
    scale = 2.0 ** np.frexp(top)[1]  # exact; keeps the squares in range
    x = m / scale
    g = x.conj().swapaxes(-1, -2) @ x
    g00, g11 = g[..., 0, 0].real, g[..., 1, 1].real
    lam = (g00 + g11) / 2 + np.hypot((g00 - g11) / 2, np.abs(g[..., 0, 1]))
    top = scale * np.sqrt(lam.max())
    if not top <= 1 + 1e-12:
        raise ValueError(f"K has operator norm {top:.3e} > 1")
    return float(top)


def _kept_rows(walks) -> np.ndarray:
    """m[..., s] = P_s C_s, K's entries in its columns at site s, norm-checked; walks as coins._tables takes them."""
    table = _tables(walks)
    lead, sites = table.shape[:-2], table.shape[-2]
    if sites < 2:
        raise UnsupportedN0("K needs n0 >= 1, the boundary rows collapse at n0=0")
    m = table.reshape(lead + (sites, 2, 2)) + 0.0  # zeros +0: K's eigensolves and SVDs read the sign
    m[..., 0, 0, :] = m[..., -1, 1, :] = 0
    _checked_norm(m)
    return m


def _parity_blocks(walks) -> tuple[np.ndarray, np.ndarray]:
    """K's site-parity blocks A (odd sites to even) and B (even to odd), in O(n0); a list of walks stacks them."""
    m = _kept_rows(walks)
    lead, sites = m.shape[:-3], m.shape[-3]
    ne, no = (sites + 1) // 2, sites // 2  # even and odd sites
    # A (ne, 2, no, 2) and B (no, 2, ne, 2) as rows of entry pairs: a strided slice per diagonal
    a, b = np.zeros(lead + (ne * 2 * no, 2), dtype=complex), np.zeros(lead + (no * 2 * ne, 2), dtype=complex)
    step_a, step_b = 2 * no + 1, 2 * ne + 1
    a[..., : no * step_a : step_a, :] = m[..., 1::2, 0, :]  # (i, 0, i)
    a[..., 3 * no : 3 * no + (ne - 1) * step_a : step_a, :] = m[..., 1 : 2 * ne - 1 : 2, 1, :]  # (j + 1, 1, j)
    b[..., ne : ne + no * step_b : step_b, :] = m[..., 0 : 2 * no : 2, 1, :]  # (i, 1, i)
    b[..., 1 : 1 + (ne - 1) * step_b : step_b, :] = m[..., 2::2, 0, :]  # (j, 0, j + 1)
    return a.reshape(lead + (2 * ne, 2 * no)), b.reshape(lead + (2 * no, 2 * ne))


def build_K(cs: CoinSequence) -> np.ndarray:
    """K as a read-only dense array, placed from its parity blocks (_parity_blocks).

    Column j is U e_j kept on the sites 0..n0; what leaves through the
    sites -1 and n0 + 1 is dropped, so the edge rows keep only the inward
    contribution (P_1 psi(1) and Q_{n0-1} psi(n0-1)).  _parity_blocks
    refuses non-finite entries and a norm above 1 + 1e-12.
    """
    k = _placed(*_parity_blocks(cs))
    k.flags.writeable = False
    return k


def _placed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dense K = [[0, A], [B, 0]] in the canonical layout, even sites first."""
    n = (len(a) + len(b)) // 2
    k4 = np.zeros((n, 2, n, 2), dtype=complex)
    k4[0::2, :, 1::2] = a.reshape(len(a) // 2, 2, -1, 2)
    k4[1::2, :, 0::2] = b.reshape(len(b) // 2, 2, -1, 2)
    return k4.reshape(2 * n, 2 * n)


def _parity_eig(a: np.ndarray, b: np.ndarray, k: np.ndarray | None = None):
    """K's eigenvalues, and given K its eigenvectors, from one eigensolve.

    Every resonance comes from here: find_resonances reads the eigenvalues
    alone, the spectral record of expand and resonant_chain the vectors
    too.  With the even sites first K = [[0, A], [B, 0]], so its
    eigenvalues are +-sqrt(mu) over the eigenvalues mu of the odd-site
    product BA, of size 2 floor((n0 + 1) / 2), and 0 for the two kernel
    witnesses at sites 0 and n0, read off K's edge rows.  For n0 odd the
    witness at n0 is an odd-site vector in the kernel of A, an exact zero
    of BA, and that mu (the smallest) is dropped.

    Returns the eigenvalues (+lambda_j, then -lambda_j, then 0, 0) or, with
    k, also the unit eigenvectors as columns: (A u, lambda u) for
    BA u = mu u, then the witnesses.  Any other zero or near-zero mu leaves
    its two columns (nearly) parallel or zero, which shows in the
    conditioning of the matrix, not as an error.  Without k, stacked blocks
    give stacked eigenvalues from one product and eigvals call.
    """
    n = (a.shape[-2] + b.shape[-2]) // 2  # the sites 0..n0
    ba = b @ a
    mu, u = np.linalg.eig(ba) if k is not None else (np.linalg.eigvals(ba), None)
    # for n0 odd (n even) the witness at site n0 is BA's exact zero
    keep = slice(None)
    if n % 2 == 0:
        keep = np.arange(mu.shape[-1]) != np.argmin(np.abs(mu), axis=-1)[..., None]
        mu = mu[keep].reshape(mu.shape[:-1] + (-1,))
    lam = np.sqrt(mu)
    evals = np.concatenate([lam, -lam, np.zeros(lam.shape[:-1] + (2,), dtype=complex)], axis=-1)
    if k is None:
        return evals
    u, r = u[:, keep], len(lam)
    v = np.zeros((n, 2, 2 * r + 2), dtype=complex)
    v[0::2, :, :r] = v[0::2, :, r:-2] = (a @ u).reshape(-1, 2, r)
    v[1::2, :, :r] = (u * lam).reshape(-1, 2, r)
    v[1::2, :, r:-2] = -v[1::2, :, :r]
    v = v.reshape(2 * n, -1)
    v[:, -2:] = _edge_witnesses(k).T
    norms = np.linalg.norm(v, axis=0)
    return evals, v / np.where(norms > 0, norms, 1.0)


def _edge_witnesses(k: np.ndarray) -> np.ndarray:
    """The two edge kernel vectors of K, as the rows of a (2, dim) array.

    The R row at site 1 holds (c_0, d_0), what reaches it from site 0, so
    (d_0, -c_0) at site 0 is annihilated; the mirror (b_n0, -a_n0) at site
    n0 is read off the L row at site n0 - 1.
    """
    w = np.zeros((2, len(k)), dtype=complex)
    w[0, :2] = k[3, 1], -k[3, 0]
    w[1, -2:] = k[-4, -1], -k[-4, -2]
    return w


def kernel_witnesses(cs: CoinSequence) -> tuple[np.ndarray, np.ndarray]:
    """Two explicit kernel vectors of K, one per window edge.

    (d_0, -c_0) at site 0 and (b_n0, -a_n0) at site n0, read off K's edge
    rows by _edge_witnesses, the formula the parity eigensolve lifts with.
    """
    v0, vn = _edge_witnesses(build_K(cs))
    return v0, vn


def survival_norm(trajectory, n0: int) -> list[float]:
    """Per-step l2 norm on the window [0, n0] of any iterable of states; SpectralOverflow past the float range."""
    return _finite_norms(np.array([t.restrict(0, n0).norm() for t in trajectory]))


def _window_survival(psi0: WaveState, cs: CoinSequence, T: int) -> list[float]:
    """survival_norm of psi_0 .. psi_T, bit for bit, stepping only the window (_finite_norms)."""
    blocks = _window_blocks(psi0, cs, T)
    return _finite_norms(np.concatenate([_window_norms(rows[:, 1:-1]) for rows in blocks]))


def _finite_norms(norms: np.ndarray) -> list[float]:
    """The window norms of psi_0 .. psi_T as a list; the first past the float range raises SpectralOverflow.

    Finite amplitudes can have a norm past it: four of 1e308 have norm 2e308.
    """
    over = np.flatnonzero(~np.isfinite(norms))
    if over.size:
        raise SpectralOverflow(f"the window norm leaves the float range at t={over[0]}")
    return norms.tolist()


def norm_defect(cs: CoinSequence, v: np.ndarray) -> float:
    """Residual of the norm identity for one window vector.

    ||v||^2 splits exactly into ||Kv||^2 plus the two amplitudes the walk
    emits from the window edges, |<L| P_0 v(0)|^2 and |<R| Q_{n0} v(n0)|^2.
    One step of the walk gives all three: U v on the sites -1..n0+1 is
    K v on 0..n0 between the two emitted amplitudes.  Returns the absolute
    defect of that identity.
    """
    if cs.n0 < 1:
        raise UnsupportedN0("K needs n0 >= 1, the boundary rows collapse at n0=0")
    v = np.asarray(v, dtype=complex).reshape(cs.n0 + 1, 2)  # ValueError for another length
    _, out = _walk(cs, 0, v)
    total, kept = _norms(np.array([v, out[1:-1]]).reshape(2, -1)) ** 2
    return float(abs(total - kept - abs(out[0, 0]) ** 2 - abs(out[-1, 1]) ** 2))
