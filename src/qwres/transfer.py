"""Transfer matrices of the eigen-equation and the polynomial they define.

A solution of the generalized eigen-equation at spectral parameter xi is
determined by the pair (L amplitude at n, R amplitude at n+1).  The local
transfer matrix T_n(xi) moves that pair one site down, T_n Pi_n = Pi_{n-1},
and the full window product TT = T_0 T_1 ... T_{n0} carries the pair across
the perturbation.

Everything spectral in this package reduces to the lower-right entry of
that product.  In the variable z = e^{-i xi}, z^{n0+1} TT_22 is a
polynomial with only even powers from z^2 up, so it can be written as
z^2 p(z^2).  The roots of p in mu = e^{-2 i xi} encode the resonances.
"""

from __future__ import annotations

import functools

import numpy as np

from .coins import CoinSequence, _Record, _set, _site_entries, _tables
from .errors import RelationCheckFailed, SpectralOverflow

__all__ = [
    "TransferPolynomial",
    "transfer_product",
    "transfer_polynomial",
]


def _refuse_overflow(xi: np.ndarray, *values) -> None:
    """SpectralOverflow naming the first xi at which one of values is not finite.

    Each value has xi.shape as its leading axes.
    """
    ok = np.ones(xi.shape, dtype=bool)
    for v in values:
        ok &= np.isfinite(v).all(axis=tuple(range(xi.ndim, np.ndim(v))))
    if not ok.all():
        first = complex(xi.flat[np.argmin(ok)])
        raise SpectralOverflow(f"e^(+-i xi) or a value computed from it is not finite at xi={first}")


@np.errstate(over="ignore", invalid="ignore")
def _transfer_entries(walks, xi, rescale: bool = False, cols: int = 2, slope: bool = False):
    """Rows of T_0 T_1 ... T_{n0} over an xi array, with their logs.

    Returns (top, bot, log): top[0] = (t11, t12) and bot[0] = (t21, t22),
    each of xi's shape, or column 2 alone, (t12,) and (t22,), with cols=1.
    For a list of walks of one n0 (coins._tables) each entry has a walk
    axis ahead of xi's.
    Built from the right, T_n (T_{n+1} ... T_{n0}), the columns never mix.
    A site is top, bot = p top + q bot, r top + s bot, one numpy call per
    operation on the stacked rows, in place, with p and s copied onto every
    row (numpy's buffered iterator slows a product that broadcasts).  Every
    product keeps its operand order, p * t: numpy's AVX-512 complex multiply
    rounds a * b and b * a differently, and the values are bit for bit the
    per-entry recursion's.  With slope set, top[1] and bot[1] carry d/dxi
    over i of the rows, by dp/dxi = i p and ds/dxi = -i s.  With rescale
    set, each column and its slope are divided by the column's largest entry
    magnitude after every site, and column j times e^{log[j]} is the true one.
    """
    table = _tables(walks)
    xi = np.asarray(xi, dtype=complex)
    pts = xi.reshape(-1)
    shape = (1 + slope, cols) + table.shape[:-2] + (len(pts),)
    top, bot = np.zeros((2,) + shape, dtype=complex)
    top[0, : cols - 1] = bot[0, -1] = 1  # t11 where column 1 is carried, and t22
    p_rows, s_rows = np.empty((2,) + shape, dtype=complex)
    log = np.zeros(shape[1:])
    m, m_bot = np.empty((2,) + shape[1:]) if rescale else (None, None)
    p_flat, s_flat = (rows.reshape((shape[0] * shape[1],) + shape[2:]) for rows in (p_rows, s_rows))
    e_plus, e_minus = np.exp(1j * pts), np.exp(-1j * pts)
    for p, q, r, s in _site_entries(table[..., ::-1, :], e_plus, e_minus, (p_flat[0], s_flat[0])):
        if len(p_flat) > 1:
            p_flat[1:], s_flat[1:] = p, s
        np.multiply(p_rows, top, out=p_rows)
        np.multiply(r, top, out=top)
        np.multiply(s_rows, bot, out=s_rows)
        np.multiply(q, bot, out=bot)
        if slope:  # the slope rows gain p top and lose s bot of the value rows
            bot[1] += p_rows[0]
            s_rows[1] -= s_rows[0]
        # p top + q bot and r top + s bot land in bot and top, which swap
        top, bot = np.add(p_rows, bot, out=bot), np.add(top, s_rows, out=top)
        if rescale:
            np.maximum(np.abs(top[0], out=m), np.abs(bot[0], out=m_bot), out=m)
            top /= m
            bot /= m
            log += np.log(m, out=m)
    shape = shape[:-1] + xi.shape
    return top.reshape(shape), bot.reshape(shape), log.reshape(shape[1:])


def transfer_product(cs: CoinSequence, xi) -> np.ndarray:
    """Ordered product T_0 T_1 ... T_{n0} at xi (batched over array xi)."""
    xi = np.asarray(xi, dtype=complex)
    ((t11, t12),), ((t21, t22),), _ = _transfer_entries(cs, xi)
    _refuse_overflow(xi, t11, t12, t21, t22)
    return np.stack([np.stack([t11, t12], -1), np.stack([t21, t22], -1)], -2)


def _horner(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficient rows, highest degree first, at the matching rows of points.

    rows has shape (k, d + 1) and x shape (k, n); row j of the result is
    row j of rows evaluated at row j of x.  The arithmetic is np.polyval's,
    y = 0 and then y = y x + c, so every value is bit for bit polyval's,
    while a whole stack of polynomials costs one pass over the degree.
    """
    y = np.zeros_like(x)
    for c in rows.T[:, :, None]:
        y = y * x + c
    return y


class TransferPolynomial(_Record):
    """p in monic form together with the leading coefficient it was scaled by.

    coeffs is lowest degree first with coeffs[-1] == 1; the original
    polynomial is leading * p_monic.  The degree always equals n0 because
    the leading coefficient of the unscaled p is the product of 1/d_n over
    the window, which assumption (A2) keeps away from zero.
    """

    _fields = ("coeffs", "leading")
    _arrays = True

    def __init__(self, coeffs: np.ndarray, leading: complex) -> None:
        c = np.asarray(coeffs, dtype=complex)
        c.flags.writeable = False
        _set(self, "coeffs", c)
        _set(self, "leading", leading)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, mu) -> np.ndarray:
        """Evaluate the monic polynomial at mu (scalar or array)."""
        mu = np.asarray(mu, dtype=complex)
        out = _horner(self.coeffs[None, ::-1], mu.reshape(1, -1)).reshape(mu.shape)
        return out[()] if out.shape == () else out


def _check_residual(what: str, residual, bound) -> None:
    """RelationCheckFailed unless residual <= bound.

    Written so that a NaN, which compares False either way, fails.
    """
    if not residual <= bound:
        why = f"exceeds {bound:.3g}" if np.isfinite(residual) else "is not finite"
        raise RelationCheckFailed(f"{what} {residual:.3e} {why}")


@functools.cache
def _relation_points() -> np.ndarray:
    """The 20 xi of transfer_polynomial's relation check, drawn on first use."""
    rng = np.random.default_rng(20240901)
    xs = np.concatenate(
        [
            rng.uniform(-np.pi, np.pi, 10).astype(complex),
            rng.uniform(-np.pi, np.pi, 10) + 1j * rng.uniform(-1.5, 1.5, 10),
        ]
    )
    xs.flags.writeable = False
    return xs


# coins with tiny |a| or |d| can overflow the product; the checks below
# refuse the overflowed values, so numpy need not warn about them
@np.errstate(over="ignore", invalid="ignore")
def _transfer_polynomials(walks) -> list[TransferPolynomial]:
    """transfer_polynomial of one walk, or of each walk of a list of one n0, in one pass.

    A list's recursion carries a row per walk, with p, q, r and s columns
    where a lone walk has scalars, and its relation check is one stacked
    _transfer_entries pass; each walk's values are bit for bit its lone
    call's, and its checks run in walk order.
    """
    table = _tables(walks)
    n0 = table.shape[-2] - 1
    # a row per walk; the coefficient of z^k sits at index k + 2, behind two
    # zero slots, so the views [1:-1] and [:-2] hold the entry times z and z^2
    t12, t22 = np.zeros((2, len(table) if table.ndim == 3 else 1, 2 * n0 + 5), dtype=complex)
    t22[:, 2] = 1.0
    z_t12, z_t22, zz_t22 = t12[:, 1:-1], t22[:, 1:-1], t22[:, :-2]
    t12, full = t12[:, 2:], t22[:, 2:]
    for p, q, r, s in _site_entries(table[..., ::-1, :], 1, 1):
        t12[...], full[...] = p * t12 + q * z_t22, r * z_t12 + s * zz_t22
    size = np.abs(full)
    scale, stray = size.max(axis=1), size[:, 0] + size[:, 1::2].sum(axis=1)
    for w in range(len(full)):
        _check_residual("transfer product lost its parity structure: stray mass", stray[w], 1e-13 * scale[w])
    p = full[:, 2::2]
    leading = p[:, -1:]
    monic = p / leading
    monic[:, -1] = 1.0

    xs = _relation_points()
    _, ((t22,),), _ = _transfer_entries(walks, xs, cols=1)
    lhs = np.exp(-1j * (n0 + 1) * xs) * t22.reshape(-1, len(xs))
    mu = np.exp(-2j * xs)
    rhs = mu * leading * _horner(monic[:, ::-1], mu[None])
    err = (np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))).max(axis=1)
    for w in range(len(full)):
        _check_residual("transfer polynomial relation residual", err[w], 1e-10)
    return [TransferPolynomial(c, complex(lead)) for c, lead in zip(monic, leading[:, 0])]


def transfer_polynomial(cs: CoinSequence) -> TransferPolynomial:
    """Extract p from the transfer product by exact polynomial recursion.

    Each local factor is multiplied by z = e^{-i xi}, which turns e^{i xi}
    into 1 and leaves the polynomial matrix zT_n = [[p, q z], [r z, s z^2]],
    with p, q, r, s the entries of T_n at e^{+-i xi} = 1.  Column 2 of the
    product is carried from the right as in :func:`_transfer_entries`, on
    two fixed-length coefficient arrays where multiplying by z is a one-slot
    shift.  Its 22 entry equals z^{n0+1} TT_22, supported on even powers z^2
    and above; the structural zero coefficients come out as exact 0.0
    because every contribution to them carries an exactly zero factor.

    The numeric identity e^{-(n0+1) i xi} TT_22 = e^{-2 i xi} p(e^{-2 i xi})
    is then checked at 20 fixed pseudo-random xi to 1e-10 relative.  Half
    have |Im xi| up to 1.5, so p is evaluated from monomial coefficients at
    |mu| up to e^3, which on valid Haar windows fails the check from about
    n0 = 32 on, although the coefficients themselves stay correct.
    """
    [tp] = _transfer_polynomials(cs)
    return tp
