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
from dataclasses import dataclass

import numpy as np

from .coins import Coin, CoinSequence, _site_entries
from .errors import RelationCheckFailed, SpectralOverflow

__all__ = [
    "TransferPolynomial",
    "local_transfer",
    "transfer_product",
    "transfer_polynomial",
]


# values past the float range are refused as SpectralOverflow, not warned about
@np.errstate(over="ignore", invalid="ignore")
def local_transfer(c: Coin, xi) -> np.ndarray:
    """T_n(xi); for an array xi the result has shape xi.shape + (2, 2)."""
    xi = np.asarray(xi, dtype=complex)
    t = np.empty(xi.shape + (2, 2), dtype=complex)
    t[..., 0, 0], t[..., 0, 1], t[..., 1, 0], t[..., 1, 1] = _site_entries(
        c, np.exp(1j * xi), np.exp(-1j * xi)
    )
    _refuse_overflow(xi, t)
    return t


def _refuse_overflow(xi: np.ndarray, *values) -> None:
    """SpectralOverflow naming the first xi at which one of values is not finite.

    Each value has xi.shape as its leading axes.
    """
    ok = np.ones(xi.shape, dtype=bool)
    for v in values:
        ok &= np.isfinite(v).reshape(xi.shape + (-1,)).all(axis=-1)
    if not ok.all():
        first = complex(xi.flat[np.argmin(ok)])
        raise SpectralOverflow(f"e^(+-i xi) or a value computed from it is not finite at xi={first}")


def _transfer_entries(cs: CoinSequence, xi, rescale: bool = False):
    """Entries of T_0 T_1 ... T_{n0} over an xi array, one array per entry.

    Returns ((t11, t12, t21, t22), (log1, log2)).  The product is built
    from the right, T_n (T_{n+1} ... T_{n0}), so column j is the transfer
    propagation of the unit pair e_j seeded at n0 and never mixes with the
    other column.  With rescale set, each column is divided by its largest
    entry magnitude after every site and the natural log of that scale is
    accumulated per point: the true product is column j times e^{log j}.
    Without it the logs are 0 and the entries are the product itself.
    """
    xi = np.asarray(xi, dtype=complex)
    e_plus = np.exp(1j * xi)
    e_minus = np.exp(-1j * xi)
    one, zero = np.ones(xi.shape, dtype=complex), np.zeros(xi.shape, dtype=complex)
    t11, t12, t21, t22 = one, zero, zero, one
    log1 = log2 = np.zeros(xi.shape)
    for n in range(cs.n0, -1, -1):
        p, q, r, s = _site_entries(cs.coin_at(n), e_plus, e_minus)
        t11, t21 = p * t11 + q * t21, r * t11 + s * t21
        t12, t22 = p * t12 + q * t22, r * t12 + s * t22
        if rescale:
            m1 = np.maximum(np.abs(t11), np.abs(t21))
            m2 = np.maximum(np.abs(t12), np.abs(t22))
            t11, t21, log1 = t11 / m1, t21 / m1, log1 + np.log(m1)
            t12, t22, log2 = t12 / m2, t22 / m2, log2 + np.log(m2)
    return (t11, t12, t21, t22), (log1, log2)


@np.errstate(over="ignore", invalid="ignore")
def transfer_product(cs: CoinSequence, xi) -> np.ndarray:
    """Ordered product T_0 T_1 ... T_{n0} at xi (batched over array xi)."""
    xi = np.asarray(xi, dtype=complex)
    (t11, t12, t21, t22), _ = _transfer_entries(cs, xi)
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
    for c in rows.T:
        y = y * x + c[:, None]
    return y


@dataclass(frozen=True)
class TransferPolynomial:
    """p in monic form together with the leading coefficient it was scaled by.

    coeffs is lowest degree first with coeffs[-1] == 1; the original
    polynomial is leading * p_monic.  The degree always equals n0 because
    the leading coefficient of the unscaled p is the product of 1/d_n over
    the window, which assumption (A2) keeps away from zero.
    """

    coeffs: np.ndarray
    leading: complex

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

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
    # the coefficient of z^k sits at index k + 2, behind two zero slots, so
    # the views [1:-1] and [:-2] hold the entry times z and times z^2
    t12 = np.zeros(2 * cs.n0 + 5, dtype=complex)
    t22 = t12.copy()
    t22[2] = 1.0
    for n in range(cs.n0, -1, -1):
        p, q, r, s = _site_entries(cs.coin_at(n), 1, 1)
        t12[2:], t22[2:] = p * t12[2:] + q * t22[1:-1], r * t12[1:-1] + s * t22[:-2]
    full = t22[2:]
    scale = np.max(np.abs(full))
    stray = np.abs(full[0]) + np.abs(full[1::2]).sum()
    _check_residual("transfer product lost its parity structure: stray mass", stray, 1e-13 * scale)
    p = full[2::2]
    leading = complex(p[-1])
    monic = p / leading
    monic[-1] = 1.0
    tp = TransferPolynomial(monic, leading)

    xs = _relation_points()
    (_, _, _, t22), _ = _transfer_entries(cs, xs)
    lhs = np.exp(-1j * (cs.n0 + 1) * xs) * t22
    mu = np.exp(-2j * xs)
    rhs = mu * leading * tp(mu)
    err = np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))
    _check_residual("transfer polynomial relation residual", err, 1e-10)
    return tp
