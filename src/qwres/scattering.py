"""The scattering matrix Sigma(xi) from Wronskians of the transfer product.

A Jost solution is a generalized eigenfunction that looks like a single
plane wave on one side of the perturbation: incoming or outgoing, at the
left or the right end.  Its transfer pairs Pi_n = (L(n), R(n+1)) obey
Pi_{n-1} = T_n Pi_n, and the Wronskian W_n(s1, s2) is the determinant of
the two pairs at n.  Every entry of Sigma(xi) is a ratio of Wronskians at
the matching index n = -1.

The minus solutions are free to the left, so at n = -1 they are their
seeds, out- = (e^{i xi}, 0) and in- = (0, 1).  The plus solutions are
seeded at n0, out+ = (0, e^{i (n0+1) xi}) and in+ = (e^{-i n0 xi}, 0), and
carried to n = -1 by T_0 T_1 ... T_{n0}: they are the seed-scaled columns
2 and 1 of the transfer product.  For complex xi those columns span
e^{|Im xi|} orders of magnitude per site, so they are read log-scaled from
the transfer kernel and the ratios are formed in log space; nothing
overflows for |Im xi| up to 30 and well beyond in the lower half plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coins import CoinSequence
from .errors import AtResonance
from .transfer import _refuse_overflow, _transfer_entries

__all__ = ["ScatteringMatrix", "scattering_matrix"]


@dataclass(frozen=True)
class ScatteringMatrix:
    """Transmission and reflection coefficients at one spectral parameter.

    For an array of spectral parameters every field is an array of the
    same shape, and matrix and unitarity_residual work point by point.
    """

    xi: complex
    t_minus: complex
    t_plus: complex
    r_minus: complex
    r_plus: complex

    @property
    def matrix(self) -> np.ndarray:
        """[[t-, r-], [r+, t+]], with shape xi.shape + (2, 2)."""
        rows = [[self.t_minus, self.r_minus], [self.r_plus, self.t_plus]]
        return np.stack([np.stack(row, -1) for row in rows], -2)

    def unitarity_residual(self):
        """max |S* S - I| entrywise, a float or an array over xi.

        The Gram entries are written out in real arithmetic, each |z|^2 as
        re^2 + im^2, so no BLAS kernel rounds them.
        """
        (tmr, tmi), (tpr, tpi), (rmr, rmi), (rpr, rpi) = (
            (np.real(z), np.imag(z)) for z in (self.t_minus, self.t_plus, self.r_minus, self.r_plus)
        )
        g00 = tmr * tmr + tmi * tmi + (rpr * rpr + rpi * rpi) - 1
        g11 = rmr * rmr + rmi * rmi + (tpr * tpr + tpi * tpi) - 1
        # g01 = conj(t-) r- + conj(r+) t+
        re01 = tmr * rmr + tmi * rmi + (rpr * tpr + rpi * tpi)
        im01 = tmr * rmi - tmi * rmr + (rpr * tpi - rpi * tpr)
        return np.maximum(np.maximum(np.abs(g00), np.abs(g11)), np.hypot(re01, im01))[()]


def scattering_matrix(cs: CoinSequence, xi) -> ScatteringMatrix:
    """Scattering coefficients from Wronskian ratios at n = -1.

    xi is a scalar or an array; an array gives a ScatteringMatrix of
    arrays.  The two transmission numerators have closed forms,
    W(out-, in-) = e^{i xi} and W(in+, out+) = e^{i xi} prod_n a_n / d_n
    (det T_n = a_n / d_n), which keeps |t-| = |t+| exact on the real axis
    where propagated Wronskians would cancel.

    The denominator W(out-, out+) vanishes at resonances while the
    numerators of t-, r- and t+ keep their generic scale, so the pole test
    is relative: AtResonance fires, naming the first such grid point, when
    the denominator drops below 1e-13 times the largest of them, compared
    in log space because the magnitudes span hundreds of orders for
    complex xi.  r+ is left out: its seed factor e^{-i (2 n0 + 1) xi},
    in+'s phase e^{-i n0 xi} over out+'s e^{i (n0 + 1) xi} at n0, grows
    like e^{(2 n0 + 1) Im xi} above the axis, where no pole lies.  Deep in
    the lower half plane the denominator dominates and evaluation stays exact.

    Past |Im xi| of about 709, or at a Re xi near the float limit,
    e^{+-i xi} or a value built from it, |r+|^2 in the unitarity residual
    among them, is no longer a finite float, and SpectralOverflow names
    the first such grid point.
    """
    return _scattering(cs, xi)[0]


# log(0) at a pole is the pole test's -inf; values past the float range are
# refused as SpectralOverflow, not warned about
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _scattering(cs: CoinSequence, xi):
    """scattering_matrix(cs, xi) and its unitarity_residual(), computed once."""
    xi = np.asarray(xi, dtype=complex)
    n0 = cs.n0
    ((_, t12),), ((t21, t22),), (log1, log2) = _transfer_entries(cs, xi, rescale=True)
    _refuse_overflow(xi, log1, log2)  # finite only where every rescaled entry is
    det = complex(np.prod(cs.table[:, 0] / cs.table[:, 3]))
    g = -xi.imag  # log |e^{i xi}|

    def cis(k):
        return np.exp(1j * k * xi.real)

    # Wronskian = unit-scale value * e^{log}; out+ = e^{i (n0+1) xi} col 2,
    # in+ = e^{-i n0 xi} col 1
    w = {
        "den": (cis(n0 + 2) * t22, (n0 + 2) * g + log2),
        "t-": (cis(1) * det, g),
        "r-": (-cis(n0 + 1) * t12, (n0 + 1) * g + log2),
        "r+": (cis(1 - n0) * t21, (1 - n0) * g + log1),
        "t+": (cis(1), g),
    }

    def log_abs(name):
        val, log = w[name]
        return log + np.log(np.abs(val))

    num_scale = np.max([log_abs(name) for name in ("t-", "r-", "t+")], axis=0)
    bad = log_abs("den") < math.log(1e-13) + num_scale
    if np.any(bad):
        first = complex(xi.flat[np.argmax(bad)])
        raise AtResonance(
            f"denominator Wronskian at xi={first} is below 1e-13 of the "
            "numerator Wronskian scale"
        )
    den, log_den = w["den"]

    def ratio(name):
        val, log = w[name]
        return (val / den * np.exp(log - log_den))[()]

    sm = ScatteringMatrix(
        xi[()],
        t_minus=ratio("t-"),
        t_plus=ratio("t+"),
        r_minus=ratio("r-"),
        r_plus=ratio("r+"),
    )
    residual = sm.unitarity_residual()
    _refuse_overflow(xi, residual)  # finite where every entry and |entry|^2 is
    return sm, residual
