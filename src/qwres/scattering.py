"""Jost solutions, Wronskians, and the scattering matrix.

The four Jost solutions are the generalized eigenfunctions that look like a
single plane wave on one side of the perturbation: incoming or outgoing, at
the left or the right end.  Each is built by seeding the transfer pair
Pi_n at the free edge and propagating across the window.

For complex xi the pair components span e^{|Im xi|} orders of magnitude per
site, so propagation keeps a unit-scale vector and a separate log-magnitude
per site; materialized values are reconstructed on demand.  All scattering
coefficients are ratios of Wronskians at the matching index n = -1, and the
ratios are formed in log space, so nothing overflows for |Im xi| up to 30
and well beyond in the lower half plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coins import CoinSequence
from .errors import AtResonance
from .transfer import _transfer_entries, local_transfer, local_transfer_inverse

__all__ = [
    "JostSolution",
    "ScatteringMatrix",
    "jost",
    "wronskian",
    "scattering_matrix",
    "JOST_KINDS",
]

JOST_KINDS = ("in-", "in+", "out-", "out+")


@dataclass(frozen=True)
class JostSolution:
    """Transfer pairs Pi_n of one Jost solution for n in [-1, n0].

    Row i of pi_scaled is the unit-scale pair at n = i - 1 and log_mag[i]
    the natural log of its true magnitude, so the actual pair is
    pi_scaled[i] * exp(log_mag[i]).
    """

    kind: str
    xi: complex
    pi_scaled: np.ndarray
    log_mag: np.ndarray

    def pi(self, n: int) -> np.ndarray:
        """Materialized pair at n; may overflow for extreme Im xi."""
        i = n + 1
        if not 0 <= i < len(self.pi_scaled):
            raise ValueError(f"n must lie in [-1, {len(self.pi_scaled) - 2}], got {n}")
        return self.pi_scaled[i] * math.exp(self.log_mag[i])

    @property
    def pi_values(self) -> np.ndarray:
        """All materialized pairs, row n+1 holding Pi_n."""
        return self.pi_scaled * np.exp(self.log_mag)[:, None]


def _rescale(v: np.ndarray) -> tuple[np.ndarray, float]:
    m = float(np.max(np.abs(v)))
    return v / m, math.log(m)


def jost(cs: CoinSequence, xi: complex, kind: str) -> JostSolution:
    """Build one Jost solution by transfer propagation from its free edge.

    The plane-wave seeds, written as (unit pair, log magnitude), are

        out+ : Pi_{n0} = (0, e^{i(n0+1) xi})
        in+  : Pi_{n0} = (e^{-i n0 xi}, 0)
        out- : Pi_{-1} = (e^{i xi}, 0)
        in-  : Pi_{-1} = (0, 1)

    with the + kinds propagated downward through T_n and the - kinds upward
    through T_n^{-1}.
    """
    if kind not in JOST_KINDS:
        raise ValueError(f"kind must be one of {JOST_KINDS}, got {kind!r}")
    xi = complex(xi)
    n0 = cs.n0
    pi = np.zeros((n0 + 2, 2), dtype=complex)
    logs = np.zeros(n0 + 2)
    if kind in ("out+", "in+"):
        if kind == "out+":
            pi[n0 + 1] = (0.0, cmath.exp(1j * (n0 + 1) * xi.real))
            logs[n0 + 1] = -(n0 + 1) * xi.imag
        else:
            pi[n0 + 1] = (cmath.exp(-1j * n0 * xi.real), 0.0)
            logs[n0 + 1] = n0 * xi.imag
        for n in range(n0, -1, -1):
            t = local_transfer(cs.coin_at(n), xi)
            pi[n], extra = _rescale(t @ pi[n + 1])
            logs[n] = logs[n + 1] + extra
    else:
        if kind == "out-":
            pi[0] = (cmath.exp(1j * xi.real), 0.0)
            logs[0] = -xi.imag
        else:
            pi[0] = (0.0, 1.0)
        for n in range(n0 + 1):
            t = local_transfer_inverse(cs.coin_at(n), xi)
            pi[n + 1], extra = _rescale(t @ pi[n])
            logs[n + 1] = logs[n] + extra
    return JostSolution(kind, xi, pi, logs)


def _wronskian_scaled(s1: JostSolution, s2: JostSolution, n: int):
    i = n + 1
    a, b = s1.pi_scaled[i], s2.pi_scaled[i]
    w = a[0] * b[1] - a[1] * b[0]
    return complex(w), s1.log_mag[i] + s2.log_mag[i]


def wronskian(s1: JostSolution, s2: JostSolution, n: int) -> complex:
    """W_n(s1, s2), the determinant of the two transfer pairs at n."""
    w, log = _wronskian_scaled(s1, s2, n)
    return w * math.exp(log)


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
        """max |S* S - I| entrywise, a float or an array over xi."""
        s = self.matrix
        gram = np.swapaxes(s.conj(), -1, -2) @ s - np.eye(2)
        return np.max(np.abs(gram), axis=(-2, -1))[()]


def scattering_matrix(cs: CoinSequence, xi) -> ScatteringMatrix:
    """Scattering coefficients from Wronskian ratios at n = -1.

    xi is a scalar or an array; an array gives a ScatteringMatrix of
    arrays.  The minus kinds are seeded at n = -1, out- = (e^{i xi}, 0) and
    in- = (0, 1), so only out+ and in+ are propagated: they are the
    seed-scaled columns 2 and 1 of the transfer product.  The two
    transmission numerators have closed forms, W(out-, in-) = e^{i xi} and
    W(in+, out+) = e^{i xi} prod_n a_n / d_n (det T_n = a_n / d_n), which
    keeps |t-| = |t+| exact on the real axis where propagated Wronskians
    would cancel.

    The denominator W(out-, out+) vanishes at resonances while the four
    numerator Wronskians keep their generic scale, so the pole test is
    relative: AtResonance fires, naming the first such grid point, when
    the denominator drops below 1e-13 times the largest numerator
    magnitude, compared in log space because the magnitudes span hundreds
    of orders for complex xi.  The same test trips deep in the upper half
    plane, where the continuation genuinely outgrows any fixed scale and
    the coefficients stop being resolvable; deep in the lower half plane
    the denominator dominates instead and evaluation stays exact.
    """
    xi = np.asarray(xi, dtype=complex)
    n0 = cs.n0
    (_, t12, t21, t22), (log1, log2) = _transfer_entries(cs, xi, rescale=True)
    det = complex(np.prod([u.a / u.d for u in cs.coins]))
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
        with np.errstate(divide="ignore"):
            return log + np.log(np.abs(val))

    num_scale = np.max([log_abs(name) for name in ("t-", "r-", "r+", "t+")], axis=0)
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

    return ScatteringMatrix(
        xi[()],
        t_minus=ratio("t-"),
        t_plus=ratio("t+"),
        r_minus=ratio("r-"),
        r_plus=ratio("r+"),
    )
