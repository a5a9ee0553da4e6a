"""Finitely supported states on the integer line with two chirality slots.

A state assigns to each site ``n`` a complex 2-vector ``(L, R)``: the
left-moving and right-moving amplitudes.  Storage is a dense window, the
minimal contiguous block of sites outside of which everything is zero.

The flat layout used by every matrix in this package restricts a state to
the perturbed sites ``0..n0`` and orders the entries as

    index = 2*n + (0 for L, 1 for R).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import _complex_from_pair
from .errors import ConfigParse

__all__ = [
    "WaveState",
    "Decomposition",
    "zero_state",
    "basis_state",
    "incoming_length",
    "decompose",
    "window_vector",
    "state_from_json",
    "state_to_json",
]


@dataclass(frozen=True)
class WaveState:
    """Dense window of chirality amplitudes; minimal and immutable.

    Parameters
    ----------
    support_lo : int
        Site of the first stored row.
    amplitudes : ndarray, shape (N, 2)
        Row ``k`` holds ``(L, R)`` at site ``support_lo + k``.  Zero rows at
        either end are trimmed on construction; the zero state is stored as
        an empty array with ``support_lo = 0``.
    """

    support_lo: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != 2:
            raise ValueError(f"amplitudes must have shape (N, 2), got {amps.shape}")
        nonzero = np.nonzero(np.any(amps != 0, axis=1))[0]
        if nonzero.size == 0:
            lo, amps = 0, np.zeros((0, 2), dtype=complex)
        else:
            first, last = nonzero[0], nonzero[-1]
            lo = self.support_lo + int(first)
            amps = amps[first : last + 1].copy()
        amps.flags.writeable = False
        object.__setattr__(self, "support_lo", int(lo))
        object.__setattr__(self, "amplitudes", amps)

    @property
    def support_hi(self) -> int:
        """Last stored site; support_lo - 1 for the zero state."""
        return self.support_lo + len(self.amplitudes) - 1

    def is_zero(self) -> bool:
        return len(self.amplitudes) == 0

    def amplitude(self, n: int) -> np.ndarray:
        """The (L, R) pair at site n, zero outside the stored window."""
        k = n - self.support_lo
        if 0 <= k < len(self.amplitudes):
            return self.amplitudes[k].copy()
        return np.zeros(2, dtype=complex)

    def norm(self) -> float:
        """l2 norm, by the one norm rule (_norms)."""
        return float(_norms(self.amplitudes[None])[0])

    def restrict(self, lo: int, hi: int) -> "WaveState":
        """Zero out everything outside sites [lo, hi]."""
        if self.is_zero() or hi < self.support_lo or lo > self.support_hi:
            return zero_state()
        if lo <= self.support_lo and self.support_hi <= hi:
            return self
        a = max(lo, self.support_lo) - self.support_lo
        b = min(hi, self.support_hi) - self.support_lo
        return WaveState(self.support_lo + a, self.amplitudes[a : b + 1])

    def __add__(self, other: "WaveState") -> "WaveState":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.support_lo, other.support_lo)
        hi = max(self.support_hi, other.support_hi)
        out = np.zeros((hi - lo + 1, 2), dtype=complex)
        out[self.support_lo - lo : self.support_lo - lo + len(self.amplitudes)] = (
            self.amplitudes
        )
        out[other.support_lo - lo : other.support_lo - lo + len(other.amplitudes)] += (
            other.amplitudes
        )
        return WaveState(lo, out)

    def __sub__(self, other: "WaveState") -> "WaveState":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "WaveState":
        return WaveState(self.support_lo, self.amplitudes * complex(scalar))

    __rmul__ = __mul__


@np.errstate(over="ignore")
def _norms(amps: np.ndarray) -> np.ndarray:
    """l2 norms of the rows amps[i] of a contiguous complex stack (k, ...): the one norm rule.

    The squares of the float parts are summed elementwise: a BLAS dot
    product would round differently on each kernel OpenBLAS picks at run
    time.  Where a plain norm is below 1e-150 or not finite its squares
    may have underflowed or overflowed, and the row is scaled by its top
    modulus first, dividing the float parts: complex division forms 1/top,
    inf for a subnormal top.  A row whose top modulus is inf is left
    unscaled, so its norm stays inf; a zero row has norm 0.
    """
    parts = amps.reshape(len(amps), -1).view(float)
    norms = np.sqrt(np.add.reduce(parts * parts, axis=1))
    rescale = ~(norms >= 1e-150) | (norms == np.inf)
    if rescale.any():
        top = np.abs(parts[rescale].view(complex)).max(axis=1, initial=0.0)
        top[(top == 0) | (top == np.inf)] = 1.0
        scaled = parts[rescale] / top[:, None]
        norms[rescale] = top * np.sqrt(np.add.reduce(scaled * scaled, axis=1))
    return norms


def _window_norms(rows: np.ndarray) -> np.ndarray:
    """WaveState(0, rows[i]).norm() for each i, bit for bit, in one pass.

    rows has shape (k, N, 2).  A norm sums its squares over the trimmed
    support of its row only, and the pairwise sum groups the terms by
    their count, so rows are reduced together per (first, last) nonzero
    site: np.add.reduce along axis 1 sums each of them as the flat call
    does.  Zero rows keep norm 0.
    """
    n = rows.shape[1]
    nonzero = np.any(rows != 0, axis=2)
    first = np.argmax(nonzero, axis=1)
    last = n - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    key = np.where(nonzero.any(axis=1), first * n + last, -1)
    norms = np.zeros(len(rows))
    for k in np.unique(key[key >= 0]).tolist():
        sel = np.nonzero(key == k)[0]
        norms[sel] = _norms(rows[sel, k // n : k % n + 1])
    return norms


def zero_state() -> WaveState:
    return WaveState(0, np.zeros((0, 2), dtype=complex))


def basis_state(n: int, chirality: str) -> WaveState:
    """Unit amplitude of the given chirality ("L" or "R") at site n."""
    if chirality not in ("L", "R"):
        raise ValueError(f'chirality must be "L" or "R", got {chirality!r}')
    row = np.zeros((1, 2), dtype=complex)
    row[0, 0 if chirality == "L" else 1] = 1.0
    return WaveState(n, row)


def incoming_length(psi: WaveState, n0: int) -> int:
    """Length nu of the incoming support.

    The minimal N such that the R amplitude at -n and the L amplitude at
    n0 + n vanish for every n >= N.  Zero means nothing is still headed
    toward the window [0, n0].
    """
    nu = 0
    for k in range(len(psi.amplitudes)):
        n = psi.support_lo + k
        if n <= 0 and psi.amplitudes[k, 1] != 0:
            nu = max(nu, 1 - n)
        if n >= n0 and psi.amplitudes[k, 0] != 0:
            nu = max(nu, n - n0 + 1)
    return nu


@dataclass(frozen=True)
class Decomposition:
    """Split of a state into window, incoming and outgoing parts.

    comp lives on [0, n0].  incoming is what still moves toward the window:
    R amplitudes at n <= -1 and L amplitudes at n >= n0 + 1.  outgoing is
    the mirror pair of chiralities outside the window.  The three parts sum
    to the original state exactly, entry by entry.
    """

    comp: WaveState
    incoming: WaveState
    outgoing: WaveState


def decompose(psi: WaveState, n0: int) -> Decomposition:
    if psi.is_zero():
        z = zero_state()
        return Decomposition(z, z, z)
    sites = psi.support_lo + np.arange(len(psi.amplitudes))
    left = sites <= -1
    right = sites >= n0 + 1
    inc = np.zeros_like(psi.amplitudes)
    out = np.zeros_like(psi.amplitudes)
    inc[left, 1] = psi.amplitudes[left, 1]
    inc[right, 0] = psi.amplitudes[right, 0]
    out[left, 0] = psi.amplitudes[left, 0]
    out[right, 1] = psi.amplitudes[right, 1]
    return Decomposition(
        psi.restrict(0, n0),
        WaveState(psi.support_lo, inc),
        WaveState(psi.support_lo, out),
    )


def window_vector(psi: WaveState, n0: int) -> np.ndarray:
    """Restriction to [0, n0] as a flat vector in the canonical layout."""
    v = np.zeros((n0 + 1, 2), dtype=complex)
    lo, hi = max(psi.support_lo, 0), min(psi.support_hi, n0)
    if lo <= hi:
        v[lo : hi + 1] = psi.amplitudes[lo - psi.support_lo : hi - psi.support_lo + 1]
    return v.reshape(-1)


def state_from_json(obj) -> WaveState:
    """Parse [{"n": int, "L": [re, im], "R": [re, im]}, ...]; slots optional."""
    if not isinstance(obj, list):
        raise ConfigParse("state must be a JSON array of site entries")
    entries = {}
    for item in obj:
        if not isinstance(item, dict) or "n" not in item:
            raise ConfigParse(f'state entry missing "n": {item!r}')
        n = item["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ConfigParse(f'state entry "n" must be an integer, got {n!r}')
        if n in entries:
            raise ConfigParse(f"duplicate state entry for site {n}")
        pair = np.zeros(2, dtype=complex)
        for slot, key in ((0, "L"), (1, "R")):
            if key in item:
                pair[slot] = _complex_from_pair(item[key], f'state "{key}"')
        extra = set(item) - {"n", "L", "R"}
        if extra:
            raise ConfigParse(f"state entry has unexpected keys {sorted(extra)}")
        entries[n] = pair
    if not entries:
        return zero_state()
    lo, hi = min(entries), max(entries)
    amps = np.zeros((hi - lo + 1, 2), dtype=complex)
    for n, pair in entries.items():
        amps[n - lo] = pair
    return WaveState(lo, amps)


def state_to_json(psi: WaveState) -> list:
    out = []
    for k in range(len(psi.amplitudes)):
        l, r = psi.amplitudes[k]
        if l == 0 and r == 0:
            continue
        entry = {"n": psi.support_lo + k}
        if l != 0:
            entry["L"] = [l.real, l.imag]
        if r != 0:
            entry["R"] = [r.real, r.imag]
        out.append(entry)
    return out
