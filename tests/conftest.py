"""Shared helpers for the test suite.

Plain functions rather than fixtures: most tests want several independent
draws from one rng, which fixtures make awkward.  The worked examples
(``random_sequence``, ``hadamard_pair``, ``triple_barrier``) and
``haar_coin`` are the library's own, imported here so tests can take them
from conftest along with the other helpers.
"""

import math

import numpy as np

from qwres import (
    CoinSequence,
    WaveState,
    basis_state,
    haar_coin,
    hadamard_pair,
    random_sequence,
    triple_barrier,
    validate_coin,
)


def random_state(rng, n0, nu_max, span=3):
    """Random normalized state whose incoming length is at most nu_max.

    R amplitudes are allowed only at sites >= 1 - nu_max and L amplitudes
    only at sites <= n0 + nu_max - 1; within that, support is drawn over
    [-span, n0 + span] intersected with the allowed region.
    """
    lo, hi = -span, n0 + span
    amp = np.zeros((hi - lo + 1, 2), dtype=complex)
    while not amp.any():
        for i, n in enumerate(range(lo, hi + 1)):
            if rng.random() < 0.5 and n <= n0 + nu_max - 1:
                amp[i, 0] = rng.normal() + 1j * rng.normal()
            if rng.random() < 0.5 and n >= 1 - nu_max:
                amp[i, 1] = rng.normal() + 1j * rng.normal()
    psi = WaveState(lo, amp)
    return (1.0 / psi.norm()) * psi


def window_state(rng, n0):
    """Random normalized state supported inside [0, n0]."""
    amp = rng.normal(size=(n0 + 1, 2)) + 1j * rng.normal(size=(n0 + 1, 2))
    psi = WaveState(0, amp)
    return (1.0 / psi.norm()) * psi


def _thin_coin(rng, t):
    """A thin coin of transmission amplitude t, its phase phi drawn uniformly.

    a = d = t e^{i phi} and b = -c = sqrt(1 - t^2) e^{i phi}: a nearly
    reflecting barrier.
    """
    phase = np.exp(1j * rng.uniform(-math.pi, math.pi))
    a, b = t * phase, math.sqrt(1 - t * t) * phase
    return validate_coin([[a, b], [-b, a]])


def thin_pair(rng, t):
    """An n0 = 1 walk of two thin coins whose transmission amplitudes lie within a factor 2 of t.

    Two thin coins trap a resonance of width about t^2.
    """
    return CoinSequence(1, tuple(_thin_coin(rng, t * 2.0 ** rng.uniform(-1, 1)) for _ in range(2)))


def _within_half_a_decade(rng, t):
    return t * 10.0 ** rng.uniform(-0.5, 0.5)


def thin_window(rng, n0, t):
    """A window of n0 + 1 thin coins whose transmission amplitudes lie within half a decade of t."""
    return CoinSequence(n0, tuple(_thin_coin(rng, _within_half_a_decade(rng, t)) for _ in range(n0 + 1)))


def near_identity_window(rng, n0, t):
    """A window of n0 + 1 coins [[sqrt(1 - t_i^2), -t_i], [t_i, sqrt(1 - t_i^2)]], each t_i within half a decade of t.

    A weak perturbation of the free walk, whose resonances lie deep in the disk.
    """
    coins = []
    for _ in range(n0 + 1):
        t_i = _within_half_a_decade(rng, t)
        c = math.sqrt(1 - t_i * t_i)
        coins.append(validate_coin([[c, -t_i], [t_i, c]]))
    return CoinSequence(n0, tuple(coins))


def delta0L():
    return basis_state(0, "L")


def closed_form_transfer(coin, xi):
    """T_n(xi) = [[e^{i xi}/conj(a), -conj(c)/conj(a)], [-c/d, e^{-i xi}/d]].

    Written from the coin's entries, independent of the library's transfer kernel.
    """
    ca, c, d = coin.a.conjugate(), coin.c, coin.d
    return np.array([[np.exp(1j * xi) / ca, -c.conjugate() / ca], [-c / d, np.exp(-1j * xi) / d]])
