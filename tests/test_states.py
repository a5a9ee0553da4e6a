import math

import numpy as np
import pytest

from conftest import random_state
from qwres.states import _window_norms
from qwres import (
    ConfigParse,
    WaveState,
    basis_state,
    decompose,
    incoming_length,
    state_from_json,
    state_to_json,
    window_vector,
    zero_state,
)


def test_wavestate_trims_zero_boundary_rows():
    amp = np.zeros((5, 2), dtype=complex)
    amp[1, 0] = 1.0
    amp[3, 1] = 2.0
    psi = WaveState(-2, amp)
    assert psi.support_lo == -1
    assert psi.support_hi == 1
    assert psi.amplitudes.shape == (3, 2)


def test_wavestate_zero_canonical():
    psi = WaveState(5, np.zeros((3, 2), dtype=complex))
    assert psi.is_zero()
    assert psi.amplitudes.shape == (0, 2)
    assert psi.support_hi == psi.support_lo - 1
    assert psi.norm() == 0.0


@pytest.mark.parametrize("amps", [np.zeros(4), np.zeros((2, 3)), np.zeros((1, 2, 2))])
def test_wavestate_refuses_rows_not_of_shape_n_by_2(amps):
    with pytest.raises(ValueError, match="shape"):
        WaveState(0, amps)


@pytest.mark.parametrize("chirality", ["l", "LR", ""])
def test_basis_state_refuses_an_unknown_chirality(chirality):
    with pytest.raises(ValueError, match="chirality"):
        basis_state(0, chirality)


def test_wavestate_immutable():
    psi = basis_state(0, "L")
    with pytest.raises(ValueError):
        psi.amplitudes[0, 0] = 2.0


def test_amplitude_zero_padded_outside_support():
    psi = basis_state(3, "R")
    np.testing.assert_array_equal(psi.amplitude(3), [0.0, 1.0])
    np.testing.assert_array_equal(psi.amplitude(0), [0.0, 0.0])
    np.testing.assert_array_equal(psi.amplitude(99), [0.0, 0.0])


def test_arithmetic_on_overlapping_supports():
    a = basis_state(0, "L")
    b = basis_state(2, "R")
    s = a + 2.0 * b
    np.testing.assert_array_equal(s.amplitude(0), [1.0, 0.0])
    np.testing.assert_array_equal(s.amplitude(2), [0.0, 2.0])
    d = s - a
    np.testing.assert_array_equal(d.amplitude(0), [0.0, 0.0])
    assert (s - s).is_zero()
    np.testing.assert_allclose((0.5 * a).norm(), 0.5)
    np.testing.assert_allclose((a * 0.5).norm(), 0.5)


def test_restrict():
    rng = np.random.default_rng(3)
    psi = random_state(rng, 2, 4)
    cut = psi.restrict(0, 2)
    assert cut.support_lo >= 0 and cut.support_hi <= 2
    for n in range(0, 3):
        np.testing.assert_array_equal(cut.amplitude(n), psi.amplitude(n))
    assert psi.restrict(5, 3).is_zero()


def test_norm_is_l2():
    psi = WaveState(0, [[3.0, 0.0], [0.0, 4.0]])
    assert psi.norm() == pytest.approx(5.0)


def test_norm_survives_underflow_of_the_squares():
    tiny = WaveState(0, [[3e-170, 0.0], [0.0, 4e-170j]])
    assert abs(tiny.norm() / 5e-170 - 1) < 1e-15
    # subnormal amplitudes, whose reciprocal overflows
    subnormal = WaveState(0, [[3e-310, 0.0], [0.0, 4e-310j]])
    assert abs(subnormal.norm() / 5e-310 - 1) < 1e-12
    # from 1e-150 up the plain norm is returned as it is
    psi = WaveState(0, [[3e-150, 0.0], [0.0, 4e-150j]])
    assert psi.norm() == float(np.linalg.norm(psi.amplitudes))
    assert WaveState(0, [[0.0, 0.0]]).norm() == 0.0


def test_norm_survives_overflow_of_the_squares():
    # past about 1.34e154 the squares overflow; the norm is rescaled as
    # below 1e-150, and a state whose norm itself leaves the float range,
    # or that holds inf, has norm inf, all without a warning
    big = WaveState(0, [[3e200, 0.0], [0.0, 4e200j]])
    assert abs(big.norm() / 5e200 - 1) < 1e-15
    assert WaveState(0, [[1e308, 1e308], [1e308, 1e308]]).norm() == math.inf
    assert WaveState(0, [[math.inf, 0.0]]).norm() == math.inf
    psi = WaveState(0, [[3e150, 0.0], [0.0, 4e150j]])
    assert psi.norm() == float(np.linalg.norm(psi.amplitudes))


@pytest.mark.simd_portable
def test_window_norms_equal_the_state_norms_on_overflowing_rows():
    # scales whose squares overflow, and rows holding inf, take the
    # rescaled branch in both, bit for bit
    rng = np.random.default_rng(97)
    rows = rng.normal(size=(300, 5, 2)) + 1j * rng.normal(size=(300, 5, 2))
    for row in rows:
        row[rng.random(5) < 0.3] = 0
        row *= 10.0 ** rng.choice([0, 150, 155, 200, 300, 307])
    rows[7, 2, 1] = math.inf
    norms = _window_norms(rows)
    assert norms.tolist() == [WaveState(0, row).norm() for row in rows]
    assert (norms > 1e300).any() and norms[7] == math.inf


@pytest.mark.simd_portable
def test_window_norms_are_the_state_norms_bit_for_bit():
    # rows with every support in a window of 7 sites, interior zero rows,
    # -0 entries, all-zero rows, and scales from 1 down through the
    # rescaled branch to subnormal amplitudes
    rng = np.random.default_rng(89)
    rows = rng.normal(size=(600, 7, 2)) + 1j * rng.normal(size=(600, 7, 2))
    for row in rows:
        lo, hi = sorted(rng.integers(0, 8, size=2))
        row[:lo] = 0
        row[hi:] = -0.0
        row[rng.random(7) < 0.2] = 0
        row *= 10.0 ** -rng.choice([0, 75, 155, 170, 300, 315])
    norms = _window_norms(rows)
    assert norms.tolist() == [WaveState(0, row).norm() for row in rows]
    assert (norms == 0).any() and (norms < 1e-300).any()


@pytest.mark.parametrize(
    "site,chirality,n0,expected",
    [
        (0, "L", 1, 0),  # L inside the window is not incoming
        (0, "R", 1, 1),  # R at the left window edge still counts
        (-2, "R", 1, 3),
        (1, "L", 1, 1),  # L at the right window edge still counts
        (4, "L", 1, 4),
        (4, "R", 1, 0),  # R to the right is outgoing
        (-3, "L", 1, 0),  # L to the left is outgoing
    ],
)
def test_incoming_length_cases(site, chirality, n0, expected):
    assert incoming_length(basis_state(site, chirality), n0) == expected


def test_incoming_length_zero_state():
    assert incoming_length(zero_state(), 3) == 0


def test_decompose_splits_exactly():
    rng = np.random.default_rng(9)
    psi = random_state(rng, 2, 4)
    parts = decompose(psi, 2)
    total = parts.comp + parts.incoming + parts.outgoing
    assert (total - psi).norm() < 1e-15
    assert parts.comp.support_lo >= 0 and parts.comp.support_hi <= 2
    # incoming and outgoing live strictly outside the window
    for part in (parts.incoming, parts.outgoing):
        if not part.is_zero():
            for n in range(0, 3):
                np.testing.assert_array_equal(part.amplitude(n), [0.0, 0.0])


def test_window_vector_layout_and_round_trip():
    psi = WaveState(-1, [[9.0, 9.0], [1.0, 2.0], [3.0, 4.0]])
    v = window_vector(psi, 1)
    np.testing.assert_array_equal(v, [1.0, 2.0, 3.0, 4.0])
    back = WaveState(0, v.reshape(-1, 2))
    for n in (0, 1):
        np.testing.assert_array_equal(back.amplitude(n), psi.amplitude(n))
    # supports reaching past either edge, inside it, and the zero state
    np.testing.assert_array_equal(window_vector(psi, 0), [1.0, 2.0])
    np.testing.assert_array_equal(window_vector(WaveState(1, [[5.0, 6.0]]), 2), [0, 0, 5, 6, 0, 0])
    np.testing.assert_array_equal(window_vector(psi, 3), [1, 2, 3, 4, 0, 0, 0, 0])
    np.testing.assert_array_equal(window_vector(zero_state(), 1), np.zeros(4))


def test_state_json_round_trip():
    rng = np.random.default_rng(13)
    psi = random_state(rng, 1, 3)
    back = state_from_json(state_to_json(psi))
    assert (back - psi).norm() < 1e-16


def test_state_json_omits_zero_slots():
    out = state_to_json(basis_state(2, "L"))
    assert out == [{"n": 2, "L": [1.0, 0.0]}]


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 0},
        [{"L": [1, 0]}],
        [{"n": 0, "L": [1]}],
        [{"n": 0, "L": [1, 0], "spin": 1}],
        [{"n": 0, "L": [1, 0]}, {"n": 0, "R": [1, 0]}],
        [{"n": 0.5, "L": [1, 0]}],
        [{"n": 0, "L": [math.inf, 0]}],
        [{"n": 0, "R": [0, math.nan]}],
        [{"n": 0, "L": [True, 0]}],
        [{"n": 0, "R": [10**400, 0]}],
    ],
)
def test_state_json_rejects_malformed(obj):
    with pytest.raises(ConfigParse):
        state_from_json(obj)
