import math
import warnings

import numpy as np
import pytest

from conftest import closed_form_transfer, hadamard_pair, random_sequence
from qwres import (
    AtResonance,
    CoinSequence,
    SpectralOverflow,
    identity_coin,
    scattering_matrix,
    transfer_product,
)


def test_free_walk_scatters_trivially():
    cs = CoinSequence(0, (identity_coin(),))
    for xi in (0.0, 0.8, -2.5):
        sm = scattering_matrix(cs, xi)
        np.testing.assert_allclose(sm.matrix, np.eye(2), atol=1e-13)


def test_scattering_against_transfer_matching():
    # Independent route: match plane waves through the transfer product TT.
    # Left-incoming: t = e^{-i(n0+1)xi} / TT_22, r = t TT_12 e^{i n0 xi};
    # right-incoming: t' = e^{-i(n0+1)xi} det TT / TT_22,
    # r' = -TT_21 e^{-i(2 n0+1)xi} / TT_22.  The library's reflection slots
    # carry the opposite sign relative to this seeding convention.
    rng = np.random.default_rng(227)
    for _ in range(25):
        n0 = int(rng.integers(0, 6))
        cs = random_sequence(rng, n0)
        xi = float(rng.uniform(-np.pi, np.pi))
        tt = transfer_product(cs, xi)
        det = tt[0, 0] * tt[1, 1] - tt[0, 1] * tt[1, 0]
        t_left = np.exp(-1j * (n0 + 1) * xi) / tt[1, 1]
        r_left = t_left * tt[0, 1] * np.exp(1j * n0 * xi)
        t_right = np.exp(-1j * (n0 + 1) * xi) * det / tt[1, 1]
        r_right = -tt[1, 0] * np.exp(-1j * (2 * n0 + 1) * xi) / tt[1, 1]
        sm = scattering_matrix(cs, xi)
        assert abs(sm.t_plus - t_left) < 1e-11
        assert abs(sm.r_minus + r_left) < 1e-11
        assert abs(sm.t_minus - t_right) < 1e-11
        assert abs(sm.r_plus + r_right) < 1e-11


def test_unitary_for_real_xi():
    rng = np.random.default_rng(229)
    for _ in range(20):
        cs = random_sequence(rng, int(rng.integers(0, 7)))
        xi = float(rng.uniform(-np.pi, np.pi))
        sm = scattering_matrix(cs, xi)
        assert sm.unitarity_residual() < 1e-10
        assert abs(abs(sm.t_minus) ** 2 + abs(sm.r_minus) ** 2 - 1.0) < 1e-10
        assert abs(abs(sm.t_plus) ** 2 + abs(sm.r_plus) ** 2 - 1.0) < 1e-10


def test_at_resonance_raises():
    # The Hadamard pair has a resonance with lambda = 2^{-1/2}, which sits
    # at xi = -i ln(2)/2 on the imaginary axis.
    xi_res = -0.5j * math.log(2.0)
    with pytest.raises(AtResonance):
        scattering_matrix(hadamard_pair(), xi_res)


def test_finite_deep_in_lower_half_plane():
    # Resonances live below the axis, and the denominator Wronskian
    # dominates down there, so evaluation stays exact at any depth.
    rng = np.random.default_rng(233)
    cs = random_sequence(rng, 2)
    for xi in (0.3 - 25j, -1.0 - 40j, 0.3 + 5j):
        sm = scattering_matrix(cs, xi)
        assert np.all(np.isfinite(sm.matrix))


def test_refuses_deep_in_upper_half_plane():
    # No pole lies above the axis.  r+ carries the seed factor
    # e^{-i (2 n0 + 1) xi}, which grows like e^{(2 n0 + 1) Im xi} there and
    # is an answer, not a resonance, until |r+|^2 leaves the float range;
    # deep up every point is refused with SpectralOverflow, never with
    # AtResonance, and no numpy warning leaks
    rng = np.random.default_rng(233)
    walks = [random_sequence(rng, 2)] + [random_sequence(rng, n0) for n0 in (1, 4, 8, 16, 32)]
    answered = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cs in walks:
            for im in np.geomspace(1e-3, 700, 40):
                try:
                    sm = scattering_matrix(cs, 0.3 + 1j * im)
                except SpectralOverflow:
                    continue
                assert np.all(np.isfinite(sm.matrix)) and np.isfinite(sm.unitarity_residual())
                answered.append((cs.n0, im, abs(sm.r_plus)))
            with pytest.raises(SpectralOverflow):
                scattering_matrix(cs, 0.3 + 700j)
    assert max(r for n0, im, r in answered if n0 == 2 and im < 25) > 1e13
    assert {n0 for n0, *_ in answered} == {1, 2, 4, 8, 16, 32}


def test_meromorphy_across_strip():
    # Away from resonances the coefficients vary smoothly; compare against
    # a small central difference in xi.
    cs = hadamard_pair()
    xi = -0.7 - 0.9j
    h = 1e-6
    sm0 = scattering_matrix(cs, xi)
    sp = scattering_matrix(cs, xi + h)
    sn = scattering_matrix(cs, xi - h)
    deriv = (sp.t_minus - sn.t_minus) / (2 * h)
    second = (sp.t_minus + sn.t_minus - 2 * sm0.t_minus) / h**2
    # second difference of an analytic function at step 1e-6 stays modest
    assert abs(second) * h**2 < 1e-9 * max(1.0, abs(deriv))


def test_unitary_where_transmission_is_tiny():
    # A Haar window with n0 = 16 transmits about 1e-6 somewhere on the
    # real axis.  Transmission amplitudes taken from propagated Wronskians
    # cancel there and left |t-| and |t+| apart by about 1e-4 relative
    # (max |S*S - I| = 3.3e-9 near xi = 1.03); the closed-form numerators
    # keep them equal.
    cs = random_sequence(np.random.default_rng(8), 16)
    for xi in np.linspace(-np.pi, np.pi, 1501):
        sm = scattering_matrix(cs, xi)
        assert sm.unitarity_residual() < 1e-10
        assert abs(abs(sm.t_minus) ** 2 + abs(sm.r_minus) ** 2 - 1.0) < 1e-10
        assert abs(abs(sm.t_plus) ** 2 + abs(sm.r_plus) ** 2 - 1.0) < 1e-10


def test_array_matches_pointwise():
    rng = np.random.default_rng(239)
    for _ in range(12):
        cs = random_sequence(rng, int(rng.integers(0, 12)))
        xi = rng.uniform(-np.pi, np.pi, 9) + 1j * rng.choice([0.0, -0.1, -1.5, 0.7], 9)
        sm = scattering_matrix(cs, xi)
        assert sm.matrix.shape == (9, 2, 2)
        assert sm.unitarity_residual().shape == (9,)
        for k, x in enumerate(xi):
            one = scattering_matrix(cs, x)
            assert isinstance(one.t_minus, complex)
            assert isinstance(one.unitarity_residual(), float)
            scale = max(1.0, np.max(np.abs(one.matrix)))
            assert np.max(np.abs(sm.matrix[k] - one.matrix)) < 1e-12 * scale


def test_matches_propagated_jost_wronskians():
    # An independent route to the same coefficients: carry the out+ and in+
    # seeds at n0 down to n = -1 one T_n at a time, where the minus kinds
    # are their own seeds, and take the Wronskian ratios there.
    rng = np.random.default_rng(241)
    for _ in range(400):
        n0 = int(rng.integers(0, 9))
        cs = random_sequence(rng, n0)
        xi = complex(rng.uniform(-np.pi, np.pi), rng.uniform(-1.5, 1.5))
        e = np.exp(1j * xi)
        pairs = {"out+": np.array([0, e ** (n0 + 1)]), "in+": np.array([e**-n0, 0])}
        for n in range(n0, -1, -1):
            t = closed_form_transfer(cs.coin_at(n), xi)
            pairs = {kind: t @ pair for kind, pair in pairs.items()}
        pairs["out-"], pairs["in-"] = np.array([e, 0]), np.array([0, 1])

        def w(k1, k2):
            (a0, a1), (b0, b1) = pairs[k1], pairs[k2]
            return a0 * b1 - a1 * b0

        den = w("out-", "out+")
        want = [
            [w("in+", "out+") / den, w("in-", "out+") / den],
            [w("out-", "in+") / den, w("out-", "in-") / den],
        ]
        got = scattering_matrix(cs, xi).matrix
        assert np.max(np.abs(got - np.array(want))) < 1e-10 * max(1.0, np.max(np.abs(got)))


def test_array_at_resonance_names_first_bad_point():
    xi_res = -0.5j * math.log(2.0)
    grid = np.array([-1.0, 0.0, math.pi / 2, math.pi]) + xi_res
    with pytest.raises(AtResonance, match=r"xi=-0\.3465"):
        scattering_matrix(hadamard_pair(), grid)


def test_array_past_the_float_range_names_first_bad_point():
    # e^{-i xi} overflows at Im xi = 800 and the phase (n0 + 2) Re xi at
    # Re xi = 1e308; neither reaches the caller as NaN or as a numpy warning
    cs = hadamard_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SpectralOverflow, match=r"xi=\(0\.5\+800j\)"):
            scattering_matrix(cs, np.array([0.5, 0.5 + 800j, 0.5 - 800j]))
        with pytest.raises(SpectralOverflow, match=r"xi=\(1e\+308\+0j\)"):
            scattering_matrix(cs, np.array([0.0, 1e308]))
        assert np.isfinite(scattering_matrix(cs, 0.5 - 700j).t_minus)


def test_scattering_matrix_on_an_empty_grid():
    cs = random_sequence(np.random.default_rng(3), 4)
    for shape in ((0,), (0, 3), (2, 0)):
        sm = scattering_matrix(cs, np.zeros(shape, dtype=complex))
        for z in (sm.t_minus, sm.t_plus, sm.r_minus, sm.r_plus, sm.unitarity_residual()):
            assert z.shape == shape
        assert sm.matrix.shape == shape + (2, 2)
