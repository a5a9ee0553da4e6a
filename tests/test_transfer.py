import numpy as np
import pytest

from conftest import closed_form_transfer, hadamard_pair, haar_coin, random_sequence, triple_barrier
from qwres import (
    CoinSequence,
    SpectralOverflow,
    hadamard_coin,
    identity_coin,
    rotation_coin,
    transfer_polynomial,
    transfer_product,
)
from qwres.transfer import _horner, _relation_points, _transfer_entries


def one_site_transfer(c, xi):
    """T_n(xi): the transfer product of the one-site window holding c."""
    return transfer_product(CoinSequence(0, (c,)), xi)


def test_local_transfer_encodes_the_eigen_recursion():
    # If psi solves U psi = e^{-i xi} psi, the pair Pi_n = (L(n), R(n+1))
    # determines Pi_{n-1} = (L(n-1), R(n)) through two scalar relations:
    #   e^{-i xi} L(n-1) = a L(n) + b R(n)
    #   e^{-i xi} R(n+1) = c L(n) + d R(n)
    # T_n is exactly the matrix implementing that elimination.
    rng = np.random.default_rng(101)
    for _ in range(50):
        c = haar_coin(rng)
        xi = complex(rng.uniform(-np.pi, np.pi), rng.uniform(-1.0, 1.0))
        pi_n = rng.normal(size=2) + 1j * rng.normal(size=2)
        out = one_site_transfer(c, xi) @ pi_n
        e = np.exp(-1j * xi)
        assert abs(e * out[0] - (c.a * pi_n[0] + c.b * out[1])) < 1e-12
        assert abs(e * pi_n[1] - (c.c * pi_n[0] + c.d * out[1])) < 1e-12


def test_local_transfer_determinant():
    rng = np.random.default_rng(107)
    for _ in range(20):
        c = haar_coin(rng)
        xi = complex(rng.uniform(-np.pi, np.pi), rng.uniform(-0.5, 0.5))
        det = np.linalg.det(one_site_transfer(c, xi))
        assert abs(det - c.a / c.d) < 1e-12


def test_local_transfer_batched_shape():
    c = haar_coin(np.random.default_rng(109))
    xs = np.linspace(-1, 1, 7)
    t = one_site_transfer(c, xs)
    assert t.shape == (7, 2, 2)
    np.testing.assert_allclose(t[3], one_site_transfer(c, complex(xs[3])), atol=0)


def test_transfer_product_is_ordered_product():
    rng = np.random.default_rng(113)
    cs = random_sequence(rng, 3)
    xi = 0.4 - 0.2j
    manual = np.eye(2, dtype=complex)
    for n in range(4):
        manual = manual @ closed_form_transfer(cs.coin_at(n), xi)
    np.testing.assert_allclose(transfer_product(cs, xi), manual, atol=1e-13)


@pytest.mark.parametrize("xi", [800j, -800j, np.array([0.3, 0.1 + 800j])])
def test_transfer_refuses_overflow_without_a_warning(xi):
    # e^{+-i xi} leaves the float range; pytest turns a numpy warning into an error
    cs = triple_barrier()
    with pytest.raises(SpectralOverflow, match="not finite at xi="):
        one_site_transfer(cs.coin_at(0), xi)
    with pytest.raises(SpectralOverflow, match="not finite at xi="):
        transfer_product(cs, xi)


def _per_entry_recursion(cs, xi, rescale):
    """The oracle for the transfer kernel's bits: one array per entry.

    T_n's entries are formed per site from the coin, each product with p, q,
    r or s on the left, and the two columns are carried side by side.
    """
    xi = np.asarray(xi, dtype=complex)
    e_plus, e_minus = np.exp(1j * xi), np.exp(-1j * xi)
    one, zero = np.ones(xi.shape, dtype=complex), np.zeros(xi.shape, dtype=complex)
    t11, t12, t21, t22 = one, zero, zero, one
    log1 = log2 = np.zeros(xi.shape)
    for n in range(cs.n0, -1, -1):
        u = cs.coin_at(n)
        p, q, r, s = e_plus / np.conj(u.a), -np.conj(u.c) / np.conj(u.a), -u.c / u.d, e_minus / u.d
        t11, t21 = p * t11 + q * t21, r * t11 + s * t21
        t12, t22 = p * t12 + q * t22, r * t12 + s * t22
        if rescale:
            m1 = np.maximum(np.abs(t11), np.abs(t21))
            m2 = np.maximum(np.abs(t12), np.abs(t22))
            t11, t21, log1 = t11 / m1, t21 / m1, log1 + np.log(m1)
            t12, t22, log2 = t12 / m2, t22 / m2, log2 + np.log(m2)
    return (t11, t12, t21, t22), (log1, log2)


def _kernel_windows():
    """Haar, rotation and Hadamard windows with n0 from 1 to 64."""
    rng = np.random.default_rng(151)
    for n0 in (1, 2, 3, 5, 8, 13, 21, 34, 64):
        yield random_sequence(rng, n0)
        yield CoinSequence(n0, tuple(rotation_coin(r) for r in rng.uniform(-0.95, 0.95, n0 + 1)))
        yield CoinSequence(n0, (hadamard_coin(),) * (n0 + 1))


@pytest.mark.simd_portable
def test_transfer_kernel_is_the_per_entry_recursion_bit_for_bit():
    # values and logs, signs of zeros included, with rescale on and off, on
    # grids of 20, 150 and 512 points; carrying column 2 alone or the slope
    # beside the values leaves the value bits as they are
    rng = np.random.default_rng(157)
    for cs in _kernel_windows():
        for npts in (20, 150, 512):
            xi = rng.uniform(-np.pi, np.pi, npts) + 1j * rng.uniform(-3, 3, npts)
            xi[:4] = [0.0, np.pi / 2, complex(-1.0, -0.0), 0.5j]
            for rescale in (False, True):
                want, (log1, log2) = _per_entry_recursion(cs, xi, rescale)
                top, bot, log = _transfer_entries(cs, xi, rescale)
                got = (*top[0], *bot[0])
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
                assert log.tobytes() == np.stack([log1, log2]).tobytes()
                top, bot, log = _transfer_entries(cs, xi, rescale, cols=1, slope=True)
                assert top[0, 0].tobytes() == want[1].tobytes()
                assert bot[0, 0].tobytes() == want[3].tobytes()
                assert log[0].tobytes() == log2.tobytes()


def test_transfer_kernel_takes_a_scalar_as_a_one_point_grid():
    # a 0-d xi runs the array loop of a one-point grid, so a scalar and the
    # same point in a grid agree bit for bit
    cs = random_sequence(np.random.default_rng(163), 6)
    xi = np.array([0.4 - 0.2j])
    for rescale in (False, True):
        grid = _transfer_entries(cs, xi, rescale)
        scalar = _transfer_entries(cs, complex(xi[0]), rescale)
        for g, s in zip(grid, scalar):
            assert s.shape == g.shape[:-1] and s.tobytes() == g.tobytes()
    assert transfer_product(cs, complex(xi[0])).tobytes() == transfer_product(cs, xi)[0].tobytes()


def test_transfer_kernel_slope_matches_a_central_difference():
    # d/dxi of all four entries, carried exactly, against a central
    # difference; the rescaled slope shares its row's scale
    rng = np.random.default_rng(167)
    h = 1e-6
    for cs in _kernel_windows():
        xi = rng.uniform(-np.pi, np.pi, 30) + 1j * rng.uniform(-1, 1, 30)
        top, bot, _ = _transfer_entries(cs, xi, slope=True)
        value, slope = np.concatenate([top, bot], axis=1)  # rows t11, t12, t21, t22
        slope = 1j * slope  # the kernel carries d/dxi divided by i
        ahead, behind = (np.concatenate(_transfer_entries(cs, xi + d)[:2], axis=1)[0] for d in (h, -h))
        scale = np.abs(value).max(axis=1, keepdims=True) + np.abs(slope).max(axis=1, keepdims=True)
        assert np.all(np.abs(slope - (ahead - behind) / (2 * h)) <= 1e-6 * scale)
        scaled_top, scaled_bot, scaled_log = _transfer_entries(cs, xi, rescale=True, slope=True)
        for carried, scaled in ((top, scaled_top), (bot, scaled_bot)):
            np.testing.assert_allclose(scaled * np.exp(scaled_log), carried, rtol=1e-12, atol=0)


def test_transfer_polynomial_identity_window():
    # b = c = 0 everywhere degenerates p to the monomial mu, whose root
    # mu = 0 is never e^{-2i xi}: no resonances, as it should be.
    tp = transfer_polynomial(CoinSequence(1, (identity_coin(), identity_coin())))
    np.testing.assert_allclose(tp.coeffs, [0.0, 1.0], atol=0)
    assert tp.leading == pytest.approx(1.0)
    assert tp.degree == 1


def test_transfer_polynomial_hadamard_frozen():
    tp = transfer_polynomial(hadamard_pair())
    np.testing.assert_allclose(tp.coeffs, [-0.5, 1.0], atol=1e-14)
    assert tp.leading == pytest.approx(2.0, abs=1e-13)


def test_transfer_polynomial_double_barrier_closed_form():
    # For n0 = 1 the product (A_0 A_1)_{22} works out to
    # z^2 (c0 conj(c1) / (d0 conj(a1)) + mu / (d0 d1)), whose single root is
    # mu = c0 b1 after the unitarity substitutions.
    rng = np.random.default_rng(127)
    for _ in range(30):
        cs = random_sequence(rng, 1)
        u0, u1 = cs.coins
        tp = transfer_polynomial(cs)
        np.testing.assert_allclose(tp.coeffs, [-u0.c * u1.b, 1.0], atol=1e-12)
        np.testing.assert_allclose(tp.leading, 1.0 / (u0.d * u1.d), atol=1e-12)


def test_transfer_polynomial_triple_barrier_closed_form():
    # n0 = 2: p_monic(mu) = mu^2 - (c0 b1 + c1 b2) mu - c0 b2 det(U1).
    rng = np.random.default_rng(131)
    for _ in range(30):
        cs = random_sequence(rng, 2)
        u0, u1, u2 = cs.coins
        det1 = u1.a * u1.d - u1.b * u1.c
        tp = transfer_polynomial(cs)
        expect = [-u0.c * u2.b * det1, -(u0.c * u1.b + u1.c * u2.b), 1.0]
        np.testing.assert_allclose(tp.coeffs, expect, atol=1e-11)


def test_transfer_polynomial_rotation_triple_frozen():
    tp = transfer_polynomial(triple_barrier())
    np.testing.assert_allclose(tp.coeffs, [0.25, 1.0, 1.0], atol=1e-13)
    d0 = np.sqrt(1 - (3 / 4) ** 2)
    d1 = np.sqrt(1 - (12 / 13) ** 2)
    d2 = np.sqrt(1 - (1 / 3) ** 2)
    assert tp.leading == pytest.approx(1.0 / (d0 * d1 * d2), abs=1e-12)


def test_transfer_polynomial_reproduces_product_entry():
    rng = np.random.default_rng(137)
    for _ in range(10):
        n0 = int(rng.integers(0, 7))
        cs = random_sequence(rng, n0)
        tp = transfer_polynomial(cs)
        assert tp.degree == n0
        assert tp.coeffs[-1] == 1.0
        assert abs(tp.leading) >= 1.0 - 1e-12  # |d_n| <= 1 termwise
        xi = rng.uniform(-np.pi, np.pi, 5) + 1j * rng.uniform(-1.2, 1.2, 5)
        t22 = transfer_product(cs, xi)[:, 1, 1]
        mu = np.exp(-2j * xi)
        lhs = np.exp(-1j * (n0 + 1) * xi) * t22
        rhs = mu * tp.leading * tp(mu)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * np.max(np.abs(lhs)))


def _row_recursion(cs):
    """Coefficients of z^{n0+1} TT_22 in z, lowest first: row 2 of the
    product zT_0 ... zT_{n0} carried from the left with np.convolve."""
    row = [np.zeros(1, dtype=complex), np.ones(1, dtype=complex)]
    for n in range(cs.n0 + 1):
        u = cs.coin_at(n)
        # every entry padded to degree 2, so the two products of a sum align
        col1 = [np.array([1 / np.conj(u.a), 0, 0]), np.array([0, -u.c / u.d, 0])]
        col2 = [np.array([0, -np.conj(u.c) / np.conj(u.a), 0]), np.array([0, 0, 1 / u.d])]
        row = [np.convolve(row[0], col[0]) + np.convolve(row[1], col[1]) for col in (col1, col2)]
    return row[1]


def test_transfer_polynomial_matches_the_row_recursion():
    # the column recursion from the right associates the products in
    # another order, so the coefficients agree to rounding, not bit for bit
    eps = np.finfo(float).eps
    rng = np.random.default_rng(149)
    for n0 in range(17):
        cs = random_sequence(rng, n0)
        tp = transfer_polynomial(cs)
        want = _row_recursion(cs)
        assert np.all(want[:2] == 0) and np.all(want[3::2] == 0)
        got = tp.leading * np.asarray(tp.coeffs)
        tol = 16 * (n0 + 1) * eps * np.max(np.abs(want))
        np.testing.assert_allclose(got, want[2::2], rtol=0, atol=tol)


def test_polynomial_call_matches_polyval():
    rng = np.random.default_rng(139)
    cs = random_sequence(rng, 4)
    tp = transfer_polynomial(cs)
    mu = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert tp(mu).tobytes() == np.polyval(tp.coeffs[::-1], mu).tobytes()
    assert np.isscalar(tp(0.3 + 0.1j)) or tp(0.3 + 0.1j).shape == ()


def test_horner_is_polyval_bit_for_bit():
    # the rows _witness stacks, p and p' padded with a leading 0, and |p|'s
    # coefficients at |x| + 0j, whose real part must be the real Horner
    # (a backward-error floor sum |c_k| |x|^k); tobytes also compares the
    # signs of zeros
    rng = np.random.default_rng(97)
    signed_zeros = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for d in (1, 2, 5, 17, 64):
        high = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        high[rng.integers(1, d + 1, size=d // 3 + 1)] = rng.choice(signed_zeros, size=d // 3 + 1)
        x = rng.normal(size=12) + 1j * rng.normal(size=12)
        x[:4] = [-0.7 + 0.2j, -1.3 - 0.0j, 0.0, complex(-0.0, -0.0)]
        rows = np.stack([high, np.concatenate([[0], np.polyder(high)]), np.abs(high)])
        p, dp, floor = _horner(rows, np.stack([x, x, np.abs(x) + 0j]))
        assert p.tobytes() == np.polyval(high, x).tobytes()
        assert dp.tobytes() == np.polyval(np.polyder(high), x).tobytes()
        assert floor.real.tobytes() == np.polyval(np.abs(high), np.abs(x)).tobytes()


def test_relation_points_are_one_fixed_draw():
    rng = np.random.default_rng(20240901)
    want = np.concatenate(
        [
            rng.uniform(-np.pi, np.pi, 10).astype(complex),
            rng.uniform(-np.pi, np.pi, 10) + 1j * rng.uniform(-1.5, 1.5, 10),
        ]
    )
    got = _relation_points()
    assert got.tobytes() == want.tobytes()
    assert got is _relation_points() and not got.flags.writeable
