import cmath
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from conftest import hadamard_pair, near_identity_window, random_sequence, random_state, thin_window, triple_barrier
from qwres import (
    AtResonance,
    CoinSequence,
    SpectralOverflow,
    WaveState,
    apply_resolvent,
    basis_state,
    build_K,
    find_resonances,
    identity_residual,
    neumann_resolvent,
    rotation_coin,
    sequence_to_json,
    step,
)
from qwres import cli, resolvent
from qwres.states import state_to_json
from qwres.walk import _parity_blocks, _parity_eig


def test_resolvent_identity_on_random_instances():
    rng = np.random.default_rng(501)
    for _ in range(30):
        n0 = int(rng.integers(1, 5))
        cs = random_sequence(rng, n0)
        f = random_state(rng, n0, 3)
        xi = complex(rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.5))
        lam = cmath.exp(-1j * xi)
        if min(abs(lam - r.lam) for r in find_resonances(cs)) < 1e-2:
            continue
        window = (-6, n0 + 6)
        v = apply_resolvent(cs, xi, f, window)
        resid, cond = identity_residual(cs, xi, f, window)
        assert resid < 1e-10
        assert cond < 1e12
        # the identity again, from the outside
        check = (lam * v - step(v, cs) - f).restrict(window[0] + 1, window[1] - 1)
        scale = max(v.norm(), f.norm())
        assert check.norm() < 1e-9 * scale


def test_resolvent_agrees_with_neumann_series():
    rng = np.random.default_rng(503)
    for _ in range(10):
        n0 = int(rng.integers(1, 4))
        cs = random_sequence(rng, n0)
        f = random_state(rng, n0, 2)
        xi = complex(rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 1.5))
        window = (-5, n0 + 5)
        direct = apply_resolvent(cs, xi, f, window)
        series = neumann_resolvent(cs, xi, f, window)
        assert (direct - series).norm() < 1e-8 * max(1.0, direct.norm())


def test_neumann_needs_upper_half_plane():
    cs = hadamard_pair()
    with pytest.raises(ValueError):
        neumann_resolvent(cs, 0.3 - 0.2j, basis_state(0, "L"), (-3, 4))
    with pytest.raises(ValueError):
        neumann_resolvent(cs, 0.3, basis_state(0, "L"), (-3, 4))


def test_resolvent_defined_below_the_real_axis():
    # the continuation past the real axis is the point of the construction;
    # it must work at Im xi < 0 wherever the window system stays regular
    cs = hadamard_pair()
    f = basis_state(0, "L")
    v = apply_resolvent(cs, -2.0 - 0.8j, f, (-4, 5))
    assert v.norm() > 0
    resid, _ = identity_residual(cs, -2.0 - 0.8j, f, (-4, 5))
    assert resid < 1e-10


def test_resolvent_refuses_at_resonance():
    cs = hadamard_pair()
    res = find_resonances(cs)[1]
    f = basis_state(0, "L")
    with pytest.raises(AtResonance):
        apply_resolvent(cs, res.xi, f, (-3, 4))
    with pytest.raises(AtResonance):
        apply_resolvent(cs, res.xi + 1e-12, f, (-3, 4))


def test_resolvent_linear_in_f():
    rng = np.random.default_rng(509)
    cs = random_sequence(rng, 2)
    f = random_state(rng, 2, 2)
    g = random_state(rng, 2, 2)
    xi = 0.9 + 0.7j
    window = (-4, 6)
    lhs = apply_resolvent(cs, xi, f + (2 - 1j) * g, window)
    rhs = apply_resolvent(cs, xi, f, window) + (2 - 1j) * apply_resolvent(cs, xi, g, window)
    assert (lhs - rhs).norm() < 1e-11 * max(1.0, rhs.norm())


def test_resolvent_periodic_in_xi():
    cs = hadamard_pair()
    f = basis_state(1, "R")
    a = apply_resolvent(cs, 0.4 + 0.6j, f, (-3, 4))
    b = apply_resolvent(cs, 0.4 + 0.6j + 2 * math.pi, f, (-3, 4))
    assert (a - b).norm() < 1e-12 * a.norm()


def test_resolvent_rejects_empty_window():
    cs = hadamard_pair()
    with pytest.raises(ValueError):
        apply_resolvent(cs, 0.5j, basis_state(0, "L"), (3, 1))


def test_resolvent_with_outside_source():
    # source supported outside the perturbed window exercises the boundary
    # sums in the assembly; validate through the defining identity
    rng = np.random.default_rng(521)
    cs = random_sequence(rng, 1)
    f = basis_state(-3, "R") + 0.5 * basis_state(4, "L")
    for xi in (0.3 + 0.9j, -1.2 - 0.4j):
        resid, _ = identity_residual(cs, xi, f, (-6, 7))
        assert resid < 1e-10


def test_identity_residual_array_matches_pointwise():
    rng = np.random.default_rng(523)
    for _ in range(8):
        n0 = int(rng.integers(1, 9))
        cs = random_sequence(rng, n0)
        f = random_state(rng, n0, 3)
        xi = rng.uniform(-math.pi, math.pi, 7) + 1j * rng.choice([-0.6, 0.5, 1.2], 7)
        window = (-5, n0 + 5)
        resid, cond = identity_residual(cs, xi, f, window)
        assert resid.shape == cond.shape == (7,)
        for k, x in enumerate(xi):
            r1, c1 = identity_residual(cs, x, f, window)
            assert isinstance(r1, float) and isinstance(c1, float)
            assert abs(resid[k] - r1) < 1e-12
            assert abs(cond[k] - c1) < 1e-12 * c1


def test_identity_residual_array_refuses_at_resonance():
    cs = hadamard_pair()
    res = find_resonances(cs)[1]
    grid = np.array([res.xi - 0.5, res.xi, res.xi + 0.5])
    with pytest.raises(AtResonance):
        identity_residual(cs, grid, basis_state(0, "L"), (-3, 4))


def test_refusal_names_the_first_bad_point_in_grid_order():
    # 1e-7 off the triple barrier's double resonance the window system has
    # 1-norm condition number 2.1966e14 (in 80-digit arithmetic), whose
    # third printed figure is rounding at this conditioning, 2.19e14 or
    # 2.20e14; on one of the two eigenvalues that the eigensolve of K's
    # parity product splits it into it reads 2.36e24, rounding at an
    # exactly singular point.  Both are refused by the one condition test,
    # and whichever comes first on the grid is named
    cs = triple_barrier()
    xi = find_resonances(cs)[0].xi
    evals = _parity_eig(*_parity_blocks(cs))
    at = 1j * np.log(evals[np.argmin(np.abs(evals - np.exp(-1j * xi)))])
    f = basis_state(0, "L")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AtResonance, match=r"condition number 2\.(19|20)e\+14"):
            identity_residual(cs, np.array([xi + 0.5, xi + 1e-7, at]), f, (-3, 5))
        with pytest.raises(AtResonance, match=r"condition number 2\.36e\+24"):
            identity_residual(cs, np.array([xi + 0.5, at, xi + 1e-7]), f, (-3, 5))
        resid, cond = identity_residual(cs, np.array([xi + 0.5, xi - 0.5]), f, (-3, 5))
        assert (resid < 1e-10).all() and (cond < 1e12).all()
        # deep in a long grid, the first refused point in grid order is named
        grid = xi + 0.5 + np.linspace(0, 1, 4000)
        grid[3000], grid[3100] = xi + 1e-7, at
        with pytest.raises(AtResonance, match=r"condition number 2\.(19|20)e\+14") as exc:
            identity_residual(cs, grid, f, (-3, 5))
        assert str(complex(grid[3000])) in str(exc.value)


def test_near_a_simple_eigenvalue_the_condition_number_decides():
    # the one pole test is kappa_1 > 1e12: 1e-11 from a simple eigenvalue
    # of K, in eight directions, kappa_1 reads 1.4e11 on the Hadamard pair
    # and 3.1e11 to 3.3e11 on a Haar window, and the point is answered to
    # the identity's tolerance; 1e-13 from it kappa_1 passes 1e13 and the
    # point is refused by condition
    f = basis_state(0, "L")
    for cs in (hadamard_pair(), random_sequence(np.random.default_rng(3), 3)):
        simple = [r.lam for r in find_resonances(cs) if r.alg_multiplicity == 1]
        assert len(simple) >= 2
        for lam, turn in itertools.product(simple, np.exp(0.25j * np.pi * np.arange(8))):
            xi = 1j * np.log(lam + 1e-11 * turn)
            resid, cond = identity_residual(cs, xi, f, (-3, cs.n0 + 3))
            assert resid <= 1e-10 and cond <= 1e12
            apply_resolvent(cs, xi, f, (-3, cs.n0 + 3))
            with pytest.raises(AtResonance, match="condition number"):
                identity_residual(cs, 1j * np.log(lam + 1e-13 * turn), f, (-3, cs.n0 + 3))


def test_exactly_singular_window_system_is_refused_by_name():
    # rotations -1/2 and 1/2 give K the eigenvalue lam = 1/2 (lam^2 = c_0 b_1),
    # and e^{-i xi} is exactly 1/2 at xi = i ln(1/2); there psi^> reaches
    # R_0 = 1/2 / d_0 - (c_0 / d_0) (b_1 / lam) = 0 in exact arithmetic, so
    # the Wronskians are exactly zero, kappa_1 reads inf and the point is
    # named, with no warning; the grid without it is answered
    cs = CoinSequence(1, (rotation_coin(-0.5), rotation_coin(0.5)))
    at = 1j * math.log(0.5)
    assert np.exp(-1j * at) == 0.5
    grid = np.array([0.5j, -0.3 + 0.2j, at, 1 - 0.2j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AtResonance, match="condition number inf") as exc:
            identity_residual(cs, grid, basis_state(0, "L"), (-3, 4))
        assert str(complex(at)) in str(exc.value)
        resid, _ = identity_residual(cs, np.delete(grid, 2), basis_state(0, "L"), (-3, 4))
    assert (resid < 1e-10).all()


@pytest.mark.simd_portable
def test_stacked_window_solves_match_pointwise():
    # 40 points of one call, whose window systems are solved together in
    # one pass over _green's homogeneous solutions, give each point the bits
    # of a call on that point alone
    rng = np.random.default_rng(29)
    cs = random_sequence(rng, 32)
    f = random_state(rng, 32, 3)
    xi = np.linspace(-3, 3, 40) + 1j * np.linspace(-0.5, 0.8, 40)
    resid, cond = identity_residual(cs, xi, f, (-4, 36))
    for k, x in enumerate(xi):
        assert (resid[k], cond[k]) == identity_residual(cs, x, f, (-4, 36))


def test_overflowing_sums_are_refused():
    # at Im xi = -10 the incoming R sum over a source on 80 sites left of
    # the window grows like e^{10 k} past the float range and feeds the
    # window system; 800 overflows e^{-i xi} itself
    cs = hadamard_pair()
    f = WaveState(-80, np.tile([0.0, 1.0], (80, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SpectralOverflow, match=r"xi=\(0\.3-10j\)"):
            identity_residual(cs, np.array([0.3 + 0.5j, 0.3 - 10j]), f, (-2, 3))
        with pytest.raises(SpectralOverflow, match=r"xi=\(0\.3\+800j\)"):
            apply_resolvent(cs, 0.3 + 800j, f, (-2, 3))
        resid, _ = identity_residual(cs, 0.3 + 0.5j, f, (-2, 3))
        assert resid < 1e-10


def test_tiny_and_huge_sources_keep_their_digits():
    # at Im xi = 40 the answer falls by e^{-40} a site from the source;
    # solved at the source's own scale, a source of 1e-300 left subnormal
    # amplitudes on the window and an identity residual of 4.0e-7 (1.0e-10
    # at 1e-310); solved for f scaled to order one by a power of 2 and
    # scaled back, every scale keeps the residual of s = 1
    cs = random_sequence(np.random.default_rng(7), 7)
    xi = np.array([3 + 40j, -3 + 40j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e-310, 1e-300, 1.0, 1e300):
            resid, cond = identity_residual(cs, xi, s * basis_state(-3, "L"), (-3, 10))
            assert (resid <= 1e-15).all() and (cond < 2).all()


@pytest.mark.simd_portable
def test_power_of_two_source_scales_the_answer_bit_for_bit():
    # scaling by 2^k is exact, so f and 2^k f are solved as the one
    # system, and the answer is 2^k times the one for f, bit for bit,
    # rounded once where it turns subnormal
    def times(psi, k):
        return WaveState(psi.support_lo, np.ldexp(psi.amplitudes.view(float), k).view(complex))

    rng = np.random.default_rng(7)
    cs = random_sequence(rng, 7)
    f = random_state(rng, 7, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in (3 + 40j, -3 + 40j, 0.7 + 0.5j, -1.2 - 0.3j):
            want = apply_resolvent(cs, xi, f, (-3, 10))
            for k in (-1000, -100, 100, 1000):
                got, scaled = apply_resolvent(cs, xi, times(f, k), (-3, 10)), times(want, k)
                assert got.support_lo == scaled.support_lo
                assert got.amplitudes.tobytes() == scaled.amplitudes.tobytes()


@pytest.mark.simd_portable
@pytest.mark.parametrize("points", [75, 300])
@pytest.mark.parametrize("n0", [3, 5, 8, 12, 16])
def test_split_window_solves_are_the_one_share_ones_bit_for_bit(tmp_path, capsys, n0, points):
    # a grid passed whole or cut into two or three shares gives the same
    # bits: every operation runs per point, so a point's numbers do not
    # depend on how many others are passed with it; and the command's CSV
    # is the one written from the shares
    rng = np.random.default_rng(n0)
    cs = random_sequence(rng, n0)
    f = random_state(rng, n0, 3)
    xi = np.linspace(-3.1, 3.1, points) + 0.5j
    cfg = tmp_path / "walk.json"
    cfg.write_text(json.dumps(dict(sequence_to_json(cs), psi0=state_to_json(f))))
    argv = ["resolvent-check", "--config", str(cfg), f"--xi-grid=-3.1:3.1:{points},0.5", "--window", "4"]
    got = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shares in (1, 2, 3):
            parts = [identity_residual(cs, part, f, (-4, n0 + 4)) for part in np.array_split(xi, shares)]
            got[shares] = tuple(np.concatenate(column).tobytes() for column in zip(*parts))
        assert cli.main(argv) == 0
    assert got[1] == got[2] == got[3]
    resid, cond = (np.frombuffer(column) for column in got[1])
    header = "xi_re,xi_im,residual,condition"
    assert capsys.readouterr().out == cli._csv(header, xi.real.tolist(), xi.imag.tolist(), resid.tolist(), cond.tolist())


@pytest.mark.simd_portable
def test_split_refusal_is_the_one_share_one():
    # a refused point behind clean points, one ahead of them, and one in
    # each half: the message names the first in grid order, and the grid cut
    # into halves gives the same message from the half holding that point,
    # the first half answering when the point lies in the second
    cs = triple_barrier()
    xi = find_resonances(cs)[0].xi
    f = basis_state(0, "L")
    for bad in ([250], [40], [260, 40], [140, 150]):
        grid = xi + 0.5 + np.linspace(0, 1, 300)
        grid[bad] = xi + 1e-7 * (1 + 0.1 * np.arange(len(bad)))  # each refused point its own
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AtResonance, match="condition number") as whole:
                identity_residual(cs, grid, f, (-3, 5))
            if min(bad) >= 150:
                resid, cond = identity_residual(cs, grid[:150], f, (-3, 5))
                assert (resid < 1e-10).all() and (cond < 1e12).all()
            with pytest.raises(AtResonance, match="condition number") as half:
                identity_residual(cs, grid[150:] if min(bad) >= 150 else grid[:150], f, (-3, 5))
        assert str(whole.value) == str(half.value) and str(complex(grid[min(bad)])) in str(whole.value)


def test_only_a_refusal_at_the_zero_eigenvalue_names_it():
    # a point refused next to a resonance keeps the bare condition-number
    # message; one deep below, where |lambda| <= 1e-6, names K's zero eigenvalue
    cs = triple_barrier()
    xi = find_resonances(cs)[0].xi
    f = basis_state(0, "L")
    with pytest.raises(AtResonance) as near:
        identity_residual(cs, np.array([xi + 0.5, xi + 1e-7]), f, (-3, 5))
    assert str(near.value).startswith(f"window system at xi = {complex(xi + 1e-7)} has condition number ")
    assert "zero eigenvalue" not in str(near.value)
    with pytest.raises(AtResonance, match=r": \|lambda\| = 9\.36e-14, within 1e-6 of K's zero eigenvalue, not a resonance$"):
        identity_residual(cs, np.array([0.5 - 1j, 0.5 - 30j]), f, (-3, 5))


@pytest.mark.simd_portable
@pytest.mark.parametrize("n0", [1, 2, 3, 8, 11, 13, 14, 16, 32])
def test_condition_is_the_dense_one_norm_condition_number(n0):
    # kappa_1 = |lam - K|_1 |(lam - K)^{-1}|_1, LAPACK's 1-norm convention,
    # against a dense inverse of the full window system, on three short
    # lines and on the grid benchmark's resolvent line, 75 points at
    # Im xi = 0.5
    rng = np.random.default_rng(100 + n0)
    cs = random_sequence(rng, n0)
    f = random_state(rng, n0, 3)
    k = build_K(cs)
    lines = [np.linspace(-3, 3, 9) + 1j * im for im in (0.5, -0.1, -0.6)]
    for xi in lines + [np.linspace(-3.12, 3.11, 75) + 0.5j]:
        _, cond = identity_residual(cs, xi, f, (-3, n0 + 3))
        for x, got in zip(xi, cond):
            m = np.exp(-1j * x) * np.eye(len(k)) - k
            want = np.abs(m).sum(0).max() * np.abs(np.linalg.inv(m)).sum(0).max()
            assert abs(got - want) <= 1e-12 * want and got >= 1


WINDOWS = [("haar", 1), ("haar", 7), ("haar", 16), ("haar", 32), ("thin", 8), ("near-identity", 8)]


@pytest.mark.simd_portable
@pytest.mark.parametrize("family, n0", WINDOWS, ids=[f"{family}-{n0}" for family, n0 in WINDOWS])
def test_window_solves_match_the_dense_inverse(family, n0):
    # the semi-separable solve against np.linalg.inv of the dense lam - K,
    # in both half planes: kappa_1 agrees to 1e-13 relative, and each
    # point's solution to 1e-13 + 1e-15 kappa_1, the inverse's own forward
    # error growing like eps kappa_1 (at Im xi = -10 on the n0 = 1 window,
    # kappa_1 = 3.8e4, it is off by 3.7e-12 where this solve is off by
    # 1.9e-16 against 60-digit arithmetic)
    rng = np.random.default_rng(200 + n0)
    if family == "haar":
        cs = random_sequence(rng, n0)
    else:
        cs = {"thin": thin_window, "near-identity": near_identity_window}[family](rng, n0, 1e-6)
    k = build_K(cs)
    rng = np.random.default_rng(7)
    for im in (-10, -0.6, -0.1, 0.5, 3):
        xi = np.linspace(-3, 3, 9) + 1j * im
        lam = np.exp(-1j * xi)
        rhs = rng.normal(size=(9, cs.n0 + 1, 2)) + 1j * rng.normal(size=(9, cs.n0 + 1, 2))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v, cond = resolvent._window_solves(xi, lam, cs, rhs)
        for l, got, c, r in zip(lam, v, cond, rhs):
            m = l * np.eye(len(k)) - k
            inv = np.linalg.inv(m)
            want = (inv @ r.reshape(-1)).reshape(-1, 2)
            kappa = np.abs(m).sum(0).max() * np.abs(inv).sum(0).max()
            assert np.abs(got - want).max() <= (1e-13 + 1e-15 * kappa) * np.abs(want).max()
            assert abs(c - kappa) <= 1e-13 * kappa


@pytest.mark.simd_portable
def test_fast_growing_solutions_are_rescaled():
    # across 64 Haar sites at Im xi = +-20 and 40, or 33 thin coins of
    # transmission 1e-13, the homogeneous solutions grow past the float
    # range; cut by exact powers of 2 every 2^300 of growth bound, every
    # point is answered with a finite kappa_1, as the dense inverse answers,
    # and the cuts change no point's bits
    f = basis_state(0, "L")
    cases = [(random_sequence(np.random.default_rng(64), 64), im) for im in (-20, 20, 40)]
    cases += [(thin_window(np.random.default_rng(32), 32, 1e-13), im) for im in (-0.1, 0.5, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cs, im in cases:
            resid, cond = identity_residual(cs, np.linspace(-3, 3, 7) + 1j * im, f, (-2, cs.n0 + 2))
            assert (resid < 1e-10).all() and np.isfinite(cond).all() and (cond < 1e12).all()
        # the cuts a grid's far points call for leave each point its lone call's bits
        cs, grid = cases[0][0], np.array([0.5j, 0.3 + 40j, -1 - 20j, 2 - 0.6j])
        resid, cond = identity_residual(cs, grid, f, (-2, 66))
        for k, x in enumerate(grid):
            assert (resid[k], cond[k]) == identity_residual(cs, x, f, (-2, 66))


def test_one_refinement_step_keeps_the_identity_where_solutions_grow_fast():
    # at Im xi = -20 the solutions grow by e^{20} a site; the first solve
    # leaves an identity residual of 1.6e-9 on some of these windows, past
    # apply_resolvent's 1e-10, and one refinement step brings it to 1e-33
    f = basis_state(0, "L")
    for seed in range(6):
        cs = random_sequence(np.random.default_rng(seed), 16)
        for xi in np.linspace(-3, 3, 7) - 20j:
            apply_resolvent(cs, xi, f, (-3, 19))


def test_identity_residual_on_an_empty_grid():
    cs = random_sequence(np.random.default_rng(3), 4)
    for shape in ((0,), (0, 3), (2, 0)):
        resid, cond = identity_residual(cs, np.zeros(shape, dtype=complex), basis_state(0, "L"), (-3, 7))
        assert resid.shape == cond.shape == shape
        assert resid.dtype == cond.dtype == float
