import cmath
import math
import warnings

import numpy as np
import pytest

from conftest import hadamard_pair, random_sequence, random_state, triple_barrier
from qwres import (
    AtResonance,
    SpectralOverflow,
    WaveState,
    apply_resolvent,
    basis_state,
    find_resonances,
    identity_residual,
    neumann_resolvent,
    step,
)
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


def test_refusal_names_the_first_bad_point_in_grid_order(monkeypatch):
    # 1e-7 off the triple barrier's double resonance the window system is
    # singular to 1.5e14 while e^(-i xi) stays 7e-8 from the eigenvalues,
    # so the condition test refuses it.  The eigensolve of K's parity
    # product, which the resolvent reads, splits the double eigenvalue by
    # about 1e-8; on one of the split values the distance test refuses
    # first.  Whichever comes first on the grid is named, and no window
    # system is solved
    cs = triple_barrier()
    xi = find_resonances(cs)[0].xi
    evals = _parity_eig(*_parity_blocks(cs))
    at = 1j * np.log(evals[np.argmin(np.abs(evals - np.exp(-1j * xi)))])
    solves = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a) or real(a, b))
    f = basis_state(0, "L")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AtResonance, match=r"condition number 1\.\d+e\+14"):
            identity_residual(cs, np.array([xi + 0.5, xi + 1e-7, at]), f, (-3, 5))
        with pytest.raises(AtResonance, match="within 1e-10 of an eigenvalue"):
            identity_residual(cs, np.array([xi + 0.5, at, xi + 1e-7]), f, (-3, 5))
        assert solves == []
        resid, cond = identity_residual(cs, np.array([xi + 0.5, xi - 0.5]), f, (-3, 5))
        assert len(solves) == 1 and (resid < 1e-10).all() and (cond < 1e12).all()
        # on a grid of many stacks, only those before the refused point run
        solves.clear()
        grid = xi + 0.5 + np.linspace(0, 1, 300)
        grid[250], grid[260] = xi + 1e-7, at
        with pytest.raises(AtResonance, match="condition number"):
            identity_residual(cs, grid, f, (-3, 5))
        assert 0 < sum(len(a) for a in solves) <= 250


def test_stacked_window_solves_match_pointwise():
    # at n0 = 16 a stack holds three points, so ten points take four stacks
    rng = np.random.default_rng(29)
    cs = random_sequence(rng, 16)
    f = random_state(rng, 16, 3)
    xi = np.linspace(-3, 3, 10) + 1j * np.linspace(-0.5, 0.8, 10)
    resid, cond = identity_residual(cs, xi, f, (-4, 20))
    for k, x in enumerate(xi):
        assert (resid[k], cond[k]) == identity_residual(cs, x, f, (-4, 20))


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
