import cmath
import json
import math
import os
import sys
import threading
import time
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
    sequence_to_json,
    step,
)
from qwres import cli, resolvent
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
        # on a grid of many stacks, 1820 points a stack at n0 = 2 on any
        # number of CPUs, only those before the refused point run
        solves.clear()
        grid = xi + 0.5 + np.linspace(0, 1, 4000)
        grid[3000], grid[3100] = xi + 1e-7, at
        with pytest.raises(AtResonance, match="condition number"):
            identity_residual(cs, grid, f, (-3, 5))
        assert 0 < sum(len(a) for a in solves) <= 3000


def test_stacked_window_solves_match_pointwise():
    # at n0 = 32 a stack holds 15 points, so 40 points take three stacks
    # on one CPU and two in each share on more
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


def _forced(monkeypatch, shares):
    """Split every later call's window solves into this many shares."""
    monkeypatch.setattr(resolvent, "_share_count", lambda points, dim: shares)


@pytest.mark.parametrize("points", [75, 300])
@pytest.mark.parametrize("n0", [3, 5, 8, 12, 16])
def test_split_window_solves_are_the_one_share_ones_bit_for_bit(
    monkeypatch, tmp_path, capsys, n0, points
):
    # each system is the same LAPACK call on the same matrix however many
    # shares the grid has; the shares run on distinct threads under the caller's errstate
    rng = np.random.default_rng(n0)
    cs = random_sequence(rng, n0)
    f = random_state(rng, n0, 3)
    xi = np.linspace(-3.1, 3.1, points) + 0.5j
    cfg = tmp_path / "walk.json"
    cfg.write_text(json.dumps(sequence_to_json(cs)))
    grid = f"--xi-grid=-3.1:3.1:{points},0.5"
    argv = ["resolvent-check", "--config", str(cfg), grid, "--window", "4"]
    calls = []
    real = resolvent._stack_solves
    monkeypatch.setattr(
        resolvent,
        "_stack_solves",
        lambda *a: calls.append((threading.get_ident(), np.geterr())) or real(*a),
    )
    got = {}
    for shares in (1, 2, 3):
        _forced(monkeypatch, shares)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resid, cond = identity_residual(cs, xi, f, (-4, n0 + 4))
            assert cli.main(argv) == 0
        assert (len({ident for ident, _ in calls}) > 1) == (shares > 1)
        errs = [err for _, err in calls]
        assert all(err == errs[0] and err["over"] == err["invalid"] == "ignore" for err in errs)
        got[shares] = resid.tobytes(), cond.tobytes(), capsys.readouterr().out
    assert got[1] == got[2] == got[3]


def test_split_refusal_is_the_one_share_one(monkeypatch):
    # a refused point behind a clean share, one ahead of a clean share, and
    # one in each share: the message names the first in grid order, as the
    # one-share call does, and no stack holding a refused point is solved
    cs = triple_barrier()
    xi = find_resonances(cs)[0].xi
    f = basis_state(0, "L")
    solved = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.extend(a[:, 0, 0]) or real(a, b))
    for bad in ([250], [40], [260, 40], [140, 150]):
        grid = xi + 0.5 + np.linspace(0, 1, 300)
        grid[bad] = xi + 1e-7
        refused = set(np.exp(-1j * grid)[bad])  # the systems' diagonal, as K's is zero
        messages = []
        for shares in (1, 2):
            _forced(monkeypatch, shares)
            solved.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(AtResonance, match="condition number") as exc:
                    identity_residual(cs, grid, f, (-3, 5))
            messages.append(str(exc.value))
            assert refused.isdisjoint(solved)
        assert messages[0] == messages[1] and str(complex(grid[min(bad)])) in messages[0]
        # of the two shares [0, 150) and [150, 300), one without a refused
        # point was solved in full
        assert len(solved) == (150 if len({k // 150 for k in bad}) == 1 else 0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_workers(monkeypatch):
    cs = random_sequence(np.random.default_rng(12), 12)
    f = basis_state(0, "L")
    xi = np.linspace(-3, 3, 75) + 0.4j
    _forced(monkeypatch, 2)
    want = identity_residual(cs, xi, f, (-3, 15))[1].tobytes()
    assert resolvent._pool is not None
    with warnings.catch_warnings():
        # Python 3.12 warns on forking a process that runs threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        ok = False
        try:
            fresh = resolvent._pool is None
            ok = fresh and identity_residual(cs, xi, f, (-3, 15))[1].tobytes() == want
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_concurrent_callers_share_the_workers(monkeypatch):
    # more callers than CPUs, each splitting its grid, with the interpreter
    # switching threads often: every caller gets the serial bytes
    monkeypatch.setattr(resolvent, "_pool", None)
    cs = random_sequence(np.random.default_rng(10), 10)
    f = basis_state(0, "L")
    grids = [np.linspace(-3, 3, 60) + (0.3 + 0.1 * k) * 1j for k in range(6)]
    _forced(monkeypatch, 1)
    want = [identity_residual(cs, g, f, (-3, 13))[1].tobytes() for g in grids]
    _forced(monkeypatch, 3)
    got = [None] * len(grids)

    def call(k):
        for _ in range(5):
            got[k] = identity_residual(cs, grids[k], f, (-3, 13))[1].tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(len(grids))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == want
