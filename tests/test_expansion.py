import dataclasses
import math
import sys

import numpy as np
import pytest

import qwres.expansion
import qwres.resonances
import qwres.walk

from conftest import hadamard_pair, random_sequence, random_state, triple_barrier
from qwres import (
    A3Violated,
    AllZeroTail,
    CoinSequence,
    UnsupportedN0,
    WindowOutsideCone,
    basis_state,
    build_K,
    decay_fit_full,
    double_barrier_bound,
    double_barrier_closed_form,
    evolve,
    expand,
    find_resonances,
    identity_coin,
    incoming_length,
    nilpotency_index,
    reconstruct,
    resonant_chain,
    rotation_coin,
    survival_norm,
    window_vector,
)

S = 2.0 ** -0.5


def test_nilpotency_index_hadamard():
    assert nilpotency_index(build_K(hadamard_pair()).entries) == 1


def test_nilpotency_index_pure_shift_window():
    # identity coins: K is nilpotent of order 2, no resonances at all
    k = build_K(CoinSequence(1, (identity_coin(), identity_coin()))).entries
    assert nilpotency_index(k) == 2


def test_expand_hadamard_delta():
    cs = hadamard_pair()
    ed = expand(cs, basis_state(0, "L"))
    assert ed.nu == 0
    assert ed.zero_part_index == 1
    assert len(ed.blocks) == 2
    for block in ed.blocks:
        assert len(block.coefficients) == 1
        # basis vectors are unit up to phase, so |coefficient| = 2^{-1/2}
        assert abs(block.coefficients[0]) == pytest.approx(S, abs=1e-12)
    assert np.linalg.norm(ed.zero_coefficients) < 1e-12


def test_expand_counts_incoming_tail():
    cs = hadamard_pair()
    psi0 = basis_state(-2, "R")
    ed = expand(cs, psi0)
    assert ed.nu == incoming_length(psi0, 1) == 3


def test_expand_builds_K_once(monkeypatch):
    # one K and one eig(K) serve the dense cross-check, the chains and the
    # zero block, however many resonances the window has, and then
    # resonant_chain for every block; eigvals, which find_resonances runs,
    # is not called at all
    real = qwres.walk.build_K
    calls = []

    def counting(cs):
        calls.append(cs.n0)
        return real(cs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("qwres") and getattr(mod, "build_K", None) is real:
            monkeypatch.setattr(mod, "build_K", counting)
    for name in ("eig", "eigvals"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, solver=solver, name=name: calls.append(name) or solver(a)
        )
    rng = np.random.default_rng(17)
    haar6 = random_sequence(np.random.default_rng(6), 6)
    for cs in (random_sequence(rng, 2), triple_barrier(), random_sequence(rng, 9), haar6):
        qwres.resonances._spectrum.cache_clear()
        calls.clear()
        ed = expand(cs, basis_state(0, "L"))
        assert len(ed.blocks) >= 2
        assert calls == [cs.n0, "eig"]
        for b in ed.blocks:
            resonant_chain(cs, b.resonance, 10)
        assert calls == [cs.n0, "eig"]


def identity_at_site_0(seed):
    """A Haar window on [0, 3] with the identity coin at site 0, and a state.

    The identity coin gives K a nilpotent block of index 3 beside four
    simple resonances.
    """
    rng = np.random.default_rng(seed)
    cs = random_sequence(rng, 3)
    return CoinSequence(3, (identity_coin(),) + cs.coins[1:]), random_state(rng, 3, 3)


def test_uncertified_chains_fall_back_to_the_svd(monkeypatch):
    # with a nilpotent block of index 3, V is numerically singular and no
    # chain is certified: all four simple resonances take the SVD path, and
    # the expansion still meets its residual and reconstructs
    real = qwres.resonances._svd_chain
    calls = []

    def counting(shifted, lam, m):
        calls.append(m)
        return real(shifted, lam, m)

    monkeypatch.setattr(qwres.resonances, "_svd_chain", counting)
    for seed in range(3):
        cs, psi0 = identity_at_site_0(seed)
        calls.clear()
        ed = expand(cs, psi0)
        assert ed.zero_part_index == 3
        assert calls == [len(b.coefficients) for b in ed.blocks] == [1, 1, 1, 1]
        chains = [resonant_chain(cs, b.resonance, 30) for b in ed.blocks]
        traj = evolve(psi0, cs, 20)
        for t in (ed.nu + 3, 20):
            lo, hi = -(t - ed.nu) + 2, t + 3 - ed.nu - 2
            got = reconstruct(ed, chains, t, (lo, hi))
            true = traj[t].restrict(lo, hi)
            assert (got - true).norm() <= 1e-9 * true.norm()


def test_expand_chains_are_resonant_chain_windows(monkeypatch):
    # reconstruct pairs expand's coefficients with resonant_chain's states,
    # so both must hold the same chain: bit for bit, on certified
    # eigenvectors (Haar windows, the tied entries of the Hadamard pair) and
    # on SVD chains (the triple barrier's Jordan blocks, and the windows
    # with the identity coin at site 0, where no chain is certified)
    cases = [identity_at_site_0(seed) for seed in range(3)]
    cases += [(hadamard_pair(), basis_state(0, "L")), (triple_barrier(), basis_state(0, "L"))]
    for n0 in (4, 8, 16, 23):
        rng = np.random.default_rng(1000 + n0)
        cases.append((random_sequence(rng, n0), random_state(rng, n0, 3)))
    real = qwres.expansion._window_chain
    for cs, psi0 in cases:
        taken = []
        monkeypatch.setattr(
            qwres.expansion, "_window_chain", lambda *a: taken.append(real(*a)) or taken[-1]
        )
        ed = expand(cs, psi0)
        monkeypatch.undo()
        assert [len(c) for c in taken] == [len(b.coefficients) for b in ed.blocks]
        for block, chain in zip(ed.blocks, taken):
            states = resonant_chain(cs, block.resonance, 2).states
            assert len(states) == len(chain)
            for state, row in zip(states, chain):
                assert window_vector(state, cs.n0).tobytes() == row.tobytes()


def test_reconstruct_cone_leaves_out_the_zero_part_emissions():
    # the state at step nu is in the range of K, so K^2 kills its zero part;
    # what that part emits in the two steps before sits on the outermost two
    # sites of the light cone on each side, where the finite sum misses by
    # O(1) and the call is refused
    for seed in range(3):
        cs, psi0 = identity_at_site_0(seed)
        ed = expand(cs, psi0)
        chains = [resonant_chain(cs, b.resonance, 30) for b in ed.blocks]
        traj = evolve(psi0, cs, 20)
        for t in (ed.nu + 3, 20):
            lo, hi = -(t - ed.nu), t + 3 - ed.nu
            with pytest.raises(WindowOutsideCone):
                reconstruct(ed, chains, t, (lo + 1, hi - 2))
            with pytest.raises(WindowOutsideCone):
                reconstruct(ed, chains, t, (lo + 2, hi - 1))
            unguarded = dataclasses.replace(ed, zero_part_index=1)
            wide = reconstruct(unguarded, chains, t, (lo, hi))
            true = traj[t].restrict(lo, hi)
            assert (wide - true).norm() > 0.1 * true.norm()


def test_reconstruct_matches_evolution_hadamard():
    # tied entries in the resonant vectors: expand's chains and
    # resonant_chain's must still share their canonical phase
    cs = hadamard_pair()
    for psi0 in (basis_state(0, "L"), basis_state(-3, "R"), basis_state(1, "R")):
        ed = expand(cs, psi0)
        chains = [resonant_chain(cs, b.resonance, 40) for b in ed.blocks]
        traj = evolve(psi0, cs, 25)
        for t in (ed.nu + 1, 25):
            lo, hi = -(t - ed.nu), t + 1 - ed.nu
            got = reconstruct(ed, chains, t, (lo, hi))
            true = traj[t].restrict(lo, hi)
            assert (got - true).norm() <= 1e-10 * true.norm()


def test_reconstruct_matches_evolution_simple():
    rng = np.random.default_rng(401)
    for _ in range(15):
        n0 = int(rng.integers(1, 5))
        cs = random_sequence(rng, n0)
        psi0 = random_state(rng, n0, 3)
        ed = expand(cs, psi0)
        chains = [resonant_chain(cs, b.resonance, 40) for b in ed.blocks]
        traj = evolve(psi0, cs, 25)
        for t in (ed.nu + ed.zero_part_index, 12, 25):
            if t < ed.nu + ed.zero_part_index:
                continue
            lo, hi = -(t - ed.nu), t + n0 - ed.nu
            got = reconstruct(ed, chains, t, (lo, hi))
            true = traj[t].restrict(lo, hi)
            assert (got - true).norm() <= 1e-9 * max(true.norm(), 1e-30)


def test_reconstruct_matches_evolution_jordan_block():
    # multiplicity-2 resonances exercise the polynomial-in-t weights
    cs = triple_barrier()
    psi0 = basis_state(0, "L")
    ed = expand(cs, psi0)
    chains = [resonant_chain(cs, b.resonance, 40) for b in ed.blocks]
    traj = evolve(psi0, cs, 30)
    for t in (5, 17, 30):
        lo, hi = -t, t + 2
        got = reconstruct(ed, chains, t, (lo, hi))
        true = traj[t].restrict(lo, hi)
        assert (got - true).norm() <= 1e-10 * true.norm()


def test_reconstruct_refuses_outside_cone():
    cs = hadamard_pair()
    ed = expand(cs, basis_state(0, "L"))
    chains = [resonant_chain(cs, b.resonance, 40) for b in ed.blocks]
    with pytest.raises(WindowOutsideCone):
        reconstruct(ed, chains, 0, (0, 1))
    with pytest.raises(WindowOutsideCone):
        reconstruct(ed, chains, 10, (-11, 3))
    with pytest.raises(WindowOutsideCone):
        reconstruct(ed, chains, 10, (0, 12))


def test_reconstruct_needs_wide_enough_chains():
    cs = hadamard_pair()
    ed = expand(cs, basis_state(0, "L"))
    chains = [resonant_chain(cs, b.resonance, 5) for b in ed.blocks]
    with pytest.raises(ValueError):
        reconstruct(ed, chains, 20, (-20, 21))


def test_decay_fit_recovers_synthetic_law():
    t = np.arange(0, 120)
    survival = 3.0 * np.maximum(t, 1) ** 2 * 0.6**t
    M, m, C = decay_fit_full(list(survival), 20)
    assert M == pytest.approx(0.6, abs=1e-9)
    assert m == pytest.approx(3.0, abs=1e-6)
    assert C == pytest.approx(3.0, rel=1e-5)
    M2, m2, _ = decay_fit_full(list(survival), 20)
    assert (M2, m2) == (M, m)


def test_decay_fit_needs_enough_points():
    with pytest.raises(AllZeroTail):
        decay_fit_full([0.0] * 50, 10)
    with pytest.raises(AllZeroTail):
        decay_fit_full([1.0] * 25, 10)


def test_hadamard_survival_fit():
    cs = hadamard_pair()
    traj = evolve(basis_state(0, "L"), cs, 40)
    M, m, C = decay_fit_full(survival_norm(traj, 1), 5)
    assert M == pytest.approx(S, abs=1e-6)
    assert m == pytest.approx(1.0, abs=1e-3)
    assert C == pytest.approx(1.0, abs=1e-3)


def test_double_barrier_closed_form_hadamard():
    cs = hadamard_pair()
    pair, gamma_of, (phi_p, phi_m) = double_barrier_closed_form(cs)
    lam = pair[0].lam
    assert lam == pytest.approx(-S, abs=1e-13)
    g = gamma_of(basis_state(0, "L"))
    # psi_t = gamma_+ lam^t phi_+ + gamma_- (-lam)^t phi_- for t >= 1,
    # checked against the exact evolution
    traj = evolve(basis_state(0, "L"), cs, 12)
    for t in range(1, 13):
        pred = (g[0] * lam**t) * phi_p + (g[1] * (-lam) ** t) * phi_m
        diff = (traj[t].restrict(0, 1) - pred).norm()
        assert diff < 1e-13 * traj[t].restrict(0, 1).norm()


def test_double_barrier_closed_form_frozen_gammas():
    cs = hadamard_pair()
    _, gamma_of, _ = double_barrier_closed_form(cs)
    # delta_0 L: swing = c0/(2 lam^2) = 2^{-1/2}, base = 0
    np.testing.assert_allclose(gamma_of(basis_state(0, "L")), (S, -S), atol=1e-14)
    # delta_1 R: swing = 0, base = b1/(2 b1 lam) = 1/(2 lam)
    half_inv_lam = 1.0 / (2.0 * -S)
    np.testing.assert_allclose(
        gamma_of(basis_state(1, "R")), (half_inv_lam, half_inv_lam), atol=1e-14
    )


def test_double_barrier_gamma_rejects_wide_support():
    _, gamma_of, _ = double_barrier_closed_form(hadamard_pair())
    with pytest.raises(ValueError):
        gamma_of(basis_state(2, "L"))


def test_double_barrier_closed_form_random():
    rng = np.random.default_rng(409)
    hits = 0
    while hits < 20:
        cs = random_sequence(rng, 1)
        if abs(cs.coins[0].b) < 0.2 or abs(cs.coins[1].b) < 0.2:
            continue
        hits += 1
        pair, gamma_of, (phi_p, phi_m) = double_barrier_closed_form(cs)
        lam = pair[0].lam
        psi0 = basis_state(0, "L") if rng.random() < 0.5 else basis_state(1, "R")
        g = gamma_of(psi0)
        traj = evolve(psi0, cs, 10)
        for t in range(1, 11):
            pred = (g[0] * lam**t) * phi_p + (g[1] * (-lam) ** t) * phi_m
            win = traj[t].restrict(0, 1)
            assert (win - pred).norm() < 1e-11 * max(win.norm(), 1e-20)


def test_double_barrier_closed_form_requires_offdiagonal():
    cs = CoinSequence(1, (rotation_coin(0.0), rotation_coin(0.5)))
    with pytest.raises(A3Violated):
        double_barrier_closed_form(cs)


def test_double_barrier_closed_form_requires_n0_1():
    with pytest.raises(UnsupportedN0):
        double_barrier_closed_form(triple_barrier())


def test_double_barrier_bound_hadamard():
    cs = hadamard_pair()
    M, m, C = double_barrier_bound(cs, basis_state(0, "L"))
    assert M == pytest.approx(S, abs=1e-13)
    assert m == 1
    # C^2 = |b1| (|b1| + |c0|) (|gamma_+|^2 + |gamma_-|^2) = 1 exactly here
    assert C == pytest.approx(1.0, abs=1e-12)
    # and the bound really bounds: survival equals 2^{-t/2} = C M^t
    traj = evolve(basis_state(0, "L"), cs, 30)
    for t, s in enumerate(survival_norm(traj, 1)):
        assert s <= C * M**t * (1 + 1e-12)


def test_double_barrier_bound_controls_decay():
    # the resonant states overlap unless |c0| = |b1|, so pointwise the norm
    # can exceed C M^t by the parity cross term; sqrt(2) C M^t always holds
    # (Cauchy-Schwarz over the two-state expansion)
    rng = np.random.default_rng(419)
    hits = 0
    while hits < 15:
        cs = random_sequence(rng, 1)
        if abs(cs.coins[0].b) < 0.2 or abs(cs.coins[1].b) < 0.2:
            continue
        hits += 1
        psi0 = basis_state(0, "L")
        M, m, C = double_barrier_bound(cs, psi0)
        norms = survival_norm(evolve(psi0, cs, 40), 1)
        for t in range(1, 41):
            assert norms[t] <= np.sqrt(2.0) * C * M**t * (1 + 1e-10)


def test_double_barrier_bound_pointwise_when_states_orthogonal():
    # equal rotation parameters give |c0| = |b1|, hence orthogonal states
    # and a clean pointwise bound
    for r in (0.3, 0.6, 0.85):
        cs = CoinSequence(1, (rotation_coin(r), rotation_coin(r)))
        psi0 = basis_state(0, "L")
        M, m, C = double_barrier_bound(cs, psi0)
        norms = survival_norm(evolve(psi0, cs, 40), 1)
        for t in range(1, 41):
            assert norms[t] <= C * M**t * (1 + 1e-10)
