import cmath
import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest

import qwres.expansion
import qwres.resonances
import qwres.walk

from conftest import hadamard_pair, random_sequence, random_state, thin_pair, triple_barrier
from qwres import (
    A3Violated,
    AllZeroTail,
    CoinSequence,
    InvariantViolation,
    QWResError,
    SpectralOverflow,
    UnsupportedN0,
    WindowOutsideCone,
    apply_resolvent,
    basis_state,
    build_K,
    decay_fit_full,
    double_barrier_bound,
    double_barrier_closed_form,
    evolve,
    expand,
    find_resonances,
    identity_coin,
    identity_residual,
    incoming_length,
    nilpotency_index,
    reconstruct,
    resonant_chain,
    rotation_coin,
    sequence_to_json,
    survival_norm,
    window_vector,
    WaveState,
)
from qwres.cli import main

S = 2.0 ** -0.5


def test_nilpotency_index_hadamard():
    assert nilpotency_index(build_K(hadamard_pair())) == 1


def test_nilpotency_index_pure_shift_window():
    # identity coins: K is nilpotent of order n0 + 1, no resonances at all;
    # at n0 = 1 the parity product BA is the zero matrix, so two lifted
    # eigenvectors of the spectral record are exactly zero, and expand
    # still runs, with no warning, on the zero block alone
    for n0 in (1, 3):
        cs = CoinSequence(n0, (identity_coin(),) * (n0 + 1))
        assert nilpotency_index(build_K(cs)) == n0 + 1
        for psi0 in (basis_state(0, "L"), basis_state(n0, "R")):
            ed = expand(cs, psi0)
            assert (ed.nu, ed.blocks, ed.zero_part_index) == (0, (), n0 + 1)
            assert np.linalg.norm(ed.zero_coefficients) == 1.0
            traj = evolve(psi0, cs, 8)
            for t in (n0 + 1, 8):
                r = t - n0
                got = reconstruct(ed, [], t, (-r, n0 + r))
                assert got.norm() == traj[t].restrict(-r, n0 + r).norm() == 0.0


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


def test_expansion_residual_check_binds_past_overflow_of_the_squares(monkeypatch):
    # the bound is relative to |x| at every scale: at psi0 = 1e200 the
    # residual's squares overflow, and a plain norm would read inf against
    # an inf bound; below |x| = 1 a bound of 1e-9 max(1, |x|) is absolute
    # and passes any coefficients of a small enough state.  The rescaled,
    # relative check refuses a coefficient off by relative 1e-6 at each
    cs = hadamard_pair()
    real = np.linalg.solve

    def perturbed(a, b):
        coef = real(a, b)
        coef[0] *= 1 + 1e-6
        return coef

    for s in (1e200, 1e-3, 1e-200):
        psi0 = WaveState(0, np.array([[s, 0.0]], dtype=complex))
        ed = expand(cs, psi0)
        for b in ed.blocks:
            assert abs(b.coefficients[0]) == pytest.approx(S * s, rel=1e-12)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "solve", perturbed)
            with pytest.raises(InvariantViolation, match="expansion basis missed the state"):
                expand(cs, psi0)


def test_singular_expansion_basis_is_an_invariant_violation(monkeypatch, capsys, tmp_path):
    # the basis is square by construction; an exactly singular one is
    # refused by name, as a typed error with exit 32, never numpy's own
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(InvariantViolation, match="expansion basis of chains and kernel is singular"):
        expand(hadamard_pair(), basis_state(0, "L"))
    cfg = tmp_path / "hadamard.json"
    cfg.write_text(json.dumps(sequence_to_json(hadamard_pair())))
    assert main(["expand", "--config", str(cfg)]) == 32
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: InvariantViolation: expansion basis")


def test_expansion_at_either_end_of_the_float_range():
    # the system is solved for the window vector scaled by a power of 2 to
    # order one: a psi0 of 5e-324 gets finite coefficients, and one at
    # 1.7e308 whose coefficient leaves the float range is refused by name,
    # where the unscaled solve read nan and leaked numpy's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ed = expand(random_sequence(np.random.default_rng(5), 5), WaveState(2, np.array([[0, 5e-324]])))
        assert all(map(cmath.isfinite, [c for b in ed.blocks for c in b.coefficients]))
        with pytest.raises(SpectralOverflow, match="expansion coefficient leaves the float range"):
            expand(random_sequence(np.random.default_rng(1), 4), WaveState(3, np.array([[1.7e308, 0]])))


def test_expand_builds_K_once(monkeypatch):
    # one K and one eigensolve of its parity product BA, of size
    # 2 floor((n0 + 1) / 2), serve the dense cross-check, the chains and the
    # kernel part, the two edge witnesses the eigensolve appends on these
    # generic windows, however many resonances the window has, and then
    # resonant_chain for every block; eigvals runs only where
    # find_resonances asks for eigenvalues alone, on BA too (as a stack of
    # one); the resolvent, which refuses on its condition number alone,
    # runs no eigensolve, and no eigensolve of K's own size 2 (n0 + 1) runs
    # at all; each call is counted by its matrix size.  A dense K is placed
    # (walk._placed) from one write of the parity blocks, once for the
    # spectral record and never for find_resonances or the resolvent, which
    # solves through the parity blocks; none of them goes through build_K
    calls = []
    for name in ("build_K", "_placed"):
        real = getattr(qwres.walk, name)

        def counting(*args, real=real, name=name):
            k = real(*args)
            calls.append((name, len(getattr(k, "entries", k))))
            return k

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("qwres") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    for name in ("eig", "eigvals"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg,
            name,
            lambda a, solver=solver, name=name: calls.append((name, a.shape[-1])) or solver(a),
        )
    rng = np.random.default_rng(17)
    haar6 = random_sequence(np.random.default_rng(6), 6)
    for cs in (random_sequence(rng, 2), triple_barrier(), random_sequence(rng, 9), haar6):
        half, dim = 2 * ((cs.n0 + 1) // 2), 2 * (cs.n0 + 1)
        qwres.resonances._spectrum.cache_clear()
        calls.clear()
        ed = expand(cs, basis_state(0, "L"))
        assert len(ed.blocks) >= 2
        assert calls == [("_placed", dim), ("eig", half)]
        for b in ed.blocks:
            resonant_chain(cs, b.resonance, 10)
        assert calls == [("_placed", dim), ("eig", half)]
        calls.clear()
        find_resonances(cs)
        assert calls == [("eigvals", half)]
        calls.clear()
        identity_residual(cs, np.linspace(-3, 3, 7) + 0.5j, basis_state(0, "L"), (-2, cs.n0 + 2))
        apply_resolvent(cs, 0.5j, basis_state(0, "L"), (-2, cs.n0 + 2))
        assert calls == []
        calls.clear()
        qwres.walk.build_K(cs)
        assert calls == [("_placed", dim), ("build_K", dim)]


def coefficient_bytes(ed):
    blocks = [b.coefficients for b in ed.blocks]
    return np.array(sum(blocks, ()) + ed.zero_coefficients, dtype=complex).tobytes()


def test_expand_steps_the_window_like_the_light_cone(monkeypatch):
    # expand takes psi_nu off the window walk; its coefficients are bit for
    # bit those from psi_nu on the whole light cone, also from single sites,
    # where the window walk leaves -0 on rows the light cone has not reached
    def light_cone(psi0, cs, T):
        *_, psi = qwres.walk._states(psi0, cs, T)
        # the window rows between the zero edge rows of _window_blocks
        rows = np.zeros((1, cs.n0 + 3, 2), dtype=complex)
        rows[0, 1:-1] = window_vector(psi, cs.n0).reshape(-1, 2)
        yield rows

    cases = [(hadamard_pair(), basis_state(-2, "R")), (triple_barrier(), basis_state(5, "L"))]
    for n0 in (3, 6):
        rng = np.random.default_rng(2000 + n0)
        cases.append((random_sequence(rng, n0), random_state(rng, n0, 3)))
        cases.append((random_sequence(rng, n0), basis_state(-4, "R")))
    for cs, psi0 in cases:
        got = expand(cs, psi0)
        with monkeypatch.context() as m:
            m.setattr(qwres.expansion, "_window_blocks", light_cone)
            want = expand(cs, psi0)
        assert got.nu == want.nu > 0
        assert coefficient_bytes(got) == coefficient_bytes(want)


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


def test_generic_kernel_part_is_the_edge_witnesses(monkeypatch):
    # where the resonances' total multiplicity is dim - 2, K's zero eigenvalue
    # has algebraic multiplicity 2 and the two edge witnesses span its
    # kernel: expand takes iota = 1 and that basis, with no SVD of K; its
    # coefficients are those of the SVD's kernel basis within 1e-12 of the
    # largest.  The triple barrier's double resonances leave dim - 2 too;
    # a nilpotent block (iota = 3) or a pure shift still takes the SVD
    real = qwres.expansion._zero_block
    calls = []
    monkeypatch.setattr(qwres.expansion, "_zero_block", lambda k: calls.append(len(k)) or real(k))
    windows = []
    for n0 in (*range(1, 9), 16, 32):
        rng = np.random.default_rng(n0)
        windows.append((random_sequence(rng, n0), random_state(rng, n0, 3)))
    windows.append((triple_barrier(), random_state(np.random.default_rng(0), 2, 3)))
    for cs, psi0 in windows:
        ed = expand(cs, psi0)
        assert calls == [] and ed.nu > 0 and ed.zero_part_index == 1
        spec = qwres.resonances._spectrum(cs)
        iota, (_, _, vh) = real(spec.k)
        calls.clear()
        lams, mults = zip(*((b.resonance.lam, b.resonance.alg_multiplicity) for b in ed.blocks))
        cols = [v for chain in qwres.resonances._window_chains(spec, lams, mults) for v in chain]
        kernel = vh[::-1][:2].conj()  # the SVD path's kernel basis, one vector a row
        x = window_vector(evolve(psi0, cs, ed.nu)[-1], cs.n0)
        want = np.linalg.solve(np.column_stack(cols + list(kernel)), x)
        got = np.array(sum((b.coefficients for b in ed.blocks), ()))
        scale = np.abs(want).max()
        assert iota == 1 and len(got) == len(cols)
        assert np.abs(got - want[:-2]).max() <= 1e-12 * scale
        zero_part = spec.evecs[:, -2:] @ np.array(ed.zero_coefficients)
        assert np.abs(zero_part - want[-2:] @ kernel).max() <= 1e-12 * scale
    shift = CoinSequence(3, (identity_coin(),) * 4), basis_state(0, "L")
    for (cs, psi0), index in ((identity_at_site_0(0), 3), (shift, 4)):
        ed = expand(cs, psi0)
        assert calls == [2 * (cs.n0 + 1)] and ed.zero_part_index == index
        calls.clear()


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
    # expand takes every chain from one batched call, certified or not
    real = qwres.expansion._window_chains
    for cs, psi0 in cases:
        taken = []
        monkeypatch.setattr(
            qwres.expansion, "_window_chains", lambda *a: taken.extend(real(*a)) or taken
        )
        ed = expand(cs, psi0)
        monkeypatch.undo()
        assert [len(c) for c in taken] == [len(b.coefficients) for b in ed.blocks]
        for block, chain in zip(ed.blocks, taken):
            states = resonant_chain(cs, block.resonance, 2).states
            assert len(states) == len(chain)
            for state, row in zip(states, chain):
                assert window_vector(state, cs.n0).tobytes() == row.tobytes()


def _bits(resonances):
    """A resonance list as bytes, so that -0.0 and 0.0 differ."""
    values = np.array([(r.xi, r.lam, r.mu) for r in resonances], dtype=complex)
    return values.tobytes(), [r.alg_multiplicity for r in resonances]


def test_expand_carries_find_resonances_bit_for_bit():
    # expand takes K's eigenvalues from the eigensolve with eigenvectors,
    # find_resonances from the values-only one; the same eigenvalues
    # witnessed on the same polynomial give the blocks the same bits, and a
    # window one refuses the other refuses in the same words
    rng = np.random.default_rng(59)
    walks = [triple_barrier(), hadamard_pair()]
    walks += [random_sequence(rng, n0) for n0 in range(1, 33) for _ in range(2)]
    outcomes = []
    for cs in walks:
        try:
            want = _bits(find_resonances(cs))
        except QWResError as exc:
            with pytest.raises(type(exc)) as caught:
                expand(cs, basis_state(0, "L"))
            assert str(caught.value) == str(exc)
            outcomes.append(type(exc).__name__)
            continue
        ed = expand(cs, basis_state(0, "L"))
        assert _bits([b.resonance for b in ed.blocks]) == want
        outcomes.append("ok")
    assert outcomes.count("ok") >= 60, outcomes


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


def test_reconstruct_pairs_each_block_with_its_own_chain():
    # chains[i] is the chain of ed.blocks[i]; a list out of block order, a
    # chain short or a chain long is refused, naming the block it fails at
    cs = hadamard_pair()
    ed = expand(cs, basis_state(0, "L"))
    chains = [resonant_chain(cs, b.resonance, 40) for b in ed.blocks]
    assert len(chains) == 2
    t = 20
    window = (-(t - ed.nu), t + 1 - ed.nu)
    reconstruct(ed, chains, t, window)
    with pytest.raises(ValueError, match=r"chains\[0\] is not the chain of block 0 \(resonance at xi="):
        reconstruct(ed, chains[::-1], t, window)
    with pytest.raises(ValueError, match=r"block 1 \(resonance at xi=.*\) has no chain: 1 chains for 2 blocks"):
        reconstruct(ed, chains[:1], t, window)
    with pytest.raises(ValueError, match=r"chains\[2\] has no block: 3 chains for 2 blocks"):
        reconstruct(ed, chains + chains[:1], t, window)


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


def test_double_barrier_closed_form_takes_its_width_from_abs_a():
    # for this thin pair the width 1 - |lambda|^2 is 1.3e-15; read off the
    # rounded mu = c_0 b_1 it came out 0.1 off, taken from |a_0| and |a_1|
    # it holds to 1e-13.  Below a width of about 2e-16, |lambda| rounds to 1
    # and the strip invariant refuses the pair, as find_resonances does
    cs = thin_pair(np.random.default_rng(2), 3e-8)
    a0, a1 = abs(cs.coins[0].a), abs(cs.coins[1].a)
    want = -math.expm1((math.log1p(-a0 * a0) + math.log1p(-a1 * a1)) / 2)
    assert 1e-15 < want < 2e-15
    pair, _, _ = double_barrier_closed_form(cs)
    for r in pair:
        assert abs(-math.expm1(2 * r.xi.imag) / want - 1) <= 1e-13
    with pytest.raises(InvariantViolation):
        double_barrier_closed_form(thin_pair(np.random.default_rng(0), 5e-9))


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


def _wavestate_sum(ed, chains, t, window):
    """reconstruct's sum as a sum of WaveStates: each sigma * chain state cut to the window, trimmed, added in."""
    lo, hi = window
    total = np.zeros((hi - lo + 1, 2), dtype=complex)
    j = t - ed.nu
    for block, ch in zip(ed.blocks, chains):
        lam, coef = block.resonance.lam, block.coefficients
        m = len(coef)
        for ell in range(1, m + 1):
            sigma = 0j
            for s in range(m - ell + 1):
                b = math.comb(j, s) if s <= j else 0
                if b:
                    sigma += b * lam ** (j - s) * coef[ell - 1 + s]
            if sigma != 0:
                st = sigma * ch.states[ell - 1].restrict(lo, hi)
                if not st.is_zero():
                    total[st.support_lo - lo : st.support_hi - lo + 1] += st.amplitudes
    return WaveState(lo, total)


@pytest.mark.simd_portable
def test_reconstruct_is_the_wavestate_sum_bit_for_bit():
    # reconstruct adds each chain state's rows times sigma straight into the
    # window; the WaveState sum trims the zero rows at the ends of every cut
    # state and product first, which add only +-0 to a window that never
    # holds -0.  Windows from the whole cone down to one site, cutting the
    # chain states anywhere, on Haar windows, the Hadamard pair and the
    # triple barrier, whose chain has two links
    rng = np.random.default_rng(43)
    walks = [random_sequence(rng, n0) for n0 in range(1, 9) for _ in range(2)]
    walks += [hadamard_pair(), triple_barrier()]
    cases = 0
    for cs in walks:
        for psi0 in (random_state(rng, cs.n0, 2), basis_state(0, "L") + 0.5 * basis_state(-2, "R")):
            ed = expand(cs, psi0)
            chains = [resonant_chain(cs, b.resonance, 25) for b in ed.blocks]
            for t in (ed.nu + ed.zero_part_index, 12, 25):
                reach = t - ed.nu - (ed.zero_part_index - 1)
                for lo, hi in ((-reach, cs.n0 + reach), (0, cs.n0), (-reach, -1), (2, 2), (-3, cs.n0 + 1)):
                    lo, hi = max(lo, -reach), min(hi, cs.n0 + reach)
                    got = reconstruct(ed, chains, t, (lo, hi))
                    want = _wavestate_sum(ed, chains, t, (lo, hi))
                    assert got.support_lo == want.support_lo
                    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
                    cases += 1
    assert cases == len(walks) * 2 * 3 * 5
