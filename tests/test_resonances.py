import math
import warnings

import numpy as np
import pytest

from conftest import hadamard_pair, random_sequence, triple_barrier
import qwres.resonances
from qwres import (
    ChainSolveFailed,
    CoinSequence,
    InvariantViolation,
    Resonance,
    RootFindingDiverged,
    SpectralOverflow,
    aberth_roots,
    basis_state,
    build_K,
    find_resonances,
    identity_coin,
    resonant_chain,
    step,
    strip_pair,
    transfer_polynomial,
    validate_multiplicity,
    winding_count,
)
from qwres.resonances import _cluster, _polish, _window_chain, _window_chains

LOG2_HALF = 0.5 * math.log(2.0)


def monic_from_roots(roots):
    return np.poly(np.asarray(roots, dtype=complex))[::-1].astype(complex)


def as_multiset(values):
    return sorted(values, key=lambda z: (round(z.real, 6), round(z.imag, 6)))


def test_aberth_recovers_scattered_roots():
    roots = [0.3, -0.7 + 0.2j, 1.5j, -2.0, 0.9 - 1.1j]
    got = np.sort_complex(aberth_roots(monic_from_roots(roots)))
    want = np.sort_complex(np.array(roots, dtype=complex))
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_aberth_degree_edge_cases():
    assert aberth_roots(np.array([1.0])).size == 0
    np.testing.assert_allclose(aberth_roots(np.array([0.25 + 0j, 1.0])), [-0.25], atol=0)


def test_aberth_refuses_a_residual_past_the_float_range():
    # x^73 + 2e4 has its roots at modulus 2e4^(1/73) = 1.145, but at the
    # start radius 1 + 2e4 both |p| and its floor overflow, and inf <= inf
    # once returned the start points as roots
    coeffs = np.zeros(74, dtype=complex)
    coeffs[0], coeffs[-1] = 2e4, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RootFindingDiverged, match="not a finite float"):
            aberth_roots(coeffs)


def test_aberth_handles_clustered_double_root():
    coeffs = monic_from_roots([0.5, 0.5, -0.3])
    got = np.sort_complex(aberth_roots(coeffs))
    np.testing.assert_allclose(got, [-0.3, 0.5, 0.5], atol=1e-6)


def _polish_one(coeffs, x0, m):
    """One centroid's Newton loop, the oracle for the batched _polish."""
    high = coeffs[::-1]
    for _ in range(m - 1):
        high = np.polyder(high)
    dhigh = np.polyder(high)
    x = complex(x0)
    for _ in range(60):
        q = np.polyval(high, x)
        dq = np.polyval(dhigh, x)
        if dq == 0:
            break
        dx = q / dq
        x -= dx
        if abs(dx) <= 1e-15 * (1 + abs(x)):
            break
    if abs(x - x0) > 1e-3 * (1 + abs(x0)):
        return complex(x0)
    return x


def test_batched_polish_matches_the_scalar_loop():
    # exact equality: every entry runs the oracle's own arithmetic and
    # stop tests, so batching must not move a single bit
    rng = np.random.default_rng(409)
    cases = [(triple_barrier(), None)] + [(random_sequence(rng, n0), n0) for n0 in (2, 8, 16, 32, 45)]
    for cs, n0 in cases:
        coeffs = np.array(transfer_polynomial(cs).coeffs)
        clusters = _cluster(aberth_roots(coeffs))
        for m in {len(c) for c in clusters}:
            x0 = np.array([np.mean(c) for c in clusters if len(c) == m])
            got = _polish(coeffs, x0, m)
            want = np.array([_polish_one(coeffs, x, m) for x in x0])
            assert got.dtype == complex and np.all(got == want), (n0, m)
    # dq == 0 at the first step keeps 0; a move from 0.495 to the root 0.5
    # exceeds 1e-3 (1 + |x0|) and keeps the centroid; Newton from 0.01 on
    # x^2 + 1 stays on the real line, runs away and keeps its centroid
    for coeffs, x0, root in [([-0.25, 0, 1], [0, 0.495, 0.4999], 0.5), ([1, 0, 1], [0.01, 0.9999j], 1j)]:
        coeffs, x0 = np.array(coeffs, dtype=complex), np.array(x0, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _polish(coeffs, x0, 1)
        assert np.all(got == [_polish_one(coeffs, x, 1) for x in x0])
        assert np.all(got[:-1] == x0[:-1]) and abs(got[-1] - root) < 1e-15


def test_strip_pair_layout():
    rng = np.random.default_rng(307)
    for _ in range(50):
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.7
        if not 1e-3 < abs(mu) < 0.95:
            continue
        first, second = strip_pair(mu, 1)
        assert -math.pi <= first.xi.real < 0.0
        assert first.xi.imag < 0.0
        assert second.xi.real == pytest.approx(first.xi.real + math.pi)
        assert abs(second.lam + first.lam) < 1e-14
        assert abs(first.lam**2 - mu) < 1e-12
        assert abs(second.mu - mu) < 1e-14


def test_resonance_invariants_enforced():
    with pytest.raises(InvariantViolation):
        Resonance(xi=-0.5 + 0.1j, lam=0.5, mu=0.25, alg_multiplicity=1)  # Im >= 0
    with pytest.raises(InvariantViolation):
        Resonance(xi=-0.5 - 0.2j, lam=0.5, mu=0.3, alg_multiplicity=1)  # mu != lam^2
    with pytest.raises(InvariantViolation):
        Resonance(
            xi=-1j * math.log(2.0), lam=0.5, mu=0.25, alg_multiplicity=0
        )  # multiplicity < 1


def test_hadamard_resonances_frozen():
    rs = find_resonances(hadamard_pair())
    assert len(rs) == 2
    assert [r.alg_multiplicity for r in rs] == [1, 1]
    # sorted by real part: the -pi representative carries lambda = -2^{-1/2}
    np.testing.assert_allclose(rs[0].xi, -math.pi - 1j * LOG2_HALF, atol=1e-13)
    np.testing.assert_allclose(rs[1].xi, -1j * LOG2_HALF, atol=1e-13)
    np.testing.assert_allclose(rs[0].lam, -(2.0**-0.5), atol=1e-13)
    np.testing.assert_allclose(rs[1].lam, 2.0**-0.5, atol=1e-13)
    np.testing.assert_allclose([r.mu for r in rs], [0.5, 0.5], atol=1e-13)


def test_triple_barrier_resonances_frozen():
    rs = find_resonances(triple_barrier())
    assert len(rs) == 2
    assert [r.alg_multiplicity for r in rs] == [2, 2]
    np.testing.assert_allclose([r.mu for r in rs], [-0.5, -0.5], atol=1e-12)
    lams = as_multiset([r.lam for r in rs])
    want = as_multiset([1j * 2.0**-0.5, -1j * 2.0**-0.5])
    np.testing.assert_allclose(lams, want, atol=1e-12)


def test_no_resonances_without_a_window():
    assert find_resonances(CoinSequence(0, (identity_coin(),))) == []
    assert find_resonances(CoinSequence(1, (identity_coin(), identity_coin()))) == []


def test_resonances_match_dense_eigenvalues():
    # Re-pair the lambda multiset against nonzero eigenvalues of K by
    # greedy nearest matching; this mirrors the internal cross-check but
    # asserts it from the outside.
    rng = np.random.default_rng(311)
    for _ in range(25):
        cs = random_sequence(rng, int(rng.integers(1, 6)))
        rs = find_resonances(cs)
        evals = np.linalg.eigvals(build_K(cs).entries)
        evals = list(evals[np.abs(evals) > 1e-6])
        lams = [r.lam for r in rs for _ in range(r.alg_multiplicity)]
        assert len(lams) == len(evals)
        for lam in lams:
            j = int(np.argmin([abs(lam - e) for e in evals]))
            assert abs(lam - evals.pop(j)) < 1e-8
        total = sum(r.alg_multiplicity for r in rs)
        assert total <= 2 * cs.n0
        # negation closure
        for r in rs:
            assert min(abs(r.lam + s.lam) for s in rs) < 1e-10


def test_resonances_are_roots_of_the_polynomial():
    rng = np.random.default_rng(313)
    for _ in range(10):
        cs = random_sequence(rng, int(rng.integers(1, 7)))
        tp = transfer_polynomial(cs)
        for r in find_resonances(cs):
            assert abs(tp(r.mu)) < 1e-9
            assert abs(r.mu) < 1.0 + 1e-12


def test_winding_count_reads_multiplicity():
    cs = triple_barrier()
    rs = find_resonances(cs)
    for r in rs:
        val = winding_count(cs, r.xi, 0.05)
        assert abs(val - 2.0) < 1e-6
        assert validate_multiplicity(cs, r, others=rs) == 2


def test_winding_simple_roots():
    rng = np.random.default_rng(317)
    cs = random_sequence(rng, 3)
    rs = find_resonances(cs)
    for r in rs:
        assert validate_multiplicity(cs, r, others=rs) == r.alg_multiplicity


def test_winding_empty_circle():
    cs = hadamard_pair()
    # a small circle around a non-resonant point counts zero
    val = winding_count(cs, -1.0 - 0.2j, 0.03)
    assert abs(val) < 1e-6


def test_resonant_chain_simple_eigenvector():
    cs = hadamard_pair()
    rs = find_resonances(cs)
    chain = resonant_chain(cs, rs[1], 12)
    assert len(chain.states) == 1
    phi = chain.states[0]
    # eigen-relation on a window safely inside the computed radius
    resid = (step(phi, cs) - rs[1].lam * phi).restrict(-8, 9)
    assert resid.norm() < 1e-10 * phi.restrict(-8, 9).norm()
    # outgoing boundary rows: no incoming amplitude at the window edges
    assert abs(phi.amplitude(0)[1]) < 1e-12
    assert abs(phi.amplitude(1)[0]) < 1e-12
    # phi^1 has a unit-norm window restriction
    assert phi.restrict(0, cs.n0).norm() == pytest.approx(1.0)


def test_resonant_chain_outward_growth():
    cs = hadamard_pair()
    r = find_resonances(cs)[1]
    phi = resonant_chain(cs, r, 20).states[0]
    # outside the window the state gains a factor 1/|lambda| per site
    left = [abs(phi.amplitude(-k)[0]) for k in range(3, 16)]
    ratios = [left[i + 1] / left[i] for i in range(len(left) - 1)]
    np.testing.assert_allclose(ratios, [2.0**0.5] * len(ratios), rtol=1e-10)


def test_resonant_chain_jordan_relation():
    cs = triple_barrier()
    rs = find_resonances(cs)
    chain = resonant_chain(cs, rs[0], 15)
    assert len(chain.states) == 2
    lam = rs[0].lam
    phi1, phi2 = chain.states
    r1 = (step(phi1, cs) - lam * phi1).restrict(-10, 12)
    assert r1.norm() < 1e-9 * phi1.restrict(-10, 12).norm()
    r2 = ((step(phi2, cs) - lam * phi2) - phi1).restrict(-10, 12)
    assert r2.norm() < 1e-9 * phi2.restrict(-10, 12).norm()


def test_window_chain_refuses_broken_links():
    cs = hadamard_pair()
    k = build_K(cs).entries
    lam = find_resonances(cs)[0].lam
    # a simple eigenvalue has no second chain vector
    with pytest.raises(ChainSolveFailed, match="chain solve residual .* at chain index 2"):
        _window_chain(k, lam, 2)
    # slightly off the eigenvalue, the smallest singular value of K - lambda
    # lies between 1e-8 and the rank cut 1e-8 s_max: the kernel is accepted,
    # but (K - lambda) phi^1 = 0 fails its 1e-8 bound
    eye = np.eye(len(k))
    s = np.linalg.svd(k - (lam + 1e-6) * eye, compute_uv=False)
    off = lam + 1e-6 * 1e-8 * (1 + s[0]) / 2 / s[-1]
    s = np.linalg.svd(k - off * eye, compute_uv=False)
    assert 1e-8 < s[-1] < 1e-8 * s[0]
    with pytest.raises(ChainSolveFailed, match="window chain relation residual .* at chain index 1"):
        _window_chain(k, off, 1)


def test_resonant_chain_rejects_bad_radius():
    cs = hadamard_pair()
    r = find_resonances(cs)[0]
    with pytest.raises(ValueError):
        resonant_chain(cs, r, 0)


def test_resonant_state_escapes_l2():
    # |lambda| < 1 forces the resonant state to grow outward, so truncated
    # norms must increase with the truncation radius
    cs = triple_barrier()
    r = find_resonances(cs)[0]
    phi = resonant_chain(cs, r, 25).states[0]
    norms = [phi.restrict(-k, 2 + k).norm() for k in (5, 10, 15, 20)]
    assert norms == sorted(norms)
    assert norms[-1] / norms[0] > 10.0


def count_svd_chains(monkeypatch):
    """Route _window_chains' SVD fallback through a recorder of (lam, m)."""
    real = qwres.resonances._window_chain
    calls = []

    def counting(kentries, lam, m):
        calls.append((lam, m))
        return real(kentries, lam, m)

    monkeypatch.setattr(qwres.resonances, "_window_chain", counting)
    return calls


def eig_chains(cs):
    k = build_K(cs).entries
    rs = find_resonances(cs)
    evals, evecs = np.linalg.eig(k)
    return k, rs, _window_chains(k, rs, evals, evecs)


@pytest.mark.parametrize("n0", [4, 8, 16, 23])
def test_certified_chains_match_the_svd_path(monkeypatch, n0):
    # Haar windows have simple resonances and a well-conditioned V, so the
    # certificate holds for every chain and none reaches the SVD; formed
    # from eig(K), each equals _window_chain's to 1e-12 in the same phase.
    # On the n0 = 23 window of seed 11301 the polished roots lie up to
    # 8e-13 from eig's eigenvalues, which tilts the SVD's vectors up to
    # 2e-11 off the eigenvectors; _kernel_rows follows the tilt
    seeds = [1000 * seed + n0 for seed in range(3)] + ([11301] if n0 == 23 else [])
    for seed in seeds:
        cs = random_sequence(np.random.default_rng(seed), n0)
        calls = count_svd_chains(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            k, rs, chains = eig_chains(cs)
        assert calls == [] and len(chains) == len(rs) == 2 * n0
        monkeypatch.undo()
        for r, chain in zip(rs, chains):
            assert r.alg_multiplicity == 1 and chain.shape == (1, len(k))
            assert np.linalg.norm(chain - _window_chain(k, r.lam, 1)) <= 1e-12


def test_multiple_resonances_take_the_svd_path(monkeypatch):
    calls = count_svd_chains(monkeypatch)
    k, rs, chains = eig_chains(triple_barrier())
    assert [m for _, m in calls] == [r.alg_multiplicity for r in rs] == [2, 2]
    for r, chain in zip(rs, chains):
        np.testing.assert_array_equal(chain, _window_chain(k, r.lam, 2))


def test_tied_entries_take_the_svd_path(monkeypatch):
    # the Hadamard pair's resonant vectors have entries of equal modulus, so
    # which one the canonical phase makes real positive is down to rounding;
    # those chains come from the SVD, as resonant_chain's do
    cs = hadamard_pair()
    calls = count_svd_chains(monkeypatch)
    k, rs, chains = eig_chains(cs)
    assert len(calls) == len(rs) == 2
    for r, chain in zip(rs, chains):
        window = resonant_chain(cs, r, 1).states[0].restrict(0, 1)
        np.testing.assert_array_equal(chain[0], window.amplitudes.reshape(-1))


def test_close_eigenvalues_are_not_certified():
    # a normal K with eigenvalues 0.5 and 0.5 + 1e-9: V is unitary, the
    # eigenvector solves K v = 0.5 v to rounding, but K - 0.5 has two
    # singular values below 1e-8, so the certificate must not hold and the
    # SVD's rank test refuses the block
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    evals = np.array([0.5, 0.5 + 1e-9, -0.3, 0.2j, -0.6j, 0.0])
    k = (q * evals) @ q.conj().T
    ev, vecs = np.linalg.eig(k)
    r = Resonance(1j * math.log(0.5), 0.5, 0.25, 1)
    with pytest.raises(InvariantViolation, match="has dimension 2"):
        _window_chains(k, [r], ev, vecs)


def smallest_resonance_of_seed_5():
    cs = random_sequence(np.random.default_rng(5), 4)
    return cs, min(find_resonances(cs), key=lambda r: abs(r.lam))


def test_resonant_chain_checks_links_past_1e154(monkeypatch):
    # at N = 2000 the amplitudes reach |lambda|^-N ~ 2e187 (|lambda| = 0.806),
    # whose squares overflow: the relation check must still see finite
    # residuals and scales, and no overflow warning may leave the library
    cs, r = smallest_resonance_of_seed_5()
    real = qwres.resonances._check_links
    seen = []

    def recording(errs, scales, what):
        seen.append((what, errs, scales))
        return real(errs, scales, what)

    monkeypatch.setattr(qwres.resonances, "_check_links", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        chain = resonant_chain(cs, r, 2000)
    amps = chain.states[0].amplitudes
    assert 1e180 < np.max(np.abs(amps)) < 1e200
    what, errs, scales = seen[-1]
    assert what == "chain relation"
    assert np.isfinite(errs).all() and np.isfinite(scales).all()
    assert (errs <= 1e-8 * scales).all()


def test_resonant_chain_refuses_states_past_the_float_range():
    cs, r = smallest_resonance_of_seed_5()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SpectralOverflow):
            resonant_chain(cs, r, 4000)
