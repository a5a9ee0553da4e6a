import math
import warnings

import numpy as np
import pytest

from conftest import hadamard_pair, random_sequence, triple_barrier
from test_transfer import _row_recursion
import qwres.resonances
from qwres import (
    ChainSolveFailed,
    CoinSequence,
    InvariantViolation,
    RelationCheckFailed,
    Resonance,
    RootFindingDiverged,
    SpectralOverflow,
    aberth_roots,
    basis_state,
    build_K,
    find_resonances,
    identity_coin,
    perturb,
    resonant_chain,
    step,
    strip_pair,
    transfer_polynomial,
    validate_multiplicity,
    winding_count,
)
from qwres.resonances import (
    _cluster,
    _decompose,
    _polish,
    _spectrum,
    _svd_chain,
    _unit_phase,
    _window_chain,
)

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
    # a stack of F polynomials gives F rows of roots
    assert aberth_roots(np.ones((3, 1))).shape == (3, 0)
    np.testing.assert_array_equal(aberth_roots(np.array([[0.25, 1.0], [-2.0, 1.0]])), [[-0.25], [2.0]])


def test_aberth_refuses_a_residual_past_the_float_range():
    # at |x| = 1, x^2 + 1e308 x + 1e308 has a floor 16 eps (1 + 2e308) past
    # the float range, and inf <= inf would pass the start points as roots
    coeffs = np.array([1e308, 1e308, 1.0], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RootFindingDiverged, match="not a finite float"):
            aberth_roots(coeffs)
        # x^73 + 2e4 overflowed from the old start radius 1 + 2e4; from the
        # unit circle it solves, with every root at modulus 2e4^(1/73)
        coeffs = np.zeros(74, dtype=complex)
        coeffs[0], coeffs[-1] = 2e4, 1.0
        roots = aberth_roots(coeffs)
    assert len(roots) == 73
    np.testing.assert_allclose(np.abs(roots), 2e4 ** (1 / 73), rtol=0, atol=2.3e-16)


@pytest.mark.parametrize("n0", [32, 64])
def test_aberth_sweeps_stay_few(monkeypatch, n0):
    # one _horner pass per sweep; from the unit circle the Haar windows
    # settle in 15 sweeps or fewer, where the old start radius 1 + max|c_k|
    # took a median of 50 (n0 = 32) and 128 (n0 = 64)
    calls = []
    real = qwres.resonances._horner
    monkeypatch.setattr(qwres.resonances, "_horner", lambda rows, x: calls.append(1) or real(rows, x))
    rng = np.random.default_rng(n0)
    for _ in range(8):
        # the oracle's coefficients: transfer_polynomial's relation check
        # refuses some windows of this size
        p = _row_recursion(random_sequence(rng, n0))[2::2]
        coeffs = p / p[-1]
        calls.clear()
        roots = aberth_roots(coeffs)
        assert len(roots) == n0 and len(calls) <= 20, len(calls)


def test_aberth_handles_clustered_double_root():
    coeffs = monic_from_roots([0.5, 0.5, -0.3])
    got = np.sort_complex(aberth_roots(coeffs))
    np.testing.assert_allclose(got, [-0.3, 0.5, 0.5], atol=1e-6)


def _cluster_loop(roots):
    """The pairwise loop _cluster vectorises, the oracle for its groups."""
    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    used = np.zeros(len(roots), dtype=bool)
    clusters = []
    for i in range(len(roots)):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for k in range(len(roots)):
                if used[k]:
                    continue
                tol = 1e-6 * max(1.0, abs(roots[j]), abs(roots[k]))
                if abs(roots[j] - roots[k]) <= tol:
                    used[k] = True
                    group.append(k)
                    frontier.append(k)
        clusters.append(roots[group])
    return clusters


def test_cluster_matches_the_pairwise_loop():
    # same groups, same member order, so the cluster means are the same bits;
    # the tight cases chain three roots through a middle one and put two
    # roots at exactly the tolerance apart
    rng = np.random.default_rng(433)
    cases = [np.array(transfer_polynomial(triple_barrier()).coeffs)]
    for n0 in (2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64):
        p = _row_recursion(random_sequence(rng, n0))[2::2]
        cases.append(p / p[-1])
    roots = [aberth_roots(c) for c in cases]
    roots += [np.array([0.5, 0.5 + 8e-7, 0.5 + 1.6e-6, -0.25j, 0.5, 2.0]), np.array([0.0, 1e-6, 3.0, 3.0 + 3e-6j])]
    for r in roots:
        got, want = _cluster(r), _cluster_loop(r)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert [len(g) for g in _cluster(roots[-2])] == [1, 4, 1]


def test_unit_phase_is_tie_stable():
    # two entries of equal modulus: a one-ulp change that makes the second
    # the larger must not move the phase onto it
    top = abs(2.0**-0.5 * np.exp(0.3j))
    v = np.array([0.0, 2.0**-0.5 * np.exp(0.3j), 0.1, -1j * top])
    w = v.copy()
    w[3] = -1j * np.nextafter(top, 1.0)
    assert abs(v[3]) == abs(v[1]) < abs(w[3])
    a, b = _unit_phase(v), _unit_phase(w)
    for phased in (a, b):
        assert phased[1].real > 0 and abs(phased[1].imag) <= 1e-16
    np.testing.assert_allclose(a, b, rtol=0, atol=4e-16)


def _polish_one(coeffs, x0, m):
    """One centroid's Newton loop, the oracle for the batched _polish."""
    high = coeffs[::-1]
    for _ in range(m - 1):
        high = np.polyder(high)
    dhigh = np.polyder(high)
    x = complex(x0)
    last = math.inf
    for _ in range(60):
        q = np.polyval(high, x)
        dq = np.polyval(dhigh, x)
        if dq == 0:
            break
        dx = q / dq
        if not abs(dx) <= last / 2:
            break  # Newton no longer contracts: keep the iterate before this step
        last = abs(dx)
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
            got = _polish(np.tile(coeffs, (len(x0), 1)), x0, m)
            want = np.array([_polish_one(coeffs, x, m) for x in x0])
            assert got.dtype == complex and np.all(got == want), (n0, m)
    # dq == 0 at the first step keeps 0; a move from 0.495 to the root 0.5
    # exceeds 1e-3 (1 + |x0|) and keeps the centroid; Newton from 0.01 on
    # x^2 + 1 stays on the real line, runs away and keeps its centroid
    for coeffs, x0, root in [([-0.25, 0, 1], [0, 0.495, 0.4999], 0.5), ([1, 0, 1], [0.01, 0.9999j], 1j)]:
        coeffs, x0 = np.array(coeffs, dtype=complex), np.array(x0, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _polish(np.tile(coeffs, (len(x0), 1)), x0, 1)
        assert np.all(got == [_polish_one(coeffs, x, 1) for x in x0])
        assert np.all(got[:-1] == x0[:-1]) and abs(got[-1] - root) < 1e-15


@pytest.mark.parametrize("n0", [32, 64])
def test_polish_passes_stay_few(monkeypatch, n0):
    # one _horner pass per Newton step; the halving stop ends an entry once
    # Newton stops contracting, where the 1e-15 (1 + |x|) stop alone ran the
    # stalled roots of 14 of these 16 windows to the 60-step cap
    calls = []
    real = qwres.resonances._horner
    monkeypatch.setattr(qwres.resonances, "_horner", lambda rows, x: calls.append(1) or real(rows, x))
    rng = np.random.default_rng(n0)
    for _ in range(8):
        p = _row_recursion(random_sequence(rng, n0))[2::2]
        coeffs = p / p[-1]
        clusters = _cluster(aberth_roots(coeffs))
        calls.clear()
        for m in {len(c) for c in clusters}:
            x0 = np.array([np.mean(c) for c in clusters if len(c) == m])
            _polish(np.tile(coeffs, (len(x0), 1)), x0, m)
        assert len(calls) <= 8, len(calls)


@pytest.mark.parametrize("n0, bound", [(16, 1.0e-13), (32, 1.4e-11)])
def test_polished_resonances_stay_near_the_dense_eigenvalues(n0, bound):
    # the largest distance from a returned lambda to eigvals(K) on these
    # windows was 5.07e-14 (n0 = 16) and 7.01e-12 (n0 = 32) with the
    # 1e-15 step stop alone; the bound is twice that
    rng = np.random.default_rng(n0)
    worst, refused = 0.0, []
    for j in range(12):
        cs = random_sequence(rng, n0)
        try:
            rs = find_resonances(cs)
        except RelationCheckFailed:
            refused.append(j)
            continue
        evals = np.linalg.eigvals(build_K(cs).entries)
        worst = max([worst] + [np.min(np.abs(evals - r.lam)) for r in rs])
    assert refused == ([] if n0 == 16 else [9])
    assert worst <= bound, worst


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


def test_strip_pair_keeps_a_partner_near_pi_inside_the_strip():
    # the first coin of the Hadamard pair perturbed by eps = 1e-3 along phi = 0
    # gives mu = 0.5003533 + 6.1e-17j: the primary's Re xi lies within half
    # an ulp of 0, so xi + pi rounded onto pi and Resonance refused it
    mu = complex(0.5, 1e-17)
    assert -math.pi <= (1j * np.log(np.sqrt(mu))).real < 0
    first, second = strip_pair(mu, 1)
    assert first.xi.real == -math.pi and second.xi.real == 0.0
    assert first.lam == -second.lam and abs(second.lam**2 - mu) < 1e-15
    rs = find_resonances(perturb(hadamard_pair(), 1e-3, 0.0))
    assert [r.xi.real for r in rs] == [-math.pi, 0.0]
    assert abs(rs[0].mu.imag) > 0 and rs[0].lam == -rs[1].lam


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


def test_winding_count_circle_checks():
    cs = triple_barrier()
    # a negative radius traces the same circle
    val = winding_count(cs, -1.0 - 0.2j, 0.03)
    assert winding_count(cs, -1.0 - 0.2j, -0.03) == pytest.approx(val, abs=1e-12)
    nan, inf = math.nan, math.inf
    for center, rho in [(0.1, 0.0), (0.1, nan), (0.1, inf), (complex(nan, 0), 0.1), (complex(0, inf), 0.1)]:
        with pytest.raises(ValueError, match="finite"):
            winding_count(cs, center, rho)
    with pytest.raises(SpectralOverflow):
        winding_count(cs, 0.1 - 700j, 0.1)


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
    spec = _spectrum(cs)
    k = spec.k
    lam = find_resonances(cs)[0].lam
    # a simple eigenvalue has no second chain vector
    with pytest.raises(ChainSolveFailed, match="chain solve residual .* at chain index 2"):
        _window_chain(spec, lam, 2)
    # slightly off the eigenvalue, the smallest singular value of K - lambda
    # lies between 1e-8 and the rank cut 1e-8 s_max: the kernel is accepted,
    # but (K - lambda) phi^1 = 0 fails its 1e-8 bound; the eigenvector's
    # residual is too large for the certificate, so the SVD path answers
    eye = np.eye(len(k))
    s = np.linalg.svd(k - (lam + 1e-6) * eye, compute_uv=False)
    off = lam + 1e-6 * 1e-8 * (1 + s[0]) / 2 / s[-1]
    s = np.linalg.svd(k - off * eye, compute_uv=False)
    assert 1e-8 < s[-1] < 1e-8 * s[0]
    with pytest.raises(ChainSolveFailed, match="window chain relation residual .* at chain index 1"):
        _window_chain(spec, off, 1)


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
    """Route _window_chain's SVD path through a recorder of (lam, m)."""
    real = qwres.resonances._svd_chain
    calls = []

    def counting(shifted, lam, m):
        calls.append((lam, m))
        return real(shifted, lam, m)

    monkeypatch.setattr(qwres.resonances, "_svd_chain", counting)
    return calls


def window_chains(cs):
    spec = _spectrum(cs)
    rs = find_resonances(cs)
    return spec, rs, [_window_chain(spec, r.lam, r.alg_multiplicity) for r in rs]


@pytest.mark.parametrize("n0", [4, 8, 16, 23])
def test_certified_chains_match_the_svd_path(monkeypatch, n0):
    # Haar windows have simple resonances and a well-conditioned V, so the
    # certificate holds for every chain and none reaches the SVD: each chain
    # is the nearest eigenvector in the canonical phase.  The certificate
    # bounds the sine of its angle to the exact kernel vector of K - lambda
    # by r / low, and the SVD's vector lies within about 4 dim eps / low of
    # that, so both paths span one kernel.  The n0 = 23 window of seed 11301
    # is kept because its polished roots lie up to 8e-13 from eig's
    # eigenvalues, which makes r and the angle largest there
    seeds = [1000 * seed + n0 for seed in range(3)] + ([11301] if n0 == 23 else [])
    for seed in seeds:
        cs = random_sequence(np.random.default_rng(seed), n0)
        calls = count_svd_chains(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            spec, rs, chains = window_chains(cs)
        assert calls == [] and len(chains) == len(rs) == 2 * n0
        monkeypatch.undo()
        dim = len(spec.k)
        for r, chain in zip(rs, chains):
            assert r.alg_multiplicity == 1 and chain.shape == (1, dim)
            dist = np.abs(spec.evals - r.lam)
            v = chain[0]
            np.testing.assert_array_equal(v, _unit_phase(spec.evecs[:, np.argmin(dist)]))
            shifted = spec.k - r.lam * np.eye(dim)
            low = np.partition(dist, 1)[1] * spec.inv_cond - spec.delta
            u = _svd_chain(shifted, r.lam, 1)[0]
            sine = np.linalg.norm(v - u * np.vdot(u, v))
            assert sine <= (np.linalg.norm(shifted @ v) + 4 * dim * np.finfo(float).eps) / low


def test_multiple_resonances_take_the_svd_path(monkeypatch):
    calls = count_svd_chains(monkeypatch)
    spec, rs, chains = window_chains(triple_barrier())
    assert [m for _, m in calls] == [r.alg_multiplicity for r in rs] == [2, 2]
    monkeypatch.undo()
    for r, chain in zip(rs, chains):
        shifted = spec.k - r.lam * np.eye(len(spec.k))
        np.testing.assert_array_equal(chain, _svd_chain(shifted, r.lam, 2))


def test_tied_entries_share_one_chain(monkeypatch):
    # the Hadamard pair's resonant vectors have entries of equal modulus, so
    # which one the canonical phase makes real positive is down to rounding;
    # resonant_chain reads the same certified eigenvector as the window
    # chain, so both make the same entry real positive
    cs = hadamard_pair()
    calls = count_svd_chains(monkeypatch)
    spec, rs, chains = window_chains(cs)
    assert calls == [] and len(rs) == 2
    for r, chain in zip(rs, chains):
        window = resonant_chain(cs, r, 1).states[0].restrict(0, 1)
        np.testing.assert_array_equal(chain[0], window.amplitudes.reshape(-1))
    assert calls == []


def test_close_eigenvalues_are_not_certified():
    # a normal K with eigenvalues 0.5 and 0.5 + 1e-9: V is unitary, the
    # eigenvector solves K v = 0.5 v to rounding, but K - 0.5 has two
    # singular values below 1e-8, so the certificate must not hold and the
    # SVD's rank test refuses the block
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    evals = np.array([0.5, 0.5 + 1e-9, -0.3, 0.2j, -0.6j, 0.0])
    k = (q * evals) @ q.conj().T
    with pytest.raises(InvariantViolation, match="has dimension 2"):
        _window_chain(_decompose(k), 0.5, 1)


def test_each_walk_reads_its_own_spectrum():
    # the record is kept for the last walk only: alternating two walks must
    # hand each its own K and eig(K), and give the chains a fresh record
    # gives; no caller can write into a record
    walks = (random_sequence(np.random.default_rng(3), 5), triple_barrier())
    fresh = []
    for cs in walks:
        _spectrum.cache_clear()
        fresh.append([resonant_chain(cs, r, 3) for r in find_resonances(cs)])
    for _ in range(2):
        for cs, chains in zip(walks, fresh):
            spec = _spectrum(cs)
            np.testing.assert_array_equal(spec.k, build_K(cs).entries)
            evals, evecs = np.linalg.eig(build_K(cs).entries)
            np.testing.assert_array_equal(spec.evals, evals)
            np.testing.assert_array_equal(spec.evecs, evecs)
            for a in (spec.k, spec.evals, spec.evecs):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 1.0
            for before, r in zip(chains, find_resonances(cs)):
                again = resonant_chain(cs, r, 3)
                for x, y in zip(before.states, again.states):
                    np.testing.assert_array_equal(x.amplitudes, y.amplitudes)


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
