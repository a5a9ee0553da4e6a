import math
import warnings

import numpy as np
import pytest

from conftest import (
    hadamard_pair,
    near_identity_window,
    random_sequence,
    thin_pair,
    thin_window,
    triple_barrier,
)
from test_expansion import _bits
from test_transfer import _row_recursion
import qwres.resonances
from qwres import (
    ChainSolveFailed,
    Coin,
    CoinSequence,
    InvariantViolation,
    QWResError,
    RelationCheckFailed,
    Resonance,
    SpectralOverflow,
    TransferPolynomial,
    WaveState,
    basis_state,
    build_K,
    expand,
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
    _resonance_family,
    _spectrum,
    _svd_chain,
    _unit_phase,
    _window_chains,
    _witness,
)
from qwres.transfer import _transfer_entries, _transfer_polynomials
from qwres.walk import _parity_blocks, _parity_eig, _walk

LOG2_HALF = 0.5 * math.log(2.0)


def monic_from_roots(roots):
    return np.poly(np.asarray(roots, dtype=complex))[::-1].astype(complex)


def as_multiset(values):
    return sorted(values, key=lambda z: (round(z.real, 6), round(z.imag, 6)))


def eigen_mu(cs):
    """mu = lambda^2 over K's nonzero eigenvalue pairs, from the parity eigensolve."""
    evals = _parity_eig(*_parity_blocks(cs))
    return evals[: len(evals) // 2 - 1] ** 2


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
    walks = [triple_barrier()] + [random_sequence(rng, n0) for n0 in (2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64)]
    roots = [eigen_mu(cs) for cs in walks]
    roots += [np.array([0.5, 0.5 + 8e-7, 0.5 + 1.6e-6, -0.25j, 0.5, 2.0]), np.array([0.0, 1e-6, 3.0, 3.0 + 3e-6j])]
    for r in roots:
        got, want = _cluster(r, np.zeros(len(r), int)), _cluster_loop(r)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert [len(g) for g in _cluster(roots[-2], np.zeros(6, int))] == [1, 4, 1]


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
    # a zero column, as the lift leaves at a zero mu, keeps its zeros
    cols = np.stack([v, np.zeros(4, dtype=complex)], axis=1)
    np.testing.assert_array_equal(_unit_phase(cols), np.stack([a, cols[:, 1]], axis=1))


def _witness_one(coeffs, x0, m):
    """One mean's Newton step on p^(m-1) by np.polyval and np.polyder, the oracle for _witness."""
    high = coeffs[::-1]
    for _ in range(m - 1):
        high = np.polyder(high)
    q, dq = np.polyval(high, x0), np.polyval(np.polyder(high), x0)
    return x0 - q / dq


def test_witness_is_one_polyval_newton_step(monkeypatch):
    # exact equality: every entry runs the oracle's arithmetic, so stacking
    # the means of one multiplicity must not move a single bit, nor must a
    # family's rows, each p zero-padded to a higher degree; the starts are
    # the cluster means of K's eigenvalues, as find_resonances takes them
    rng = np.random.default_rng(409)
    cases = [(triple_barrier(), None)] + [(random_sequence(rng, n0), n0) for n0 in (2, 8, 16, 32, 45)]
    for cs, n0 in cases:
        coeffs = np.array(transfer_polynomial(cs).coeffs)
        mus = eigen_mu(cs)
        clusters = _cluster(mus, np.zeros(len(mus), int))
        for m in {len(c) for c in clusters}:
            x0 = np.array([np.mean(c) for c in clusters if len(c) == m])
            got = _witness(np.tile(coeffs, (len(x0), 1)), x0, m)
            want = np.array([_witness_one(coeffs, x, m) for x in x0])
            assert got.dtype == complex and got.tobytes() == want.tobytes(), (n0, m)
            rows = np.zeros((len(x0), len(coeffs) + 3), dtype=complex)
            rows[:, : len(coeffs)] = coeffs
            assert _witness(rows, x0, m).tobytes() == got.tobytes(), (n0, m)
    # a zero slope, at 0 on x^2 - 1/4, and a step past the float range, at a
    # subnormal start, have no witness; the entries beside them keep theirs
    coeffs, x0 = np.array([-0.25, 0, 1], dtype=complex), np.array([0, 1e-310, 0.49], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _witness(np.tile(coeffs, (3, 1)), x0, 1)
    assert np.isnan(got[:2]).all() and got[2] == _witness_one(coeffs, x0[2], 1)
    # and find_resonances refuses a cluster without one in the cross-check's
    # words: here q' is made zero at every mean
    real = qwres.resonances._horner

    def flat(rows, x):
        values = real(rows, x)
        values[len(values) // 2 :] = 0
        return values

    monkeypatch.setattr(qwres.resonances, "_horner", flat)
    with pytest.raises(InvariantViolation, match="^no dense eigenvalue within 1.00e-08 of p's witness"):
        find_resonances(random_sequence(np.random.default_rng(4), 4))


@pytest.mark.parametrize("n0", [32, 64])
def test_polish_passes_stay_few(monkeypatch, n0):
    # the witness takes one _horner pass, however many clusters, walks and
    # multiplicities share it: one for each Haar window, whose resonances
    # are simple, and one for a split family of the triple barrier, whose
    # base walk has a double resonance (the name predates the witness)
    calls = []
    real = qwres.resonances._horner
    monkeypatch.setattr(qwres.resonances, "_horner", lambda rows, x: calls.append(1) or real(rows, x))
    rng = np.random.default_rng(n0)
    for _ in range(8):
        # the oracle's coefficients: transfer_polynomial's relation check
        # refuses some windows of this size
        cs = random_sequence(rng, n0)
        p = _row_recursion(cs)[2::2]
        fake = TransferPolynomial(p / p[-1], 1.0)
        monkeypatch.setattr(qwres.resonances, "_transfer_polynomials", lambda walks: [fake])
        calls.clear()
        try:
            find_resonances(cs)
        except InvariantViolation:
            pass  # a strip coordinate refused after the witness
        assert len(calls) == 1, len(calls)
    monkeypatch.setattr(qwres.resonances, "_transfer_polynomials", _transfer_polynomials)
    tb = triple_barrier()
    calls.clear()
    found = _resonance_family([tb] + [perturb(tb, eps, 0.7) for eps in (1e-5, 1e-4)])
    assert {r.alg_multiplicity for rs in found for r in rs} == {1, 2} and len(calls) == 1


@pytest.mark.parametrize("n0", [16, 32, 45, 64])
def test_resonances_are_the_dense_eigenvalues(n0):
    # a returned lambda is a cluster mean of BA's eigenvalues, which p only
    # witnesses, so it stays within 2e-14 relative of eigvals(K): the worst
    # measured is 5.1e-15, 6.0e-15, 7.2e-15 and 7.1e-15 by rung, where
    # Newton-polishing on the monomial p left 4.3e-14, 5.6e-12, 5.5e-12
    # and 1.1e-10; every refusal is the relation check's but one strip
    # coordinate at n0 = 64, where window 2, refused before, now resolves
    rng = np.random.default_rng(n0)
    worst, refused = 0.0, []
    for j in range(12):
        cs = random_sequence(rng, n0)
        try:
            rs = find_resonances(cs)
        except RelationCheckFailed:
            refused.append(j)
            continue
        except InvariantViolation as exc:
            assert "not negative" in str(exc)
            refused.append((j, "strip"))
            continue
        evals = np.linalg.eigvals(build_K(cs))
        worst = max([worst] + [np.min(np.abs(evals - r.lam)) / abs(r.lam) for r in rs])
    assert refused == {16: [], 32: [9], 45: [0, 8], 64: [0, 3, 4, 5, 7, 9, 10, (11, "strip")]}[n0]
    assert worst <= 2e-14, worst


@pytest.mark.parametrize("kind", ["moved 1e-6", "moved 1e-2", "dropped", "extra"])
def test_cross_check_refuses_a_polynomial_that_is_not_K(monkeypatch, kind):
    # a transfer polynomial that disagrees with K's eigenvalues on one root
    # must be refused by find_resonances and by expand, in the words the CI
    # smoke step looks for; the root moved by 1e-2 would pass if the
    # witness were the eigenvalue itself, not p's Newton step from it
    cs = random_sequence(np.random.default_rng(4), 4)
    roots = np.roots(np.array(transfer_polynomial(cs).coeffs)[::-1])
    roots = roots[np.argsort(-np.abs(roots))]
    if kind == "dropped":
        roots = roots[1:]
    elif kind == "extra":
        roots = np.append(roots, 0.5)
    else:
        roots[0] *= 1 + float(kind.split()[1])
    fake = TransferPolynomial(np.poly(roots)[::-1].astype(complex), 1.0)
    monkeypatch.setattr(qwres.resonances, "_transfer_polynomials", lambda walks: [fake])
    refusal = "^(no dense eigenvalue within|dense eigensolve has nonzero eigenvalues)"
    with pytest.raises(InvariantViolation, match=refusal):
        find_resonances(cs)
    with pytest.raises(InvariantViolation, match=refusal):
        expand(cs, basis_state(0, "L"))


def test_cross_check_names_the_cluster_it_refuses(monkeypatch):
    # one array pass reads every member against its own cluster's witness
    # and tolerance: moving the smallest of four simple roots by 1e-2 must
    # name that root's cluster, the eigenvalue at the true p's root, with
    # the simple tolerance 1e-8
    cs = random_sequence(np.random.default_rng(4), 4)
    roots = np.roots(np.array(transfer_polynomial(cs).coeffs)[::-1])
    roots = roots[np.argsort(np.abs(roots))]
    true = roots[0]
    roots[0] *= 1.01
    fake = TransferPolynomial(np.poly(roots)[::-1].astype(complex), 1.0)
    monkeypatch.setattr(qwres.resonances, "_transfer_polynomials", lambda walks: [fake])
    with pytest.raises(InvariantViolation, match="^no dense eigenvalue within 1.00e-08 of") as info:
        find_resonances(cs)
    lam = complex(str(info.value).split("lambda=")[1])
    assert abs(lam**2 - true) < 1e-12


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


def test_a_window_of_256_sites_returns_or_refuses_typed():
    # at the scale the parity blocks written from the coin table reach, a
    # Haar window resolves or raises a QWResError: no ValueError, no
    # LinAlgError and no warning, on the eigen path alone as well
    cs = random_sequence(np.random.default_rng(256), 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rs = find_resonances(cs)
        except QWResError:
            rs = []
        evals = _parity_eig(*_parity_blocks(cs))
    assert len(evals) == 2 * 257 and np.isfinite(evals).all()
    assert evals[:256].tobytes() == (-evals[256:512]).tobytes()
    assert all(abs(r.lam) < 1 for r in rs)


def test_resonances_match_dense_eigenvalues():
    # Re-pair the lambda multiset against nonzero eigenvalues of K by
    # greedy nearest matching; this mirrors the internal cross-check but
    # asserts it from the outside.
    rng = np.random.default_rng(311)
    for _ in range(25):
        cs = random_sequence(rng, int(rng.integers(1, 6)))
        rs = find_resonances(cs)
        evals = np.linalg.eigvals(build_K(cs))
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


def _repro_windows():
    """Windows with simple resonances near Re xi = -pi and +pi."""
    return [random_sequence(np.random.default_rng(269), n0) for n0 in (5, 6, 8)]


def _strip_distance(a, b):
    """|a - b| with Re(a - b) wrapped into [-pi, pi)."""
    d = a - b
    return abs(complex((d.real + math.pi) % (2 * math.pi) - math.pi, d.imag))


def _winding_512(cs, center, rho):
    """The trapezoid rule of winding_count on 512 nodes, its former count."""
    e = np.exp(2j * np.pi * np.arange(512) / 512)
    _, ((t22,), (dt22,)), _ = _transfer_entries(cs, center + rho * e, cols=1, slope=True)
    return complex(rho * np.sum(1j * dt22 / t22 * e) / 512)


@pytest.mark.simd_portable
def test_winding_count_reads_each_multiplicity_to_1e_9():
    # the slope is carried exactly, so the trapezoid rule on 64 nodes
    # leaves only rounding: the largest distance here is 4.8e-15.  On
    # validate_multiplicity's circles every other zero of t22 is at least
    # rho/0.45 away, so the 64-node count is off by about n0 0.45^64, far
    # below rounding: it is the 512-node count to 1e-12, the double
    # resonances of the triple barrier included
    rng = np.random.default_rng(443)
    haar = [random_sequence(rng, n0) for n0 in (2, 3, 4, 6, 8, 11, 16) for _ in range(2)]
    for cs in [triple_barrier(), hadamard_pair(), *_repro_windows(), *haar]:
        rs = find_resonances(cs)
        for r in rs:
            rho = min([0.1] + [0.45 * d for d in (_strip_distance(o.xi, r.xi) for o in rs) if d > 1e-9])
            val, ref = winding_count(cs, r.xi, rho), _winding_512(cs, r.xi, rho)
            assert abs(val - r.alg_multiplicity) < 1e-9
            assert abs(val - ref) < 1e-12
            assert validate_multiplicity(cs, r, others=rs) == round(ref.real) == r.alg_multiplicity
    assert [r.alg_multiplicity for r in find_resonances(triple_barrier())] == [2, 2]


@pytest.mark.simd_portable
def test_winding_count_error_law_at_the_radius_rule():
    # a zero z at distance D outside the circle moves the 64-node count by
    # -(rho/D)^64 / (1 - (rho/D)^64): at D = rho/0.45, the nearest a zero
    # gets on validate_multiplicity's circles, that is 6e-23, and at
    # D = rho/0.9 it is 1.2e-3, read to 1e-9 relative
    for cs in (hadamard_pair(), triple_barrier()):
        for r in find_resonances(cs):
            center = r.xi + 0.2
            assert abs(winding_count(cs, center, 0.45 * 0.2)) < 1e-12
            q = 0.9**64
            assert winding_count(cs, center, 0.9 * 0.2) == pytest.approx(-r.alg_multiplicity * q / (1 - q), rel=1e-9)


def test_validate_multiplicity_sees_images_across_the_strip_edge():
    # t22 is 2 pi-periodic in xi: on these windows a simple resonance near
    # Re xi = -pi has another one near +pi, whose image at Re xi - 2 pi is
    # within 0.1 of it; a circle sized by the plain distance encloses that
    # image and reads 2
    cs = _repro_windows()[0]
    rs = find_resonances(cs)
    low, high = rs[0], rs[-1]
    assert low.xi == pytest.approx(-3.1085 - 0.0614j, abs=1e-4)
    assert high.xi == pytest.approx(3.1327 - 0.0165j, abs=1e-4)
    assert _strip_distance(low.xi, high.xi) == pytest.approx(abs(low.xi + 2 * math.pi - high.xi))
    for cs in _repro_windows():
        rs = find_resonances(cs)
        assert [validate_multiplicity(cs, r, others=rs) for r in rs] == [1] * len(rs)


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
        _window_chains(spec, [lam], [2])
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
        _window_chains(spec, [off], [1])


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
    """Route _window_chains' SVD path through a recorder of (lam, m)."""
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
    return spec, rs, _window_chains(spec, [r.lam for r in rs], [r.alg_multiplicity for r in rs])


@pytest.mark.parametrize("n0", [4, 8, 16, 23])
def test_certified_chains_match_the_svd_path(monkeypatch, n0):
    # Haar windows have simple resonances and a well-conditioned V, so the
    # certificate holds for every chain and none reaches the SVD: each chain
    # is the record's nearest eigenvector, held in the canonical phase.  The
    # certificate bounds the sine of its angle to the exact kernel vector of
    # K - lambda by r / low, and the SVD's vector lies within about
    # 4 dim eps / low of that, so both paths span one kernel.  The n0 = 23
    # window of seed 11301 is kept because its roots, when Newton polished
    # them on p, lay up to 8e-13 from eig's eigenvalues, which made r and
    # the angle largest there
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
            np.testing.assert_array_equal(v, spec.evecs[:, np.argmin(dist)])
            shifted = spec.k - r.lam * np.eye(dim)
            low = np.partition(dist, 1)[1] * spec.inv_cond - spec.delta
            u = _svd_chain(shifted, r.lam, 1)[0]
            sine = np.linalg.norm(v - u * np.vdot(u, v))
            assert sine <= (np.linalg.norm(shifted @ v) + 4 * dim * np.finfo(float).eps) / low


def test_residual_bound_alone_withholds_the_certificate(monkeypatch):
    # 1.5 times the residual bound 0.5e-8 (max_j |lambda_j - lambda| - delta)
    # off a simple eigenvalue of the Hadamard pair, sep / kappa(V) - delta
    # stays near 0.29, far above 4e-8, so only the bound on r withholds the
    # certificate.  K - lambda then has one singular value near 7.5e-9,
    # inside both the rank cut and the relation bound, so the SVD answers
    cs = hadamard_pair()
    spec = _spectrum(cs)
    lam = find_resonances(cs)[0].lam
    dist = np.abs(spec.evals - lam)
    bound = 0.5e-8 * (dist.max() - spec.delta)
    off = lam + 1.5 * bound * lam / abs(lam)
    dist = np.abs(spec.evals - off)
    assert np.partition(dist, 1)[1] * spec.inv_cond - spec.delta > 0.2
    assert spec.resid[np.argmin(dist)] + dist.min() > 0.5e-8 * (dist.max() - spec.delta)
    calls = count_svd_chains(monkeypatch)
    [chain] = _window_chains(spec, [off], [1])
    assert calls == [(off, 1)]
    monkeypatch.undo()
    np.testing.assert_array_equal(chain, _svd_chain(spec.k - off * np.eye(len(spec.k)), off, 1))
    v = spec.evecs[:, np.argmin(dist)]
    assert abs(abs(np.vdot(chain[0], v)) - 1) < 1e-12


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
    # a K of the walk's shape (n0 = 2, coin entries that need not form
    # unitaries) whose parity product BA = diag(0.25, (0.5 + 1e-9)^2): its
    # eigenvalues are +-0.5, +-(0.5 + 1e-9), 0, 0, and V is, up to a
    # permutation, two 2x2 blocks and the two witnesses, well conditioned.  The
    # eigenvector solves K v = 0.5 v to rounding, but K - 0.5 has two
    # singular values below 1e-8, so the certificate must not hold and the
    # SVD's rank test refuses the block
    cs = CoinSequence(
        2,
        (
            Coin(0, 0, 1.0, 0),  # c_0, sending site 0's L to site 1's R
            Coin(0, (0.5 + 1e-9) ** 2, 0.25, 0),  # b_1 and c_1
            Coin(0, 1.0, 0, 0),  # b_2
        ),
    )
    spec = _spectrum(cs)
    k = np.zeros((6, 6), dtype=complex)
    k[3, 0], k[0, 3], k[5, 2], k[2, 5] = 1.0, (0.5 + 1e-9) ** 2, 0.25, 1.0
    np.testing.assert_array_equal(spec.k, k)
    assert spec.inv_cond > 0.1 and spec.delta < 1e-15
    want = [-0.5 - 1e-9, -0.5, 0, 0, 0.5, 0.5 + 1e-9]
    np.testing.assert_allclose(np.sort(spec.evals.real), want, atol=1e-15)
    with pytest.raises(InvariantViolation, match="has dimension 2"):
        _window_chains(spec, [0.5], [1])


def test_each_walk_reads_its_own_spectrum():
    # the record is kept for the last walk only: alternating two walks must
    # hand each its own K and parity eigensolve, and give the chains a fresh
    # record gives; no caller can write into a record
    walks = (random_sequence(np.random.default_rng(3), 5), triple_barrier())
    fresh = []
    for cs in walks:
        _spectrum.cache_clear()
        fresh.append([resonant_chain(cs, r, 3) for r in find_resonances(cs)])
    for _ in range(2):
        for cs, chains in zip(walks, fresh):
            spec = _spectrum(cs)
            np.testing.assert_array_equal(spec.k, build_K(cs))
            evals, evecs = _parity_eig(*_parity_blocks(cs), build_K(cs))
            np.testing.assert_array_equal(spec.evals, evals)
            np.testing.assert_array_equal(spec.evecs, _unit_phase(evecs))
            for a in (spec.k, spec.evals, spec.evecs, spec.resid):
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


def _outcome(call):
    """The bits of the resonances call() lists, or the type and words of what it raised."""
    try:
        return _bits(call())
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.simd_portable
def test_stacked_family_matches_lone_walks_bit_for_bit():
    # a list of walks is rooted in one stacked pass: one polynomial
    # recursion over the stacked coin tables, one relation-check kernel
    # pass, one stacked eigvals, one witness pass per multiplicity; each
    # stage must give every walk the bits of its lone call, where numpy's
    # column-broadcast products stand in for the lone walk's scalar ones,
    # and a family with a refused walk is refused as the walk-by-walk loop
    # is.  Families: the triple barrier's split at five phi, three Haar
    # windows per n0 = 1..32 and n0 = 0; the relation check refuses one or
    # two families near n0 = 30, as the SIMD target rounds its residual
    tb = triple_barrier()
    families = [[tb] + [perturb(tb, eps, phi) for eps in (1e-5, 1e-4, 1e-3)] for phi in (-2.5, -0.4, 0.7, 1.9, 3.0)]
    rng = np.random.default_rng(26)
    families += [[random_sequence(rng, n0) for _ in range(3)] for n0 in [0] + list(range(1, 33))]
    refused = 0
    for walks in families:
        want = _outcome(lambda: [r for cs in walks for r in find_resonances(cs)])
        assert _outcome(lambda: [r for found in _resonance_family(walks) for r in found]) == want
        if isinstance(want[0], type):
            refused += 1
            continue
        for got, cs in zip(_transfer_polynomials(walks), walks):
            lone = transfer_polynomial(cs)
            assert got.coeffs.tobytes() == lone.coeffs.tobytes() and got.leading == lone.leading
        if walks[0].n0:
            for got, cs in zip(_parity_eig(*_parity_blocks(walks)), walks):
                assert got.tobytes() == _parity_eig(*_parity_blocks(cs)).tobytes()
    assert 1 <= refused <= 2, refused
    assert _resonance_family([random_sequence(rng, 0)] * 2) == [[], []]
    with pytest.raises(ValueError, match="share n0"):
        _resonance_family([tb, random_sequence(rng, 3)])


def test_family_names_the_first_walk_to_fail_at_any_stage(monkeypatch):
    # the stacked pass refuses a family at its first failing stage, which
    # need not be the first walk's; the walks are then rooted one at a time,
    # so a walk that fails late (seed 20: a root outside the unit disk;
    # seed 0: a strip coordinate with Im xi >= 0) names the error ahead of a
    # later walk that fails the relation check (seed 1), and the other way
    # round.  A cluster mean of K's eigenvalues stays inside the disk (no
    # Haar window of seeds 0-199 at n0 = 64, 90 or 128 leaves it), so seed
    # 20's eigenvalues, wherever they are solved, are pushed to a largest
    # |lambda| of 1 + 1e-9
    ok, outside, strip, relation = (random_sequence(np.random.default_rng(s), 64) for s in (17, 20, 0, 1))
    real, pushed = qwres.resonances._parity_eig, _parity_blocks(outside)[0]

    def push(a, b):
        evals = real(a, b)
        hit = np.all(a == pushed, axis=(-2, -1))[..., None]
        return np.where(hit, evals * ((1 + 1e-9) / np.abs(evals).max(axis=-1, keepdims=True)), evals)

    monkeypatch.setattr(qwres.resonances, "_parity_eig", push)
    words = {}
    for cs, kind in [(outside, InvariantViolation), (strip, InvariantViolation), (relation, RelationCheckFailed)]:
        with pytest.raises(kind) as caught:
            find_resonances(cs)
        words[cs] = str(caught.value)
    assert "unit disk" in words[outside] and "not negative" in words[strip]
    for walks, first in [
        ([ok, outside, relation], outside),
        ([strip, relation], strip),
        ([relation, strip, outside], relation),
    ]:
        with pytest.raises(QWResError) as caught:
            _resonance_family(walks)
        assert str(caught.value) == words[first]
    assert _bits(_resonance_family([ok, ok])[1]) == _bits(find_resonances(ok))


def test_lone_walk_checks_every_cluster_against_the_disk_before_the_cross_check(monkeypatch):
    # the checks run once over all clusters, in order: the unit disk and
    # the strip cluster by cluster, then the cross-check.  With the
    # lexicographically first cluster moved off p's root inside the disk,
    # the cross-check names that cluster; with the last one also pushed to
    # |lambda| = 1 + 1e-9, the unit disk refuses it first, though a later
    # cluster in the cross-check's order fails before it
    cs = random_sequence(np.random.default_rng(4), 4)
    real, r = qwres.resonances._parity_eig, cs.n0

    def moved(outside):
        def push(a, b):
            evals = real(a, b).copy()
            lam = evals[:r]
            order = np.lexsort(((lam**2).imag, (lam**2).real))
            lam[order[0]] *= 1.01**0.5
            if outside:
                lam[order[-1]] *= (1 + 1e-9) / abs(lam[order[-1]])
            evals[r : 2 * r] = -lam
            return evals

        return push

    monkeypatch.setattr(qwres.resonances, "_parity_eig", moved(False))
    with pytest.raises(InvariantViolation, match="^no dense eigenvalue within 1.00e-08 of p's witness") as caught:
        find_resonances(cs)
    lam = complex(str(caught.value).split("lambda=")[1])
    assert lam.real < 0 and abs(lam.real) < abs(lam.imag)  # the cluster at mu = -0.708 - 0.148i
    monkeypatch.setattr(qwres.resonances, "_parity_eig", moved(True))
    with pytest.raises(InvariantViolation, match="^transfer polynomial root mu=.* lies outside the unit disk$"):
        find_resonances(cs)


@pytest.mark.simd_portable
def test_witness_mixed_multiplicities_match_the_per_m_passes():
    # one pass serves clusters of every multiplicity: each entry's step is
    # the one a pass of its multiplicity alone gives it, and the oracle's,
    # bit for bit; the family rows hold the triple barrier's double root,
    # Haar windows' simple ones and a made-up triple root, zero-padded at
    # the top to one length
    rng = np.random.default_rng(409)
    walks = [triple_barrier(), random_sequence(rng, 8), random_sequence(rng, 16)]
    polys = [np.array(transfer_polynomial(cs).coeffs) for cs in walks]
    polys.append(monic_from_roots([0.3 + 0.1j] * 3 + [-0.5j, 0.2]))
    starts = [[(np.mean(c), len(c)) for c in _cluster(mu, np.zeros(len(mu), int))] for mu in map(eigen_mu, walks)]
    starts.append([(0.3 + 0.1j + 1e-7, 3), (-0.5j + 1e-9, 1), (0.2 - 1e-9j, 1)])
    width = max(map(len, polys)) + 2
    rows, x0, mults = [], [], []
    for coeffs, found in zip(polys, starts):
        for x, m in found:
            rows.append(np.concatenate([coeffs, np.zeros(width - len(coeffs), dtype=complex)]))
            x0.append(x)
            mults.append(m)
    rows, x0, mults = np.array(rows), np.array(x0, dtype=complex), np.array(mults)
    assert set(mults.tolist()) == {1, 2, 3}
    got = _witness(rows, x0, mults)
    for m in (1, 2, 3):
        entries = mults == m
        assert got[entries].tobytes() == _witness(rows[entries], x0[entries], m).tobytes(), m
    want = [_witness_one(row, x, m) for row, x, m in zip(rows, x0, mults.tolist())]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("family", [thin_window, near_identity_window])
def test_thin_and_near_identity_windows_resolve_to_K_or_refuse_typed(family):
    # two windows per n0 = 2-9 and t: each call returns every simple lambda
    # within 1e-13 max(1, |lambda|) of a dense eigenvalue of K and every
    # m-fold one within acceptance 2's max(1e-8, 50 eps^(1/m)) max(1, |lambda|),
    # or refuses with a package error, and leaks no warning; how many of
    # each refuse is a census, not a contract
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    for t in (1e-1, 1e-2, 1e-4, 1e-8, 1e-12):
        for n0 in [n for n in range(2, 10) for _ in range(2)]:
            cs = family(rng, n0, t)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    found = find_resonances(cs)
                except QWResError:
                    continue
            evals = np.linalg.eigvals(build_K(cs))
            for r in found:
                m = r.alg_multiplicity
                tol = 1e-13 if m == 1 else max(1e-8, 50 * eps ** (1 / m))
                assert np.min(np.abs(evals - r.lam)) <= tol * max(1, abs(r.lam))


@pytest.mark.simd_portable
def test_n0_1_width_contract_against_the_abs_a_closed_form():
    # at n0 = 1 the resonance is mu = c_0 b_1 and, for a unitary pair,
    # |mu|^2 = (1 - |a_0|^2)(1 - |a_1|^2): the width 1 - |lambda|^2 =
    # -expm1(2 Im xi) follows from |a| with no cancellation.  Every returned
    # width holds it to 1e-9 relative on Haar pairs and on thin pairs down to
    # t = 1e-3 (widths near 1e-6); a width read off |lambda| carries an error
    # of about eps / width, so thinner pairs are outside the contract
    rng = np.random.default_rng(14)
    pairs = [thin_pair(rng, t) for t in (1e-1, 1e-2, 1e-3) for _ in range(20)]
    pairs += [random_sequence(rng, 1) for _ in range(50)]
    for cs in pairs:
        a0, a1 = abs(cs.coins[0].a), abs(cs.coins[1].a)
        want = -math.expm1((math.log1p(-a0 * a0) + math.log1p(-a1 * a1)) / 2)
        found = find_resonances(cs)
        assert len(found) == 2
        for r in found:
            assert abs(-math.expm1(2 * r.xi.imag) / want - 1) <= 1e-9


def _numpy_scalar_chain(cs, res, N):
    """resonant_chain's amplitudes on [-N, n0 + N], each state a row, extended on numpy complex scalars.

    The window chain is _window_chains', and a window-only walk._walk gives
    what leaves through -1 and n0 + 1; from there each outgoing chirality
    runs w <- (1 / lambda) (w + f) on numpy scalars, f = -phi^{k-1} and
    a float zero for phi^1.
    """
    [chain] = _window_chains(_spectrum(cs), [res.lam], [res.alg_multiplicity])
    m, n0 = len(chain), cs.n0
    amps = np.zeros((m, n0 + 2 * N + 1, 2), dtype=complex)
    amps[:, N : N + n0 + 1] = chain.reshape(m, n0 + 1, 2)
    _, emitted = _walk(cs, 0, amps[:, N : N + n0 + 1])
    for k in range(m):
        prev = amps[k - 1] if k else np.zeros(amps.shape[1:])
        left, right = (slice(N - 1, None, -1), 0, emitted[k, 0, 0]), (slice(N + n0 + 1, None), 1, emitted[k, -1, 1])
        for rows, c, w in (left, right):
            out = []
            for f in -prev[rows, c]:
                w = 1 / res.lam * (w + f)
                out.append(w)
            amps[k, rows, c] = out
    return amps


@pytest.mark.simd_portable
def test_resonant_chain_extension_is_the_numpy_scalar_sweep_bit_for_bit():
    # off the window resonant_chain sweeps on Python complex numbers, whose
    # product is numpy's scalar formula, and reads what leaves the window off
    # its one step of the walk; every state keeps its bits, signed zeros
    # included, on Haar windows, the Hadamard pair, the triple barrier (a
    # chain of two links) and thin windows, whose resonances lie near the
    # unit circle; the thin windows find_resonances refuses are left out
    rng = np.random.default_rng(41)
    walks = [random_sequence(rng, n0) for n0 in range(1, 9) for _ in range(3)]
    walks += [hadamard_pair(), triple_barrier(), thin_pair(rng, 1e-3)]
    walks += [thin_window(rng, n0, t) for n0 in (2, 3, 5, 8) for t in (1e-1, 1e-2, 1e-4)]
    links = []
    for cs in walks:
        try:
            found = find_resonances(cs)
        except InvariantViolation:
            continue
        for res in found:
            got = resonant_chain(cs, res, 30).states
            want = [WaveState(-30, a) for a in _numpy_scalar_chain(cs, res, 30)]
            assert [(s.support_lo, s.amplitudes.tobytes()) for s in got] == [
                (s.support_lo, s.amplitudes.tobytes()) for s in want
            ]
            links.append(len(got))
    assert links.count(2) == 2 and len(links) > 250  # the triple barrier's pair has the two-link chains
