"""Acceptance gate: the nine headline guarantees, one test each.

Every test prints a single PASS line with the measured worst case, so a
`pytest tests/test_acceptance.py -v -s` run reads as a checklist.  The
tolerances here are the contract; nothing in this file is allowed to
loosen without a matching change to the library's documented behavior.
"""

import math

import numpy as np

from conftest import (
    delta0L,
    hadamard_pair,
    random_sequence,
    random_state,
    triple_barrier,
    window_state,
)
from qwres import (
    PerturbationFamily,
    apply_resolvent,
    build_K,
    decay_fit_full,
    double_barrier_bound,
    double_barrier_closed_form,
    evolve,
    expand,
    find_resonances,
    identity_residual,
    neumann_resolvent,
    norm_defect,
    reconstruct,
    resonant_chain,
    scattering_matrix,
    splitting_experiment,
    splitting_slope,
    survival_norm,
    transfer_polynomial,
    validate_multiplicity,
)

S = 2.0 ** -0.5


def test_acceptance_1_scattering_unitarity():
    """Sigma is unitary on the real axis: 100 random sequences (n0 <= 8),
    10 random real xi each, ||Sigma* Sigma - I|| < 1e-10 and
    ||t|^2 + |r|^2 - 1| < 1e-10 row by row."""
    rng = np.random.default_rng(20240911)
    worst_u = 0.0
    worst_rows = 0.0
    for _ in range(100):
        cs = random_sequence(rng, int(rng.integers(1, 9)))
        for xi in rng.uniform(-math.pi, math.pi, 10):
            sm = scattering_matrix(cs, complex(xi))
            sigma = sm.matrix
            worst_u = max(worst_u, np.linalg.norm(sigma.conj().T @ sigma - np.eye(2)))
            worst_rows = max(
                worst_rows,
                abs(abs(sm.t_minus) ** 2 + abs(sm.r_minus) ** 2 - 1.0),
                abs(abs(sm.t_plus) ** 2 + abs(sm.r_plus) ** 2 - 1.0),
            )
    assert worst_u < 1e-10
    assert worst_rows < 1e-10
    print(
        f"PASS scattering unitarity: max ||S*S-I|| = {worst_u:.2e}, "
        f"max row defect = {worst_rows:.2e} (< 1e-10)"
    )


def test_acceptance_2_triple_characterization():
    """Polynomial roots, dense K eigenvalues, and winding counts agree as
    multisets on 200 random instances; a repeated eigenvalue is only
    determined to ~eps^(1/m) by dense QR, so the pairing tolerance is
    1e-8 for simple ones and widens accordingly for multiple ones.
    Total multiplicity <= 2 n0; the lambda set is closed under negation
    to 1e-10."""
    rng = np.random.default_rng(20240913)
    eps = np.finfo(float).eps
    worst_pair = 0.0
    worst_neg = 0.0
    for _ in range(200):
        n0 = int(rng.integers(1, 9))
        cs = random_sequence(rng, n0)
        rs = find_resonances(cs)
        assert sum(r.alg_multiplicity for r in rs) <= 2 * n0

        evals = np.linalg.eigvals(build_K(cs))
        remaining = list(evals[np.abs(evals) > 1e-6])
        lams = [r.lam for r in rs for _ in range(r.alg_multiplicity)]
        assert len(lams) == len(remaining)
        for r in rs:
            tol = max(1e-8, 50 * eps ** (1.0 / r.alg_multiplicity))
            for _ in range(r.alg_multiplicity):
                j = int(np.argmin([abs(r.lam - e) for e in remaining]))
                d = abs(r.lam - remaining.pop(j))
                assert d < tol
                if r.alg_multiplicity == 1:
                    worst_pair = max(worst_pair, d)

        for r in rs:
            assert validate_multiplicity(cs, r, others=rs) == r.alg_multiplicity
            neg = min(abs(r.lam + s.lam) for s in rs)
            assert neg < 1e-10
            worst_neg = max(worst_neg, neg)
    print(
        f"PASS triple characterization: 200 instances, max simple-pair "
        f"distance = {worst_pair:.2e} (< 1e-8), max negation defect = "
        f"{worst_neg:.2e} (< 1e-10)"
    )


def test_acceptance_3_hadamard_double_barrier():
    """Hadamard pair: resonances lambda = +-2^{-1/2} to 1e-12, and the
    survival norm of delta_0 L equals 2^{-t/2} to 1e-12 for t <= 60.
    Oracle: dense powers of the 4x4 window matrix written out by hand."""
    cs = hadamard_pair()
    rs = find_resonances(cs)
    lams = sorted((r.lam for r in rs), key=lambda z: z.real)
    assert len(lams) == 2
    assert abs(lams[0] - (-S)) < 1e-12 and abs(lams[1] - S) < 1e-12

    # window matrix for two Hadamard coins at sites 0 and 1, rows and
    # columns ordered (0,L), (0,R), (1,L), (1,R)
    k = np.array(
        [
            [0, 0, S, S],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [S, -S, 0, 0],
        ],
        dtype=complex,
    )
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    oracle = []
    for t in range(61):
        oracle.append(np.linalg.norm(v))
        v = k @ v

    got = survival_norm(evolve(delta0L(), cs, 60), 1)
    worst = 0.0
    for t in range(61):
        worst = max(
            worst,
            abs(got[t] - 2.0 ** (-t / 2.0)),
            abs(got[t] - oracle[t]),
        )
    assert worst < 1e-12
    print(
        f"PASS hadamard double barrier: lambda = +-2^(-1/2) to 1e-12, "
        f"max survival deviation from 2^(-t/2) = {worst:.2e} (< 1e-12, t <= 60)"
    )


def test_acceptance_4_triple_barrier():
    """Rotation triple (3/4, 12/13, 1/3): the transfer polynomial is
    (mu + 1/2)^2 with coefficient residual < 1e-10; K - lambda has rank 5
    and (K - lambda)^2 rank 4 on the 6x6 window matrix (singular values
    cut at 1e-6 of the largest); the survival decay fits m = 2 +- 0.05
    and M = 2^{-1/2} +- 1e-3."""
    cs = triple_barrier()
    tp = transfer_polynomial(cs)
    resid = float(np.max(np.abs(tp.coeffs - np.array([0.25, 1.0, 1.0]))))
    assert resid < 1e-10

    k = build_K(cs)
    rs = find_resonances(cs)
    assert sorted(r.alg_multiplicity for r in rs) == [2, 2]
    for r in rs:
        a = k - r.lam * np.eye(6)
        for power, want in ((a, 5), (a @ a, 4)):
            s = np.linalg.svd(power, compute_uv=False)
            assert int(np.sum(s > 1e-6 * s[0])) == want

    # the prefactor oscillates with the parity of t, so the three-term
    # fit needs a long tail before the bias falls inside the band
    s = survival_norm(evolve(delta0L(), cs, 800), 2)
    m_rate, m_order, _ = decay_fit_full(s, 300)
    assert abs(m_order - 2.0) < 0.05
    assert abs(m_rate - S) < 1e-3
    print(
        f"PASS triple barrier: coeff residual = {resid:.2e} (< 1e-10), "
        f"ranks 5/4, fit m = {m_order:.4f} (2 +- 0.05), "
        f"M = {m_rate:.6f} (2^(-1/2) +- 1e-3)"
    )


def test_acceptance_5_resonance_expansion():
    """200 random (coins, finitely supported psi0) with n0 <= 6 and
    nu <= 4: the expansion reconstructs the evolved state on the whole
    window [-(t-nu), t+n0-nu] for every nu + iota0 <= t <= 40 with
    relative error < 1e-9."""
    rng = np.random.default_rng(20240917)
    worst = 0.0
    for _ in range(200):
        n0 = int(rng.integers(1, 7))
        cs = random_sequence(rng, n0)
        psi0 = random_state(rng, n0, int(rng.integers(0, 5)))
        ed = expand(cs, psi0)
        chains = [resonant_chain(cs, b.resonance, 40) for b in ed.blocks]
        traj = evolve(psi0, cs, 40)
        for t in range(ed.nu + ed.zero_part_index, 41):
            lo, hi = -(t - ed.nu), t + n0 - ed.nu
            got = reconstruct(ed, chains, t, (lo, hi))
            true = traj[t].restrict(lo, hi)
            rel = (got - true).norm() / max(true.norm(), 1e-30)
            worst = max(worst, rel)
    assert worst < 1e-9
    print(
        f"PASS resonance expansion: 200 instances, every t in the claimed "
        f"range, max relative error = {worst:.2e} (< 1e-9)"
    )


def test_acceptance_6_double_barrier_closed_form():
    """50 random double barriers with both off-diagonal entries bounded
    away from zero: the closed-form gamma_+- agree with the generic
    expansion coefficients to 1e-10 (compared as window states, so no
    normalization convention enters), and the fitted decay prefactor
    stays within 10% above of the bound constant
    C^2 = |b1| (|b1| + |c0|) (|gamma_+|^2 + |gamma_-|^2)."""
    rng = np.random.default_rng(20240919)
    hits = 0
    worst_gamma = 0.0
    worst_ratio = 0.0
    while hits < 50:
        cs = random_sequence(rng, 1)
        if abs(cs.coins[0].b) < 0.2 or abs(cs.coins[1].b) < 0.2:
            continue
        hits += 1
        psi0 = window_state(rng, 1)
        pair, gamma_of, (phi_p, phi_m) = double_barrier_closed_form(cs)
        g = gamma_of(psi0)

        ed = expand(cs, psi0)
        scale = max(phi_p.norm(), phi_m.norm())
        for res, gamma, phi in ((pair[0], g[0], phi_p), (pair[1], g[1], phi_m)):
            block = min(ed.blocks, key=lambda b: abs(b.resonance.lam - res.lam))
            assert abs(block.resonance.lam - res.lam) < 1e-12
            chain = resonant_chain(cs, block.resonance, 4)
            # the generic route expands psi_nu, the closed form psi_0;
            # they differ by lambda^nu on each block
            got = block.coefficients[0] * chain.states[0].restrict(0, 1)
            want = gamma * res.lam**ed.nu * phi
            d = (got - want).norm() / (abs(gamma) * scale + 1e-30)
            worst_gamma = max(worst_gamma, d)
            assert d < 1e-10

        # prefactor fit with m pinned at 1: both resonances are simple, so
        # the decay law is a clean C M^t and freeing the t^{m-1} factor
        # would only let the parity wiggle of s_t tilt the extrapolation
        s = np.array(survival_norm(evolve(psi0, cs, 40), 1))
        tt = np.arange(10, 41)
        design = np.column_stack([np.ones(len(tt)), tt.astype(float)])
        coef, *_ = np.linalg.lstsq(design, np.log(s[10:41]), rcond=None)
        c_fit = float(np.exp(coef[0]))
        _, _, c_bound = double_barrier_bound(cs, psi0)
        assert c_fit <= 1.1 * c_bound
        worst_ratio = max(worst_ratio, c_fit / c_bound)
    print(
        f"PASS double barrier closed form: 50 instances, max gamma "
        f"mismatch = {worst_gamma:.2e} (< 1e-10), max fitted/bound "
        f"prefactor = {worst_ratio:.3f} (<= 1.1)"
    )


def test_acceptance_7_resolvent_identity():
    """(e^{-i xi} I - U) R(xi) f = f to 1e-10 on 100 random draws with
    e^{-i xi} at distance > 1e-3 from the spectrum of K, and the
    Neumann-series evaluation agrees to 1e-8 whenever Im xi >= 0.5."""
    rng = np.random.default_rng(20240923)
    worst_resid = 0.0
    count = 0
    while count < 100:
        n0 = int(rng.integers(1, 6))
        cs = random_sequence(rng, n0)
        f = random_state(rng, n0, 3)
        xi = complex(rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.5))
        lam = complex(np.exp(-1j * xi))
        evals = np.linalg.eigvals(build_K(cs))
        if min(abs(lam - e) for e in evals) <= 1e-3:
            continue
        count += 1
        window = (-8, n0 + 8)
        resid, _ = identity_residual(cs, xi, f, window)
        worst_resid = max(worst_resid, resid)
        assert resid < 1e-10

    worst_neu = 0.0
    for _ in range(20):
        n0 = int(rng.integers(1, 5))
        cs = random_sequence(rng, n0)
        f = random_state(rng, n0, 2)
        xi = complex(rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 1.5))
        window = (-6, n0 + 6)
        direct = apply_resolvent(cs, xi, f, window)
        series = neumann_resolvent(cs, xi, f, window)
        d = (direct - series).norm() / max(direct.norm(), 1e-30)
        worst_neu = max(worst_neu, d)
        assert d < 1e-8
    print(
        f"PASS resolvent identity: max residual = {worst_resid:.2e} "
        f"(< 1e-10, 100 draws), max Neumann disagreement = {worst_neu:.2e} "
        f"(< 1e-8, Im xi >= 0.5)"
    )


def test_acceptance_8_splitting_exponent():
    """Perturbing the triple barrier splits its double resonance into
    simple ones for eps in {1e-3, 1e-4, 1e-5}, and the log-log slope of
    the gap against eps is 0.500 +- 0.05."""
    pf = PerturbationFamily(triple_barrier(), 0.0, (1e-3, 1e-4, 1e-5))
    rows = splitting_experiment(pf)
    for eps, gap, mults in rows:
        assert mults == (1, 1)
        assert gap > 0
    slope = splitting_slope(rows)
    assert abs(slope - 0.5) < 0.05
    print(
        f"PASS splitting exponent: all perturbed resonances simple, "
        f"slope = {slope:.4f} (0.500 +- 0.05)"
    )


def test_acceptance_9_norm_defect():
    """The norm identity ||Kv||^2 + boundary losses = ||v||^2 holds to
    1e-12 on 1000 random vectors over random coin sequences."""
    rng = np.random.default_rng(20240929)
    worst = 0.0
    for _ in range(1000):
        n0 = int(rng.integers(1, 9))
        cs = random_sequence(rng, n0)
        dim = 2 * (n0 + 1)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        worst = max(worst, norm_defect(cs, v))
    assert worst < 1e-12
    print(f"PASS norm defect: max defect = {worst:.2e} (< 1e-12, 1000 draws)")
