import re
import warnings

import numpy as np
import pytest

from conftest import (
    haar_coin,
    hadamard_pair,
    random_sequence,
    random_state,
    triple_barrier,
    window_state,
)
from qwres import (
    Coin,
    CoinSequence,
    QWResError,
    SpectralOverflow,
    UnsupportedN0,
    WaveState,
    basis_state,
    build_K,
    evolve,
    find_resonances,
    hadamard_coin,
    identity_coin,
    incoming_length,
    kernel_witnesses,
    norm_defect,
    rotation_coin,
    step,
    survival_norm,
)
from qwres.states import _norms
from qwres.walk import (
    BLOCK,
    _checked_norm,
    _parity_blocks,
    _parity_eig,
    _states,
    _walk,
    _window_blocks,
    _window_survival,
)

S = 2.0 ** -0.5


def dense_step_matrix(cs, m):
    """One-step operator on sites [-m, m] as a dense matrix (oracle).

    Rows near the boundary miss their neighbors, so only compare states
    whose image stays inside [-m + 1, m - 1].
    """
    dim = 2 * (2 * m + 1)
    u = np.zeros((dim, dim), dtype=complex)
    for n in range(-m, m + 1):
        i = 2 * (n + m)
        if n + 1 <= m:
            up = cs.coin_at(n + 1)
            u[i, i + 2] = up.a
            u[i, i + 3] = up.b
        if n - 1 >= -m:
            uq = cs.coin_at(n - 1)
            u[i + 1, i - 2] = uq.c
            u[i + 1, i - 1] = uq.d
    return u


def test_step_matches_dense_matrix():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n0 = int(rng.integers(0, 4))
        cs = random_sequence(rng, n0)
        psi = random_state(rng, n0, 4)
        m = max(abs(psi.support_lo), abs(psi.support_hi)) + 2
        vec = np.zeros(2 * (2 * m + 1), dtype=complex)
        for n in range(-m, m + 1):
            vec[2 * (n + m) : 2 * (n + m) + 2] = psi.amplitude(n)
        out_vec = dense_step_matrix(cs, m) @ vec
        got = step(psi, cs)
        for n in range(-m + 1, m):
            np.testing.assert_allclose(
                got.amplitude(n), out_vec[2 * (n + m) : 2 * (n + m) + 2], atol=1e-14
            )


def test_step_is_a_shift_outside_the_window():
    cs = CoinSequence(0, (identity_coin(),))
    assert (step(basis_state(-3, "L"), cs) - basis_state(-4, "L")).norm() == 0.0
    assert (step(basis_state(3, "R"), cs) - basis_state(4, "R")).norm() == 0.0


def test_step_preserves_norm():
    rng = np.random.default_rng(43)
    for _ in range(20):
        cs = random_sequence(rng, int(rng.integers(0, 5)))
        psi = random_state(rng, cs.n0, 4)
        assert step(psi, cs).norm() == pytest.approx(psi.norm(), abs=1e-13)


def test_step_linear():
    rng = np.random.default_rng(47)
    cs = random_sequence(rng, 2)
    a = random_state(rng, 2, 3)
    b = random_state(rng, 2, 3)
    lhs = step(a + (1 - 2j) * b, cs)
    rhs = step(a, cs) + (1 - 2j) * step(b, cs)
    assert (lhs - rhs).norm() < 1e-14


def test_hadamard_pair_first_two_steps_by_hand():
    cs = hadamard_pair()
    t1 = step(basis_state(0, "L"), cs)
    np.testing.assert_allclose(t1.amplitude(-1), [S, 0.0], atol=1e-15)
    np.testing.assert_allclose(t1.amplitude(1), [0.0, S], atol=1e-15)
    t2 = step(t1, cs)
    np.testing.assert_allclose(t2.amplitude(-2), [S, 0.0], atol=1e-15)
    np.testing.assert_allclose(t2.amplitude(0), [0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(t2.amplitude(2), [0.0, -0.5], atol=1e-15)


def test_evolve_returns_inclusive_trajectory():
    cs = hadamard_pair()
    psi0 = basis_state(0, "L")
    traj = evolve(psi0, cs, 5)
    assert len(traj) == 6
    assert traj[0] is psi0
    assert (traj[2] - step(step(psi0, cs), cs)).norm() == 0.0
    with pytest.raises(ValueError):
        evolve(psi0, cs, -1)


def test_build_K_hadamard_entries():
    k = build_K(hadamard_pair())
    expected = np.array(
        [
            [0, 0, S, S],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [S, -S, 0, 0],
        ]
    )
    np.testing.assert_allclose(k, expected, atol=1e-15)
    assert not k.flags.writeable


def coin_ladder(seed, count, kinds=("haar", "rotation", "hadamard", "identity")):
    """count windows with n0 = 1 .. 64 in turn, each site's coin of a kind drawn from kinds.

    Rotation parameters are drawn from (-0.99, 0.99), never exactly 0, so
    no coin entry is -0.
    """
    rng = np.random.default_rng(seed)
    make = {
        "haar": lambda: haar_coin(rng),
        "rotation": lambda: rotation_coin(float(rng.uniform(-0.99, 0.99))),
        "hadamard": hadamard_coin,
        "identity": identity_coin,
    }
    for i in range(count):
        n0 = 1 + i % 64
        draws = rng.integers(len(kinds), size=n0 + 1)
        yield CoinSequence(n0, tuple(make[kinds[k]]() for k in draws))


def test_build_K_is_the_window_block_of_the_step_bit_for_bit():
    # K holds the coin entries themselves and +0 elsewhere; the sign of a
    # zero steers the reflections inside eigvals, so compare bits
    cases = [random_sequence(np.random.default_rng(73), n0) for n0 in range(1, 7)]
    for cs in cases + list(coin_ladder(73, 128)):
        m = cs.n0 + 1
        window = slice(2 * m, 2 * (m + cs.n0 + 1))
        block = np.ascontiguousarray(dense_step_matrix(cs, m)[window, window])
        k = build_K(cs)
        assert np.array_equal(k.view(np.int64), block.view(np.int64))


def test_parity_blocks_are_the_slices_of_build_K_bit_for_bit():
    # the coin-table writer of A and B is what find_resonances, the spectral
    # record and the resolvent read; its blocks and their product BA must be
    # those of K, sliced as the even sites first make K = [[0, A], [B, 0]]
    for cs in list(coin_ladder(83, 128)) + [hadamard_pair(), triple_barrier()]:
        a, b = _parity_blocks(cs)
        n = cs.n0 + 1
        k4 = build_K(cs).reshape(n, 2, n, 2)
        ka = k4[0::2, :, 1::2].reshape(-1, n // 2 * 2)
        kb = k4[1::2, :, 0::2].reshape(n // 2 * 2, -1)
        assert a.shape == ka.shape and b.shape == kb.shape
        assert a.tobytes() == ka.tobytes() and b.tobytes() == kb.tobytes()
        assert (b @ a).tobytes() == (kb @ ka).tobytes()


def test_K_zeros_are_positive_where_the_coins_hold_negative_zeros():
    # rotation_coin(0.0) has c = -0.0, and a coin may carry -0 imaginary
    # parts; K and its parity blocks hold +0 there, whose sign the
    # reflections inside eigvals read
    signed = Coin(complex(0.6, -0.0), complex(-0.8, -0.0), 0.8 + 0j, complex(0.6, -0.0))
    cs = CoinSequence(3, (rotation_coin(0.0), signed, rotation_coin(0.0), signed))
    assert np.signbit(cs.table.view(float)[cs.table.view(float) == 0]).any()
    for x in (build_K(cs), *_parity_blocks(cs)):
        parts = x.view(float)
        assert not np.signbit(parts[parts == 0]).any()


def test_build_K_requires_positive_n0():
    with pytest.raises(UnsupportedN0):
        build_K(CoinSequence(0, (identity_coin(),)))


def test_K_agrees_with_step_on_window_interior():
    # K is the compression of the step: applying it to the window vector of
    # a window-supported state matches the stepped state inside [0, n0].
    rng = np.random.default_rng(53)
    for _ in range(10):
        n0 = int(rng.integers(1, 6))
        cs = random_sequence(rng, n0)
        psi = window_state(rng, n0)
        from qwres import window_vector

        kv = build_K(cs) @ window_vector(psi, n0)
        inside = step(psi, cs).restrict(0, n0)
        assert (WaveState(0, kv.reshape(-1, 2)) - inside).norm() < 1e-14


def test_K_is_a_contraction():
    rng = np.random.default_rng(59)
    for _ in range(20):
        cs = random_sequence(rng, int(rng.integers(1, 7)))
        k = build_K(cs)
        assert np.linalg.norm(k, 2) <= 1.0 + 1e-12


def test_norm_check_is_exact():
    # distinct sites write distinct rows of K, so |K|_2 is the largest norm
    # of a site's coin rows kept in the window.  Half the windows scale each
    # coin by a factor in (0.3, 1) and the rows that leave the window by up
    # to 3, so the largest block is neither 1 nor an edge row
    rng = np.random.default_rng(79)
    eps = np.finfo(float).eps
    for i, cs in enumerate(coin_ladder(79, 1024, ("haar", "rotation", "hadamard"))):
        m = cs.table.reshape(-1, 2, 2) * rng.uniform(0.3, 1.0, (cs.n0 + 1, 1, 1)) ** (i % 2)
        m[0, 0] *= rng.uniform(1.0, 3.0) ** (i % 2)
        m[-1, 1] *= rng.uniform(1.0, 3.0) ** (i % 2)
        cs = CoinSequence(cs.n0, tuple(Coin(*site) for site in m.reshape(-1, 4).tolist()))
        n = cs.n0 + 1
        window = slice(2 * n, 2 * (n + n))
        exact = np.linalg.norm(dense_step_matrix(cs, n)[window, window], 2)
        m[0, 0] = m[-1, 1] = 0
        assert abs(_checked_norm(m) - exact) <= 4 * eps * exact


def test_norm_check_refuses_unvalidated_coins_as_the_svd_did():
    base = random_sequence(np.random.default_rng(5), 4).coins
    u0, u, un = base[0], base[2], base[4]

    def with_coin(site, coin):
        return CoinSequence(4, base[:site] + (coin,) + base[site + 1 :])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a coin that is not a contraction inside the window: both paths
        # refuse, the norm printed in three digits however large
        for cs, top in [
            (with_coin(2, Coin(*(1.01 * x for x in (u.a, u.b, u.c, u.d)))), "1.010e+00"),
            (with_coin(2, Coin(1e200, 1e200, 0, 1)), "1.414e+200"),
        ]:
            for call in (build_K, find_resonances):
                with pytest.raises(ValueError, match=re.escape(f"K has operator norm {top} > 1")):
                    call(cs)
        # a defect only in a row that leaves the window is not in K
        for cs in (
            with_coin(0, Coin(5 * u0.a, 5 * u0.b, u0.c, u0.d)),
            with_coin(0, Coin(u0.a, complex("nan"), u0.c, u0.d)),
            with_coin(4, Coin(un.a, un.b, 5 * un.c, 5 * un.d)),
        ):
            window = slice(10, 20)
            block = np.ascontiguousarray(dense_step_matrix(cs, 5)[window, window])
            assert build_K(cs).tobytes() == block.tobytes()
            try:
                find_resonances(cs)
            except QWResError:
                pass
        # a non-finite entry in the window is refused with a ValueError
        for bad in (complex("nan"), complex("inf")):
            cs = with_coin(2, Coin(u.a, bad, u.c, u.d))
            with pytest.raises(ValueError, match="K has non-finite entries"):
                build_K(cs)
            with pytest.raises((ValueError, QWResError)):
                find_resonances(cs)


def test_kernel_witnesses_annihilated():
    rng = np.random.default_rng(61)
    cs = random_sequence(rng, 3)
    k = build_K(cs)
    v0, vn = kernel_witnesses(cs)
    assert np.linalg.norm(k @ v0) < 1e-14
    assert np.linalg.norm(k @ vn) < 1e-14
    assert np.linalg.norm(v0) > 0.9 and np.linalg.norm(vn) > 0.9


def parity_cases():
    """Haar windows on a ladder of n0, the Hadamard pair and the triple barrier."""
    ladder = [*range(1, 13), 16, 32, 64, 128]
    haar = [random_sequence(np.random.default_rng(n0), n0) for n0 in ladder]
    return haar + [hadamard_pair(), triple_barrier()]


def test_K_is_bipartite_by_site_parity():
    # every amplitude moves by one site, so K's same-parity entries are
    # exactly +0 and K = [[0, A], [B, 0]] with the even sites first
    for cs in parity_cases():
        n = cs.n0 + 1
        k4 = build_K(cs).reshape(n, 2, n, 2)
        for same in (k4[0::2, :, 0::2], k4[1::2, :, 1::2]):
            assert not same.view(np.int64).any()


def test_parity_eigenvalues_are_the_dense_ones_in_exact_pairs():
    # the eigenvalues of K from its parity product BA come as exact
    # +-lambda pairs and two zeros, and match eigvals(K) as multisets
    # within the dense cross-check's tolerance: max(1e-8, 50 eps^(1/m))
    # max(1, |lambda|) at an m-fold eigenvalue, 1e-6 on the zero group
    eps = np.finfo(float).eps
    for cs in parity_cases():
        k = build_K(cs)
        block = _parity_eig(*_parity_blocks(cs))
        r = (len(block) - 2) // 2
        assert block.tobytes()[: 16 * r] == (-block[r : 2 * r]).tobytes()
        assert not block[2 * r :].view(np.int64).any()
        mults = {}
        if cs.n0 <= 32:
            for res in find_resonances(cs):
                mults[res.lam] = res.alg_multiplicity
        unused = list(block)
        for e in sorted(np.linalg.eigvals(k), key=abs, reverse=True):
            i = int(np.argmin([abs(x - e) for x in unused]))
            if abs(e) <= 1e-6:
                assert abs(unused[i]) <= 1e-6
            else:
                m = mults[min(mults, key=lambda lam: abs(lam - e))] if mults else 1
                assert abs(unused[i] - e) <= max(1e-8, 50 * eps ** (1 / m)) * max(1, abs(e))
            unused.pop(i)


def test_survival_norm_equals_K_power_norms():
    rng = np.random.default_rng(67)
    cs = random_sequence(rng, 2)
    psi = window_state(rng, 2)
    traj = evolve(psi, cs, 30)
    norms = survival_norm(traj, 2)
    from qwres import window_vector

    v = window_vector(psi, 2)
    k = build_K(cs)
    for t in range(31):
        assert norms[t] == pytest.approx(np.linalg.norm(np.linalg.matrix_power(k, t) @ v), abs=1e-12)


def test_survival_norm_past_the_float_range_names_t():
    # every amplitude is finite, but a window norm is not: 1e308 L at sites
    # 0-3 has norm 2e308 at t = 0; 1e308 L at sites 1-3 (norm 1.73e308) and
    # an incoming 1e308 R at site -1 reach 1.87e308 at t = 1.  survival_norm
    # refuses both as survival and evolve do, in place of returning inf
    cs = CoinSequence(3, (hadamard_coin(),) * 4)
    on_window = WaveState(0, np.tile([1e308, 0.0], (4, 1)))
    incoming = np.zeros((5, 2))
    incoming[0, 1] = incoming[2:, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for psi, t in ((on_window, 0), (WaveState(-1, incoming), 1)):
            with pytest.raises(SpectralOverflow, match=rf"^the window norm leaves the float range at t={t}$"):
                survival_norm(evolve(psi, cs, 3), 3)


def test_norm_defect_small_on_random_vectors():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n0 = int(rng.integers(1, 7))
        cs = random_sequence(rng, n0)
        v = rng.normal(size=2 * (n0 + 1)) + 1j * rng.normal(size=2 * (n0 + 1))
        v /= np.linalg.norm(v)
        assert norm_defect(cs, v) < 1e-13


def test_norm_defect_is_the_dense_identity():
    # the walk step's K v is K's: the defect matches |v|^2 - |K v|^2 - |emitted|^2
    # formed with the dense K, on Haar windows n0 = 1..16
    rng = np.random.default_rng(72)
    for n0 in range(1, 17):
        for _ in range(10):
            cs = random_sequence(rng, n0)
            v = rng.normal(size=2 * (n0 + 1)) + 1j * rng.normal(size=2 * (n0 + 1))
            left, right = cs.coins[0].a * v[0] + cs.coins[0].b * v[1], cs.coins[n0].c * v[-2] + cs.coins[n0].d * v[-1]
            dense = abs(np.vdot(v, v).real - np.linalg.norm(build_K(cs) @ v) ** 2 - abs(left) ** 2 - abs(right) ** 2)
            assert abs(norm_defect(cs, v) - dense) <= 1e-14 * np.vdot(v, v).real


def _two_sided_state(rng, n0):
    """Random state with incoming R at -2, incoming L at n0 + 3, outgoing L at -4."""
    amp = rng.normal(size=(n0 + 8, 2)) + 1j * rng.normal(size=(n0 + 8, 2))
    amp[:4] = 0
    amp[-3:] = 0
    amp[0, 0] = rng.normal() + 1j * rng.normal()
    amp[2, 1] = rng.normal() + 1j * rng.normal()
    amp[-1, 0] = rng.normal() + 1j * rng.normal()
    return WaveState(-4, amp)


def _window_states(psi0, cs, T):
    """The rows of _window_blocks as states on [0, n0], one per step, each
    with its edge amplitudes: the L at -1 and the R at n0 + 1."""
    blocks = _window_blocks(psi0, cs, T)
    return [(WaveState(0, row[1:-1]), row[0, 0], row[-1, 1]) for rows in blocks for row in rows]


def _restricted_states(psi0, cs, T):
    """psi_t = step^t psi0 on [0, n0], one per step, each with its L at -1 and R at n0 + 1.

    Each psi_t is cut to [min(-1, lo0), max(n0 + 1, hi0)] over psi0's
    support lo0..hi0 before the next step, so a step costs O(n0 + hi0 - lo0)
    instead of O(t).  The cut keeps every incoming amplitude and both edge
    sites, and an L left of -1 or an R right of n0 + 1 only moves away, so
    no window bit changes; an edge zero can read +0 where the uncut
    trajectory holds -0, as an all-zero row at the cut is trimmed.
    """
    n0 = cs.n0
    lo, hi = min(-1, psi0.support_lo), max(n0 + 1, psi0.support_hi)
    states = [psi0]
    for _ in range(T):
        states.append(step(states[-1], cs).restrict(lo, hi))
    return [(psi.restrict(0, n0), psi.amplitude(-1)[0], psi.amplitude(n0 + 1)[1]) for psi in states]


def _assert_same_stream(got, want):
    """Window rows bit for bit; edge amplitudes bit for bit where the stepped
    trajectory's are nonzero, and zero (of either sign) where they are zero."""
    assert len(got) == len(want)
    for (a, a_l, a_r), (b, b_l, b_r) in zip(got, want):
        assert a.support_lo == b.support_lo
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
        for x, y in ((a_l, b_l), (a_r, b_r)):
            assert x.tobytes() == y.tobytes() if y else x == 0


def _trimmed(lo, rows):
    """(lo, rows) less its zero rows at either end, as a WaveState keeps it; the zero state is (0, no rows)."""
    if len(rows) and (rows[0, 0] or rows[0, 1]) and (rows[-1, 0] or rows[-1, 1]):
        return lo, rows
    nonzero = np.flatnonzero((rows != 0).any(axis=1))
    if not nonzero.size:
        return 0, rows[:0]
    return lo + int(nonzero[0]), rows[nonzero[0] : nonzero[-1] + 1]


def _restricted_rows(psi0, cs, T):
    """_restricted_states on plain arrays: psi_t's rows on [0, n0] and its L at -1 and R at n0 + 1.

    psi_t is psi_{t-1} stepped by walk._walk as (lo, rows), cut to
    [min(-1, lo0), max(n0 + 1, hi0)] and trimmed as step and
    WaveState.restrict trim it, so each row is bit for bit
    _restricted_states'.  Returns the windows, shape (T + 1, n0 + 1, 2),
    zero off psi_t, and the edge amplitudes, shape (T + 1, 2).
    """
    n0 = cs.n0
    cut_lo, cut_hi = min(-1, psi0.support_lo), max(n0 + 1, psi0.support_hi)
    lo, rows = psi0.support_lo, psi0.amplitudes
    windows = np.zeros((T + 1, n0 + 1, 2), dtype=complex)
    edges = np.zeros((T + 1, 2), dtype=complex)
    for t in range(T + 1):
        if t:
            lo, rows = _walk(cs, lo, rows)
            cut = max(cut_lo - lo, 0)
            lo, rows = _trimmed(lo + cut, rows[cut : max(cut_hi + 1 - lo, 0)])
        a, b = max(-lo, 0), min(n0 + 1 - lo, len(rows))
        if a < b:
            windows[t, lo + a : lo + b] = rows[a:b]
        for k, (n, c) in enumerate(((-1, 0), (n0 + 1, 1))):
            if 0 <= n - lo < len(rows):
                edges[t, k] = rows[n - lo, c]
    return windows, edges


def _supports(windows):
    """Each window's sites from its first nonzero to its last, as WaveState trims it (none for a zero window)."""
    nonzero = (windows != 0).any(axis=2)
    sites = np.arange(nonzero.shape[1])
    first = np.argmax(nonzero, axis=1)[:, None]
    last = len(sites) - 1 - np.argmax(nonzero[:, ::-1], axis=1)[:, None]
    return (first <= sites) & (sites <= last) & nonzero.any(axis=1)[:, None]


def _assert_same_rows(blocks, windows, edges):
    """_assert_same_stream on arrays: the _window_blocks rows against _restricted_rows."""
    got = np.concatenate([rows.copy() for rows in blocks])
    assert len(got) == len(windows)
    on = _supports(windows)
    assert (_supports(got[:, 1:-1]) == on).all()
    assert np.where(on[..., None], got[:, 1:-1], 0).tobytes() == np.where(on[..., None], windows, 0).tobytes()
    for x, y in ((got[:, 0, 0], edges[:, 0]), (got[:, -1, 1], edges[:, 1])):
        assert x[y != 0].tobytes() == y[y != 0].tobytes() and (x[y == 0] == 0).all()


@pytest.mark.simd_portable
def test_step_and_the_window_stream_read_the_one_coin_kernel(monkeypatch):
    # with _coin's coins doubled, every amplitude a coin makes doubles, and
    # exactly so; from a state on the window every amplitude of the next one
    # is made by a coin, so a second coin formula on either path would show
    import qwres.walk

    kernel, calls = qwres.walk._coin, []

    def doubled(c1, c2, x, out):
        calls.append(x.shape)
        return kernel(2 * c1, 2 * c2, x, out)

    rng = np.random.default_rng(97)
    for n0 in (0, 1, 4):
        cs = random_sequence(rng, n0)
        psi = window_state(rng, n0)
        want_step = step(psi, cs).amplitudes
        *_, want_rows = _window_blocks(psi, cs, 1)
        want_rows = want_rows.copy()
        with monkeypatch.context() as m:
            m.setattr(qwres.walk, "_coin", doubled)
            got_step = step(psi, cs).amplitudes
            *_, got_rows = _window_blocks(psi, cs, 1)
        assert calls == [(2 * n0 + 3,)] * 2
        assert got_step.tobytes() == (2 * want_step).tobytes()
        assert got_rows[-1].tobytes() == (2 * want_rows[-1]).tobytes()
        calls.clear()


@pytest.mark.simd_portable
def test_window_stream_is_the_restricted_trajectory_bit_for_bit():
    # by T = 1200 the Hadamard pair and the triple barrier hold less than
    # 1e-150 on the window, so their late norms take the rescaled branch of
    # WaveState.norm(); the random windows decay at their own rates.  The
    # shorter runs end on either side of a block boundary
    rng = np.random.default_rng(79)
    walks = [random_sequence(rng, int(rng.integers(1, 9))) for _ in range(40)]
    walks += [hadamard_pair(), triple_barrier()]
    rescaled = []
    for cs in walks:
        psi0 = _two_sided_state(rng, cs.n0)
        assert incoming_length(psi0, cs.n0) == 4
        windows, edges = _restricted_rows(psi0, cs, 1200)
        assert len(windows) == 1201
        _assert_same_rows(_window_blocks(psi0, cs, 1200), windows, edges)
        # WaveState.norm's rule on each window's support, as survival_norm reads it
        norms = [float(_norms(_trimmed(0, w)[1][None])[0]) for w in windows]
        assert _window_survival(psi0, cs, 1200) == norms
        for T in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1):
            assert _window_survival(psi0, cs, T) == norms[: T + 1]
        rescaled.append(0 < norms[-1] < 1e-150)
    assert rescaled[-2:] == [True, True]


@pytest.mark.simd_portable
def test_window_stream_equals_the_trajectory_from_sparse_states():
    # from a single site the window rows start out partly off the support
    # of the stepped trajectory, where a step reads +0; the real reflections (c, d < 0)
    # turn a zero read with the other sign into a zero part of the other
    # sign on the support, so the rows are compared bit for bit; the plain
    # array reference of the long-run test must agree with the states' here
    rng = np.random.default_rng(83)
    reflection = Coin(0.6 + 0j, -0.8 + 0j, -0.8 + 0j, -0.6 + 0j)
    walks = [random_sequence(rng, int(rng.integers(1, 6))) for _ in range(10)]
    walks.append(CoinSequence(3, (reflection,) * 2 + (rotation_coin(-0.5),) * 2))
    for cs in walks:
        for n in (-3, -1, 0, 1, 2, cs.n0, cs.n0 + 2):
            for chirality in "LR":
                psi0 = basis_state(n, chirality)
                want = _restricted_states(psi0, cs, 40)
                _assert_same_stream(_window_states(psi0, cs, 40), want)
                _assert_same_rows(_window_blocks(psi0, cs, 40), *_restricted_rows(psi0, cs, 40))
                norms = survival_norm([psi for psi, *_ in want], cs.n0)
                assert _window_survival(psi0, cs, 40) == norms


def test_window_walk_names_the_step_and_site_past_the_float_range():
    # an R of 1.7e308 from -601 and an L of 1.7e308 from 601, passed on by
    # the identity coin at site 1, meet in the Hadamard coin at site 0 at
    # t = 601; their sum leaves through site -1 at t = 602, in the second
    # block of rows, which is refused before it is yielded, with no warning
    cs = CoinSequence(1, (hadamard_coin(), identity_coin()))
    amps = np.zeros((1203, 2), dtype=complex)
    amps[0, 1] = amps[-1, 0] = 1.7e308
    blocks = _window_blocks(WaveState(-601, amps), cs, 1500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(next(blocks)) == BLOCK
        with pytest.raises(SpectralOverflow, match=r"^the L amplitude at site -1 leaves the float range at t=602$"):
            next(blocks)


@pytest.mark.simd_portable
def test_window_stream_rewrites_the_edge_slots_of_reused_rows():
    # psi0's incoming amplitudes all arrive within the first block, and each
    # later block reuses its rows; the L at n0 and the R at 0 must still read
    # +0 after they stop arriving, or an amplitude of the first block is read
    # again a block later.  Past two blocks the stream must be the full light
    # cone of _states on the window and at its edges
    rng = np.random.default_rng(61)
    T = 2 * BLOCK + 40
    for cs in (random_sequence(rng, 3), random_sequence(rng, 6), hadamard_pair(), triple_barrier()):
        psi0 = _two_sided_state(rng, cs.n0)
        assert incoming_length(psi0, cs.n0) == 4
        want = [
            (psi.restrict(0, cs.n0), psi.amplitude(-1)[0], psi.amplitude(cs.n0 + 1)[1]) for psi in _states(psi0, cs, T)
        ]
        _assert_same_stream(_window_states(psi0, cs, T), want)
