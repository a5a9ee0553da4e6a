import cmath
import math

import numpy as np
import pytest

import qwres.transfer
from conftest import hadamard_pair, random_sequence, triple_barrier
from qwres import (
    CoinSequence,
    LeftS,
    PerturbationFamily,
    PQTheta,
    RelationCheckFailed,
    coin_to_pqtheta,
    coin_transfer_factor,
    pqtheta_to_S,
    rotation_coin,
    s_product,
    validate_coin,
    find_resonances,
    perturb,
    splitting_experiment,
    splitting_slope,
)
from qwres.coins import _transfer_to_pqtheta
from qwres.genericity import _perturbed


def test_perturb_eps_zero_is_identity():
    cs = triple_barrier()
    assert perturb(cs, 0.0, 1.3) is cs


def test_perturb_bounds():
    cs = triple_barrier()
    with pytest.raises(ValueError):
        perturb(cs, 0.5, 0.0)
    with pytest.raises(ValueError):
        perturb(cs, -0.1, 0.0)


def test_perturb_changes_only_first_coin():
    cs = triple_barrier()
    out = perturb(cs, 1e-3, 0.7)
    assert out.n0 == cs.n0
    assert out.coins[1:] == cs.coins[1:]
    m = out.coins[0].matrix
    np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)
    # small eps moves the coin by O(eps)
    delta = np.max(np.abs(m - cs.coins[0].matrix))
    assert 1e-5 < delta < 1e-2
    # and the perturbed coin still sits on the hyperboloid chart
    coin_to_pqtheta(out.coins[0])


def test_perturbation_strength_scales_linearly():
    cs = triple_barrier()
    d1 = np.max(np.abs(perturb(cs, 1e-3, 0.0).coins[0].matrix - cs.coins[0].matrix))
    d2 = np.max(np.abs(perturb(cs, 1e-4, 0.0).coins[0].matrix - cs.coins[0].matrix))
    assert d1 / d2 == pytest.approx(10.0, rel=0.05)


def test_splitting_requires_multiple_resonance():
    pf = PerturbationFamily(hadamard_pair(), 0.0, (1e-3,))
    with pytest.raises(ValueError):
        splitting_experiment(pf)


def test_splitting_experiment_triple_barrier():
    pf = PerturbationFamily(triple_barrier(), 0.0, (0.0, 1e-3, 1e-4, 1e-5))
    rows = splitting_experiment(pf)
    assert rows[0] == (0.0, 0.0, (2,))
    for eps, gap, mults in rows[1:]:
        assert mults == (1, 1)
        assert gap > 1e-8
    # gap ~ sqrt(eps): consecutive decades shrink the gap by sqrt(10)
    gaps = [gap for eps, gap, _ in rows[1:]]
    assert gaps[0] / gaps[1] == pytest.approx(np.sqrt(10.0), rel=0.02)
    assert gaps[1] / gaps[2] == pytest.approx(np.sqrt(10.0), rel=0.02)


def test_splitting_slope_half():
    pf = PerturbationFamily(triple_barrier(), 0.0, (1e-3, 1e-4, 1e-5))
    slope = splitting_slope(splitting_experiment(pf))
    assert slope == pytest.approx(0.5, abs=0.01)


def test_splitting_slope_needs_two_rows():
    with pytest.raises(ValueError):
        splitting_slope([(1e-3, 1e-2, (1, 1))])
    # two rows at one eps would give polyfit a rank-deficient fit
    with pytest.raises(ValueError):
        splitting_slope([(1e-3, 1e-2, (1, 1)), (1e-3, 2e-2, (1, 1))])


def test_split_resonances_remain_negation_closed():
    cs = perturb(triple_barrier(), 1e-4, 0.9)
    rs = find_resonances(cs)
    for r in rs:
        assert min(abs(r.lam + s.lam) for s in rs) < 1e-10


def test_split_names_the_first_failure_of_the_stacked_pass():
    # a base without a multiple resonance is refused only after its
    # perturbed walks are formed and rooted, so an eps that perturb refuses
    # names the error
    with pytest.raises(ValueError, match="eps must lie in"):
        splitting_experiment(PerturbationFamily(hadamard_pair(), 0.0, (1e-3, 0.7)))
    # where the base and its perturbed walks all fail their relation
    # checks, the base's is the first and names the error
    base = random_sequence(np.random.default_rng(45), 45)
    errors = []
    for cs in (base, perturb(base, 1e-3, 0.3), perturb(base, 1e-2, 0.3)):
        with pytest.raises(RelationCheckFailed) as caught:
            find_resonances(cs)
        errors.append(str(caught.value))
    assert len(set(errors)) == 3
    with pytest.raises(RelationCheckFailed) as caught:
        splitting_experiment(PerturbationFamily(base, 0.3, (1e-3, 1e-2)))
    assert str(caught.value) == errors[0]


def test_split_roots_its_family_in_one_stacked_pass(monkeypatch):
    # the base and its perturbed walks are rooted together: one relation
    # check kernel pass over all four walks and one eigvals call on their
    # four stacked parity products, counted as the CLI tests count kernel
    # calls; the rows are the walk-by-walk loop's
    calls = []
    entries, eigvals = qwres.transfer._transfer_entries, np.linalg.eigvals
    monkeypatch.setattr(
        qwres.transfer,
        "_transfer_entries",
        lambda walks, *args, **kw: calls.append(("kernel", len(walks))) or entries(walks, *args, **kw),
    )
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(("eigvals", a.shape)) or eigvals(a))
    pf = PerturbationFamily(triple_barrier(), 0.7, (1e-5, 1e-4, 1e-3))
    rows = splitting_experiment(pf)
    assert calls == [("kernel", 4), ("eigvals", (4, 2, 2))]
    monkeypatch.undo()
    base = find_resonances(pf.base)
    mu0 = next(r.mu for r in base if r.alg_multiplicity == 2)
    for (eps, gap, mults), want in zip(rows, pf.epsilons):
        primaries = [r for r in find_resonances(perturb(pf.base, want, pf.phi)) if r.xi.real < 0]
        near = sorted(primaries, key=lambda r: abs(r.mu - mu0))[:2]
        assert eps == want and mults == (1, 1) and gap == abs(near[0].mu - near[1].mu)


def _factor(eps, phi):
    """perturb's eps-phi factor coin, one eps at a time."""
    direction = cmath.exp(1j * phi)
    p = (1 + eps * direction) / math.sqrt(1 + 2 * eps * math.cos(phi))
    q = eps * direction * p
    p *= math.sqrt(1 + abs(q) ** 2) / abs(p)
    return pqtheta_to_S(PQTheta(p, q, 0.0))


def _product(s1, s2):
    """s_product's arithmetic on one pair, by a 2x2 matmul."""
    t = coin_transfer_factor(s1) @ coin_transfer_factor(s2)
    return pqtheta_to_S(_transfer_to_pqtheta(t, (s1.a / s1.d) * (s2.a / s2.d)))


@pytest.mark.simd_portable
def test_stacked_perturbations_are_perturb_bit_for_bit():
    # _perturbed checks its factors and products in one pass each
    # and multiplies all transfer factors in one matmul: every new first
    # coin must be the one-eps composition's, a 2x2 matmul each, and
    # perturb's and s_product's, bit for bit
    epsilons = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.49)
    bases = [triple_barrier(), random_sequence(np.random.default_rng(7), 5)]
    bits = lambda coin: np.array([coin.a, coin.b, coin.c, coin.d]).tobytes()
    for cs in bases:
        for phi in np.linspace(-math.pi, math.pi, 20).tolist():
            walks = _perturbed(cs, (0.0,) + epsilons, phi)
            assert walks[0] is cs
            for eps, walk in zip(epsilons, walks[1:]):
                assert walk.n0 == cs.n0 and walk.coins[1:] == cs.coins[1:]
                factor = _factor(eps, phi)
                assert bits(walk.coins[0]) == bits(_product(factor, cs.coin_at(0))), (phi, eps)
                assert bits(walk.coins[0]) == bits(s_product(factor, cs.coin_at(0)))
                assert bits(walk.coins[0]) == bits(perturb(cs, eps, phi).coins[0])


def test_stacked_perturbations_name_the_first_bad_eps():
    # with |a| = 1.2e-14 on the first coin, eps = 0.3 at phi = 0 drives the
    # product's |a| below 1e-14 (LeftS) while eps = 0.1 leaves it at
    # 1.09e-14; whichever of it and an eps out of range comes first names
    # the error, as perturb names it for that eps alone
    a = 1.2e-14
    cs = CoinSequence(1, (validate_coin([[a, 1.0], [-1.0, a]]), rotation_coin(0.5)))
    assert abs(perturb(cs, 0.1, 0.0).coins[0].a) > 1e-14
    with pytest.raises(LeftS) as lone:
        perturb(cs, 0.3, 0.0)
    for epsilons, kind, words in [
        ((1e-3, 0.1, 0.3, 0.7), LeftS, str(lone.value)),
        ((1e-3, 0.7, 0.3), ValueError, "eps must lie in [0, 1/2), got 0.7"),
    ]:
        with pytest.raises(kind) as caught:
            _perturbed(cs, epsilons, 0.0)
        assert str(caught.value) == words
        with pytest.raises(kind) as caught:
            splitting_experiment(PerturbationFamily(cs, 0.0, epsilons))
        assert str(caught.value) == words
