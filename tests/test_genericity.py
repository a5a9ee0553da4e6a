import numpy as np
import pytest

import qwres.transfer
from conftest import hadamard_pair, random_sequence, triple_barrier
from qwres import (
    PerturbationFamily,
    RelationCheckFailed,
    coin_to_pqtheta,
    find_resonances,
    perturb,
    splitting_experiment,
    splitting_slope,
)


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
