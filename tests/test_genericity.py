import numpy as np
import pytest

from conftest import hadamard_pair, random_sequence, triple_barrier
import qwres.genericity
import qwres.resonances
from qwres import (
    PerturbationFamily,
    coin_to_pqtheta,
    find_resonances,
    perturb,
    splitting_experiment,
    splitting_slope,
)
from qwres.resonances import _family_resonances


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


def _bits(resonances):
    """A resonance list as bytes, so that -0.0 and 0.0 differ."""
    values = np.array([(r.xi, r.lam, r.mu) for r in resonances], dtype=complex)
    return values.tobytes(), [r.alg_multiplicity for r in resonances]


def test_stacked_family_matches_walks_on_their_own(monkeypatch):
    # the split path roots its perturbed walks in one stacked pass; each
    # walk's resonances must be bit for bit those of find_resonances on it
    seen = []

    def recording(walks):
        family = _family_resonances(walks)
        seen.extend(zip(walks, family))
        return family

    monkeypatch.setattr(qwres.genericity, "_family_resonances", recording)
    rng = np.random.default_rng(83)
    for phi in rng.uniform(-np.pi, np.pi, 50):
        splitting_experiment(PerturbationFamily(triple_barrier(), float(phi), (1e-5, 1e-4, 1e-3)))
    assert len(seen) == 150
    # Haar bases have no multiple resonance, so their families take the
    # stacked pass directly: each family alone, then all 60 walks of
    # degrees 2 to 8 in one call
    walks = []
    for k in range(20):
        base = random_sequence(rng, 2 + k % 7)
        family = [perturb(base, eps, float(rng.uniform(-np.pi, np.pi))) for eps in (1e-3, 1e-2, 0.1)]
        seen.extend(zip(family, _family_resonances(family)))
        walks += family
    seen.extend(zip(walks, _family_resonances(walks)))
    for cs, resonances in seen:
        assert _bits(resonances) == _bits(find_resonances(cs))


def test_split_roots_its_perturbed_walks_in_one_pass(monkeypatch):
    # one aberth_roots call for the base walk, then one for the three
    # perturbed walks of the same degree, not one per walk
    shapes = []
    real = qwres.resonances.aberth_roots
    monkeypatch.setattr(qwres.resonances, "aberth_roots", lambda c: shapes.append(c.shape) or real(c))
    splitting_experiment(PerturbationFamily(triple_barrier(), 0.4, (0.0, 1e-3, 1e-4, 1e-5)))
    assert shapes == [(1, 3), (3, 3)]
