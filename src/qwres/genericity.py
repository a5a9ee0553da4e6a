"""Splitting multiple resonances by a one-parameter coin perturbation.

Multiple resonances are non-generic: an arbitrarily small hyperbolic
factor multiplied onto the first coin splits an m-fold root of the
transfer polynomial into m simple ones.  The root cluster spreads like
eps^(1/m) along the chosen direction, so a log-log fit of the cluster
diameter against eps has slope 1/m.  A direction that fails to split
(which happens only on a measure-zero set of directions) is reported as
such rather than silently producing a flat line.

The perturbing factor is the hyperbolic one-parameter family

    p = (1 + eps e^{i phi}) / sqrt(1 + 2 eps cos phi),   q = eps e^{i phi} p,

which passes through the identity at eps = 0 and stays on the hyperboloid
|p|^2 - |q|^2 = 1 after an exact projection of |p|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coins import CoinSequence, PQTheta, _s_entries, _s_products, _validated
from .errors import DegenerateDirection, LeftS, NoMultipleResonance, ProductLeavesS, QWResError
from .resonances import _resonance_family

__all__ = [
    "PerturbationFamily",
    "perturb",
    "splitting_experiment",
    "splitting_slope",
]


@dataclass(frozen=True)
class PerturbationFamily:
    """A base walk, a perturbation direction phi, and the eps values to probe."""

    base: CoinSequence
    phi: float
    epsilons: tuple


def perturb(cs: CoinSequence, eps: float, phi: float) -> CoinSequence:
    """The walk with its first coin multiplied by the eps-phi factor.

    eps = 0 returns cs itself.  Needs 0 <= eps < 1/2 so the normalizer
    stays positive for every phi.  If the product collapses the a-entry
    of the new first coin, the family has left the admissible class and
    LeftS is raised.  This is _perturbed's one-eps case.
    """
    return _perturbed(cs, [eps], phi)[0]


def _perturbed(cs: CoinSequence, epsilons, phi: float) -> list[CoinSequence]:
    """perturb(cs, eps, phi) for each eps of epsilons, the new first coins built as one stack.

    One coins._validated pass checks every factor, and one
    coins._s_products pass multiplies them onto the first coin (one
    stacked matmul, one check pass).  If several eps are given and one
    fails, each is rebuilt alone, so the first to fail raises what
    perturb raises for it.
    """
    try:
        factors = _validated(np.array([_factor(eps, phi) for eps in epsilons if eps], dtype=complex).reshape(-1, 2, 2))
        firsts = iter(_s_products(factors, cs.coin_at(0)))
    except (ValueError, QWResError) as exc:
        if len(epsilons) > 1:
            for eps in epsilons:
                _perturbed(cs, [eps], phi)
        if isinstance(exc, ProductLeavesS):
            raise LeftS(str(exc)) from exc
        raise
    return [CoinSequence(cs.n0, (next(firsts),) + cs.coins[1:]) if eps else cs for eps in epsilons]


def _factor(eps: float, phi: float) -> list[complex]:
    """The entries of the eps-phi factor, unchecked; eps must lie in [0, 1/2)."""
    if not 0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    direction = cmath.exp(1j * phi)
    p = (1 + eps * direction) / math.sqrt(1 + 2 * eps * math.cos(phi))
    q = eps * direction * p
    p *= math.sqrt(1 + abs(q) ** 2) / abs(p)  # exact hyperboloid projection
    return _s_entries(PQTheta(p, q, 0.0))


def splitting_experiment(pf: PerturbationFamily):
    """Track how the first multiple resonance of pf.base splits with eps.

    Returns one row (eps, gap, multiplicities) per entry of pf.epsilons,
    where gap is the diameter of the root cluster that emerged from the
    multiple root mu_0 and multiplicities are those of its members.  A
    positive eps whose cluster is not fully simple, or whose diameter
    stays below 1e-8, means the direction phi is degenerate for this walk
    and raises DegenerateDirection.  A base walk without a multiple
    resonance raises NoMultipleResonance.

    Every perturbed walk is formed before any is rooted, their new first
    coins as one stack (_perturbed), each bit for bit perturb's.  The base
    and its perturbed walks are then rooted together, in one stacked pass
    (resonances._resonance_family), each bit for bit as find_resonances
    roots it alone.  Where several fail, the first failure names the error:
    perturb's refusals in eps order, then the walks' rooting in order (the
    base first), and last the base's lack of a multiple resonance.
    """
    epsilons = [float(eps) for eps in pf.epsilons]
    walks = _perturbed(pf.base, [eps for eps in epsilons if eps], pf.phi)
    base, *family = _resonance_family([pf.base, *walks])
    target = next((r for r in base if r.alg_multiplicity >= 2), None)
    if target is None:
        raise NoMultipleResonance("base walk has no multiple resonance to split")
    mu0 = target.mu
    m = target.alg_multiplicity
    family = iter(family)
    rows = []
    for eps in epsilons:
        if eps == 0:
            rows.append((0.0, 0.0, (m,)))
            continue
        perturbed = next(family)
        primaries = [r for r in perturbed if -math.pi <= r.xi.real < 0]
        primaries.sort(key=lambda r: abs(r.mu - mu0))
        cluster = []
        total = 0
        for r in primaries:
            if total >= m:
                break
            cluster.append(r)
            total += r.alg_multiplicity
        if total != m:
            raise DegenerateDirection(
                f"could not isolate {m} roots near mu_0 = {mu0} at eps = {eps}"
            )
        mults = tuple(r.alg_multiplicity for r in cluster)
        mus = [r.mu for r in cluster]
        gap = max(abs(x - y) for x in mus for y in mus)
        if any(k > 1 for k in mults) or gap < 1e-8:
            raise DegenerateDirection(
                f"direction phi = {pf.phi} leaves the root multiple at eps = {eps}"
            )
        rows.append((eps, float(gap), mults))
    return rows


def splitting_slope(rows) -> float:
    """Log-log slope of gap against eps; 1/m for an m-fold splitting."""
    xs = [math.log(e) for e, g, _ in rows if e > 0 and g > 0]
    ys = [math.log(g) for e, g, _ in rows if e > 0 and g > 0]
    if len(set(xs)) < 2:
        raise ValueError("need rows with positive gap at two distinct positive eps")
    return float(np.polyfit(np.array(xs), np.array(ys), 1)[0])
