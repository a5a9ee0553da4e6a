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

from .coins import CoinSequence, PQTheta, pqtheta_to_S, s_product
from .errors import DegenerateDirection, LeftS, NoMultipleResonance, ProductLeavesS
from .resonances import _family_resonances, find_resonances

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
    LeftS is raised.
    """
    if not 0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    if eps == 0:
        return cs
    direction = cmath.exp(1j * phi)
    p = (1 + eps * direction) / math.sqrt(1 + 2 * eps * math.cos(phi))
    q = eps * direction * p
    p *= math.sqrt(1 + abs(q) ** 2) / abs(p)  # exact hyperboloid projection
    factor = pqtheta_to_S(PQTheta(p, q, 0.0))
    try:
        new_first = s_product(factor, cs.coin_at(0))
    except ProductLeavesS as exc:
        raise LeftS(str(exc)) from exc
    return CoinSequence(cs.n0, (new_first,) + cs.coins[1:])


def splitting_experiment(pf: PerturbationFamily):
    """Track how the first multiple resonance of pf.base splits with eps.

    Returns one row (eps, gap, multiplicities) per entry of pf.epsilons,
    where gap is the diameter of the root cluster that emerged from the
    multiple root mu_0 and multiplicities are those of its members.  A
    positive eps whose cluster is not fully simple, or whose diameter
    stays below 1e-8, means the direction phi is degenerate for this walk
    and raises DegenerateDirection.  A base walk without a multiple
    resonance raises NoMultipleResonance.
    """
    target = next((r for r in find_resonances(pf.base) if r.alg_multiplicity >= 2), None)
    if target is None:
        raise NoMultipleResonance("base walk has no multiple resonance to split")
    mu0 = target.mu
    m = target.alg_multiplicity
    epsilons = [float(eps) for eps in pf.epsilons]
    # the perturbed walks root in one stacked pass, after the base check
    family = iter(_family_resonances([perturb(pf.base, eps, pf.phi) for eps in epsilons if eps]))
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
