"""Local coin matrices and their hyperbolic parameterization.

A coin is a 2x2 unitary ``[[a, b], [c, d]]`` acting on the two chirality
components at one lattice site.  A walk instance is a finite list of coins
on sites ``0..n0`` with the identity everywhere else.  Every coin used here
must have ``a != 0``; that is what makes transfer matrices well defined.

Coins with ``a != 0`` are in bijection with triples ``(p, q, theta)`` on the
hyperboloid ``|p|^2 - |q|^2 = 1`` (theta reduced into ``[0, pi)``), under
which composing scatterers becomes a plain 2x2 matrix product of hyperbolic
transfer factors.  The four maps are coin -> T (``coin_transfer_factor``),
T -> chart (``_transfer_to_pqtheta``), chart -> T (``pqtheta_to_T``) and
chart -> coin (``pqtheta_to_S``); ``coin_to_pqtheta`` and ``s_product``
read the chart off T.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    A2Violated,
    ConfigParse,
    ConstraintViolated,
    NotUnitary,
    ProductLeavesS,
    QWResError,
    UnsupportedN0,
)

__all__ = [
    "Coin",
    "CoinSequence",
    "PQTheta",
    "validate_coin",
    "identity_coin",
    "rotation_coin",
    "hadamard_coin",
    "haar_coin",
    "random_sequence",
    "hadamard_pair",
    "triple_barrier",
    "coin_to_pqtheta",
    "pqtheta_to_S",
    "pqtheta_to_T",
    "coin_transfer_factor",
    "s_product",
    "coin_from_json",
    "coin_to_json",
    "sequence_from_json",
    "sequence_to_json",
]

UNITARITY_TOL = 1e-12
A2_TOL = 1e-14
HYPERBOLOID_TOL = 1e-8
_BELOW_PI = math.nextafter(math.pi, 0.0)


@dataclass(frozen=True)
class Coin:
    """One site's 2x2 unitary coin, stored entrywise."""

    a: complex
    b: complex
    c: complex
    d: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    @property
    def p_block(self) -> np.ndarray:
        """Upper row projection |L><L| U, the left-mover emitter."""
        return np.array([[self.a, self.b], [0.0, 0.0]], dtype=complex)

    @property
    def q_block(self) -> np.ndarray:
        """Lower row projection |R><R| U, the right-mover emitter."""
        return np.array([[0.0, 0.0], [self.c, self.d]], dtype=complex)

    def is_identity(self) -> bool:
        return self.a == 1 and self.b == 0 and self.c == 0 and self.d == 1


_IDENTITY = Coin(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def identity_coin() -> Coin:
    return _IDENTITY


def rotation_coin(r: float) -> Coin:
    """Real rotation-type coin with a = d = sqrt(1 - r^2), b = r, c = -r."""
    if not -1.0 < r < 1.0:
        raise A2Violated(f"rotation parameter must satisfy |r| < 1, got {r}")
    s = math.sqrt(1.0 - r * r)
    return Coin(complex(s), complex(r), complex(-r), complex(s))


def hadamard_coin() -> Coin:
    s = 1.0 / math.sqrt(2.0)
    return Coin(complex(s), complex(s), complex(s), complex(-s))


def haar_coin(rng: np.random.Generator) -> Coin:
    """Haar-random coin, resampled until |a| >= 0.1.

    The Q factor of a complex Gaussian whose R has a positive diagonal is
    Haar.  It is formed directly, not by LAPACK, whose rounding varies with
    the BLAS kernel: column 1 is the normalized first Gaussian column and
    column 2 is (-conj q_1, conj q_0) times the phase that makes R_22
    positive.  The bound on |a| keeps clear of the decoupled a = 0 walk (1%
    of draws).
    """
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q = m[:, 0] / math.hypot(abs(m[0, 0]), abs(m[1, 0]))
        w = q[0] * m[1, 1] - q[1] * m[0, 1]  # R_22 before the phase
        q = np.column_stack([q, np.array([-np.conj(q[1]), np.conj(q[0])]) * (w / abs(w))])
        if abs(q[0, 0]) >= 0.1:
            return validate_coin(q)


def random_sequence(rng: np.random.Generator, n0: int) -> CoinSequence:
    """n0 + 1 independent Haar coins on the window [0, n0]."""
    return CoinSequence(n0, tuple(haar_coin(rng) for _ in range(n0 + 1)))


def hadamard_pair() -> CoinSequence:
    """Two Hadamard coins; from delta_0^L the survival norm is exactly 2^(-t/2)."""
    return CoinSequence(1, (hadamard_coin(), hadamard_coin()))


def triple_barrier() -> CoinSequence:
    """Rotations 3/4, 12/13, 1/3: one resonance pair of multiplicity two."""
    return CoinSequence(2, (rotation_coin(3 / 4), rotation_coin(12 / 13), rotation_coin(1 / 3)))


def validate_coin(matrix) -> Coin:
    """Check a 2x2 array for unitarity and a nonzero a-entry.

    Parameters
    ----------
    matrix : array-like, shape (2, 2)
        Candidate coin.

    Returns
    -------
    Coin
        The entries of ``matrix``, bit-identical.

    Raises
    ------
    NotUnitary
        If ``max |U* U - I|`` exceeds 1e-12.
    A2Violated
        If ``|a| <= 1e-14``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise NotUnitary(f"coin must be 2x2, got shape {m.shape}")
    return _validated(m[None])[0]


def _validated(m: np.ndarray, sites=None) -> list[Coin]:
    """validate_coin on each matrix of an (N, 2, 2) stack, in one pass.

    The first matrix that fails raises what validate_coin raises for it;
    sites, when given, names each matrix's site in that message.
    """
    # huge entries overflow to inf or nan, which the negated tests refuse
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(np.conj(np.swapaxes(m, -1, -2)) @ m - np.eye(2)).max(axis=(-2, -1))
    unitary = residual <= UNITARITY_TOL
    bad = ~(unitary & (np.abs(m[:, 0, 0]) > A2_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        where = "" if sites is None else f"coin at site {sites[k]}: "
        if not unitary[k]:
            raise NotUnitary(f"{where}unitarity residual {residual[k]:.3e} exceeds {UNITARITY_TOL}")
        raise A2Violated(f"{where}coin has |a| below 1e-14, transfer matrices undefined")
    return [Coin(*entries) for entries in m.reshape(-1, 4).tolist()]


@dataclass(frozen=True)
class CoinSequence:
    """Coins on the perturbed sites 0..n0; identity everywhere else."""

    n0: int
    coins: tuple[Coin, ...]
    # row n holds (a, b, c, d) of coins[n]; read-only, outside ==, hash and repr
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n0 < 0:
            raise UnsupportedN0(f"n0 must be nonnegative, got {self.n0}")
        if len(self.coins) != self.n0 + 1:
            raise ValueError(
                f"need n0 + 1 = {self.n0 + 1} coins, got {len(self.coins)}"
            )
        for u in self.coins:
            if not isinstance(u, Coin):
                raise TypeError("coins must be Coin instances, use validate_coin")
        table = np.array([(u.a, u.b, u.c, u.d) for u in self.coins], dtype=complex)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def coin_at(self, n: int) -> Coin:
        """Coin at site n (identity outside the perturbed window)."""
        if 0 <= n <= self.n0:
            return self.coins[n]
        return _IDENTITY


@dataclass(frozen=True)
class PQTheta:
    """Point (p, q, theta) with |p|^2 - |q|^2 = 1, theta in [0, pi)."""

    p: complex
    q: complex
    theta: float

    def __post_init__(self):
        defect = abs(abs(self.p) ** 2 - abs(self.q) ** 2 - 1.0)
        if not defect <= HYPERBOLOID_TOL:
            raise ConstraintViolated(
                f"|p|^2 - |q|^2 deviates from 1 by {defect:.3e}"
            )


def coin_to_pqtheta(coin: Coin) -> PQTheta:
    """Map a coin to its canonical hyperboloid triple.

    The representative has theta in [0, pi) and reproduces the coin exactly
    through ``pqtheta_to_S`` (round trip to 1e-12).
    """
    if not abs(coin.a) > A2_TOL:
        raise A2Violated("coin has |a| below 1e-14")
    return _transfer_to_pqtheta(coin_transfer_factor(coin), coin.a / coin.d)


def pqtheta_to_S(x: PQTheta) -> Coin:
    """Inverse of :func:`coin_to_pqtheta`."""
    pbar_inv = 1.0 / x.p.conjugate()
    eit = cmath.exp(1j * x.theta)
    m = np.array(
        [
            [eit * pbar_inv, x.q.conjugate() * pbar_inv],
            [-x.q * pbar_inv, pbar_inv / eit],
        ],
        dtype=complex,
    )
    return validate_coin(m)


def pqtheta_to_T(x: PQTheta) -> np.ndarray:
    """Hyperbolic transfer factor e^{i theta} [[p, conj(q)], [q, conj(p)]]."""
    eit = cmath.exp(1j * x.theta)
    return np.array(
        [[eit * x.p, eit * x.q.conjugate()], [eit * x.q, eit * x.p.conjugate()]],
        dtype=complex,
    )


def _site_entries(u: Coin, e_plus, e_minus):
    """Entries (p, q, r, s) of T_n = [[p, q], [r, s]] at e^{+-i xi} = e_plus, e_minus."""
    return e_plus / np.conj(u.a), -np.conj(u.c) / np.conj(u.a), -u.c / u.d, e_minus / u.d


def coin_transfer_factor(coin: Coin) -> np.ndarray:
    """2x2 factor [[1/conj(a), -conj(c)/conj(a)], [-c/d, 1/d]] of a coin.

    This is T_n at spectral parameter zero, :func:`_site_entries` at
    e^{+-i xi} = 1, and the image of the coin on the hyperbolic side.
    """
    return np.array(_site_entries(coin, 1, 1), dtype=complex).reshape(2, 2)


def _transfer_to_pqtheta(t: np.ndarray, det: complex) -> PQTheta:
    """(p, q, theta) of t = e^{i theta} [[p, .], [q, .]] with det t = det.

    The caller passes det = e^{2 i theta} as a product of a/d: formed as
    t00 t11 - t01 t10 it would lose about eps/|a|^2 to cancellation.
    """
    theta = cmath.phase(det) / 2.0
    p = cmath.exp(-1j * theta) * complex(t[0, 0])
    q = cmath.exp(-1j * theta) * complex(t[1, 0])
    if theta < 0.0:
        # (p, q, theta) ~ (-p, -q, theta + pi), kept below pi when theta ~ -1e-17
        theta, p, q = min(theta + math.pi, _BELOW_PI), -p, -q
    return PQTheta(p, q, theta)


def s_product(s1: Coin, s2: Coin) -> Coin:
    """Coin group product: multiply the hyperbolic factors, map back.

    Raises
    ------
    ProductLeavesS
        If the resulting coin would have a vanishing a-entry.
    """
    t = coin_transfer_factor(s1) @ coin_transfer_factor(s2)
    try:
        x = _transfer_to_pqtheta(t, (s1.a / s1.d) * (s2.a / s2.d))
        return pqtheta_to_S(x)
    except (A2Violated, ConstraintViolated) as exc:
        raise ProductLeavesS(str(exc)) from exc


# ---------------------------------------------------------------------------
# JSON forms used by config files


def coin_from_json(obj) -> Coin:
    """Parse one coin from its config form.

    Accepts either ``{"rotation": r}`` or ``{"a": [re, im], "b": ..., "c":
    ..., "d": ...}``.
    """
    form = _coin_form(obj)
    return form if isinstance(form, Coin) else validate_coin(np.reshape(form, (2, 2)))


def _coin_form(obj):
    """A rotation coin's Coin, or the unchecked entries [a, b, c, d] of an entry-form coin."""
    if not isinstance(obj, dict):
        raise ConfigParse(f"coin entry must be an object, got {type(obj).__name__}")
    if "rotation" in obj:
        extra = set(obj) - {"rotation"}
        if extra:
            raise ConfigParse(f"rotation coin has unexpected keys {sorted(extra)}")
        return rotation_coin(_real(obj["rotation"], "rotation parameter"))
    try:
        return [_complex_from_pair(obj[k], f'coin "{k}"') for k in ("a", "b", "c", "d")]
    except KeyError as exc:
        raise ConfigParse(f"coin entry missing key {exc}") from exc


def _real(v, what: str) -> float:
    """A finite JSON number as a float; booleans, inf, nan and ints past
    the float range are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigParse(f"{what} must be a real number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        raise ConfigParse(f"{what} is out of float range") from None
    if not math.isfinite(x):
        raise ConfigParse(f"{what} must be finite, got {x}")
    return x


def _complex_from_pair(pair, what: str) -> complex:
    """A JSON [re, im] pair of finite real numbers as a complex."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ConfigParse(f"{what} must be an [re, im] pair, got {pair!r}")
    return complex(_real(pair[0], what), _real(pair[1], what))


def coin_to_json(coin: Coin) -> dict:
    return {
        "a": [coin.a.real, coin.a.imag],
        "b": [coin.b.real, coin.b.imag],
        "c": [coin.c.real, coin.c.imag],
        "d": [coin.d.real, coin.d.imag],
    }


def sequence_from_json(obj) -> CoinSequence:
    if not isinstance(obj, dict):
        raise ConfigParse("config must be a JSON object")
    if "n0" not in obj or "coins" not in obj:
        raise ConfigParse('config needs "n0" and "coins" keys')
    n0 = obj["n0"]
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 0:
        raise ConfigParse(f'"n0" must be a nonnegative integer, got {n0!r}')
    coins_raw = obj["coins"]
    if not isinstance(coins_raw, list) or len(coins_raw) != n0 + 1:
        raise ConfigParse(f'"coins" must list n0 + 1 = {n0 + 1} coins')
    # the entry-form coins are checked in one pass; a coin that fails to
    # parse still loses to a bad coin before it, as in a loop over the coins
    forms, error = [], None
    for c in coins_raw:
        try:
            forms.append(_coin_form(c))
        except QWResError as exc:
            error = exc
            break
    sites = [k for k, f in enumerate(forms) if not isinstance(f, Coin)]
    if sites:
        stack = np.array([forms[k] for k in sites], dtype=complex).reshape(-1, 2, 2)
        for k, coin in zip(sites, _validated(stack, sites)):
            forms[k] = coin
    if error is not None:
        raise error
    return CoinSequence(n0, tuple(forms))


def sequence_to_json(cs: CoinSequence) -> dict:
    return {"n0": cs.n0, "coins": [coin_to_json(c) for c in cs.coins]}
