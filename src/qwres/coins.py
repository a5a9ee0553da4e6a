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
import operator
from itertools import chain, compress

import numpy as np

from .errors import (
    A2Violated,
    ConfigParse,
    ConstraintViolated,
    NotUnitary,
    ProductLeavesS,
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
_ENTRY_KEYS, _ABCD = frozenset("abcd"), operator.itemgetter(*"abcd")  # an entry-form coin's keys, and its values
_ROTATION_KEYS = frozenset({"rotation"})  # a rotation-form coin's keys
_set = object.__setattr__  # how a record's __init__ sets its fields past _Record.__setattr__


def _same(x, y) -> bool:
    """x == y, an ndarray on either side compared by shape and value."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    return x == y


class _Record:
    """A frozen record, whose __init__ sets the fields named in _fields once.

    As a frozen dataclass does, it refuses assignment and deletion, compares and hashes by the tuple of
    its fields, prints as Name(field=value, ...) and matches its fields by position.  A record whose
    fields can hold an ndarray sets _arrays: its == compares such a field by shape and value
    (np.array_equal), and its hash() raises TypeError while a field holds one, as an ndarray is
    unhashable."""

    _fields: tuple[str, ...] = ()
    _arrays = False

    def __init_subclass__(cls):
        cls.__match_args__, cls._key = cls._fields, staticmethod(operator.attrgetter(*cls._fields))
        if cls._arrays:
            cls.__eq__ = _Record._eq_arrays

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def _eq_arrays(self, other):
        return all(map(_same, self._key(self), self._key(other))) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class Coin(_Record):
    """One site's 2x2 unitary coin, stored entrywise."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex) -> None:
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

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


class CoinSequence(_Record):
    """Coins on the perturbed sites 0..n0; identity everywhere else."""

    _fields = ("n0", "coins")

    def __init__(self, n0: int, coins: tuple[Coin, ...]) -> None:
        if n0 < 0:
            raise UnsupportedN0(f"n0 must be nonnegative, got {n0}")
        if len(coins) != n0 + 1:
            raise ValueError(f"need n0 + 1 = {n0 + 1} coins, got {len(coins)}")
        for u in coins:
            if not isinstance(u, Coin):
                raise TypeError("coins must be Coin instances, use validate_coin")
        _set(self, "n0", n0)
        _set(self, "coins", coins)
        # row n holds (a, b, c, d) of coins[n]; read-only, outside ==, hash and repr
        table = np.array([(u.a, u.b, u.c, u.d) for u in coins], dtype=complex)
        table.flags.writeable = False
        _set(self, "table", table)

    def coin_at(self, n: int) -> Coin:
        """Coin at site n (identity outside the perturbed window)."""
        if 0 <= n <= self.n0:
            return self.coins[n]
        return _IDENTITY

    def __hash__(self) -> int:  # the record hash, cached: _spectrum's lru_cache hashes the walk at every lookup
        if "_hash" not in self.__dict__:
            _set(self, "_hash", super().__hash__())
        return self._hash


class PQTheta(_Record):
    """Point (p, q, theta) with |p|^2 - |q|^2 = 1, theta in [0, pi).

    The defect may be HYPERBOLOID_TOL (|p|^2 + |q|^2), the size of the two
    terms whose difference is rounded (|p|^2 ~ 1/|a|^2); at |p| = 1 that is
    HYPERBOLOID_TOL itself.
    """

    _fields = ("p", "q", "theta")

    def __init__(self, p: complex, q: complex, theta: float) -> None:
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "theta", theta)
        size = abs(p) ** 2 + abs(q) ** 2
        defect = abs(abs(p) ** 2 - abs(q) ** 2 - 1.0)
        if not defect <= HYPERBOLOID_TOL * size:
            raise ConstraintViolated(f"|p|^2 - |q|^2 deviates from 1 by {defect:.3e}")


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
    return validate_coin(np.array(_s_entries(x), dtype=complex).reshape(2, 2))


def _s_entries(x: PQTheta) -> list[complex]:
    """The entries (a, b, c, d) of pqtheta_to_S(x), unchecked."""
    pbar_inv = 1.0 / x.p.conjugate()
    eit = cmath.exp(1j * x.theta)
    return [eit * pbar_inv, x.q.conjugate() * pbar_inv, -x.q * pbar_inv, pbar_inv / eit]


def pqtheta_to_T(x: PQTheta) -> np.ndarray:
    """Hyperbolic transfer factor e^{i theta} [[p, conj(q)], [q, conj(p)]]."""
    eit = cmath.exp(1j * x.theta)
    return np.array(
        [[eit * x.p, eit * x.q.conjugate()], [eit * x.q, eit * x.p.conjugate()]],
        dtype=complex,
    )


def _tables(walks) -> np.ndarray:
    """The coin table of one walk, or those of a list of walks of one n0 stacked on a leading axis."""
    return walks.table if isinstance(walks, CoinSequence) else np.array([cs.table for cs in walks])


def _site_entries(table: np.ndarray, e_plus, e_minus, out=None):
    """Entries (p, q, r, s) of T_n = [[p, q], [r, s]] at e^{+-i xi} = e_plus, e_minus.

    One tuple per coin row (a, b, c, d) of table, in order along its
    second-last axis; leading axes stack walks, and each entry then has
    them and an axis of one, a column against the points.  q = -conj(c) /
    conj(a) is numpy's division, formed for all rows at once, and r = -c / d
    Python's, which rounds differently, as is s = e_minus / d for scalars
    e_plus and e_minus.  Given out, they are arrays of points, and
    p = e_plus / conj(a) and s go into out's two arrays.
    """
    stacked, points = table.ndim > 2, out is not None
    if stacked:  # sites first
        table = table.swapaxes(0, -2)[..., None, :]
    conj_a, cd = np.conj(table[..., 0]), table[..., 2:].reshape(-1, 2).tolist()
    # s itself for a scalar e_minus, the d that divides it for points
    r, s_or_d = [-c / d for c, d in cd], table[..., 3] if points else [e_minus / d for _, d in cd]
    if stacked:
        r, s_or_d = np.reshape(r, conj_a.shape), np.reshape(s_or_d, conj_a.shape)
    for ca, q, rn, sd in zip(conj_a, -np.conj(table[..., 2]) / conj_a, r, s_or_d):
        if points:
            yield np.divide(e_plus, ca, out=out[0]), q, rn, np.divide(e_minus, sd, out=out[1])
        else:
            yield e_plus / ca, q, rn, sd


def coin_transfer_factor(coin: Coin) -> np.ndarray:
    """2x2 factor [[1/conj(a), -conj(c)/conj(a)], [-c/d, 1/d]] of a coin.

    This is T_n at spectral parameter zero, :func:`_site_entries` at
    e^{+-i xi} = 1, and the image of the coin on the hyperbolic side; each
    entry rounds as there: the top row by numpy's division, the bottom row
    by Python's.
    """
    conj_a, c, d = np.complex128(complex(coin.a).conjugate()), complex(coin.c), complex(coin.d)
    return np.array([[1 / conj_a, np.complex128(-c.conjugate()) / conj_a], [-c / d, 1 / d]])


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
    return _s_products([s1], s2)[0]


def _s_products(lefts: list[Coin], right: Coin) -> list[Coin]:
    """s_product(s, right) for each s of lefts: one stacked matmul, one _validated pass.

    Raises what s_product raises, though with several lefts not
    necessarily for the first s that fails.
    """
    ts = np.array([coin_transfer_factor(s) for s in lefts], dtype=complex).reshape(-1, 2, 2) @ coin_transfer_factor(right)
    try:
        entries = [_s_entries(_transfer_to_pqtheta(t, (s.a / s.d) * (right.a / right.d))) for s, t in zip(lefts, ts)]
        return _validated(np.array(entries, dtype=complex).reshape(-1, 2, 2))
    except (A2Violated, ConstraintViolated) as exc:
        raise ProductLeavesS(str(exc)) from exc


# ---------------------------------------------------------------------------
# JSON forms used by config files


def coin_from_json(obj) -> Coin:
    """Parse one coin from its config form.

    Accepts either ``{"rotation": r}`` or ``{"a": [re, im], "b": ..., "c":
    ..., "d": ...}``, with no other key.
    """
    return _read_coin(obj)


def _read_coin(obj, site=None) -> Coin:
    """coin_from_json's coin; site, when given, names the coin's site in what _validated raises."""
    if not isinstance(obj, dict):
        raise ConfigParse(f"coin entry must be an object, got {type(obj).__name__}")
    form, keys = ("rotation coin", {"rotation"}) if "rotation" in obj else ("coin entry", {"a", "b", "c", "d"})
    extra = set(obj) - keys
    if extra:
        raise ConfigParse(f"{form} has unexpected keys {sorted(extra)}")
    if "rotation" in obj:
        return rotation_coin(_real(obj["rotation"], "rotation parameter"))
    try:
        entries = [_complex_from_pair(obj[k], f'coin "{k}"') for k in ("a", "b", "c", "d")]
    except KeyError as exc:
        raise ConfigParse(f"coin entry missing key {exc}") from exc
    return _validated(np.reshape(entries, (1, 2, 2)), None if site is None else [site])[0]


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
    missing = [f'"{k}"' for k in ("n0", "coins") if k not in obj]
    if missing:
        noun = "keys" if len(missing) > 1 else "key"
        raise ConfigParse(f"config needs {' and '.join(missing)} {noun}")
    n0 = obj["n0"]
    if not isinstance(n0, int) or isinstance(n0, bool) or n0 < 0:
        raise ConfigParse(f'"n0" must be a nonnegative integer, got {n0!r}')
    coins_raw = obj["coins"]
    if not isinstance(coins_raw, list) or len(coins_raw) != n0 + 1:
        raise ConfigParse(f'"coins" must list n0 + 1 = {n0 + 1} coins')
    # the coins are read and checked in one array pass when each is in entry or rotation
    # form; otherwise each is read and checked in turn, so the first bad coin raises
    if all(type(c) is dict and (c.keys() == _ENTRY_KEYS or c.keys() == _ROTATION_KEYS) for c in coins_raw):
        stack = _entry_stack(coins_raw)
        if stack is not None:
            return CoinSequence(n0, tuple(_validated(stack, range(len(stack)))))
    return CoinSequence(n0, tuple(_read_coin(c, k) for k, c in enumerate(coins_raw)))


def _entry_stack(coins) -> np.ndarray | None:
    """The (N, 2, 2) entries of N coins {"a": [re, im], ..., "d": [re, im]} or {"rotation": r}; None
    unless each value is a list of two ints or floats or, for r, one int or float, not bools, finite as
    floats, read as float(v) reads it, and each |r| < 1.  A rotation coin's entries are rotation_coin(r)'s."""
    rotation = [len(c) == 1 for c in coins]
    rs = [c["rotation"] for c in compress(coins, rotation)]
    pairs = list(chain.from_iterable(map(_ABCD, compress(coins, map(operator.not_, rotation)) if rs else coins)))
    lists_of_two = set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
    nums = list(chain.from_iterable(pairs)) + rs if lists_of_two else [None]
    try:  # np.array reads an int as float(v) does, with OverflowError past the float range
        x = np.array(nums, dtype=float) if set(map(type, nums)) <= {int, float} else None
    except OverflowError:
        return None
    if x is None or not np.isfinite(x).all() or rs and not (np.abs(x[x.size - len(rs) :]) < 1).all():
        return None
    if not rs:
        return x.view(complex).reshape(-1, 2, 2)
    r = x[x.size - len(rs) :]
    entries, s = np.zeros((len(coins), 4), dtype=complex), np.sqrt(1 - r * r)  # IEEE sqrt, as math.sqrt
    entries[np.logical_not(rotation)] = x[: x.size - len(rs)].view(complex).reshape(-1, 4)
    entries.real[rotation] = np.stack([s, r, -r, s], axis=-1)  # the imaginary parts stay +0
    return entries.reshape(-1, 2, 2)


def sequence_to_json(cs: CoinSequence) -> dict:
    return {"n0": cs.n0, "coins": [coin_to_json(c) for c in cs.coins]}
