import math
import warnings

import numpy as np
import pytest

from conftest import haar_coin
from qwres import (
    A2Violated,
    CoinSequence,
    ConfigParse,
    ConstraintViolated,
    NotUnitary,
    PQTheta,
    UnsupportedN0,
    coin_from_json,
    coin_to_json,
    coin_to_pqtheta,
    coin_transfer_factor,
    hadamard_coin,
    identity_coin,
    pqtheta_to_S,
    pqtheta_to_T,
    rotation_coin,
    s_product,
    sequence_from_json,
    sequence_to_json,
    validate_coin,
)


def test_builtin_coins_are_unitary():
    for coin in (identity_coin(), hadamard_coin(), rotation_coin(0.3)):
        m = coin.matrix
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-15)


def test_rotation_coin_entries():
    c = rotation_coin(0.6)
    assert c.a == pytest.approx(0.8)
    assert c.b == pytest.approx(0.6)
    assert c.c == pytest.approx(-0.6)
    assert c.d == pytest.approx(0.8)
    assert rotation_coin(0.0).is_identity()


@pytest.mark.parametrize("r", [1.0, -1.0, 1.5])
def test_rotation_coin_rejects_degenerate_parameter(r):
    with pytest.raises(A2Violated):
        rotation_coin(r)


def test_validate_coin_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        validate_coin([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(NotUnitary):
        validate_coin(np.eye(3))
    # nan compares false with any tolerance, so the test is written to fail on it
    with pytest.raises(NotUnitary):
        validate_coin([[math.nan, 0.8], [-0.8, 0.6]])
    # huge entries overflow the residual, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotUnitary):
            validate_coin(1e200 * hadamard_coin().matrix)


def test_validate_coin_rejects_vanishing_a():
    with pytest.raises(A2Violated):
        validate_coin([[0.0, 1.0], [1.0, 0.0]])


def test_validate_coin_keeps_entries_bitwise():
    m = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    c = validate_coin(m)
    assert c.a == 0.6 and c.b == 0.8 and c.c == -0.8 and c.d == 0.6


def test_p_q_blocks_sum_to_coin():
    c = hadamard_coin()
    np.testing.assert_array_equal(c.p_block + c.q_block, c.matrix)
    assert not c.p_block[1].any() and not c.q_block[0].any()


def test_coin_sequence_validation():
    with pytest.raises(ValueError):
        CoinSequence(1, (hadamard_coin(),))
    with pytest.raises(TypeError):
        CoinSequence(0, (np.eye(2),))
    with pytest.raises(UnsupportedN0):
        CoinSequence(-1, ())


def test_coin_at_identity_outside_window():
    cs = CoinSequence(1, (hadamard_coin(), rotation_coin(0.2)))
    assert cs.coin_at(-1).is_identity()
    assert cs.coin_at(2).is_identity()
    assert cs.coin_at(0) is cs.coins[0]


def test_coin_table_is_read_only_and_outside_equality():
    cs = CoinSequence(1, (hadamard_coin(), rotation_coin(0.2)))
    u = cs.coins[1]
    assert cs.table.shape == (2, 4) and not cs.table.flags.writeable
    assert cs.table[1].tolist() == [u.a, u.b, u.c, u.d]
    twin = CoinSequence(1, cs.coins)
    assert cs == twin and hash(cs) == hash(twin) and "table" not in repr(cs)
    with pytest.raises(TypeError):
        CoinSequence(1, cs.coins, cs.table)


def test_haar_coin_is_the_positive_diagonal_qr_factor():
    # the Q of numpy's QR with R's diagonal phases moved into it, from the
    # same two Gaussian columns
    rng, replay = np.random.default_rng(19), np.random.default_rng(19)
    for _ in range(500):
        c = haar_coin(rng)
        while True:
            m = replay.normal(size=(2, 2)) + 1j * replay.normal(size=(2, 2))
            q, r = np.linalg.qr(m)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            if abs(q[0, 0]) >= 0.1:
                break
        np.testing.assert_allclose(c.matrix, q, rtol=0, atol=1e-13)


def test_pqtheta_constraint_enforced():
    with pytest.raises(ConstraintViolated):
        PQTheta(1.0 + 0j, 0.5 + 0j, 0.0)
    with pytest.raises(ConstraintViolated):
        PQTheta(complex(math.nan), 0j, 0.0)


def _coin_with_modulus(rng, r):
    """A coin with |a| = r and uniform random phases on a, b and det."""
    alpha, beta, gamma = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
    a, b = r * alpha, math.sqrt(1.0 - r * r) * beta
    return validate_coin([[a, b], [-gamma * np.conj(b), gamma * np.conj(a)]])


def test_pqtheta_round_trip_on_random_coins():
    rng = np.random.default_rng(11)
    phases = np.linspace(-np.pi, np.pi, 9)
    coins = (
        [haar_coin(rng) for _ in range(200)]
        # a/d = -1 sits on the branch cut of the phase; the identity and the
        # rotations have theta = 0
        + [hadamard_coin(), identity_coin()]
        + [rotation_coin(r) for r in (-0.99, -0.5, 0.3, 0.999)]
        + [validate_coin(np.diag(np.exp(1j * np.array([s, t])))) for s in phases for t in phases]
        + [_coin_with_modulus(rng, r) for r in (0.03, 1e-2, 1e-3) for _ in range(100)]
    )
    for c in coins:
        x = coin_to_pqtheta(c)
        assert 0.0 <= x.theta < math.pi
        # |p|^2 ~ 1/|a|^2 is known only to its ulps, 1.2e-10 at |a| = 1e-3
        assert abs(abs(x.p) ** 2 - abs(x.q) ** 2 - 1.0) < max(1e-10, 16 * np.spacing(abs(x.p) ** 2))
        back = pqtheta_to_S(x)
        np.testing.assert_allclose(back.matrix, c.matrix, rtol=0, atol=1e-12)


def test_transfer_factor_equals_hyperbolic_image():
    rng = np.random.default_rng(13)
    for _ in range(50):
        c = haar_coin(rng)
        np.testing.assert_allclose(
            coin_transfer_factor(c), pqtheta_to_T(coin_to_pqtheta(c)), atol=1e-12
        )


def test_s_product_is_transfer_multiplication():
    rng = np.random.default_rng(17)
    pairs = [(haar_coin(rng), haar_coin(rng)) for _ in range(100)]
    # at |a| = 0.03 the product's entries reach 1/|a|^2 ~ 1100, and a
    # determinant formed from them loses about 1e-9 to cancellation
    pairs += [(_coin_with_modulus(rng, 0.03), _coin_with_modulus(rng, 0.03)) for _ in range(100)]
    for c1, c2 in pairs:
        prod = s_product(c1, c2)
        np.testing.assert_allclose(
            coin_transfer_factor(prod),
            coin_transfer_factor(c1) @ coin_transfer_factor(c2),
            rtol=0,
            atol=1e-10,
        )


def test_s_product_of_rotations_is_velocity_addition():
    r1, r2 = 0.3, 0.5
    prod = s_product(rotation_coin(r1), rotation_coin(r2))
    expected = (r1 + r2) / (1.0 + r1 * r2)
    np.testing.assert_allclose(prod.matrix, rotation_coin(expected).matrix, atol=1e-14)


def test_s_product_identity_and_associativity():
    rng = np.random.default_rng(19)
    c = haar_coin(rng)
    np.testing.assert_allclose(s_product(identity_coin(), c).matrix, c.matrix, atol=1e-14)
    np.testing.assert_allclose(s_product(c, identity_coin()).matrix, c.matrix, atol=1e-14)
    a, b, d = haar_coin(rng), haar_coin(rng), haar_coin(rng)
    np.testing.assert_allclose(
        s_product(s_product(a, b), d).matrix,
        s_product(a, s_product(b, d)).matrix,
        atol=1e-10,
    )


def test_s_product_stays_in_class():
    # |a'| = 1/|p'| with |p'|^2 = 1 + |q'|^2, so the product coin always has
    # a nonzero a-entry; check the closure on a batch of random pairs.
    rng = np.random.default_rng(23)
    for _ in range(200):
        prod = s_product(haar_coin(rng), haar_coin(rng))
        m = prod.matrix
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-10)
        assert abs(prod.a) > 1e-14


def test_coin_json_rotation_form():
    c = coin_from_json({"rotation": 0.25})
    np.testing.assert_allclose(c.matrix, rotation_coin(0.25).matrix, atol=0)
    with pytest.raises(ConfigParse):
        coin_from_json({"rotation": 0.25, "spin": 1})
    with pytest.raises(ConfigParse):
        coin_from_json({"rotation": "fast"})


def test_coin_json_entry_form_round_trip():
    rng = np.random.default_rng(29)
    c = haar_coin(rng)
    back = coin_from_json(coin_to_json(c))
    np.testing.assert_allclose(back.matrix, c.matrix, atol=0)


@pytest.mark.parametrize(
    "obj",
    [
        42,
        {"a": [1, 0], "b": [0, 0], "c": [0, 0]},
        {"a": [1], "b": [0, 0], "c": [0, 0], "d": [1, 0]},
        {"a": ["x", 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]},
        {"rotation": False},
        {"rotation": math.nan},
        {"rotation": -math.inf},
        {"rotation": 10**400},
        {"a": [math.nan, 0], "b": [0.8, 0], "c": [-0.8, 0], "d": [0.6, 0]},
        {"a": [0.6, math.inf], "b": [0.8, 0], "c": [-0.8, 0], "d": [0.6, 0]},
        {"a": [True, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]},
        {"a": [10**400, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]},
    ],
)
def test_coin_json_rejects_malformed(obj):
    with pytest.raises(ConfigParse):
        coin_from_json(obj)


def test_sequence_json_round_trip():
    rng = np.random.default_rng(31)
    cs = CoinSequence(2, tuple(haar_coin(rng) for _ in range(3)))
    back = sequence_from_json(sequence_to_json(cs))
    assert back.n0 == 2
    for u, v in zip(back.coins, cs.coins):
        np.testing.assert_allclose(u.matrix, v.matrix, atol=0)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"coins": []},
        {"n0": True, "coins": [{"rotation": 0.1}, {"rotation": 0.1}]},
        {"n0": -1, "coins": []},
        {"n0": 1, "coins": [{"rotation": 0.1}]},
        {"n0": 0, "coins": {"rotation": 0.1}},
        {"n0": 0, "coins": [{"rotation": True}]},
        {"n0": 0, "coins": [{"a": [math.nan, 0], "b": [0.8, 0], "c": [-0.8, 0], "d": [0.6, 0]}]},
    ],
)
def test_sequence_json_rejects_malformed(obj):
    with pytest.raises(ConfigParse):
        sequence_from_json(obj)


def test_sequence_json_checks_coins_as_validate_coin_does():
    # one stacked pass over the coins: the entries stay bit for bit, and the
    # first bad coin names the error, its site and the exit code a loop over
    # validate_coin would give, also where a later coin fails to parse
    rng = np.random.default_rng(47)
    coins = [haar_coin(rng) for _ in range(9)]
    obj = {"n0": 9, "coins": [coin_to_json(c) for c in coins] + [{"rotation": 0.3}]}
    back = sequence_from_json(obj)
    assert back.coins == tuple(coins) + (rotation_coin(0.3),)
    assert np.array_equal(back.table.view(float), CoinSequence(9, back.coins).table.view(float))
    skew = coin_to_json(coins[0])
    skew["b"] = [skew["b"][0] * (1 + 1e-9), skew["b"][1]]
    swap = {"a": [0, 0], "b": [1, 0], "c": [1, 0], "d": [0, 0]}
    cases = [
        ({5: skew}, NotUnitary, "site 5"),
        ({3: swap, 6: skew}, A2Violated, "site 3"),
        ({2: skew, 4: {"rotation": 1.5}}, NotUnitary, "site 2"),
        ({2: {"rotation": 1.5}, 4: skew}, A2Violated, "rotation"),
        ({2: skew, 4: {"a": [0, 0]}}, NotUnitary, "site 2"),
        ({7: {"a": [0, 0]}}, ConfigParse, "missing key"),
    ]
    for changes, error, text in cases:
        bad = dict(obj, coins=[changes.get(k, c) for k, c in enumerate(obj["coins"])])
        with pytest.raises(error, match=text):
            sequence_from_json(bad)
        first = min(changes)
        with pytest.raises(error):
            coin_from_json(bad["coins"][first])
