import copy
import inspect
import math
import os
import pickle
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import qwres

LIBRARY = (
    "coins",
    "errors",
    "expansion",
    "genericity",
    "resolvent",
    "resonances",
    "scattering",
    "states",
    "transfer",
    "walk",
)


def test_every_module_is_accounted_for():
    # cli is the front end; its one name, main, is not re-exported
    assert {m.name for m in pkgutil.iter_modules(qwres.__path__)} == set(LIBRARY) | {"cli"}


def test_public_names_are_the_union_of_module_all():
    exported = {}
    for name in LIBRARY:
        module = import_module(f"qwres.{name}")
        for attr in module.__all__:
            assert attr not in exported, f"{attr} is in both {exported.get(attr)} and {name}"
            exported[attr] = name
            assert getattr(qwres, attr) is getattr(module, attr), attr
    public = {
        attr
        for attr, value in vars(qwres).items()
        if not attr.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(exported)


def _records():
    """One instance of each of the 13 record types, built on the triple barrier."""
    from qwres.resonances import _spectrum

    cs = qwres.triple_barrier()
    psi = qwres.basis_state(0, "L")
    res = qwres.Resonance(complex(-math.pi / 2, -math.log(2) / 2), 1j * math.sqrt(0.5), -0.5 + 0j, 2)
    ed = qwres.expand(cs, psi)
    return [
        qwres.hadamard_coin(),
        cs,
        qwres.coin_to_pqtheta(qwres.rotation_coin(0.3)),
        psi,
        qwres.decompose(qwres.evolve(psi, cs, 3)[3], cs.n0),
        qwres.transfer_polynomial(cs),
        res,
        qwres.resonant_chain(cs, qwres.find_resonances(cs)[0], 2),
        _spectrum(cs),
        qwres.scattering_matrix(cs, 0.3),
        ed.blocks[0],
        ed,
        qwres.PerturbationFamily(cs, 0.5, (0.1, 0.2)),
    ]


def _same(x, y) -> bool:
    """x and y alike field by field: arrays bit for bit, records and tuples recursively."""
    if isinstance(x, np.ndarray):
        return type(y) is np.ndarray and x.dtype == y.dtype and np.array_equal(x.view(np.uint8), y.view(np.uint8))
    if isinstance(x, tuple):
        return type(y) is tuple and len(x) == len(y) and all(map(_same, x, y))
    if hasattr(type(x), "__match_args__"):  # a record: the fields, and CoinSequence's table; not its cached hash
        public = [k for k in vars(x) if not k.startswith("_")]
        return type(y) is type(x) and all(_same(getattr(x, k), getattr(y, k)) for k in public)
    return type(y) is type(x) and x == y


def test_records_refuse_assignment_and_deletion():
    records = _records()
    assert len({type(r) for r in records}) == 13
    for r in records:
        field = type(r).__match_args__[0]
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(r, field, 0)
        with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
            r.extra = 0
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(r, field)
        assert type(r).__match_args__ == tuple(inspect.signature(type(r)).parameters)


def test_records_compare_and_hash_by_their_fields():
    coin, cs, pq, res = (_records()[k] for k in (0, 1, 2, 6))
    twins = [
        (coin, qwres.Coin(coin.a, coin.b, coin.c, coin.d)),
        (cs, qwres.CoinSequence(cs.n0, tuple(qwres.Coin(u.a, u.b, u.c, u.d) for u in cs.coins))),
        (pq, qwres.PQTheta(pq.p, pq.q, pq.theta)),
        (res, qwres.Resonance(res.xi, res.lam, res.mu, res.alg_multiplicity)),
    ]
    for r, twin in twins:
        assert r is not twin and r == twin and not r != twin and hash(r) == hash(twin)
        assert r != qwres.hadamard_pair() and (r == 0) is False
    assert coin != qwres.Coin(coin.a, coin.b, coin.c, -coin.d)


def test_records_with_array_fields_compare_by_shape_and_value():
    cs = qwres.triple_barrier()
    psi = qwres.basis_state(0, "L") + 0.5 * qwres.basis_state(1, "R")
    twin = qwres.WaveState(psi.support_lo, psi.amplitudes.copy())
    assert psi is not twin and psi == twin and not psi != twin
    longer = qwres.WaveState(psi.support_lo, np.vstack([psi.amplitudes, [[0.0, 0.25]]]))
    assert psi != longer and longer != psi and psi != qwres.basis_state(0, "L")
    assert qwres.transfer_polynomial(cs) == qwres.transfer_polynomial(cs)
    assert qwres.transfer_polynomial(cs) != qwres.transfer_polynomial(qwres.hadamard_pair())
    res = qwres.find_resonances(cs)[0]
    chain = qwres.resonant_chain(cs, res, 2)
    assert chain == qwres.resonant_chain(cs, res, 2) and chain != qwres.resonant_chain(cs, res, 3)
    with pytest.raises(TypeError, match="unhashable"):
        hash(psi)
    # the records without arrays keep the tuple comparison of their fields
    scalar_only = (qwres.Coin, qwres.CoinSequence, qwres.Resonance)
    assert all(r.__eq__ is qwres.coins._Record.__eq__ for r in scalar_only)


def test_record_repr_is_the_dataclass_text():
    records = _records()
    assert repr(records[0]) == (
        "Coin(a=(0.7071067811865475+0j), b=(0.7071067811865475+0j), c=(0.7071067811865475+0j), d=(-0.7071067811865475+0j))"
    )
    assert repr(records[6]) == (
        "Resonance(xi=(-1.5707963267948966-0.34657359027997264j), lam=0.7071067811865476j, mu=(-0.5+0j), alg_multiplicity=2)"
    )
    assert repr(records[1]) == (
        "CoinSequence(n0=2, coins=(Coin(a=(0.6614378277661477+0j), b=(0.75+0j), c=(-0.75+0j), d=(0.6614378277661477+0j)), "
        "Coin(a=(0.38461538461538447+0j), b=(0.9230769230769231+0j), c=(-0.9230769230769231+0j), d=(0.38461538461538447+0j)), "
        "Coin(a=(0.9428090415820634+0j), b=(0.3333333333333333+0j), c=(-0.3333333333333333+0j), d=(0.9428090415820634+0j))))"
    )
    sm = qwres.ScatteringMatrix(np.complex128(0.3), *np.array([0.6 - 0.8j, 0.6 + 0.8j, 0.0, -0.0j]))
    assert repr(sm) == (
        "ScatteringMatrix(xi=np.complex128(0.3+0j), t_minus=np.complex128(0.6-0.8j), t_plus=np.complex128(0.6+0.8j), "
        "r_minus=np.complex128(0j), r_plus=np.complex128(-0-0j))"
    )


def test_records_take_their_fields_as_keywords():
    for r in _records():
        kwargs = {f: getattr(r, f) for f in type(r).__match_args__}
        assert _same(type(r)(**kwargs), r)
        assert _same(type(r)(*kwargs.values()), r)


def test_records_survive_pickle_and_deepcopy():
    for r in _records():
        for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert back is not r and _same(back, r)
            if type(r) in (qwres.Coin, qwres.CoinSequence, qwres.PQTheta, qwres.Resonance, qwres.PerturbationFamily):
                assert back == r and hash(back) == hash(r)


def test_command_line_import_generates_no_code():
    # the records are plain classes: importing the command line module loads
    # neither dataclasses nor copy, and compiles no code from strings (the
    # modules' own sources aside, where no bytecode is cached)
    src = str(Path(qwres.__file__).parent.parent)
    code = (
        "import sys, argparse, json, pathlib, numpy\n"
        "compiled = []\n"
        "sys.addaudithook(lambda event, args: compiled.append(str(args[1])) if event == 'compile' else None)\n"
        "import qwres.cli\n"
        "print(sorted({'dataclasses', 'copy'} & set(sys.modules)), [f for f in compiled if not f.endswith('.py')])\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[] []\n"
