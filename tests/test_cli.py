import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import near_identity_window, thin_window
from qwres import (
    QWResError,
    basis_state,
    cli,
    coin_to_json,
    errors,
    haar_coin,
    hadamard_pair,
    perturb,
    random_sequence,
    sequence_from_json,
    sequence_to_json,
    state_from_json,
)
from qwres.cli import _csv, main
from qwres.expansion import ExpansionData, ResonanceBlock
from qwres.states import _norms
from qwres.walk import BLOCK, _states
from test_expansion import identity_at_site_0

HADAMARD_CFG = {
    "n0": 1,
    "coins": [
        {
            "a": [2**-0.5, 0.0],
            "b": [2**-0.5, 0.0],
            "c": [2**-0.5, 0.0],
            "d": [-(2**-0.5), 0.0],
        }
    ]
    * 2,
    "psi0": [{"n": 0, "L": [1.0, 0.0]}],
}

TRIPLE_CFG = {
    "n0": 2,
    "coins": [
        {"rotation": 0.75},
        {"rotation": 12 / 13},
        {"rotation": 1 / 3},
    ],
}


@pytest.fixture
def hadamard_cfg(tmp_path):
    path = tmp_path / "hadamard.json"
    path.write_text(json.dumps(HADAMARD_CFG))
    return str(path)


@pytest.fixture
def triple_cfg(tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(TRIPLE_CFG))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_round_trip(capsys, hadamard_cfg):
    code, out, err = run(capsys, "validate", "--config", hadamard_cfg)
    assert code == 0 and err == ""
    parsed = json.loads(out)
    assert parsed["n0"] == 1
    assert parsed["psi0"] == [{"n": 0, "L": [1.0, 0.0]}]
    assert parsed["coins"][0]["a"] == pytest.approx([2**-0.5, 0.0])


def test_resonances_hadamard(capsys, hadamard_cfg):
    code, out, _ = run(capsys, "resonances", "--config", hadamard_cfg)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    lams = sorted(r["lambda"][0] for r in rows)
    assert lams == pytest.approx([-(2**-0.5), 2**-0.5], abs=1e-12)
    assert all(r["multiplicity"] == 1 for r in rows)
    assert all(r["xi"][1] == pytest.approx(-0.5 * math.log(2)) for r in rows)


def test_resonances_with_a_partner_near_pi(tmp_path, capsys):
    # mu = 0.5003533 + 6.1e-17j: the partner of a primary within half an ulp
    # of Re xi = 0 used to round onto pi and exit 32
    path = tmp_path / "near_pi.json"
    path.write_text(json.dumps(sequence_to_json(perturb(hadamard_pair(), 1e-3, 0.0))))
    code, out, err = run(capsys, "resonances", "--config", str(path))
    assert code == 0 and err == ""
    assert [r["xi"][0] for r in json.loads(out)] == [-math.pi, 0.0]


def test_resonances_triple_multiplicity(capsys, triple_cfg):
    code, out, _ = run(capsys, "resonances", "--config", triple_cfg)
    assert code == 0
    rows = json.loads(out)
    assert [r["multiplicity"] for r in rows] == [2, 2]
    for r in rows:
        mu = complex(*r["lambda"]) ** 2
        assert mu == pytest.approx(-0.5, abs=1e-12)


def test_polynomial_output(capsys, triple_cfg):
    code, out, _ = run(capsys, "polynomial", "--config", triple_cfg)
    assert code == 0
    coeffs = [complex(re, im) for re, im in json.loads(out)]
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    assert monic == pytest.approx([0.25, 1.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("n0", [22, 24])
def test_polynomial_refuses_a_residual_that_is_not_finite(tmp_path, capsys, n0):
    # coins with |a| = |d| = 1e-13 pass validate_coin, but the transfer
    # product overflows: at n0 = 22 the relation check reads inf - inf, at
    # n0 = 24 the coefficients themselves; a NaN residual must fail its
    # check, with no numpy warning on the way
    coin = {"a": [1e-13, 0.0], "b": [1.0, 0.0], "c": [-1.0, 0.0], "d": [1e-13, 0.0]}
    path = tmp_path / "tiny_diagonal.json"
    path.write_text(json.dumps({"n0": n0, "coins": [coin] * (n0 + 1)}))
    code, out, err = run(capsys, "polynomial", "--config", str(path))
    assert code == 21 and out == ""
    assert err.startswith("error: RelationCheckFailed: ")
    assert err.endswith(" relation residual nan is not finite\n")


def test_scattering_csv(capsys, hadamard_cfg):
    code, out, _ = run(
        capsys, "scattering", "--config", hadamard_cfg, "--xi-grid=-3.0:3.0:9,0.0"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "xi_re,xi_im,t_minus_abs2,r_minus_abs2,unitarity_residual"
    assert len(lines) == 10
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        assert cells[2] + cells[3] == pytest.approx(1.0, abs=1e-10)
        assert cells[4] < 1e-10


@pytest.mark.parametrize(
    "grid, digest",
    [
        ("--xi-grid=-3.0:3.0:41,0.0", "a09dc5758417d69266aa82864d2522f993fc8605ca0768b9fef340d78caa0b30"),
        ("--xi-grid=-3.0:3.0:41,-0.1", "1b9c9985e984d15f9fbd8843bfcf34169173457c8e73cef2ad7e183714cb4ad1"),
    ],
    ids=["real-axis", "below-axis"],
)
def test_scattering_bytes_hold_on_every_blas_kernel(capsys, triple_cfg, grid, digest):
    # the transfer kernel and the Wronskian ratios make no BLAS call, and
    # the unitarity residual's Gram entries are written out in real
    # arithmetic, so these bytes hold on every OpenBLAS kernel (recorded on
    # x86-64 with numpy 2.4, default kernel and Prescott).  They do not hold
    # on numpy's baseline SIMD loops, whose complex products in the transfer
    # kernel round |t-|^2 differently from the AVX-512 ones
    code, out, _ = run(capsys, "scattering", "--config", triple_cfg, grid)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "walk, im, digest",
    [
        ("triple", "0.5", "fd2427e8c13de0f4050e47b017f2d6ac4c8e73d98ad8e8c2418c5c31e63fe804"),
        ("triple", "-0.3", "a375a33359d14b10b10b1a309e3b6807de7aa033f5938d3f314c7ae88ea87d9b"),
        ("triple", "3", "6af6b42f27202d180d1ea8d625550597b2e9a3d2229a00414b61767f00a11fc4"),
        ("haar", "0.5", "01f4a830ad9aeac1d92a48aa0a2261bb416226406ee8012ee80e45bb60669d3d"),
        ("haar", "-0.3", "733b264263beed2db88a92f1bf013331ef1b0fff9890df8faae5d8df1e73c18d"),
        ("haar", "3", "728fe160176bc61fcfde163843392b5f76d0a3e3846a1478b813d4628d171335"),
    ],
    ids=["triple-above", "triple-below", "triple-far", "haar-above", "haar-below", "haar-far"],
)
def test_resolvent_check_bytes_hold_on_every_blas_kernel(tmp_path, capsys, triple_cfg, walk, im, digest):
    # the window systems are solved from their two homogeneous solutions in
    # elementwise numpy arithmetic, with no BLAS or LAPACK call, so these
    # bytes hold on every OpenBLAS kernel (recorded on x86-64 with numpy
    # 2.4, default kernel and Prescott).  Like the scattering bytes they do
    # not hold on numpy's baseline SIMD loops, whose complex products round
    # differently from the AVX-512 ones
    cfg = triple_cfg
    if walk == "haar":
        cfg = tmp_path / "haar.json"
        cfg.write_text(json.dumps(sequence_to_json(random_sequence(np.random.default_rng(11), 7))))
    code, out, _ = run(capsys, "resolvent-check", "--config", str(cfg), f"--xi-grid=-3.0:3.0:41,{im}")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_evolve_writes_two_streams(tmp_path, capsys, hadamard_cfg):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys, "evolve", "--config", hadamard_cfg, "--T", "8", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    body = out_path.read_text()
    summary = (tmp_path / "traj.summary.csv").read_text()
    assert body.startswith("t,n,chirality,re,im\n")
    assert summary.startswith("t,survival_norm\n")
    # survival at t follows the exact halving law
    values = [float(line.split(",")[1]) for line in summary.strip().split("\n")[1:]]
    for t, v in enumerate(values):
        assert v == pytest.approx(2.0 ** (-t / 2), abs=1e-12)
    # trajectory starts from the configured delta
    assert body.split("\n")[1] == "0,0,L,1,0"


LITERAL_CFG = {
    "n0": 3,
    "coins": [
        {"rotation": 0.5},
        {"a": [0.6, 0.0], "b": [0.0, 0.8], "c": [0.0, 0.8], "d": [0.6, 0.0]},
        {"a": [0.0, 0.6], "b": [0.8, 0.0], "c": [-0.8, 0.0], "d": [0.0, -0.6]},
        {"rotation": -0.3},
    ],
    "psi0": [{"n": -2, "R": [0.6, 0.0]}, {"n": 1, "L": [0.0, 0.8]}],
}

# real coins with c, d < 0 emit 0.96 - 0i at site 3; the pure shift carries
# that -0 outward, where a coin-times-identity step would have made it +0
REAL_CFG = {
    "n0": 2,
    "coins": [
        {"rotation": 0.5},
        {"rotation": -0.3},
        {"a": [0.6, 0.0], "b": [-0.8, 0.0], "c": [-0.8, 0.0], "d": [-0.6, 0.0]},
    ],
    "psi0": [{"n": 2, "L": [-0.6, 0.0], "R": [-0.8, 0.0]}],
}


# incoming parts on both sides (R at -2, L at n0 + 3) and an outgoing L at -4
TWO_SIDED_CFG = {
    "n0": 3,
    "coins": LITERAL_CFG["coins"],
    "psi0": [
        {"n": -4, "L": [0.0, 0.36]},
        {"n": -2, "R": [0.48, 0.0]},
        {"n": 1, "L": [0.0, 0.64]},
        {"n": 6, "L": [-0.48, 0.0]},
    ],
}


@pytest.mark.simd_portable
@pytest.mark.parametrize(
    "cfg, T, digest, summary_digest",
    [
        (
            HADAMARD_CFG,
            60,
            "e126748de3c0907c012dc7c5f912c9a5d7e8d769323ef9ea30584862eaef2a9f",
            "61d9b7f6fb055758fbdfe573223f965b82ee7c09816ff310629d17957c0eea4d",
        ),
        (
            TRIPLE_CFG,
            60,
            "3af9282d078d974cf404e2ad3a1e7d09aa40210e1a5491f807b66b7389af6f22",
            "e90e67b112f599fa6d35bbcd87cbd8a901f157c8906ee089dfa05657124f87b1",
        ),
        (
            LITERAL_CFG,
            60,
            "a476f3027935865958c91296281e45316c4ca7b70206a636d0ad852fdd4ed219",
            "ae2f61518e4b4eebc78d4d235e9cafca3a58231669662baa318120ca86baf8fb",
        ),
        (
            REAL_CFG,
            60,
            "91f8b22f33f6527690a0375137768fa0b67476aaf5445afdd335b7f66c2e6c3c",
            "54b90d18ad3f7429d32510a3dd8a0b0f709fea6312e9b23b770128c42d01eca9",
        ),
        (
            TWO_SIDED_CFG,
            60,
            "aed68a17339a56199a65750e4f7f2baae1086570ebdfd79c7e86105c02202ea9",
            "c6ad0ef31a20769aa89478df83f5af709a354808b74db252565946149e8ea2dd",
        ),
        (
            HADAMARD_CFG,
            300,
            "5e18ac439b3c4650cd3f890672f91c0bf4f7ba2ce239f37379c8eb39d704efab",
            "1acf31a50c87aa4660833639fe498406f6731007ad35a41e3560079a8367419c",
        ),
        (
            TRIPLE_CFG,
            300,
            "0c374248d57ed8a5d96d5001fb7e19b08fec99e11939d7ebd331ed565cccaf85",
            "66926558ef3d3b72c6df6a88c71e22b9974f0ec3d504f02fa68571f96d936ac8",
        ),
        (
            TWO_SIDED_CFG,
            300,
            "5c27edf57160b41395d33d08f8081ff981fcbbff90b1c174c45667c66bbe555f",
            "5652fdf703f9f6ab655b57d937355c4c69263d066a427270f82470a655eba396",
        ),
    ],
    ids=["hadamard", "triple", "literal", "real", "two-sided", "hadamard-300", "triple-300", "two-sided-300"],
)
def test_evolve_trajectory_bytes_are_pinned(tmp_path, capsys, cfg, T, digest, summary_digest):
    # a change to the step that moves any amplitude by one ulp, or the sign
    # of a printed zero, shows up here; T = 300 is the benchmark's evolve
    # size, about 45,000 lines.  The digests were recorded on x86-64 with
    # numpy 2.4.  Neither the trajectory nor the window norms of the
    # summary make a BLAS or LAPACK call, so they hold on every OpenBLAS
    # kernel.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys, "evolve", "--config", str(cfg_path), "--T", str(T), "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
    summary = (tmp_path / "traj.summary.csv").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == summary_digest


@pytest.mark.simd_portable
@pytest.mark.parametrize(
    "cfg, T, digest",
    [
        (HADAMARD_CFG, 1200, "6ad7135ff24bf76606b85228f17ce8c2199f525c6a0d56e34917718134c06a68"),
        (TRIPLE_CFG, 1200, "41e52d305e812df0f881e2b9fa74b7001ffca640f9f964afb603d5f05d0b2f83"),
        (LITERAL_CFG, 1200, "8dfeaccf87f6f48f80e472d568dd98076a206a68b4adbb634b06acd82e98fa9a"),
        (REAL_CFG, 1200, "84bdc34ad2fa13c8e98c9b073c2805376db988dc5ee6c78d038680ad4c3518cd"),
        (TWO_SIDED_CFG, 1200, "597f60e26984ea97f6e54be8d7f10412e933f1a4fc44fe68f2864bdd964c5e9f"),
        (HADAMARD_CFG, 4000, "7af2e52687136a27f53249df4470e8bbf871267e3d8535e54cab561b97a0954c"),
    ],
    ids=["hadamard", "triple", "literal", "real", "two-sided", "hadamard-T4000"],
)
def test_survival_fit_bytes_are_pinned(tmp_path, capsys, cfg, T, digest):
    # the fit line reads every window norm; for the Hadamard pair and the
    # triple barrier the late ones fall below 1e-150, into the rescaled
    # branch of WaveState.norm().  By T = 4000 the Hadamard norms run on
    # through subnormal top moduli to exact zeros, and span eight blocks of
    # window rows.  The fit makes no LAPACK call and its start index is an
    # integer rank, so these bytes too hold on every OpenBLAS kernel.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "survival", "--config", str(cfg_path), "--T", str(T), "--fit")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_evolve_stdout_contains_both_streams(capsys, hadamard_cfg):
    code, out, _ = run(capsys, "evolve", "--config", hadamard_cfg, "--T", "2")
    assert code == 0
    assert "t,n,chirality,re,im" in out
    assert "t,survival_norm" in out


def test_survival_fit_block(capsys, hadamard_cfg):
    code, out, _ = run(capsys, "survival", "--config", hadamard_cfg, "--T", "40", "--fit")
    assert code == 0
    blocks = out.split("\n\n")
    fit_lines = blocks[0].strip().split("\n")
    assert fit_lines[0] == "M_est,m_est,C_est"
    m_est = float(fit_lines[1].split(",")[0])
    assert abs(m_est - 2**-0.5) < 1e-6


def test_survival_fit_past_the_float_range_exits_35(tmp_path, capsys):
    # on this n0 = 1 window the fitted log prefactor at T = 3000 is about
    # 749, past log(DBL_MAX) = 709.78: a typed refusal, not a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(sequence_to_json(random_sequence(np.random.default_rng(7), 1))))
    out_path = tmp_path / "fit.csv"
    code, out, err = run(capsys, "survival", "--config", str(cfg_path), "--T", "3000", "--fit", "--out", str(out_path))
    assert code == 35 and out == "" and not out_path.exists()
    assert err.startswith("error: SpectralOverflow: e^ of fitted log M") and "log C 749.042" in err


def test_survival_past_underflow(capsys, hadamard_cfg):
    # the window norm 2^(-t/2) drops below 1e-154, where its squares
    # underflow, and from t = 2045 on the amplitudes themselves are subnormal
    code, out, _ = run(capsys, "survival", "--config", hadamard_cfg, "--T", "2100")
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert len(values) == 2101
    for t in (1074, 1075, 1100):
        assert abs(values[t] / 2.0 ** (-t / 2) - 1) < 1e-12
    # a subnormal 2^-1050 carries 24 significant bits
    assert abs(values[2100] / 2.0**-1050 - 1) < 1e-6


def test_survival_past_overflow_of_the_squares(tmp_path, capsys):
    # from 1e200 the squares of the window amplitudes overflow until the
    # norm falls below about 1.34e154 at t = 305; up to there the norms are
    # rescaled, silently, in survival and in evolve's summary alike
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(dict(HADAMARD_CFG, psi0=[{"n": 0, "L": [1e200, 0.0]}])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "survival", "--config", str(cfg_path), "--T", "60")
        assert code == 0 and err == ""
        values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert len(values) == 61
        for t, v in enumerate(values):
            assert abs(v / (1e200 * 2.0 ** (-t / 2)) - 1) < 1e-12
        code, both, _ = run(capsys, "evolve", "--config", str(cfg_path), "--T", "60")
    assert code == 0 and both.endswith("\n" + out)


def test_window_walk_past_the_float_range_exits_35(tmp_path, capsys):
    # (a + b) 1.7e308 / sqrt(2) overflows in the coin at site 0 on the first
    # step; evolve, survival and the fit refuse it with the step and the
    # site, print nothing and leak no warning.  A huge amplitude that moves
    # away from the window never reaches the coins: its survival is that of
    # the rest of psi0 alone
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(dict(HADAMARD_CFG, psi0=[{"n": 0, "L": [1.7e308, 0.0], "R": [1.7e308, 0.0]}])))
    away = tmp_path / "away.json"
    away.write_text(json.dumps(dict(HADAMARD_CFG, psi0=[{"n": -5, "L": [1.7e308, 0.0]}, {"n": 0, "L": [1.0, 0.0]}])))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(HADAMARD_CFG))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["evolve"], ["survival"], ["survival", "--fit"]):
            code, out, err = run(capsys, *argv, "--config", str(huge), "--T", "40")
            assert code == 35 and out == ""
            assert err == "error: SpectralOverflow: the L amplitude at site -1 leaves the float range at t=1\n"
        code, out, _ = run(capsys, "evolve", "--config", str(away), "--T", "40")
        assert code == 0 and "\n40,-45,L,1.6999999999999999e+308,0\n" in out
        code, out, _ = run(capsys, "survival", "--config", str(away), "--T", "40", "--fit")
    assert code == 0
    assert run(capsys, "survival", "--config", str(plain), "--T", "40", "--fit") == (0, out, "")


def test_window_norm_past_the_float_range_exits_35(tmp_path, capsys):
    # four Hadamard coins and psi0 = 1e308 L on the window: every amplitude
    # is finite, but the window norm 2e308 is not; survival, the fit and
    # evolve's summary refuse it at t = 0 instead of printing inf, print
    # nothing and leak no warning
    cfg = dict(HADAMARD_CFG, n0=3, coins=HADAMARD_CFG["coins"][:1] * 4)
    cfg["psi0"] = [{"n": n, "L": [1e308, 0.0]} for n in range(4)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["survival"], ["survival", "--fit"], ["evolve"]):
            code, out, err = run(capsys, *argv, "--config", str(path), "--T", "3")
            assert code == 35 and out == ""
            assert err == "error: SpectralOverflow: the window norm leaves the float range at t=0\n"


def test_grid_commands_on_generated_inputs_end_finite_or_typed(tmp_path, capsys):
    # seeded Haar windows n0 = 0-9 with a one-site psi0 of modulus 1e-300
    # to 1.7e308, on lines from Im xi = -40 to 40: scattering and
    # resolvent-check print only finite numbers or exit with the code of
    # a package error (AtResonance, UnsupportedN0 at n0 = 0 and
    # SpectralOverflow among them), and leak no numpy warning
    codes = {c.exit_code for c in vars(errors).values() if isinstance(c, type) and issubclass(c, QWResError)}
    rng = np.random.default_rng(34)
    path = tmp_path / "walk.json"
    seen = set()
    for _ in range(150):
        n0 = int(rng.integers(0, 10))
        amp = rng.choice([1e-300, 1e-150, 1.0, 1e150, 1e300, 1.7e308]) * np.exp(2j * np.pi * rng.uniform())
        coins = [coin_to_json(haar_coin(rng)) for _ in range(n0 + 1)]
        psi0 = [{"n": int(rng.integers(-3, n0 + 4)), str(rng.choice(["L", "R"])): [amp.real, amp.imag]}]
        path.write_text(json.dumps({"n0": n0, "coins": coins, "psi0": psi0}))
        im = float(rng.choice([-40, -3, -0.5, 0, 0.5, 3, 40]))
        command = str(rng.choice(["scattering", "resolvent-check"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, "--config", str(path), f"--xi-grid=-3:3:7,{im!r}")
        seen.add(code)
        if code == 0:
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert len(rows) == 7 and all(math.isfinite(float(x)) for row in rows for x in row)
        else:
            assert code in codes and out == "" and err.startswith("error: ")
    assert {0, 35} <= seen


def _finite_numbers(text):
    """True if every token of text that reads as a float is finite."""
    numbers = []
    for token in re.split(r"[\s,\[\]{}:]+", text):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return all(map(math.isfinite, numbers))


def test_window_commands_on_generated_inputs_end_finite_or_typed(tmp_path, capsys):
    # seeded windows n0 = 0-9 of Haar, thin and near-identity coins (t from
    # 1e-12 to 1e-1) with a one-site psi0 of modulus 1e-300 to 1.7e308: the
    # commands that read a config and no grid print only finite numbers or
    # exit with the code of a package error, and leak no numpy warning
    codes = {c.exit_code for c in vars(errors).values() if isinstance(c, type) and issubclass(c, QWResError)}
    commands = [["validate"], ["resonances"], ["polynomial"], ["expand"], ["survival"],
                ["survival", "--fit"], ["evolve"], ["split"]]
    rng = np.random.default_rng(35)
    path = tmp_path / "walk.json"
    seen = set()
    for _ in range(500):
        n0 = int(rng.integers(0, 10))
        family = int(rng.integers(0, 3))
        if family == 0:
            coins = [haar_coin(rng) for _ in range(n0 + 1)]
        else:
            window = (thin_window, near_identity_window)[family - 1]
            coins = window(rng, n0, 10.0 ** rng.uniform(-12, -1)).coins
        amp = rng.choice([1e-300, 1e-150, 1.0, 1e150, 1e300, 1.7e308]) * np.exp(2j * np.pi * rng.uniform())
        psi0 = [{"n": int(rng.integers(-3, n0 + 4)), str(rng.choice(["L", "R"])): [amp.real, amp.imag]}]
        path.write_text(json.dumps({"n0": n0, "coins": [coin_to_json(c) for c in coins], "psi0": psi0}))
        argv = commands[int(rng.integers(0, len(commands)))]
        steps = ["--T", str(rng.choice([0, 1, 30]))] if argv[0] in ("survival", "evolve") else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--config", str(path), *steps)
        seen.add((argv[0], code))
        if code == 0:
            assert _finite_numbers(out) and err == "", argv
        else:
            assert code in codes and out == "" and err.startswith("error: "), argv
    assert {name for name, _ in seen} == {argv[0] for argv in commands}
    assert {code for _, code in seen} >= {0, 32}


def test_survival_keeps_only_the_current_state(tmp_path, capsys, hadamard_cfg):
    # holding the whole trajectory of T = 2000 steps takes over 100 MB, and
    # holding every window row of a Haar window of n0 = 32 for T = 10000
    # about 21 MB; survival keeps one block of window rows and the norms
    haar = sequence_to_json(random_sequence(np.random.default_rng(32), 32))
    haar_cfg = tmp_path / "haar32.json"
    haar_cfg.write_text(json.dumps(haar))
    for cfg, T in ((hadamard_cfg, "2000"), (str(haar_cfg), "10000")):
        tracemalloc.start()
        try:
            code = main(["survival", "--config", cfg, "--T", T])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 8 * 2**20


def test_survival_makes_no_state_per_step(capsys, monkeypatch, hadamard_cfg):
    # parsing the config makes psi0; the 2000 steps make none (a state
    # per step would make 2001 more)
    import qwres.states

    made = []
    init = qwres.states.WaveState.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(qwres.states.WaveState, "__init__", counted)
    code, _, _ = run(capsys, "survival", "--config", hadamard_cfg, "--T", "2000")
    assert code == 0
    assert len(made) <= 2


def test_survival_steps_only_the_window(capsys, monkeypatch, hadamard_cfg):
    # the light cone of T = 2000 steps is 4000 sites wide; the window walk
    # applies the coins once a step, to the 2 (n0 + 1) + 1 slots of _coin's
    # layout: the L and the R of the n0 + 1 window sites and the spare slot
    import qwres.walk

    kernel = qwres.walk._coin
    shapes = []

    def counted(c1, c2, x, xr, out, tmp):
        shapes.append((c1.shape, c2.shape, x.shape, out.shape))
        return kernel(c1, c2, x, xr, out, tmp)

    monkeypatch.setattr(qwres.walk, "_coin", counted)
    code, _, _ = run(capsys, "survival", "--config", hadamard_cfg, "--T", "2000")
    assert code == 0
    slots = (2 * HADAMARD_CFG["n0"] + 3,)
    assert shapes == [(slots,) * 4] * 2000


def evolve_oracle(cfg, T):
    """evolve's body and summary rendered state by state over _states.

    Every nonzero entry of each state, sites in order and L before R, as
    "%.17g"; the summary is each state's norm on the window.
    """
    cs = sequence_from_json({"n0": cfg["n0"], "coins": cfg["coins"]})
    psi0 = state_from_json(cfg["psi0"]) if "psi0" in cfg else basis_state(0, "L")
    lines, norms = ["t,n,chirality,re,im"], []
    for t, psi in enumerate(_states(psi0, cs, T)):
        k, slot = np.nonzero(psi.amplitudes)
        z = psi.amplitudes[k, slot]
        for n, s, re, im in zip(
            (psi.support_lo + k).tolist(), slot.tolist(), z.real.tolist(), z.imag.tolist()
        ):
            lines.append("%d,%d,%s,%.17g,%.17g" % (t, n, "LR"[s], re, im))
        norms.append(psi.restrict(0, cs.n0).norm())
    summary = "t,survival_norm\n" + "".join(f"{t},{v:.17g}\n" for t, v in enumerate(norms))
    return "\n".join(lines) + "\n", summary


# a real coin with c, d < 0 (REAL_CFG's last); started from one site inside
# the window it exposes the sign of zeros that the light cone has not reached
REFLECTION = {"a": [0.6, 0.0], "b": [-0.8, 0.0], "c": [-0.8, 0.0], "d": [-0.6, 0.0]}


def evolve_configs():
    """Seeded configs: real rotations (±0.5 among them), the reflection and
    Haar coins; psi0 with signed zeros left of, inside and right of the
    window, single sites inside it, n0 = 0, a zero and an empty psi0; and
    psi0 with incoming and outgoing parts well off both ends."""
    rng = np.random.default_rng(2024)
    zeros = ([0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0])

    def coin():
        pick = rng.integers(4)
        if pick == 0:
            return {"rotation": float(rng.choice([0.5, -0.5, 0.3, -0.75]))}
        return REFLECTION if pick == 1 else coin_to_json(haar_coin(rng))

    def amplitude():
        pick = rng.integers(4)
        if pick == 0:
            return list(zeros[rng.integers(3)])
        if pick == 1:
            return [float(rng.choice([-0.6, 0.8])), -0.0]
        return [float(rng.normal()), float(rng.normal())]

    configs = []
    for case in range(30):
        n0 = 0 if case % 10 == 9 else int(rng.integers(1, 6))
        cfg = {"n0": n0, "coins": [coin() for _ in range(n0 + 1)]}
        if case % 3 == 0:
            sites = (-3, -1, int(rng.integers(0, n0 + 1)), n0 + 1, n0 + 2)
            cfg["psi0"] = [{"n": n, "L": amplitude(), "R": amplitude()} for n in sorted(set(sites))]
        elif case % 3 == 1:
            site = int(rng.integers(0, n0 + 1))
            cfg["psi0"] = [{"n": site, str(rng.choice(["L", "R"])): [1.0, 0.0]}]
        configs.append(cfg)
    reflections = {"n0": 3, "coins": [REFLECTION] * 2 + [{"rotation": -0.5}] * 2}
    configs.append({**reflections, "psi0": [{"n": 2, "R": [1.0, 0.0]}]})
    configs.append({"n0": 2, "coins": TRIPLE_CFG["coins"], "psi0": [{"n": 1, "L": zeros[2]}]})
    configs.append({"n0": 2, "coins": TRIPLE_CFG["coins"], "psi0": []})
    # an incoming R at -7 and L at n0 + 7 and an outgoing L at -9 and R at
    # n0 + 9: the cone's L-only sites left of min(lo + t, 0) and its R-only
    # sites right of max(hi - t, n0) end at psi0's incoming band until
    # t = 9, and at the window from then on
    for n0, coins in ((3, LITERAL_CFG["coins"]), (2, TRIPLE_CFG["coins"]), (0, [REFLECTION])):
        psi0 = [
            {"n": -9, "L": [0.36, -0.0]},
            {"n": -7, "R": [0.0, 0.48]},
            {"n": n0 + 7, "L": [-0.64, 0.0]},
            {"n": n0 + 9, "R": [-0.0, -0.48]},
        ]
        configs.append({"n0": n0, "coins": coins, "psi0": psi0})
    return configs


@pytest.mark.simd_portable
def test_evolve_bytes_equal_the_state_by_state_rendering(tmp_path, capsys):
    # the window rows, the text each amplitude keeps off the window and the
    # summary against every entry of every state of the light cone walk
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "traj.csv"
    for cfg in evolve_configs():
        cfg_path.write_text(json.dumps(cfg))
        for T in (0, 1, 2, cfg["n0"] + 3, 47):
            code, out, _ = run(
                capsys, "evolve", "--config", str(cfg_path), "--T", str(T), "--out", str(out_path)
            )
            assert code == 0 and out == ""
            body, summary = evolve_oracle(cfg, T)
            assert out_path.read_text() == body
            assert (tmp_path / "traj.summary.csv").read_text() == summary
    # across the blocks of window rows, on stdout
    cfg_path.write_text(json.dumps(HADAMARD_CFG))
    for T in (BLOCK - 1, BLOCK, BLOCK + 1):
        code, out, _ = run(capsys, "evolve", "--config", str(cfg_path), "--T", str(T))
        assert code == 0
        body, summary = evolve_oracle(HADAMARD_CFG, T)
        assert out == body + "\n" + summary


def test_evolve_steps_the_window_and_formats_each_amplitude_once(capsys, monkeypatch, triple_cfg):
    # T = 300 prints about T^2 / 2 lines; the light cone walk made a state
    # per step and formatted every line.  Here the coins touch the window rows
    # once a step, for the trajectory and its summary alike, with no pass of
    # their own on the edge sites, and an amplitude is formatted once:
    # psi0's entries at t = 0 and the 2 (n0 + 1) coin outputs a step
    import qwres.states
    import qwres.walk

    T, n0 = 300, TRIPLE_CFG["n0"]
    made, shapes, formatted = [], [], []
    init, kernel, texts = qwres.states.WaveState.__init__, qwres.walk._coin, cli._texts

    def counted_state(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counted_coin(c1, c2, x, xr, out, tmp):
        shapes.append((c1.shape, c2.shape, x.shape, out.shape))
        return kernel(c1, c2, x, xr, out, tmp)

    def counted_texts(z):
        formatted.append(z.size)
        return texts(z)

    monkeypatch.setattr(qwres.states.WaveState, "__init__", counted_state)
    monkeypatch.setattr(qwres.walk, "_coin", counted_coin)
    monkeypatch.setattr(cli, "_texts", counted_texts)
    code, out, _ = run(capsys, "evolve", "--config", triple_cfg, "--T", str(T))
    assert code == 0
    assert len(made) <= 2
    assert shapes == [((2 * n0 + 3,),) * 4] * T
    assert sum(formatted) == 2 + 2 * (n0 + 1) * T
    assert out.count("\n") > 20 * sum(formatted)


def test_evolve_summary_is_the_survival_output(tmp_path, capsys):
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "traj.csv"
    cfg_path.write_text(json.dumps(TWO_SIDED_CFG))
    T = str(BLOCK + 88)
    code, _, _ = run(capsys, "evolve", "--config", str(cfg_path), "--T", T, "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "survival", "--config", str(cfg_path), "--T", T)
    assert code == 0
    assert (tmp_path / "traj.summary.csv").read_bytes() == out.encode()


JSON_ARGV, CSV_ARGV = ("expand",), ("scattering", "--xi-grid=-3.0:3.0:9,0.0")


@pytest.mark.parametrize(
    "argv, before",
    [
        (JSON_ARGV, None),
        (CSV_ARGV, None),
        (JSON_ARGV, "longer"),
        (CSV_ARGV, "longer"),
        (JSON_ARGV, "shorter"),
        (CSV_ARGV, "shorter"),
        (("resonances",), "device"),
    ],
    ids=["json", "csv", "json-over-longer", "csv-over-longer", "json-over-shorter", "csv-over-shorter", "device"],
)
def test_out_writes_the_stdout_bytes(tmp_path, capsys, hadamard_cfg, argv, before):
    # an existing file is rewritten in place, the same inode cut to the new
    # length; a device is written without truncation
    code, want, _ = run(capsys, *argv, "--config", hadamard_cfg)
    assert code == 0 and want
    out_path = Path(os.devnull) if before == "device" else tmp_path / "result"
    if before in ("longer", "shorter"):
        out_path.write_bytes(b"x" * (2 * len(want) if before == "longer" else len(want) // 2))
        inode = out_path.stat().st_ino
    code, out, err = run(capsys, *argv, "--config", hadamard_cfg, "--out", str(out_path))
    assert code == 0 and out == "" and err == ""
    if before != "device":
        assert out_path.read_bytes() == want.encode()
    if before in ("longer", "shorter"):
        assert out_path.stat().st_ino == inode


def _fresh_interpreter_env():
    """The environment of a fresh interpreter that imports this qwres."""
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def test_failed_write_is_cut_to_the_bytes_written(tmp_path, capsys, hadamard_cfg):
    # a write refused at the file size limit exits 4 and leaves the prefix it
    # wrote, with no tail of the longer file it was writing over
    code, want, _ = run(capsys, "evolve", "--config", hadamard_cfg, "--T", "100")
    assert code == 0 and len(want) > 100000
    out_path = tmp_path / "traj.csv"
    out_path.write_bytes(b"x" * 300000)
    limited = (
        "import resource, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (100000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
        "from qwres.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["evolve", "--config", hadamard_cfg, "--T", "100", "--out", str(out_path)]
    proc = subprocess.run(
        [sys.executable, "-c", limited, *argv], env=_fresh_interpreter_env(), capture_output=True, text=True
    )
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == f"error: OutputUnwritable: cannot write {out_path}: File too large\n"
    assert out_path.read_bytes() == want.encode()[:100000]


@pytest.mark.parametrize(
    "argv",
    [("evolve", "--T", "300"), ("resonances",)],
    ids=["evolve-head-1", "resonances-closed-before"],
)
def test_closed_stdout_pipe_exits_4(hadamard_cfg, argv):
    # `qwres ... | head -1`: one typed line on stderr and no traceback.  The
    # 1.6 MB evolve outgrows the pipe, so it is still writing when the reader
    # closes after one line; resonances starts with the read end closed.
    read_end, write_end = os.pipe()
    if argv[0] == "resonances":
        os.close(read_end)
    command = [sys.executable, "-m", "qwres.cli", *argv, "--config", hadamard_cfg]
    with subprocess.Popen(command, stdout=write_end, stderr=subprocess.PIPE, env=_fresh_interpreter_env()) as proc:
        os.close(write_end)
        if argv[0] == "evolve":
            with open(read_end, "rb") as reader:
                assert reader.readline() == b"t,n,chirality,re,im\n"
        err = proc.stderr.read().decode()
    assert proc.returncode == 4
    assert err == "error: OutputUnwritable: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("where", ["directory", "missing-parent", "summary-directory"])
def test_unwritable_out_exits_4(tmp_path, capsys, hadamard_cfg, where):
    # one typed line on stderr and nothing on stdout; where only the summary
    # file cannot be written, the trajectory before it is left written
    out_path = {
        "directory": tmp_path,
        "missing-parent": tmp_path / "missing" / "x.csv",
        "summary-directory": tmp_path / "x.csv",
    }[where]
    if where == "summary-directory":
        (tmp_path / "x.summary.csv").mkdir()
    code, out, err = run(capsys, "evolve", "--config", hadamard_cfg, "--T", "3", "--out", str(out_path))
    assert code == 4 and out == ""
    assert err.startswith("error: OutputUnwritable: cannot write ") and err.count("\n") == 1
    if where == "summary-directory":
        assert out_path.read_text().startswith("t,n,chirality,re,im\n")
    else:
        # a command of one stream refuses the path in the same way
        code, out, err = run(capsys, "resonances", "--config", hadamard_cfg, "--out", str(out_path))
        assert code == 4 and out == "" and err.startswith("error: OutputUnwritable: ")


def test_evolve_out_without_csv_suffix_writes_a_summary_file(tmp_path, capsys, hadamard_cfg):
    # --out traj writes the trajectory to traj and the summary to
    # traj.summary, the two streams stdout joins with a blank line
    code, both, _ = run(capsys, "evolve", "--config", hadamard_cfg, "--T", "5")
    assert code == 0
    out_path = tmp_path / "traj"
    code, out, _ = run(capsys, "evolve", "--config", hadamard_cfg, "--T", "5", "--out", str(out_path))
    assert code == 0 and out == ""
    body, summary = out_path.read_text(), (tmp_path / "traj.summary").read_text()
    assert summary.startswith("t,survival_norm\n")
    assert body + "\n" + summary == both


def test_expand_json(capsys, hadamard_cfg):
    code, out, _ = run(capsys, "expand", "--config", hadamard_cfg)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["nu"] == 0
    assert parsed["zero_part_index"] == 1
    assert parsed["zero_coefficient_norm"] < 1e-12
    assert len(parsed["blocks"]) == 2
    for b in parsed["blocks"]:
        assert abs(complex(*b["coefficients"][0])) == pytest.approx(2**-0.5, abs=1e-12)


@pytest.mark.simd_portable
def test_resonances_and_expand_rows_are_the_json_of_their_dicts(capsys, monkeypatch, hadamard_cfg):
    # both commands fill one row template per row set with one %; the bytes
    # are _json's of the dict rows, for signed zeros, subnormals, 1e+-300,
    # integral floats, multiplicities 1-3, no resonances and no blocks
    rng = np.random.default_rng(47)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1.0, -3.0, 2.0**53, 0.1, 1.7976931348623157e308]

    def number():
        if rng.random() < 0.5:
            return special[rng.integers(len(special))]
        return float(rng.normal() * 10.0 ** rng.integers(-320, 300))

    def pair():
        return complex(number(), number())

    for size in (0, 1, 2, 3, 7):
        found = [
            types.SimpleNamespace(xi=pair(), lam=pair(), alg_multiplicity=int(rng.integers(1, 4))) for _ in range(size)
        ]
        blocks = tuple(ResonanceBlock(r, tuple(pair() for _ in range(r.alg_multiplicity))) for r in found)
        zero = tuple(pair() for _ in range(rng.integers(0, 3)))
        ed = ExpansionData(1, int(rng.integers(0, 5)), blocks, int(rng.integers(1, 4)), zero)
        monkeypatch.setattr(cli, "find_resonances", lambda cs: found)
        monkeypatch.setattr(cli, "expand", lambda cs, psi0: ed)
        rows = [{"xi": r.xi, "lambda": r.lam, "multiplicity": r.alg_multiplicity} for r in found]
        assert run(capsys, "resonances", "--config", hadamard_cfg) == (0, cli._json(rows) + "\n", "")
        obj = {
            "nu": ed.nu,
            "zero_part_index": ed.zero_part_index,
            "blocks": [dict(row, coefficients=b.coefficients) for row, b in zip(rows, blocks)],
            "zero_coefficient_norm": float(_norms(np.array([zero], dtype=complex))[0]),
        }
        assert run(capsys, "expand", "--config", hadamard_cfg) == (0, cli._json(obj) + "\n", "")


def test_expand_past_overflow_of_the_squares(tmp_path, capsys):
    # from 1e200 the squares of the window vector and of the expansion's
    # residual overflow; the norms behind zero_coefficient_norm and the
    # residual check are rescaled, so expand answers with finite numbers
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(dict(HADAMARD_CFG, psi0=[{"n": 0, "L": [1e200, 0.0]}])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "expand", "--config", str(cfg_path))
    assert code == 0 and err == ""
    parsed = json.loads(out)
    assert math.isfinite(parsed["zero_coefficient_norm"])
    assert parsed["zero_coefficient_norm"] < 1e-12 * 1e200
    for b in parsed["blocks"]:
        assert abs(complex(*b["coefficients"][0])) == pytest.approx(2**-0.5 * 1e200, rel=1e-12)


def test_expand_zero_coefficient_norm_past_underflow_of_the_squares(tmp_path, capsys):
    # with the identity coin at site 0, K has a nilpotent block of index 3
    # and psi0 a zero part; scaled by 1e-200 its coefficients' squares
    # underflow, and the norm, rescaled, scales with psi0
    cs = identity_at_site_0(0)[0]
    psi0 = [{"n": 1, "L": [0.6, 0.1], "R": [0.3, 0.0]}, {"n": 2, "L": [0.2, 0.0]}]
    norms = []
    for s in (1.0, 1e-200):
        scaled = [{k: v if k == "n" else [s * x for x in v] for k, v in e.items()} for e in psi0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(sequence_to_json(cs), psi0=scaled)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "expand", "--config", str(cfg_path))
        assert code == 0
        norms.append(json.loads(out)["zero_coefficient_norm"])
    assert norms[0] > 0.1
    assert abs(norms[1] / (1e-200 * norms[0]) - 1) < 1e-12


def test_resolvent_check_csv(capsys, hadamard_cfg):
    code, out, _ = run(
        capsys,
        "resolvent-check",
        "--config",
        hadamard_cfg,
        "--xi-grid=-3.0:3.0:7,1.0",
        "--window",
        "6",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "xi_re,xi_im,residual,condition"
    for line in lines[1:]:
        assert float(line.split(",")[2]) < 1e-10


def test_split_csv(capsys, triple_cfg):
    code, out, _ = run(capsys, "split", "--config", triple_cfg)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eps,gap,slope_estimate"
    slope = float(lines[-1].split(",")[2])
    assert abs(slope - 0.5) < 0.05
    eps_col = [float(line.split(",")[0]) for line in lines[1:]]
    assert eps_col == sorted(eps_col)


def test_split_with_eps_and_phi(capsys, triple_cfg):
    code, out, err = run(capsys, "split", "--config", triple_cfg, "--eps", "1e-3,1e-4", "--phi", "0.3")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "eps,gap,slope_estimate"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [1e-4, 1e-3]
    assert all(r[1] > 0 and abs(r[2] - 0.5) < 1e-4 for r in rows)


def test_split_too_small_to_separate_the_roots_exits_51(capsys, triple_cfg):
    # at eps = 1e-20 the perturbed walk keeps the double root
    code, out, err = run(capsys, "split", "--config", triple_cfg, "--eps", "1e-20,1e-19", "--phi", "0.3")
    assert code == 51 and out == ""
    assert err == "error: DegenerateDirection: direction phi = 0.3 leaves the root multiple at eps = 1e-20\n"


def test_selftest_passes(capsys, monkeypatch):
    # a partner's winding count is its primary's, so only strip primaries
    # (Re xi < 0) are integrated
    wound = []
    real = cli.validate_multiplicity
    monkeypatch.setattr(
        cli,
        "validate_multiplicity",
        lambda cs, r, others: wound.append(r.xi) or real(cs, r, others=others),
    )
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert wound and all(xi.real < 0 for xi in wound)
    assert out.splitlines() == [
        "ok: coin parameterization round trip",
        "ok: hyperbolic product of rotations",
        "ok: window norm identity",
        "ok: scattering unitarity at real xi",
        "ok: worked examples (double and triple barrier)",
        "ok: winding counts match root multiplicities",
        "ok: resonance expansion reconstructs the walk",
        "ok: resolvent identity and Neumann series",
        "ok: double resonance splits with exponent 1/2",
        "selftest passed",
    ]


def test_byte_identical_reruns(capsys, triple_cfg):
    _, first, _ = run(capsys, "resonances", "--config", triple_cfg)
    _, second, _ = run(capsys, "resonances", "--config", triple_cfg)
    assert first == second
    _, s1, _ = run(capsys, "split", "--config", triple_cfg)
    _, s2, _ = run(capsys, "split", "--config", triple_cfg)
    assert s1 == s2
    for argv in (
        ("scattering", "--xi-grid=-2.0:2.0:13,0.5"),
        ("scattering", "--xi-grid=-3.0:3.0:41,-0.2"),
        ("resolvent-check", "--xi-grid=-3.0:3.0:17,0.5", "--window", "4"),
    ):
        _, g1, _ = run(capsys, *argv, "--config", triple_cfg)
        _, g2, _ = run(capsys, *argv, "--config", triple_cfg)
        assert g1 == g2 and g1.count("\n") > 10


def test_one_parser_serves_every_call(capsys, monkeypatch, triple_cfg):
    # main builds its argument tree once per process and reuses it, also
    # after argparse has refused a call
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    first = run(capsys, "resonances", "--config", triple_cfg)
    with pytest.raises(SystemExit) as exc:
        main(["survival", "--config", triple_cfg, "--T", "-1"])
    assert exc.value.code == 2 and "error: argument --T:" in capsys.readouterr().err
    assert run(capsys, "resonances", "--config", triple_cfg) == first
    split = run(capsys, "split", "--config", triple_cfg)
    assert first[0] == split[0] == 0
    [commands] = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert built == ["qwres"] + [f"qwres {name}" for name in commands.choices]
    monkeypatch.undo()
    cli._build_parser.cache_clear()
    assert run(capsys, "split", "--config", triple_cfg) == split


def test_missing_config_file_exits_3(capsys):
    # the path is named once, with the reason alone
    code, _, err = run(capsys, "resonances", "--config", "/nonexistent/nope.json")
    assert code == 3
    assert err == "error: ConfigParse: cannot read config /nonexistent/nope.json: No such file or directory\n"


def test_bad_json_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n0": 1, "coins": [')
    code, _, err = run(capsys, "resonances", "--config", str(bad))
    assert code == 3
    assert "line" in err


def test_config_that_is_not_an_object_exits_3(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text(json.dumps([{"n0": 0, "coins": [{"rotation": 0.5}]}]))
    code, out, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 3 and out == ""
    assert err == f"error: ConfigParse: {cfg}: top level must be a JSON object\n"


def test_wrong_coin_count_exits_3(tmp_path, capsys):
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"n0": 2, "coins": [{"rotation": 0.5}]}))
    code, _, err = run(capsys, "resonances", "--config", str(cfg))
    assert code == 3


def test_unknown_config_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "extra.json"
    cfg.write_text(json.dumps({"n0": 0, "coins": [{"rotation": 0.5}], "spin": 2}))
    code, _, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 3


def test_unknown_coin_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "comment.json"
    coin = {"a": [1, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0], "comment": "x"}
    cfg.write_text(json.dumps({"n0": 0, "coins": [coin]}))
    code, out, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 3 and out == ""
    assert err == "error: ConfigParse: coin entry has unexpected keys ['comment']\n"


@pytest.mark.parametrize("obj", [{"coins": [{"rotation": 0.5}]}, {"n0": 0}, {}])
def test_missing_config_key_exits_3_naming_the_keys(tmp_path, capsys, obj):
    # a missing key is reported as missing, not as a bad value of None, and
    # the message names only the keys that are missing
    keys = {
        frozenset({"coins"}): '"n0" key',
        frozenset({"n0"}): '"coins" key',
        frozenset(): '"n0" and "coins" keys',
    }[frozenset(obj)]
    cfg = tmp_path / "missing.json"
    cfg.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 3 and out == ""
    assert err == f"error: ConfigParse: config needs {keys}\n"


def test_nonunitary_coin_exits_10(tmp_path, capsys):
    cfg = tmp_path / "nonunitary.json"
    cfg.write_text(
        json.dumps(
            {
                "n0": 0,
                "coins": [
                    {"a": [1, 0], "b": [0, 0], "c": [0, 0], "d": [2, 0]}
                ],
            }
        )
    )
    code, _, err = run(capsys, "resonances", "--config", str(cfg))
    assert code == 10
    assert "NotUnitary" in err


def test_commands_that_need_K_exit_20_at_n0_0(tmp_path, capsys):
    # K needs n0 >= 1: expand, the resolvent's window system and the fit's
    # nilpotency index refuse n0 = 0 with the typed error
    cfg = tmp_path / "n0.json"
    cfg.write_text(json.dumps({"n0": 0, "coins": [{"rotation": 0.5}]}))
    for command in ("expand", "resolvent-check", "survival --fit"):
        code, out, err = run(capsys, *command.split(), "--config", str(cfg))
        assert code == 20 and out == ""
        assert "UnsupportedN0" in err


def test_overflowing_coin_exits_10(tmp_path, capsys):
    # the unitarity residual of a coin with entries of 1e200 overflows; the
    # coin is refused without a numpy warning
    x = 1e200
    cfg = tmp_path / "huge.json"
    cfg.write_text(
        json.dumps({"n0": 0, "coins": [{"a": [x, 0], "b": [x, 0], "c": [x, 0], "d": [-x, 0]}]})
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "validate", "--config", str(cfg))
    assert code == 10 and out == ""
    assert err.startswith("error: NotUnitary:")


NAN_COIN = '{"a": [NaN, 0], "b": [0.8, 0], "c": [-0.8, 0], "d": [0.6, 0]}'


@pytest.mark.parametrize(
    "command, text",
    [
        ("validate", f'{{"n0": 0, "coins": [{NAN_COIN}]}}'),
        ("survival", f'{{"n0": 0, "coins": [{NAN_COIN}]}}'),
        ("validate", '{"n0": 0, "coins": [{"rotation": false}]}'),
        ("resonances", '{"n0": 0, "coins": [{"rotation": 1%s}]}' % ("0" * 400)),
        ("validate", '{"n0": 0, "coins": [{"rotation": 1%s}]}' % ("0" * 5000)),
        ("evolve", '{"n0": 0, "coins": [{"rotation": 0.5}], "psi0": [{"n": 0, "L": [Infinity, 0]}]}'),
    ],
    ids=["nan-coin", "nan-coin-survival", "bool-rotation", "huge-rotation", "huge-literal", "inf-psi0"],
)
def test_config_numbers_must_be_finite_reals(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 3 and out == ""
    assert err.startswith("error: ConfigParse:")


def test_scattering_at_resonance_exits_30(capsys, hadamard_cfg):
    xi_im = -0.5 * math.log(2.0)
    code, _, err = run(
        capsys, "scattering", "--config", hadamard_cfg, f"--xi-grid=0:0:1,{xi_im}"
    )
    assert code == 30
    assert "AtResonance" in err


def test_resolvent_check_deep_below_names_the_zero_eigenvalue(tmp_path, capsys):
    # at Im xi = -30, |lambda| = e^-30 sits within 1e-6 of K's zero
    # eigenvalue (the kernel witnesses), so kappa_1 passes 1e12 there
    # though no resonance lies near; the refusal says which it is
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"n0": 1, "coins": [{"rotation": 0.6}, {"rotation": 0.5}]}')
    code, out, err = run(capsys, "resolvent-check", "--config", str(cfg), "--xi-grid=-1:1:3,-30")
    assert code == 30 and out == ""
    assert err == (
        "error: AtResonance: window system at xi = (-1-30j) has condition number 2.53e+13:"
        " |lambda| = 9.36e-14, within 1e-6 of K's zero eigenvalue, not a resonance\n"
    )


def test_scattering_grid_through_resonance_writes_no_rows(tmp_path, capsys, hadamard_cfg):
    # the middle point of -1:1:3 on Im xi = -ln(2)/2 is the resonance
    # xi = -i ln(2)/2; the whole grid refuses, naming that point
    grid = "--xi-grid=-1:1:3,-0.34657359027997264"
    code, out, err = run(capsys, "scattering", "--config", hadamard_cfg, grid)
    assert code == 30 and out == ""
    assert "AtResonance" in err and "xi=-0.34657359027997264j" in err
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "scattering", "--config", hadamard_cfg, grid, "--out", str(out_path)
    )
    assert code == 30 and out == "" and not out_path.exists()


@pytest.mark.parametrize(
    "argv, first",
    [
        (("scattering", "--xi-grid=0:1:3,800"), "800j"),
        (("scattering", "--xi-grid=0:1:3,-800"), "-800j"),
        (("scattering", "--xi-grid=0:1:3,-709.5"), "-709.5j"),
        (("scattering", "--xi-grid=0:1e308:2,0"), "(1e+308+0j)"),
        (("resolvent-check", "--xi-grid=0:1:2,800"), "800j"),
        (("resolvent-check", "--xi-grid=0:1:2,-800"), "-800j"),
        (("resolvent-check", "--xi-grid=0.5:1:2,-1", "--window", "800"), "(0.5-1j)"),
    ],
    ids=["above", "below", "kernel", "huge-re", "resolvent-above", "resolvent-below", "long-window"],
)
def test_grid_past_the_float_range_exits_35(tmp_path, capsys, triple_cfg, argv, first):
    # e^{+-i xi}, or a value built from it, is not a finite float at some
    # point: no NaN rows, no traceback, no numpy warning and no output file
    out_path = tmp_path / "grid.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv, "--config", triple_cfg, "--out", str(out_path))
    assert code == 35 and out == "" and not out_path.exists()
    assert err.startswith("error: SpectralOverflow:") and err.rstrip().endswith(f"xi={first}")


def test_no_window_resonances_empty(tmp_path, capsys):
    cfg = tmp_path / "free.json"
    cfg.write_text(json.dumps({"n0": 0, "coins": [{"rotation": 0.0}]}))
    code, out, _ = run(capsys, "resonances", "--config", str(cfg))
    assert code == 0
    assert json.loads(out) == []


def test_bad_grid_spec_exits_2(capsys, hadamard_cfg):
    with pytest.raises(SystemExit) as exc:
        main(["scattering", "--config", hadamard_cfg, "--xi-grid", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_split_without_multiple_resonance_exits_52(capsys, hadamard_cfg):
    code, out, err = run(capsys, "split", "--config", hadamard_cfg)
    assert code == 52 and out == ""
    assert err.startswith("error: NoMultipleResonance:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("split", "--eps", "1e-3"), "--eps"),
        (("split", "--eps", "0.6"), "--eps"),
        (("evolve", "--T", "-1"), "--T"),
        (("resolvent-check", "--window", "-3"), "--window"),
        (("scattering", "--xi-grid=nan:1:3,0"), "--xi-grid"),
        (("resolvent-check", "--xi-grid=0:1:2,nan"), "--xi-grid"),
        (("scattering", "--xi-grid=-1e308:1e308:3,0"), "--xi-grid"),
        (("split", "--phi", "nan"), "--phi"),
        (("split", "--phi", "inf"), "--phi"),
        (("scattering", "--xi-grid=0:1:0,0"), "--xi-grid"),
        (("split", "--phi", "north"), "--phi"),
        (("split", "--eps", "1e-3,x,1e-4"), "--eps"),
    ],
    ids=[
        "one-eps",
        "eps-too-large",
        "negative-T",
        "negative-window",
        "nan-grid-start",
        "nan-grid-height",
        "overflowing-grid",
        "nan-phi",
        "inf-phi",
        "empty-grid",
        "word-phi",
        "word-eps",
    ],
)
def test_rejected_arguments_exit_2(capsys, triple_cfg, argv, flag):
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        warnings.simplefilter("error", RuntimeWarning)
        main([argv[0], "--config", triple_cfg, *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}:" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.simd_portable
def test_survival_csv_is_the_general_csv():
    # survival and evolve write t as a range column of the general CSV,
    # whose "%d" gives every integer its plain decimal text, past 2^53 too,
    # where "%.17g" rounds 2^53 + 1 to 9007199254740992
    rng = np.random.default_rng(5)
    special = [0.0, 1.0, 2**-0.5, 5e-324, 1.7976931348623157e308, 0.1, 1e16, 123456789.0]
    for ts in (range(1), range(2), range(4001), range(2**53 - 4001, 2**53), range(2**53 - 2000, 2**53 + 2001)):
        norms = (rng.random(len(ts)) * 10.0 ** rng.integers(-320, 308, len(ts))).tolist()
        norms[: len(special)] = special[: len(ts)]
        want = "".join(f"{t},{format(x, '.17g')}\n" for t, x in zip(ts, norms))
        assert _csv("t,survival_norm", ts, norms) == "t,survival_norm\n" + want


@pytest.mark.simd_portable
def test_csv_one_float_column_is_the_repeated_column():
    # a column given as one float is written once into the row format, with
    # the text the repeated column gets row by row
    rng = np.random.default_rng(9)
    for value in (-0.0, math.inf, math.nan, 5e-324, 1e308):
        for n in (1, 2, 150):
            re_col, other = rng.normal(size=n).tolist(), (rng.random(n) * 1e-300).tolist()
            want = _csv("x,y,z", re_col, [value] * n, other)
            assert _csv("x,y,z", re_col, value, other) == want
            assert _csv("x,y,z", re_col, other, value) == _csv("x,y,z", re_col, other, [value] * n)


@pytest.mark.parametrize(
    "text",
    ["-3.0:3.0:41,-0.0", "-3.0:3.0:41,0.0", "-3.14:3.14:150,-0.1", "0.5:0.5:1,-0.0", "-2.5:1:1,0.5", "1e300:-1e300:7,1e-310"],
)
def test_xi_grid_is_the_complex_list_as_an_array(text):
    # the parsed grid is the list of complex(r, im) over np.linspace's real
    # parts (re0 alone at n = 1), bit for bit, as one read-only complex array
    left, im = text.split(",")
    re0, re1, n = left.split(":")
    res = np.linspace(float(re0), float(re1), int(n)) if int(n) > 1 else [float(re0)]
    want = np.array([complex(r, float(im)) for r in res])
    got = cli._parse_xi_grid(text)
    assert got.dtype == complex and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not got.flags.writeable


def test_default_xi_grids_are_read_only(tmp_path):
    # the cached parser hands every call the same default grids
    for command in ("scattering", "resolvent-check"):
        args = cli._build_parser().parse_args([command, "--config", str(tmp_path / "c.json")])
        assert not args.xi_grid.flags.writeable
        with pytest.raises(ValueError):
            args.xi_grid[0] = 0.0
