import argparse
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qwres import (
    basis_state,
    cli,
    coin_to_json,
    haar_coin,
    hadamard_pair,
    perturb,
    random_sequence,
    sequence_from_json,
    sequence_to_json,
    state_from_json,
)
from qwres.cli import main
from qwres.walk import BLOCK, _states

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


@pytest.mark.parametrize(
    "cfg, digest, summary_digest",
    [
        (
            HADAMARD_CFG,
            "e126748de3c0907c012dc7c5f912c9a5d7e8d769323ef9ea30584862eaef2a9f",
            "61d9b7f6fb055758fbdfe573223f965b82ee7c09816ff310629d17957c0eea4d",
        ),
        (
            TRIPLE_CFG,
            "3af9282d078d974cf404e2ad3a1e7d09aa40210e1a5491f807b66b7389af6f22",
            "e90e67b112f599fa6d35bbcd87cbd8a901f157c8906ee089dfa05657124f87b1",
        ),
        (
            LITERAL_CFG,
            "a476f3027935865958c91296281e45316c4ca7b70206a636d0ad852fdd4ed219",
            "ae2f61518e4b4eebc78d4d235e9cafca3a58231669662baa318120ca86baf8fb",
        ),
        (
            REAL_CFG,
            "91f8b22f33f6527690a0375137768fa0b67476aaf5445afdd335b7f66c2e6c3c",
            "54b90d18ad3f7429d32510a3dd8a0b0f709fea6312e9b23b770128c42d01eca9",
        ),
    ],
    ids=["hadamard", "triple", "literal", "real"],
)
def test_evolve_trajectory_bytes_are_pinned(tmp_path, capsys, cfg, digest, summary_digest):
    # a change to the step that moves any amplitude by one ulp, or the sign
    # of a printed zero, shows up here.  The digests were recorded on x86-64
    # with numpy 2.4.  Neither the trajectory nor the window norms of the
    # summary make a BLAS or LAPACK call, so they hold on every OpenBLAS
    # kernel.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys, "evolve", "--config", str(cfg_path), "--T", "60", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
    summary = (tmp_path / "traj.summary.csv").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == summary_digest


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
    post_init = qwres.states.WaveState.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(qwres.states.WaveState, "__post_init__", counted)
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

    def counted(c1, c2, x, out):
        shapes.append((c1.shape, c2.shape, x.shape, out.shape))
        return kernel(c1, c2, x, out)

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
    window, single sites inside it, n0 = 0, a zero and an empty psi0."""
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
    return configs


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
    post_init, kernel, texts = qwres.states.WaveState.__post_init__, qwres.walk._coin, cli._texts

    def counted_state(self):
        made.append(self)
        post_init(self)

    def counted_coin(c1, c2, x, out):
        shapes.append((c1.shape, c2.shape, x.shape, out.shape))
        return kernel(c1, c2, x, out)

    def counted_texts(z):
        formatted.append(z.size)
        return texts(z)

    monkeypatch.setattr(qwres.states.WaveState, "__post_init__", counted_state)
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
    assert out.strip().endswith("selftest passed")
    assert out.count("ok:") >= 5


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
    assert built == ["qwres"] + [f"qwres {name}" for name in cli._COMMANDS]
    monkeypatch.undo()
    cli._build_parser.cache_clear()
    assert run(capsys, "split", "--config", triple_cfg) == split


def test_missing_config_file_exits_3(capsys):
    code, _, err = run(capsys, "resonances", "--config", "/nonexistent/nope.json")
    assert code == 3
    assert "ConfigParse" in err


def test_bad_json_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n0": 1, "coins": [')
    code, _, err = run(capsys, "resonances", "--config", str(bad))
    assert code == 3
    assert "line" in err


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
