"""The three workloads: their inputs, their operations and the output checks.

A workload is an endless sequence of units drawn from the seed.  A unit
is one spectrum window (several operations) or one grid or evolution
operation.  Operations are in-process ``qwres.cli.main(argv)`` calls on
config files written during set-up, except ``portrait`` and
``reconstruct``, which have no subcommand and call the library.  Every
check compares against ``reference``, never against qwres itself, and
returns None or the reason the output is wrong; a check that cannot parse
the output raises, which the caller counts as a failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Spectrum: the n0 ladder, in steps of about sqrt(2) so that operation
# costs form a continuum and no latency percentile sits on a cliff between
# two rungs.  The rungs n0 >= 32 fail often at the parent commit
# (RelationCheckFailed, InvariantViolation); they stay in so the
# robustness trajectory shows.  ``expand`` runs up to n0 = 32: a successful
# expand at n0 = 64 costs ~2 s, several whole ladder cycles, and would
# make throughput a lottery of which n0 = 64 windows happen to succeed.
# ``portrait`` runs up to n0 = 6.  With it at n0 = 8 too, the slowest tenth
# of operations was just the 75 portrait-8, expand-23/32 and n0 = 45/64
# resonance calls minus those that fail fast, so the 90th percentile sat on
# the edge of that cluster and moved with each seed's count of fast
# failures: its log spread over ten seeds was 0.064, against 0.035 without.
LADDER = (2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64, 90, 128)
EXPAND_MAX_N0 = 32
PORTRAIT_MAX_N0 = 6
SPECTRUM_POOL = 32  # windows per rung written at set-up, reused cyclically

# Grid: every n0 from 2 to 16 with three line kinds, a smooth latency mix.
GRID_N0 = tuple(range(2, 17))
GRID_POOL = 16
SCATTERING_POINTS = 150
RESOLVENT_POINTS = 75
BELOW_AXIS = -0.1  # Im xi of the continued line, where resonances are near
RESOLVENT_IM = 0.5

# Evolution: one cycle of operations, (kind, instance, T); "random" draws
# the next random window from the pool.  Each kind's share is chosen so the
# median and the 90th percentile fall inside a cluster of similar
# operations, not on the gap between two.
EVOLUTION_CYCLE = (
    ("survival", "hadamard", 1000),
    ("evolve", "hadamard", 100),
    ("reconstruct", "random", 0),
    ("survival", "random", 250),
    ("evolve", "random", 300),
    ("reconstruct", "random", 0),
    ("evolve", "triple", 100),
    ("survival", "random", 2000),
    ("reconstruct", "random", 0),
    ("evolve", "random", 100),
    ("survival", "triple", 1000),
    ("evolve", "hadamard", 300),
    ("survival", "random", 500),
    ("reconstruct", "random", 0),
    ("evolve", "random", 100),
    ("survival", "hadamard", 250),
)
EVOLUTION_POOL = 16
EVOLUTION_N0 = (2, 3, 4, 5, 6, 8)
RECONSTRUCT_TIMES = (20, 30, 40)
TRIPLE_R = (3 / 4, 12 / 13, 1 / 3)


# Units in one cycle of each workload: a whole number of cycles gives every
# rung, window size and operation kind its full share.
CYCLE = {"spectrum": len(LADDER), "grid": 3 * len(GRID_N0), "evolution": len(EVOLUTION_CYCLE)}

# Units per second of raw operation time at the parent commit on a 2-vCPU
# Xeon VM (Python 3.11, numpy 2.4).  A timed run's length in units is fixed
# from --seconds with these, never from a clock, so one seed always runs the
# same operations and its attempted and failed counts repeat exactly.
UNITS_PER_S = {"spectrum": 11.0, "grid": 7.0, "evolution": 8.0}

# Units of a traced run: six ladder cycles, one pass over the grid mix,
# two evolution cycles.
TRACE_UNITS = {"spectrum": 6 * CYCLE["spectrum"], "grid": CYCLE["grid"], "evolution": 2 * CYCLE["evolution"]}


def planned_units(workload: str, seconds: float) -> int:
    """Units of a timed run: the whole cycles nearest ``seconds`` of work, at least one."""
    cycles = max(1, round(seconds * UNITS_PER_S[workload] / CYCLE[workload]))
    return cycles * CYCLE[workload]


@dataclass
class Outcome:
    code: int  # process exit code the CLI would give; 1 for an unexpected exception
    seconds: float
    text: str  # stdout plus any --out files, or the library result rendered
    error: str = ""


@dataclass
class Op:
    kind: str
    label: str
    execute: Callable[[], Outcome]
    check: Callable[[str], str | None]  # None when the output is right
    work: int = 0  # grid points or walk steps the operation delivers


@dataclass
class Unit:
    ops: list
    n0: int  # the spectrum rung; the window size elsewhere


def _f(x) -> str:
    return format(float(x), ".17g")


def _cli(argv, outputs=()):
    """Run ``qwres.cli.main`` in-process; only the call itself is timed."""
    import qwres.cli as cli

    def execute():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # a crash is a failed operation, exit 1
                code = 1
                print(f"error: {type(exc).__name__}: {exc}", file=err)
            seconds = time.perf_counter() - t0
        text = out.getvalue()
        if code == 0:
            text += "".join(Path(p).read_text(encoding="utf-8") for p in outputs)
        return Outcome(code, seconds, text, err.getvalue().strip())

    return execute


def _library(fn):
    """Time a library call that renders its result as text."""
    from qwres import QWResError

    def execute():
        t0 = time.perf_counter()
        try:
            text = fn()
            code, error = 0, ""
        except QWResError as exc:
            text, code, error = "", exc.exit_code, f"error: {type(exc).__name__}: {exc}"
        except Exception as exc:
            text, code, error = "", 1, f"error: {type(exc).__name__}: {exc}"
        return Outcome(code, time.perf_counter() - t0, text, error)

    return execute


def _write(workdir: Path, name: str, coins) -> str:
    path = workdir / name
    path.write_text(json.dumps(ref.config(coins)), encoding="utf-8")
    return str(path)


def _csv(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


# ------------------------------------------------------------ spectrum


def _check_lambdas(rows, k):
    """Rows of (xi, lambda, multiplicity) against the eigenvalues of K."""
    for xi, lam, m in rows:
        if not (xi.imag < 0 and abs(lam) < 1 and m >= 1):
            return f"resonance xi={xi:.6g} outside the lower half plane"
        if not abs(np.exp(-1j * xi) - lam) <= 1e-12 * (1 + abs(lam)):
            return f"lambda != exp(-i xi) at xi={xi:.6g}"
    return ref.match_eigenvalues([(lam, m) for _, lam, m in rows], k)


def _pairs(obj):
    return complex(obj[0], obj[1])


def check_resonances(coins):
    def check(text):
        rows = [(_pairs(r["xi"]), _pairs(r["lambda"]), r["multiplicity"]) for r in json.loads(text)]
        return _check_lambdas(rows, ref.window_matrix(coins))

    return check


def check_expand(coins):
    """Blocks against eig(K); simple blocks' |c| against the projector of K.

    The default initial state is L at site 0, already inside the window,
    so nu = 0 and the expanded vector is the first basis vector.
    """
    def check(text):
        k = ref.window_matrix(coins)
        x = np.zeros(len(k), dtype=complex)
        x[0] = 1.0
        obj = json.loads(text)
        if obj["nu"] != 0:
            return f"nu = {obj['nu']}, expected 0"
        rows = [(_pairs(b["xi"]), _pairs(b["lambda"]), b["multiplicity"]) for b in obj["blocks"]]
        bad = _check_lambdas(rows, k)
        if bad:
            return bad
        for b in obj["blocks"]:
            if b["multiplicity"] != 1:
                continue
            got = abs(_pairs(b["coefficients"][0]))
            want = ref.projection_norm(k, _pairs(b["lambda"]), x)
            if not abs(got - want) <= 1e-7 * max(1.0, want):
                return f"|c| = {got:.12g} but ||P x|| = {want:.12g}"
        return None

    return check


def portrait(config):
    """find_resonances plus validate_multiplicity, as demos/resonance_portrait.py."""
    import qwres

    def fn():
        cs = qwres.sequence_from_json(config)
        rs = qwres.find_resonances(cs)
        lines = []
        for r in rs:
            w = qwres.validate_multiplicity(cs, r, others=rs)
            values = (r.xi.real, r.xi.imag, r.lam.real, r.lam.imag)
            lines.append(",".join(map(_f, values)) + f",{r.alg_multiplicity},{w}")
        return "xi_re,xi_im,lam_re,lam_im,multiplicity,winding\n" + "".join(s + "\n" for s in lines)

    return fn


def check_portrait(coins):
    def check(text):
        rows = _csv(text, "xi_re,xi_im,lam_re,lam_im,multiplicity,winding")
        for r in rows:
            if r[4] != r[5]:
                return f"winding {r[5]:.0f} != multiplicity {r[4]:.0f}"
        return _check_lambdas(
            [(complex(r[0], r[1]), complex(r[2], r[3]), int(r[4])) for r in rows], ref.window_matrix(coins)
        )

    return check


def check_split(text):
    """The double resonance of the triple barrier splits like eps^(1/2)."""
    rows = _csv(text, "eps,gap,slope_estimate")
    eps = [r[0] for r in rows]
    gaps = [r[1] for r in rows]
    if eps != sorted(eps) or not all(g > 0 for g in gaps) or gaps != sorted(gaps):
        return "gaps are not positive and increasing in eps"
    xs, ys = np.log(eps), np.log(gaps)
    slope = float(np.polyfit(xs, ys, 1)[0])
    if not abs(slope - 0.5) <= 0.05 or not all(abs(r[2] - slope) <= 1e-9 for r in rows):
        return f"splitting slope {slope:.4f}, expected 0.5 +- 0.05"
    return None


def spectrum(seed: int, workdir: Path):
    """Windows climbing the n0 ladder, one rung per unit, cyclically."""
    triple = _write(workdir, "triple.json", ref.rotation_coins(TRIPLE_R))
    pools = {}
    for n0 in LADDER:
        pools[n0] = []
        for j in range(SPECTRUM_POOL):
            coins = ref.haar_coins(np.random.default_rng([seed, n0, j]), n0)
            pools[n0].append((coins, _write(workdir, f"s{n0}_{j}.json", coins)))

    def units():
        i = 0
        while True:
            n0 = LADDER[5 * i % len(LADDER)]  # stride 5: consecutive units alternate small and large rungs
            j = (i // len(LADDER)) % SPECTRUM_POOL
            coins, path = pools[n0][j]
            phi = float(np.random.default_rng([seed, n0, j, 1]).uniform(-math.pi, math.pi))
            label = f"n0={n0} window={j}"
            ops = [Op("resonances", label, _cli(["resonances", "--config", path]), check_resonances(coins))]
            if n0 <= EXPAND_MAX_N0:
                ops.append(Op("expand", label, _cli(["expand", "--config", path]), check_expand(coins)))
            if n0 <= PORTRAIT_MAX_N0:
                execute = _library(portrait(ref.config(coins)))
                ops.append(Op("portrait", label, execute, check_portrait(coins)))
            execute = _cli(["split", "--config", triple, f"--phi={phi!r}"])
            ops.append(Op("split", f"triple phi={phi:.4f}", execute, check_split))
            yield Unit(ops, n0)
            i += 1

    return units


# ---------------------------------------------------------------- grid


def check_scattering(real_axis: bool, xis):
    def check(text):
        rows = _csv(text, "xi_re,xi_im,t_minus_abs2,r_minus_abs2,unitarity_residual")
        if len(rows) != len(xis):
            return f"{len(rows)} rows for {len(xis)} points"
        for (re, im, t2, r2, resid), xi in zip(rows, xis):
            if not (abs(re - xi.real) <= 1e-12 and abs(im - xi.imag) <= 1e-12):
                return f"row at xi={re}+{im}j, expected {xi}"
            if not (math.isfinite(t2) and math.isfinite(r2) and t2 >= 0 and r2 >= 0):
                return f"non-finite or negative |t|^2, |r|^2 at xi={xi}"
            if real_axis and not (resid < 1e-10 and abs(t2 + r2 - 1) < 1e-10):
                return f"unitarity fails at real xi={xi.real}: |t|^2+|r|^2-1 = {t2 + r2 - 1:.2e}"
        return None

    return check


def check_resolvent(xis):
    def check(text):
        rows = _csv(text, "xi_re,xi_im,residual,condition")
        if len(rows) != len(xis):
            return f"{len(rows)} rows for {len(xis)} points"
        for (re, im, resid, cond), xi in zip(rows, xis):
            if not (abs(re - xi.real) <= 1e-12 and abs(im - xi.imag) <= 1e-12):
                return f"row at xi={re}+{im}j, expected {xi}"
            if not resid < 1e-10 or not 1 <= cond < math.inf:
                return f"resolvent residual {resid:.2e}, condition {cond:.3g} at xi={xi}"
        return None

    return check


def _line(re0, re1, n, im):
    """The points qwres puts on re0:re1:n,im."""
    return [complex(r, im) for r in np.linspace(re0, re1, n)]


def grid(seed: int, workdir: Path):
    """Scattering lines on and below the real axis, resolvent lines above."""
    pools = {
        n0: [
            _write(workdir, f"g{n0}_{j}.json", ref.haar_coins(np.random.default_rng([seed, n0, j]), n0))
            for j in range(GRID_POOL)
        ]
        for n0 in GRID_N0
    }
    kinds = ("scattering-real", "scattering-below", "resolvent-check")

    def units():
        i = 0
        while True:
            kind = kinds[i % 3]
            n0 = GRID_N0[7 * (i // 3) % len(GRID_N0)]  # stride 7: consecutive units alternate small and large n0
            j = (i // 3) % GRID_POOL
            path = pools[n0][j]
            u0, u1 = np.random.default_rng([seed, n0, j, i]).uniform(0, 0.05, 2)
            re0, re1 = -math.pi + float(u0), math.pi - float(u1)
            if kind == "resolvent-check":
                n, im = RESOLVENT_POINTS, RESOLVENT_IM
                check = check_resolvent(_line(re0, re1, n, im))
            else:
                n, im = SCATTERING_POINTS, 0.0 if kind == "scattering-real" else BELOW_AXIS
                check = check_scattering(kind == "scattering-real", _line(re0, re1, n, im))
            command = "resolvent-check" if kind == "resolvent-check" else "scattering"
            argv = [command, "--config", path, f"--xi-grid={re0!r}:{re1!r}:{n},{im!r}"]
            label = f"n0={n0} window={j} points={n} im={im}"
            yield Unit([Op(kind, label, _cli(argv), check, work=n)], n0)
            i += 1

    return units


# ----------------------------------------------------------- evolution


def _survival_rows(text):
    blocks = text.split("\n\n")
    fit = _csv(blocks[0], "M_est,m_est,C_est")[0]
    table = _csv(blocks[1], "t,survival_norm")
    return fit, np.array([r[1] for r in table])


def _check_survival_column(got, coins, instance, T):
    """Survival norms against ||K^t e_0||, and the Hadamard pair's 2^(-t/2)."""
    if len(got) != T + 1:
        return f"{len(got)} survival rows, expected {T + 1}"
    dev = float(np.max(np.abs(got - ref.survival_norms(coins, T))))
    if not dev < 1e-12:
        return f"survival norms off ||K^t e0|| by {dev:.2e}"
    if instance == "hadamard":
        law = float(np.max(np.abs(got - 2.0 ** (-np.arange(T + 1) / 2.0))))
        if not law < 1e-12:
            return f"Hadamard survival off the halving law by {law:.2e}"
    return None


def check_survival(coins, instance, T):
    """Survival column against ||K^t e_0||, the fit against the known law.

    The Hadamard pair follows 2^(-t/2) exactly and the triple barrier
    decays like t M^t with M = 2^(-1/2); both are held to the acceptance
    tolerances (1e-12 absolute on the column, 1e-3 on M).  A random
    window's slow tail admits no such law at these T, so only its column
    is held to one.
    """
    def check(text):
        (m_rate, m_order, c_pref), got = _survival_rows(text)
        bad = _check_survival_column(got, coins, instance, T)
        if bad:
            return bad
        if instance == "hadamard":
            if not (abs(m_rate - 2**-0.5) < 1e-3 and abs(m_order - 1) < 0.05):
                return f"Hadamard fit M={m_rate:.6f} m={m_order:.4f}, expected 2^(-1/2) and m=1"
        elif instance == "triple":
            if not (abs(m_rate - 2**-0.5) < 1e-3 and abs(m_order - 2) < 0.5):
                return f"triple barrier fit M={m_rate:.6f} m={m_order:.4f}, expected 2^(-1/2) and m=2"
        elif not all(map(math.isfinite, (m_rate, m_order, c_pref))):
            return f"fit M={m_rate}, m={m_order}, C={c_pref} is not finite"
        return None

    return check


def check_evolve(coins, instance, T):
    """Every trajectory row against an independent walk; norms preserved."""

    def check(text):
        body, summary = text.split("t,survival_norm\n")
        rows = body.splitlines()
        if rows[0] != "t,n,chirality,re,im":
            return "bad trajectory header"
        first, traj = ref.walk(coins, 0, np.array([[1.0, 0.0]], dtype=complex), T)
        got = np.zeros_like(traj)
        for line in rows[1:]:
            t, n, chi, re, im = line.split(",")
            got[int(t), int(n) - first, 0 if chi == "L" else 1] = complex(float(re), float(im))
        dev = float(np.max(np.abs(got - traj)))
        if not dev < 1e-12:
            return f"trajectory off the reference walk by {dev:.2e}"
        norms = np.sqrt(np.sum(np.abs(got) ** 2, axis=(1, 2)))
        if not float(np.max(np.abs(norms - 1))) < 1e-12:
            return "trajectory does not preserve the norm"
        surv = np.array([r[1] for r in _csv("t,survival_norm\n" + summary, "t,survival_norm")])
        return _check_survival_column(surv, coins, instance, T)

    return check


def reconstruct(config):
    """Expansion, chains and light-cone reconstruction at RECONSTRUCT_TIMES."""
    import qwres

    def fn():
        cs = qwres.sequence_from_json(config)
        psi0 = qwres.basis_state(0, "L") + 0.5 * qwres.basis_state(-2, "R")
        ed = qwres.expand(cs, psi0)
        chains = [qwres.resonant_chain(cs, b.resonance, max(RECONSTRUCT_TIMES)) for b in ed.blocks]
        out = []
        for t in RECONSTRUCT_TIMES:
            t = max(t, ed.nu + ed.zero_part_index)
            lo, hi = -(t - ed.nu), t + cs.n0 - ed.nu
            psi = qwres.reconstruct(ed, chains, t, (lo, hi))
            for k, (l_amp, r_amp) in enumerate(psi.amplitudes):
                values = (l_amp.real, l_amp.imag, r_amp.real, r_amp.imag)
                out.append(f"{t},{psi.support_lo + k}," + ",".join(map(_f, values)))
        return f"nu={ed.nu}\n" + "".join(s + "\n" for s in out)

    return fn


def check_reconstruct(coins):
    """Reconstruction against the reference walk, 1e-9 relative per time."""
    def check(text):
        psi0 = np.array([[0.0, 0.5], [0.0, 0.0], [1.0, 0.0]], dtype=complex)  # sites -2..0
        first, traj = ref.walk(coins, -2, psi0, max(RECONSTRUCT_TIMES))
        n0 = len(coins) - 1
        lines = text.splitlines()
        nu = int(lines[0].split("=")[1])
        got = {}
        for line in lines[1:]:
            t, n, lr, li, rr, ri = line.split(",")
            pair = (complex(float(lr), float(li)), complex(float(rr), float(ri)))
            got.setdefault(int(t), {})[int(n)] = pair
        if nu != 3 or not got:
            return f"nu = {nu}, expected 3"
        for t, sites in got.items():
            lo, hi = -(t - nu), t + n0 - nu
            true = traj[t, lo - first : hi - first + 1]
            rec = np.zeros_like(true)
            for n, pair in sites.items():
                if not lo <= n <= hi:
                    return f"reconstruction at t={t} leaves the cone"
                rec[n - lo] = pair
            err = ref.scaled_norm(rec - true) / max(ref.scaled_norm(true), 1e-30)
            if not err < 1e-9:
                return f"reconstruction off the walk by {err:.2e} relative at t={t}"
        return None

    return check


def evolution(seed: int, workdir: Path):
    """Survival fits at long T, CSV-heavy evolve --out, reconstructions."""
    fixed = {"hadamard": ref.hadamard_pair(), "triple": ref.rotation_coins(TRIPLE_R)}
    paths = {name: _write(workdir, f"{name}.json", c) for name, c in fixed.items()}
    pool = []
    for j in range(EVOLUTION_POOL):
        rng = np.random.default_rng([seed, j])
        coins = ref.haar_coins(rng, int(rng.choice(EVOLUTION_N0)))
        pool.append((coins, _write(workdir, f"e{j}.json", coins)))
    out = str(workdir / "trajectory.csv")
    summary = str(workdir / "trajectory.summary.csv")

    def units():
        i = r = 0
        while True:
            kind, instance, T = EVOLUTION_CYCLE[i % len(EVOLUTION_CYCLE)]
            if instance == "random":
                coins, path = pool[r % EVOLUTION_POOL]
                label = f"random window={r % EVOLUTION_POOL} n0={len(coins) - 1}"
                r += 1
            else:
                coins, path, label = fixed[instance], paths[instance], instance
            if kind == "survival":
                argv = ["survival", "--config", path, "--T", str(T), "--fit"]
                op = Op(kind, f"{label} T={T}", _cli(argv), check_survival(coins, instance, T), work=T)
            elif kind == "evolve":
                argv = ["evolve", "--config", path, "--T", str(T), "--out", out]
                execute = _cli(argv, (out, summary))
                op = Op(kind, f"{label} T={T}", execute, check_evolve(coins, instance, T), work=T)
            else:
                execute = _library(reconstruct(ref.config(coins)))
                op = Op(kind, label, execute, check_reconstruct(coins), work=sum(RECONSTRUCT_TIMES))
            yield Unit([op], len(coins) - 1)
            i += 1

    return units


WORKLOADS = {"spectrum": spectrum, "grid": grid, "evolution": evolution}
