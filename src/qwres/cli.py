"""Command line front end: JSON/CSV emission over the library.

Every subcommand reads a JSON config describing the coin sequence (and
optionally an initial state), computes with the library, and writes one
deterministic text blob: JSON for structured results, CSV for series.
Identical inputs give byte-identical outputs.

Config schema:

    {"n0": 1,
     "coins": [{"rotation": 0.75}, {"a": [re, im], "b": ..., "c": ..., "d": ...}],
     "psi0": [{"n": 0, "L": [1.0, 0.0], "R": [0.0, 0.0]}]}   # optional

Commands that need an initial state fall back to the L basis state at the
origin when "psi0" is absent.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import compress
from operator import add
from pathlib import Path

import numpy as np

from .coins import (
    coin_to_pqtheta,
    haar_coin,
    hadamard_pair,
    pqtheta_to_S,
    random_sequence,
    rotation_coin,
    s_product,
    sequence_from_json,
    sequence_to_json,
    triple_barrier,
)
from .errors import ConfigParse, InvariantViolation, QWResError
from .expansion import decay_fit_full, expand, nilpotency_index, reconstruct
from .genericity import PerturbationFamily, splitting_experiment, splitting_slope
from .resolvent import identity_residual, neumann_resolvent, apply_resolvent
from .resonances import find_resonances, resonant_chain, validate_multiplicity
from .scattering import scattering_matrix
from .states import _window_norms, basis_state, incoming_length, state_from_json, state_to_json
from .transfer import transfer_polynomial
from .walk import _parity_blocks, _placed, _window_blocks, _window_survival, evolve, norm_defect

__all__ = ["main"]


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _csv(header: str, *columns) -> str:
    """header, then one line per row of the columns, each value as _f writes it."""
    # "%.17g" % x is format(x, ".17g"), -0, inf and nan included
    fmt = ",".join(["%.17g"] * len(columns))
    return "\n".join([header, *(fmt % row for row in zip(*columns))]) + "\n"


def _json(obj, depth: int = 0) -> str:
    """JSON text: a top-level dict or a list of dicts puts one entry per line,
    everything else is inline, and a complex number becomes [re, im]."""
    if isinstance(obj, complex):
        return f"[{_f(obj.real)}, {_f(obj.imag)}]"
    if isinstance(obj, float):
        return _f(obj)
    if isinstance(obj, dict):
        items = [f'"{k}": {_json(v, depth + 1)}' for k, v in obj.items()]
        left, right, spread = "{", "}", depth == 0
    elif isinstance(obj, (list, tuple)):
        items = [_json(v, depth + 1) for v in obj]
        left, right, spread = "[", "]", bool(obj) and all(isinstance(v, dict) for v in obj)
    else:
        return str(obj)
    if not spread:
        return left + ", ".join(items) + right
    pad = "  " * (depth + 1)
    return left + "\n" + ",\n".join(pad + i for i in items) + "\n" + "  " * depth + right


# ---------------------------------------------------------------- config


def _load_config(path):
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigParse(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ConfigParse(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigParse(f"{path}: top level must be a JSON object")
    extra = set(obj) - {"n0", "coins", "psi0"}
    if extra:
        raise ConfigParse(f'{path}: unexpected keys {sorted(extra)}')
    cs = sequence_from_json({"n0": obj.get("n0"), "coins": obj.get("coins")})
    psi0 = state_from_json(obj["psi0"]) if "psi0" in obj else None
    return cs, psi0


def _default_psi0(psi0):
    return psi0 if psi0 is not None else basis_state(0, "L")


def _parse_xi_grid(text: str):
    """re0:re1:n,im -> n evenly spaced xi values on that horizontal line."""
    try:
        left, im_part = text.split(",")
        re0_s, re1_s, n_s = left.split(":")
        re0, re1, im = float(re0_s), float(re1_s), float(im_part)
        n = int(n_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected re0:re1:n,im (e.g. -3.14:3.14:25,0.0), got {text!r}"
        ) from None
    if not all(math.isfinite(v) for v in (re0, re1, im)):
        raise argparse.ArgumentTypeError(f"grid values must be finite, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError("grid needs at least one point")
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.linspace(re0, re1, n) if n > 1 else np.array([re0])
    if not np.all(np.isfinite(res)):
        raise argparse.ArgumentTypeError(f"grid points overflow the float range, got {text!r}")
    return [complex(r, im) for r in res]


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _parse_eps_list(text: str):
    """Comma list of eps in [0, 1/2), two of them distinct and positive for a slope."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad epsilon list {text!r}") from None
    if not all(0 <= v < 0.5 for v in values) or len({v for v in values if v > 0}) < 2:
        raise argparse.ArgumentTypeError(
            f"need values in [0, 0.5), two of them distinct and positive, got {text!r}"
        )
    return values


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


# -------------------------------------------------------------- commands


def _cmd_validate(args):
    cs, psi0 = _load_config(args.config)
    obj = sequence_to_json(cs)
    if psi0 is not None:
        obj["psi0"] = state_to_json(psi0)
    return _json(obj) + "\n"


def _cmd_resonances(args):
    cs, _ = _load_config(args.config)
    rows = [
        {"xi": r.xi, "lambda": r.lam, "multiplicity": r.alg_multiplicity}
        for r in find_resonances(cs)
    ]
    return _json(rows) + "\n"


def _cmd_polynomial(args):
    cs, _ = _load_config(args.config)
    tp = transfer_polynomial(cs)
    return _json([tp.leading * c for c in tp.coeffs]) + "\n"


def _cmd_scattering(args):
    cs, _ = _load_config(args.config)
    xi = np.array(args.xi_grid)
    sm = scattering_matrix(cs, xi)
    t2, r2 = np.abs(sm.t_minus) ** 2, np.abs(sm.r_minus) ** 2
    cols = xi.real, xi.imag, t2, r2, sm.unitarity_residual()
    header = "xi_re,xi_im,t_minus_abs2,r_minus_abs2,unitarity_residual"
    return _csv(header, *(c.tolist() for c in cols))


def _survival_csv(norms) -> str:
    return _csv("t,survival_norm", range(len(norms)), norms)


def _texts(z: np.ndarray) -> list[str]:
    """Each entry of z as "re,im", or "" where it is zero."""
    # "%.17g" % x is format(x, ".17g"), as _f writes it, -0 included
    return [
        "%.17g,%.17g" % (re, im) if re or im else ""
        for re, im in zip(z.real.ravel().tolist(), z.imag.ravel().tolist())
    ]


def _cmd_evolve(args):
    cs, psi0 = _load_config(args.config)
    psi0 = _default_psi0(psi0)
    n0, T = cs.n0, args.T
    # Off the window the step is a pure shift that rounds nothing: L keeps
    # its value along n + t and R along n - t, bit for bit.  So each
    # amplitude's text is made once, from psi0 at t = 0 or as the coins
    # make it, and kept under its invariant: left[n + t - lo] and
    # right[n - t - lo + 2T].  A line of it adds only "t,n,L|R,".  Nothing
    # leaves psi0's light cone, the sites lo - t .. hi + t.
    lo, hi = psi0.support_lo, psi0.support_hi
    width = hi - lo + 1 + 2 * T
    left, right = [""] * width, [""] * width
    left[: hi - lo + 1] = _texts(psi0.amplitudes[:, 0])
    right[2 * T :] = _texts(psi0.amplitudes[:, 1])
    tags = [f"{n},{c}," for n in range(lo - T, hi + T + 1) for c in "LR"]
    lines = ["t,n,chirality,re,im"]
    norms = []
    t = 0
    for rows in _window_blocks(psi0, cs, T):
        norms.append(_window_norms(rows[:, 1:-1]))
        # what the coins made at each step: L on the sites -1 .. n0 - 1 and
        # R on 1 .. n0 + 1; psi0's own texts stand at t = 0
        first = 1 if t == 0 else 0
        made_l = _texts(rows[first:, :-2, 0])
        made_r = _texts(rows[first:, 2:, 1])
        for i in range(len(rows)):
            if t:
                # only sites in the light cone have a slot; off it the
                # coins made zeros
                j = (i - first) * (n0 + 1)
                a, b = max(-1, lo - t), min(n0 - 1, hi + t)
                if a <= b:
                    left[a + t - lo : b + t - lo + 1] = made_l[j + a + 1 : j + b + 2]
                a, b = max(1, lo - t), min(n0 + 1, hi + t)
                if a <= b:
                    right[a - t - lo + 2 * T : b - t - lo + 2 * T + 1] = made_r[j + a - 1 : j + b]
            m, k = hi - lo + 1 + 2 * t, 2 * (T - t)
            pair = [""] * (2 * m)
            pair[::2], pair[1::2] = left[:m], right[k:]
            text = f"\n{t},".join(map(add, compress(tags[k : k + 2 * m], pair), filter(None, pair)))
            if text:
                lines.append(f"{t}," + text)
            t += 1
    return "\n".join(lines) + "\n", _survival_csv(np.concatenate(norms).tolist())


def _cmd_expand(args):
    cs, psi0 = _load_config(args.config)
    psi0 = _default_psi0(psi0)
    ed = expand(cs, psi0)
    zero_norm = float(np.linalg.norm(ed.zero_coefficients)) if ed.zero_coefficients else 0.0
    blocks = [
        {"xi": b.resonance.xi, "lambda": b.resonance.lam,
         "multiplicity": b.resonance.alg_multiplicity, "coefficients": b.coefficients}
        for b in ed.blocks
    ]
    obj = {"nu": ed.nu, "zero_part_index": ed.zero_part_index, "blocks": blocks,
           "zero_coefficient_norm": zero_norm}
    return _json(obj) + "\n"


def _cmd_survival(args):
    cs, psi0 = _load_config(args.config)
    psi0 = _default_psi0(psi0)
    norms = _window_survival(psi0, cs, args.T)
    csv_text = _survival_csv(norms)
    if not args.fit:
        return csv_text
    nu = incoming_length(psi0, cs.n0)
    iota = nilpotency_index(_placed(*_parity_blocks(cs)))
    m_rate, m_order, c_pref = decay_fit_full(norms, nu + iota + 5)
    fit_text = f"M_est,m_est,C_est\n{_f(m_rate)},{_f(m_order)},{_f(c_pref)}\n"
    return fit_text + "\n" + csv_text


def _cmd_resolvent_check(args):
    cs, psi0 = _load_config(args.config)
    f = _default_psi0(psi0)
    window = (-args.window, cs.n0 + args.window)
    xi = np.array(args.xi_grid)
    resids, conds = identity_residual(cs, xi, f, window)
    cols = xi.real, xi.imag, resids, conds
    return _csv("xi_re,xi_im,residual,condition", *(c.tolist() for c in cols))


def _cmd_split(args):
    cs, _ = _load_config(args.config)
    pf = PerturbationFamily(cs, args.phi, tuple(sorted(args.eps)))
    rows = splitting_experiment(pf)
    eps, gaps, _ = zip(*rows)
    return _csv("eps,gap,slope_estimate", eps, gaps, [splitting_slope(rows)] * len(rows))


# -------------------------------------------------------------- selftest


def _check(ok: bool, what: str):
    if not ok:
        raise InvariantViolation(f"selftest: {what}")


def _cmd_selftest(args):
    rng = np.random.default_rng(args.seed)
    lines = []

    for _ in range(25):
        c = haar_coin(rng)
        back = pqtheta_to_S(coin_to_pqtheta(c))
        _check(np.max(np.abs(back.matrix - c.matrix)) < 1e-10, "(p, q, theta) round trip drifted")
    lines.append("ok: coin parameterization round trip")

    r1, r2 = 0.3, 0.5
    prod = s_product(rotation_coin(r1), rotation_coin(r2))
    want = (r1 + r2) / (1 + r1 * r2)
    _check(abs(prod.b - want) < 1e-12, "rotation product is not velocity addition")
    lines.append("ok: hyperbolic product of rotations")

    for _ in range(50):
        cs = random_sequence(rng, int(rng.integers(1, 5)))
        v = rng.normal(size=2 * (cs.n0 + 1)) + 1j * rng.normal(size=2 * (cs.n0 + 1))
        _check(norm_defect(cs, v) <= 1e-12 * np.linalg.norm(v) ** 2, "norm identity broke")
    lines.append("ok: window norm identity")

    for _ in range(10):
        cs = random_sequence(rng, int(rng.integers(1, 5)))
        for _ in range(4):
            xi = rng.uniform(-np.pi, np.pi)
            _check(
                scattering_matrix(cs, xi).unitarity_residual() < 1e-10,
                "scattering matrix not unitary on the real line",
            )
    lines.append("ok: scattering unitarity at real xi")

    res = find_resonances(hadamard_pair())
    _check(len(res) == 2, "Hadamard pair should have two resonances")
    _check(
        all(abs(abs(r.lam) - 2 ** -0.5) < 1e-12 for r in res),
        "Hadamard resonances off the closed form",
    )
    tp = transfer_polynomial(triple_barrier())
    _check(
        np.max(np.abs(np.array(tp.coeffs) - np.array([0.25, 1.0, 1.0]))) < 1e-10,
        "triple barrier polynomial is not (mu + 1/2)^2",
    )
    lines.append("ok: worked examples (double and triple barrier)")

    for _ in range(5):
        cs = random_sequence(rng, int(rng.integers(1, 4)))
        found = find_resonances(cs)
        # t22(xi + pi) = +-t22(xi), so a partner winds as its primary does
        partners = {r.mu: r.alg_multiplicity for r in found if r.xi.real >= 0}
        for r in found:
            if r.xi.real < 0:
                _check(
                    validate_multiplicity(cs, r, others=found) == r.alg_multiplicity,
                    "winding count disagrees with clustering",
                )
                _check(partners.get(r.mu) == r.alg_multiplicity, "partner multiplicity differs")
    lines.append("ok: winding counts match root multiplicities")

    for _ in range(5):
        cs = random_sequence(rng, int(rng.integers(1, 4)))
        psi0 = basis_state(0, "L")
        ed = expand(cs, psi0)
        chains = [resonant_chain(cs, b.resonance, 30) for b in ed.blocks]
        t = ed.nu + ed.zero_part_index + 6
        window = (-(t - ed.nu), t + cs.n0 - ed.nu)
        got = reconstruct(ed, chains, t, window)
        true = evolve(psi0, cs, t)[-1].restrict(*window)
        _check(
            (got - true).norm() <= 1e-9 * max(true.norm(), 1e-30),
            "reconstruction drifted from the evolved state",
        )
    lines.append("ok: resonance expansion reconstructs the walk")

    for _ in range(5):
        cs = random_sequence(rng, int(rng.integers(1, 4)))
        f = basis_state(0, "L") + 0.5 * basis_state(-1, "R")
        xi = complex(rng.uniform(-np.pi, np.pi), rng.uniform(0.5, 1.0))
        resid, _cond = identity_residual(cs, xi, f, (-8, cs.n0 + 8))
        _check(resid < 1e-10, "resolvent identity residual too large")
        direct = apply_resolvent(cs, xi, f, (-8, cs.n0 + 8))
        series = neumann_resolvent(cs, xi, f, (-8, cs.n0 + 8))
        _check((direct - series).norm() < 1e-8, "Neumann series disagrees")
    lines.append("ok: resolvent identity and Neumann series")

    rows = splitting_experiment(
        PerturbationFamily(triple_barrier(), 0.0, (1e-4, 1e-3))
    )
    slope = splitting_slope(rows)
    _check(abs(slope - 0.5) < 0.1, f"splitting slope {slope} too far from 1/2")
    lines.append("ok: double resonance splits with exponent 1/2")

    lines.append("selftest passed")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ main


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first main call and reused after.

    Not built at import: importing the module stays cheap.  Parsing leaves
    the tree unchanged, and no command mutates a shared default.
    """
    parser = argparse.ArgumentParser(
        prog="qwres",
        description="Resonances and decay rates of finitely perturbed quantum walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, needs_config=True):
        p = sub.add_parser(name, help=helptext)
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    add("validate", "parse and echo the config in canonical form")
    add("resonances", "all resonances as JSON")
    add("polynomial", "transfer polynomial coefficients as JSON")

    p = add("scattering", "scattering entries on a xi grid as CSV")
    p.add_argument(
        "--xi-grid",
        type=_parse_xi_grid,
        default=_parse_xi_grid("-3.141592653589793:3.141592653589793:25,0.0"),
        help="grid format re0:re1:n,im",
    )

    p = add("evolve", "trajectory CSV plus survival-norm summary CSV")
    p.add_argument("--T", type=_nonnegative_int, default=60, help="number of steps")

    add("expand", "resonance expansion coefficients as JSON")

    p = add("survival", "survival-norm CSV, optionally with a decay fit")
    p.add_argument("--T", type=_nonnegative_int, default=60, help="number of steps")
    p.add_argument("--fit", action="store_true", help="prepend (M_est, m_est, C_est)")

    p = add("resolvent-check", "resolvent identity residuals on a xi grid as CSV")
    p.add_argument(
        "--xi-grid",
        type=_parse_xi_grid,
        default=_parse_xi_grid("-3.141592653589793:3.141592653589793:25,1.0"),
        help="grid format re0:re1:n,im",
    )
    p.add_argument("--window", type=_nonnegative_int, default=10, help="window half-width")

    p = add("split", "resonance splitting under perturbation as CSV")
    p.add_argument(
        "--eps", type=_parse_eps_list, default=[1e-3, 1e-4, 1e-5], help="comma list"
    )
    p.add_argument("--phi", type=_finite_float, default=0.0, help="perturbation direction")

    p = add("selftest", "run the invariant battery", needs_config=False)
    p.add_argument("--seed", type=_nonnegative_int, default=20240901, help="sweep seed")

    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "resonances": _cmd_resonances,
    "polynomial": _cmd_polynomial,
    "scattering": _cmd_scattering,
    "evolve": _cmd_evolve,
    "expand": _cmd_expand,
    "survival": _cmd_survival,
    "resolvent-check": _cmd_resolvent_check,
    "split": _cmd_split,
    "selftest": _cmd_selftest,
}


def _summary_path(out: str) -> Path:
    path = Path(out)
    if path.suffix == ".csv":
        return path.with_suffix(".summary.csv")
    return Path(str(path) + ".summary")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
    except QWResError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    if isinstance(result, tuple):
        body, summary = result
        if args.out:
            Path(args.out).write_text(body, encoding="utf-8")
            _summary_path(args.out).write_text(summary, encoding="utf-8")
        else:
            sys.stdout.write(body + "\n" + summary)
    elif args.out:
        Path(args.out).write_text(result, encoding="utf-8")
    else:
        sys.stdout.write(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
