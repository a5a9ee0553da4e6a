"""qwres benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory, never from an installed copy.  The run writes its
configs under a temporary ``.perfbench-*`` directory in the checkout and
removes it at exit.

With ``--trace 0`` the run times a closed loop of whole workload cycles,
as many as take about ``--seconds`` seconds of operation time at the
workload's nominal rate (``workloads.planned_units``), and prints the
end-to-end metrics.  The amount of work is fixed by the seed and
``--seconds`` alone, so repeated runs attempt the same operations.
With ``--trace 1`` it runs a fixed list of operations
(``workloads.TRACE_UNITS``), each once untraced and once with a span
around every public qwres function, and prints per-layer metrics plus the
tracing overhead.  Either way each operation's output is checked, and
the last line of stdout is the JSON result.  Operation times are in
reference seconds (see ``calibrate``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_LAUNCHES = 9  # pairs of fresh interpreters timed for setup_s
REFERENCE_LAUNCH_S = 0.15  # reference launch time that defines one reference second of set-up
REFERENCE_S = 0.002  # calibration time that defines one reference second
CALIBRATION_WINDOW = 9  # units per rolling median of calibrations
CALIBRATION_MATRIX = [[((7 * i + 3 * j) % 11) - 5.0 for j in range(20)] for i in range(20)]
REPEAT_EVERY = 20  # every 20th operation, and the first of each kind, runs twice
TAIL = 90  # the tail percentile
MIN_OPERATIONS = 100  # a timed loop runs at least this many, so 10 lie beyond p90
WALL_LIMIT_S = 140  # a loop still running after this stops, so the run ends within 180 s
WORK_UNIT = {"spectrum": "windows", "grid": "points", "evolution": "steps"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("spectrum", "grid", "evolution"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import qwres from this checkout's src, refusing any other copy."""
    if not (SRC / "qwres" / "cli.py").is_file():
        sys.exit(f"error: no qwres sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qwres
    import qwres.cli

    if Path(qwres.__file__).resolve().parent != SRC / "qwres":
        sys.exit(f"error: imported qwres from {qwres.__file__}, not from {SRC}")
    return qwres


# ------------------------------------------------------------- machine


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it says."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(threads_before):
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            model = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "QWRES_THREADS": "unset" if threads_before is None else f"was {threads_before!r}, unset for the run",
        "load": "closed loop, one process, one client thread; qwres's own pool adds its threads",
    }


def setup_seconds():
    """Wall time of a fresh interpreter running ``import qwres.cli``, in
    reference seconds.

    Each launch is paired with a reference launch of a fresh interpreter
    running ``import numpy``, which runs no qwres code, the two in
    alternating order.  The result is the median over pairs of
    REFERENCE_LAUNCH_S * qwres time / reference time.  On a shared 2-vCPU
    VM (Intel Xeon, Python 3.11, numpy 2.4), the medians of 11 launches
    spread 22% (IQR over median, ten repeats) raw, 13% scaled by the
    in-process calibration kernel, and 2.5% scaled by the paired launch.
    Returns the median and the raw (qwres, reference) times.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def launch(code):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    pairs = []
    for i in range(SETUP_LAUNCHES):
        if i % 2:
            reference = launch("import numpy")
            pairs.append((launch("import qwres.cli"), reference))
        else:
            pairs.append((launch("import qwres.cli"), launch("import numpy")))
    return statistics.median(REFERENCE_LAUNCH_S * q / r for q, r in pairs), pairs


# ------------------------------------------------------------ the loop


def calibrate():
    """Seconds for a fixed mix of interpreter work, small numpy calls and LAPACK.

    On a shared 2-vCPU VM (Intel Xeon, Python 3.11, numpy 2.4) the speed
    drifts by up to 1.6x over tens of seconds as other tenants load the
    host, so every time the benchmark reports is scaled to reference
    seconds, raw * REFERENCE_S / calibration, with the calibration timed
    next to the measurement.  This cut the spread of fixed operations'
    median times across runs from 15-21% to under 6% on that VM.  The
    kernel runs no qwres code, so a change to the program cannot move it.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    a = np.arange(64.0)
    for _ in range(200):
        a = (a * a + 1.0) ** 0.5
    np.linalg.eigvals(CALIBRATION_MATRIX)
    return time.perf_counter() - t0


class Record:
    """One operation: its outcome, check verdict and reference-time scale."""

    __slots__ = ("unit", "op", "outcome", "problem", "traced_s", "nbytes", "scale")

    def __init__(self, unit, op, outcome, problem, traced_s):
        self.unit, self.op, self.outcome, self.problem, self.traced_s = unit, op, outcome, problem, traced_s
        self.nbytes = len(outcome.text.encode())
        self.scale = 1.0

    @property
    def ok(self):
        return self.outcome.code == 0 and self.problem is None

    @property
    def seconds(self):
        return self.outcome.seconds * self.scale


def check(op, text):
    """The operation's check verdict; output it cannot parse fails it."""
    try:
        return op.check(text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def traced_run(tracer, op):
    tracer.active = True
    try:
        return op.execute()
    finally:
        tracer.active = False


def run_units(units, planned, cycle, min_ops, tracer=None):
    """Execute ``planned`` units, or more whole cycles of ``cycle`` units until
    at least ``min_ops`` operations have run.

    The amount of work depends only on the arguments, never on the clock,
    so one seed runs the same operations on every run.  Only a run that
    would outlast WALL_LIMIT_S stops early, and says so.

    A calibration precedes every unit, and each operation's time is scaled
    by REFERENCE_S over the rolling median of the CALIBRATION_WINDOW
    calibrations around its unit.  Checks run untimed after each
    operation.  With a tracer, every operation also runs traced, next to
    its untraced run and alternately before and after it, so drift in the
    host's speed and warm memory favour neither side of the overhead;
    without one, the first operation of each kind and every
    REPEAT_EVERY-th run a second time untraced.  Either way the second
    output must be byte-identical to the first.  Returns (records, loop
    wall seconds, repeat mismatches).
    """
    import numpy as np

    records, mismatches, calibs, unit_of = [], [], [], []
    seen_kinds = set()
    t0 = time.perf_counter()
    for done, unit in enumerate(units, 1):
        calibs.append(calibrate())
        for op in unit.ops:
            index = len(records)
            again = None
            if tracer and index % 2:  # alternate which run goes first: the second runs on warm memory
                again = traced_run(tracer, op)
            outcome = op.execute()
            if tracer and not again:
                again = traced_run(tracer, op)
            problem = check(op, outcome.text) if outcome.code == 0 else None
            if not tracer and (op.kind not in seen_kinds or index % REPEAT_EVERY == REPEAT_EVERY - 1):
                again = op.execute()
            if again and (again.code, again.text) != (outcome.code, outcome.text):
                mismatches.append(f"{op.kind} {op.label}: repeated output differs")
                problem = problem or "repeated output is not byte-identical"
            seen_kinds.add(op.kind)
            records.append(Record(unit, op, outcome, problem, again.seconds if tracer else None))
            outcome.text = None  # checked; keeping it would inflate peak RSS
            unit_of.append(len(calibs) - 1)
            verdict = "ok" if problem is None else f"FAIL {problem}"
            if outcome.code:
                verdict = f"exit {outcome.code} {outcome.error[:100]}"
            print(f"op {index} {op.kind} [{op.label}] {outcome.seconds:.6f}s check: {verdict}")
        if done >= planned and done % cycle == 0 and len(records) >= min_ops:
            break
        if time.perf_counter() - t0 >= WALL_LIMIT_S:
            print(f"warning: stopped after {done} of {planned} units at the {WALL_LIMIT_S}s wall limit")
            break
    half = CALIBRATION_WINDOW // 2
    rolling = [float(np.median(calibs[max(0, k - half) : k + half + 1])) for k in range(len(calibs))]
    for r, k in zip(records, unit_of):
        r.scale = REFERENCE_S / rolling[k]
    calib = float(np.median(calibs))
    print(f"calibration: {len(calibs)} samples, median {calib:.6f}s, "
          f"min {min(calibs):.6f}s, max {max(calibs):.6f}s (reference {REFERENCE_S}s)")
    return records, time.perf_counter() - t0, mismatches


def end_to_end(workload, records):
    """The five per-workload metrics of one untraced loop, in reference seconds."""
    import numpy as np

    secs = [r.seconds for r in records]
    total = sum(secs)
    if workload == "spectrum":
        by_window = defaultdict(list)
        for r in records:
            by_window[id(r.unit)].append(r.ok)
        done = sum(all(oks) for oks in by_window.values())
    else:
        done = sum(r.op.work for r in records if r.ok)
    return {
        "throughput": done / total,
        "latency_p50_s": float(np.percentile(secs, 50)),
        "latency_p90_s": float(np.percentile(secs, TAIL)),
        "ok_ratio": sum(r.ok for r in records) / len(records),
    }, done, total


def ladder_report(records):
    """Per-n0 outcome table of the spectrum workload."""
    rows = defaultdict(lambda: {"windows": set(), "bad_windows": set(), "ops": 0, "ok": 0, "exits": Counter()})
    for r in records:
        row = rows[r.unit.n0]
        row["windows"].add(id(r.unit))
        row["ops"] += 1
        row["ok"] += r.ok
        if not r.ok:
            row["bad_windows"].add(id(r.unit))
            row["exits"][r.outcome.code if r.outcome.code else "check"] += 1
    lines = ["ladder: n0 windows windows_ok ops ops_ok failures_by_exit_code"]
    for n0 in sorted(rows):
        row = rows[n0]
        w = len(row["windows"])
        exits = " ".join(f"{k}:{v}" for k, v in sorted(row["exits"].items(), key=str)) or "-"
        lines.append(f"ladder: {n0} {w} {w - len(row['bad_windows'])} {row['ops']} {row['ok']} {exits}")
    return lines


# ------------------------------------------------------------- traced


def per_layer(spans, self_s, untraced_s, traced_s, records):
    """Per-layer metrics from the traced pass, every name always present.

    Times are scaled to reference seconds by the run's median scale.
    """
    import tracer as tr
    from workloads import LADDER

    stats, by_n0, by_size, fails_by_n0 = tr.layer_stats(spans, self_s)

    def st(name):
        return stats.get(name, {"calls": 0, "self_s": 0.0, "size": 0, "exc": {}})

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    m = {}
    for name, fields in PER_LAYER_FIELDS.items():
        s = st(name)
        for f in fields:
            m[f"{name}.{f}"] = (s[f], UNITS[f])
    m["transfer.transfer_product.points"] = (st("transfer.transfer_product")["size"], "count")
    m["walk.step.sites"] = (st("walk.step")["size"], "count")
    step = st("walk.step")
    m["walk.step.sites_per_s"] = (step["size"] / step["self_s"] if step["self_s"] else 0.0, "1/s")
    fr = st("resonances.find_resonances")
    m["resonances.find_resonances.failed"] = (sum(fr["exc"].values()), "count")
    for exc in FIND_FAILURES:
        m[f"resonances.find_resonances.failed.{exc}"] = (fr["exc"].get(exc, 0), "count")
    other = sum(v for k, v in fr["exc"].items() if k not in FIND_FAILURES)
    m["resonances.find_resonances.failed.other"] = (other, "count")
    for n0 in LADDER:
        calls = len(by_n0.get(("resonances.find_resonances", n0), ()))
        fails = fails_by_n0.get(("resonances.find_resonances", n0), 0)
        m[f"resonances.find_resonances.calls.n0-{n0}"] = (calls, "count")
        m[f"resonances.find_resonances.ok_ratio.n0-{n0}"] = ((calls - fails) / calls if calls else 0.0, "ratio")
        aberth = by_n0.get(("resonances.aberth_roots", n0), ())
        m[f"resonances.aberth_roots.self_s.n0-{n0}"] = (mean(aberth), "s/call")
    for T in EVOLVE_T:
        m[f"walk.evolve.inclusive_s.T-{T}"] = (mean(by_size.get(("walk.evolve", T), ())), "s/call")
    at_resonance = st("scattering.scattering_matrix")["exc"].get("AtResonance", 0)
    m["scattering.scattering_matrix.at_resonance"] = (at_resonance, "count")
    m["cli.pool_parallelism"] = (tr.pool_parallelism(spans), "ratio")
    cli_records = [r for r in records if r.op.kind not in ("portrait", "reconstruct")]
    m["cli.bytes_out"] = (sum(r.nbytes for r in cli_records), "bytes")
    exits = Counter(r.outcome.code for r in cli_records if r.outcome.code)
    for code in CLI_EXITS:
        m[f"cli.main.exit-{code}"] = (exits.get(code, 0), "count")
    m["cli.main.exit-other"] = (sum(v for k, v in exits.items() if k not in CLI_EXITS), "count")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    scale = statistics.median(r.scale for r in records)
    rescale = {"s": scale, "s/call": scale, "1/s": 1 / scale}
    return {name: (value * rescale.get(unit, 1), unit) for name, (value, unit) in m.items()}


UNITS = {"calls": "count", "self_s": "s"}
PER_LAYER_FIELDS = {
    "transfer.transfer_polynomial": ("calls", "self_s"),
    "transfer.transfer_product": ("calls", "self_s"),
    "transfer.local_transfer": ("calls",),
    "resonances.find_resonances": ("calls", "self_s"),
    "resonances.winding_count": ("calls", "self_s"),
    "resonances.resonant_chain": ("calls", "self_s"),
    "expansion.expand": ("calls", "self_s"),
    "expansion.nilpotency_index": ("self_s",),
    "expansion.reconstruct": ("self_s",),
    "expansion.decay_fit_full": ("self_s",),
    "genericity.splitting_experiment": ("self_s",),
    "scattering.jost": ("calls", "self_s"),
    "scattering.scattering_matrix": ("calls", "self_s"),
    "resolvent.identity_residual": ("calls", "self_s"),
    "walk.build_K": ("calls", "self_s"),
    "walk.step": ("calls", "self_s"),
    "walk.survival_norm": ("self_s",),
    "states.WaveState": ("calls", "self_s"),
    "coins.sequence_from_json": ("self_s",),
    "cli.main": ("calls", "self_s"),
}
FIND_FAILURES = ("RelationCheckFailed", "RootFindingDiverged", "InvariantViolation")
CLI_EXITS = (21, 31, 32)
EVOLVE_T = (100, 250, 300, 500, 1000, 2000)


# --------------------------------------------------------------- main


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    threads_before = os.environ.pop("QWRES_THREADS", None)
    # One BLAS thread, set before numpy loads.  On a shared 2-vCPU VM a second
    # OpenBLAS 0.3.31 thread stalls whenever the other core is busy: a 66x66 SVD
    # takes 4.0 ms median and 84 ms p90 with two threads, 1.2 ms and 1.5 ms
    # with one.  The stalls follow other tenants' load, not the program.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    qwres = import_package()
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        t_setup = time.perf_counter()
        units = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("machine:", json.dumps(machine_record(threads_before)))
        for op in next(units()).ops:  # warm-up: numpy's lazy set-up stays out of the timing
            op.execute()
        setup_s = setup_times = None
        if not args.trace:
            setup_s, setup_times = setup_seconds()
        launches = [(round(q, 4), round(r, 4)) for q, r in setup_times or ()]
        print(f"setup: {time.perf_counter() - t_setup:.3f}s total, launches (qwres.cli, numpy) {launches}")

        metrics = {}
        if args.trace:
            import tracer as tr

            tracer = tr.Tracer()
            tracer.install(qwres)
            # a fixed list of operations, so counts compare exactly across commits
            records, wall, mismatches = run_units(units(), workloads.TRACE_UNITS[args.workload], 1, 0, tracer)
            tracer.uninstall()
            untraced_s = sum(r.outcome.seconds for r in records)
            traced_s = sum(r.traced_s for r in records)
            layer = per_layer(tracer.spans, tracer.self_times(), untraced_s, traced_s, records)
            for name, (value, unit) in layer.items():
                print(f"{name} = {value} {unit}")
                metrics[name] = {"value": value, "unit": unit}
            print(f"trace: {len(tracer.spans)} spans over {len(records)} operations; "
                  f"untraced {untraced_s:.3f}s, traced {traced_s:.3f}s, overhead {traced_s - untraced_s:.3f}s")
        else:
            planned = workloads.planned_units(args.workload, args.seconds)
            cycle = workloads.CYCLE[args.workload]
            records, wall, mismatches = run_units(units(), planned, cycle, MIN_OPERATIONS)
            e2e, done, op_s = end_to_end(args.workload, records)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            n = len(records)
            beyond = n - int(n * TAIL / 100)
            w = args.workload
            print(f"setup_s = {setup_s} s (median of {SETUP_LAUNCHES} fresh interpreters importing qwres.cli, "
                  f"each scaled by a paired launch importing numpy alone)")
            unit = WORK_UNIT[w]
            print(f"{w}.{unit}_per_s = {e2e['throughput']} {unit}/s ({done} {unit} over {op_s:.3f} "
                  f"reference seconds of operations, loop wall {wall:.3f}s)")
            print(f"{w}.latency_p50_s = {e2e['latency_p50_s']} s (n={n})")
            print(f"{w}.latency_p{TAIL}_s = {e2e['latency_p90_s']} s (n={n}, {beyond} samples beyond p{TAIL})")
            print(f"{w}.ok_ratio = {e2e['ok_ratio']} ({sum(r.ok for r in records)} of {n} operations)")
            print(f"{w}.peak_rss_mb = {rss} MB (ru_maxrss of this process, which ran {w} alone)")
            if w == "spectrum":
                print("\n".join(ladder_report(records)))
            metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
            units_of = {"throughput": "1/s", "latency_p50_s": "s", "latency_p90_s": "s", "ok_ratio": "ratio"}
            for name, value in e2e.items():
                metrics[name] = {"value": value, "unit": units_of[name]}
            metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        kinds = Counter(r.op.kind for r in records)
        print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
              f"operations={len(records)} by kind {dict(kinds)} tail=p{TAIL}")
        for line in mismatches:
            print("mismatch:", line)
        wrong = sum(r.outcome.code == 0 and r.problem is not None for r in records)
        print(f"checks: {len(records)} operations checked, {wrong} exited 0 with output that failed "
              f"its check, {sum(r.outcome.code != 0 for r in records)} exited nonzero; "
              f"{len(mismatches)} repeated samples differed")
        result = {
            "correct": not mismatches,
            "attempted": len(records),
            "failed": sum(not r.ok for r in records),
            "metrics": metrics,
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
