"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload tune --seed 0 --seconds 40 --trace 0

One client runs ops back to back (a closed loop) in whole rounds of the
workload's configurations, shuffled by the seed, for about --seconds: a
round that would end past them at the pace so far is not started.  Op
data come from the seed and the configuration's index.  With --trace 0
the last line of standard output is one JSON object holding the
end-to-end metrics; with --trace 1 untraced rounds alternate with traced
ones, and the JSON object holds the per-layer metrics of the traced ops
and the tracing overhead.  A run record with the environment, every op's
fingerprint and each timing's median, tail percentile and sample count is
written to bench/out/.

An op that raises or fails a correctness gate counts in ``failed``.
``correct`` is true when every op passed its gates with a finite
fingerprint and ops with identical inputs gave identical fingerprints.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import blowlab.evolve  # noqa: E402

if Path(blowlab.__file__).resolve().parent != ROOT / "src" / "blowlab":
    sys.exit(f"bench: blowlab imported from {blowlab.__file__}, "
             f"not from {ROOT / 'src'}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import FLOORS, WORKLOADS  # noqa: E402

# the wrapper every untraced op runs under, for its integration count
COUNTED = ("evolve.integrate",)


class SpeedProbe:
    """The host's speed at time stepping, sampled by a fixed loop of 200
    RK4 steps of a 64 x 64 linear system: small matrix-vector products
    driven from Python, the kind of work ``integrate`` does.

    Identical ops on a shared host step at two speeds that alternate
    within seconds (0.12 s or 0.20 s for one sweep solve), and the share
    of time at each moves from minute to minute; LAPACK-bound work such
    as the projection barely moves.  So the probe runs before each
    ``integrate`` call, outside the timings, and the time spent in
    ``integrate`` is counted at a fixed probe speed: times PROBE_S over
    the op's mean probe time.
    """

    PROBE_S = 0.005  # the probe's median on a shared 2-vCPU x86-64 host

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((64, 64)) / 64
        self.x0 = rng.standard_normal(64)
        self.samples = []
        self.total = 0.0

    def __call__(self, steps=200, h=1e-3):
        t0 = perf_counter()
        a, x = self.a, self.x0
        for _ in range(steps):
            k1 = a @ x
            k2 = a @ (x + 0.5 * h * k1)
            k3 = a @ (x + 0.5 * h * k2)
            k4 = a @ (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.total += elapsed


def _timed(tracer, probe, func, *args):
    """func(*args), its wall time less the probes taken in it, and the
    time of the ``integrate`` calls in it."""
    first, spent, t0 = len(tracer.start), probe.total, perf_counter()
    out = func(*args)
    wall = perf_counter() - t0 - (probe.total - spent)
    return out, wall, sum(tracer.durations("evolve.integrate", first))


def run_op(workload, cfg, data_seed, tracer, probe, op_id, traced=False):
    """One op: timed setup and solve, then the gates outside the timing.

    A traced op runs under every TRACED wrapper; an untraced one only
    under the ``integrate`` wrapper, whose spans count the op's
    integrations and time them.  Either way the speed probe runs before
    each ``integrate`` call.
    """
    rec = {"op": op_id, "config": cfg, "data_seed": list(data_seed),
           "traced": traced, "failures": [], "fingerprint": {},
           "accuracy": {}}
    state = outputs = None
    first_span = len(tracer.start)
    probe.samples = []
    phases = {"setup": (0.0, 0.0), "solve": (0.0, 0.0)}
    with tracer.traced_op(op_id, None if traced else COUNTED,
                          {"evolve.integrate": probe}):
        try:
            state, *phases["setup"] = _timed(tracer, probe, workload.setup,
                                             cfg, data_seed)
            outputs, *phases["solve"] = _timed(tracer, probe,
                                               workload.solve, state)
        except Exception as exc:  # an op that raises is a failed op
            rec["failures"].append(f"{type(exc).__name__}: {exc}")
    rec["probes"] = len(probe.samples)
    rec["probe_s"] = (statistics.fmean(probe.samples) if probe.samples
                      else probe.PROBE_S)
    scale = probe.PROBE_S / rec["probe_s"]
    for phase, (wall, stepping) in phases.items():
        rec[f"wall_{phase}_s"] = wall
        rec[f"{phase}_s"] = wall + stepping * (scale - 1.0)
    if state is not None:
        try:
            fp, acc, failures = workload.check(state, outputs)
        except Exception as exc:  # malformed outputs fail the op
            fp, acc, failures = {}, {}, [f"check: {type(exc).__name__}: {exc}"]
        integrations = len(tracer.durations("evolve.integrate", first_span))
        rec["fingerprint"] = dict(fp, integrations=integrations)
        rec["accuracy"] = acc
        rec["failures"] += failures
    return rec


def run_workload(workload, seed, seconds, trace):
    """Run whole rounds for about `seconds`; return the op records and the
    tracer.

    Every op of a configuration gets the same inputs, made from the seed
    and the configuration's index.  With tracing, every second round runs
    traced, so each traced op has untraced twins with its inputs.
    """
    order = random.Random(seed)
    tracer = tracing.Tracer()
    probe = SpeedProbe()
    inputs = [(cfg, (seed, i)) for i, cfg in enumerate(workload.configs)]
    # untimed warm-up: first-call costs a repeated CLI run would not pay
    probe()
    for cfg, data_seed in inputs:
        workload.setup(cfg, data_seed)
    records = []
    start = perf_counter()
    deadline = start + seconds
    rounds = 0
    # stop before a round that would, at the pace so far, end past the
    # deadline, so that a run's length stays near `seconds`
    while (rounds < (2 if trace else 1)
           or perf_counter() + (perf_counter() - start) / rounds <= deadline):
        order.shuffle(inputs)
        traced = bool(trace) and rounds % 2 == 1
        records += [run_op(workload, cfg, data_seed, tracer, probe,
                           len(records) + i, traced)
                    for i, (cfg, data_seed) in enumerate(inputs)]
        rounds += 1
    return records, tracer


def _finite(value):
    return not isinstance(value, float) or math.isfinite(value)


def correctness(records):
    """Every op passed its gates with a finite fingerprint, and ops with
    the same inputs gave the same fingerprint."""
    seen = {}
    for r in records:
        if r["failures"]:
            return False, f"op {r['op']}: " + "; ".join(r["failures"])
        if not all(_finite(v) for v in r["fingerprint"].values()):
            return False, f"op {r['op']}: non-finite fingerprint"
        fp = json.dumps(r["fingerprint"])
        if seen.setdefault(_input_key(r), fp) != fp:
            return False, f"op {r['op']}: same inputs, different fingerprint"
    return True, ""


def _input_key(rec):
    return json.dumps([rec["config"], rec["data_seed"]])


def _op_s(rec, prefix=""):
    return rec[prefix + "setup_s"] + rec[prefix + "solve_s"]


def timing_stats(values):
    label, tail = tracing.tail_percentile(values)
    return {"median": statistics.median(values), "tail": tail,
            "tail_label": label, "n": len(values)}


def end_to_end(records):
    timings = {}
    for prefix in ("", "wall_"):
        timings.update({
            prefix + "setup_s": [r[prefix + "setup_s"] for r in records],
            prefix + "solve_s": [r[prefix + "solve_s"] for r in records],
            prefix + "op_s": [_op_s(r, prefix) for r in records],
        })
    timings["probe_s"] = [r["probe_s"] for r in records if r["probes"]]
    stats = {name: timing_stats(vals) for name, vals in timings.items()
             if vals}
    metrics = {name: (stats[name]["median"], "s")
               for name in ("setup_s", "solve_s", "op_s")}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    passed = [r for r in records if not r["failures"]]
    metrics["pass_frac"] = (len(passed) / len(records), "fraction")
    for name, floor in FLOORS.items():
        measured = [r["accuracy"][name] for r in passed
                    if name in r["accuracy"]]
        metrics[name] = (max([floor] + measured), "1")
    return metrics, stats


def per_layer(records, tracer):
    """Per-layer metrics with units, and the per-name span totals."""
    traced = [r for r in records if r["traced"]]
    values, spans = tracing.layer_metrics(
        tracer, {r["op"]: r["config"]["n"] for r in traced})
    # each traced op against the median of its untraced twins
    twins = {}
    for r in records:
        if not r["traced"]:
            twins.setdefault(_input_key(r), []).append(_op_s(r))
    values["trace.overhead_s"] = statistics.fmean(
        _op_s(r) - statistics.median(twins[_input_key(r)]) for r in traced)
    units = {name: unit for name, unit, _b, _m in tracing.LAYER_METRICS}
    return {name: (values[name], units[name]) for name in units}, spans


def _commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS")}
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "thread_env": threads,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def _print_ops(records):
    for r in records:
        cfg = " ".join(f"{k}={v}" for k, v in r["config"].items())
        status = "FAIL " + "; ".join(r["failures"]) if r["failures"] else "ok"
        mark = " traced" if r["traced"] else ""
        print(f"op {r['op']:3d} {cfg}{mark}: setup {r['setup_s']:.4f} s, "
              f"solve {r['solve_s']:.4f} s, {status}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    records, tracer = run_workload(workload, args.seed, args.seconds,
                                   args.trace)
    ok, why = correctness(records)
    failed = sum(1 for r in records if r["failures"])
    _print_ops(records)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "ops": records,
              "correct": ok, "correct_detail": why}
    if args.trace:
        metrics, record["spans"] = per_layer(records, tracer)
        record["moves"] = {name: moves for name, _u, _b, moves
                           in tracing.LAYER_METRICS}
    else:
        metrics, stats = end_to_end(records)
        record["timings"] = stats
        for name, s in stats.items():
            print(f"{name}: median {s['median']:.6g} s, {s['tail_label']} "
                  f"{s['tail']:.6g} s, n={s['n']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not ok:
        print(f"incorrect: {why}")
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": ok, "attempted": len(records),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
