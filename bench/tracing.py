"""Spans around the package's public functions, and the statistics the
benchmark reports.

A traced op replaces each function at the module attribute its callers
look up (``blowlab.evolve.nonlin_N`` is what the RK4 stage calls, for
example) with a wrapper that records one span per call, and puts the
originals back when the op ends.  An untraced op wraps only
``integrate``, whose spans count the op's integrations.  Spans are kept in
flat arrays in memory until the run ends; a traced tune op makes about
415k of them.
"""

import contextlib
import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name): the functions the per-layer metrics
# need.  The attribute is the one the caller looks up at call time; the
# span is named after the defining module.
TRACED = (
    ("blowlab.grid", "build_grid", "grid.build_grid"),
    ("blowlab.spectral", "assemble_L", "spectral.assemble_L"),
    ("blowlab.spectral", "riesz_projection", "spectral.riesz_projection"),
    ("blowlab.spectral", "discrete_eigenvalues",
     "spectral.discrete_eigenvalues"),
    ("blowlab.spectral", "eigenfunction_analytic",
     "spectral.eigenfunction_analytic"),
    ("blowlab.spectral", "hyp2f1", "specfun.hyp2f1"),
    ("blowlab.model", "U_map", "model.U_map"),
    ("blowlab.evolve", "nonlin_N", "model.nonlin_N"),
    ("blowlab.evolve", "stable_dtau", "evolve.stable_dtau"),
    ("blowlab.evolve", "integrate", "evolve.integrate"),
    ("blowlab.evolve", "unstable_coefficient", "evolve.unstable_coefficient"),
    ("blowlab.evolve", "tune_T", "evolve.tune_T"),
)

# Per-layer metrics of the traced run: (name, unit, better, what it should
# move).  Each value is per traced op.  BENCHMARK.json lists the same
# names, units and directions.
LAYER_METRICS = (
    ("evolve.integrate.self_s", "s", "lower", "solve_s on tune and sweep"),
    ("evolve.tau_per_s", "1/s", "higher", "solve_s on tune and sweep"),
    ("evolve.rhs_gflops", "GFLOP/s", "higher",
     "solve_s on tune and sweep; computed as 10n^2+12n flops per RHS"),
    ("model.nonlin_N.calls", "count", "lower", "solve_s on tune and sweep"),
    ("model.nonlin_N.s", "s", "lower", "solve_s on tune and sweep"),
    ("evolve.tune_T.integrations", "count", "lower", "solve_s on tune"),
    ("evolve.integrate.aborts", "count", "lower", "solve_s on tune"),
    ("evolve.unstable_coefficient.calls", "count", "lower",
     "solve_s on tune"),
    ("evolve.unstable_coefficient.s", "s", "lower", "solve_s on tune"),
    ("model.U_map.s", "s", "lower", "solve_s on tune"),
    ("spectral.discrete_eigenvalues.self_s", "s", "lower",
     "solve_s on spectrum"),
    ("spectral.eigenfunction_analytic.s", "s", "lower",
     "solve_s on spectrum"),
    ("specfun.hyp2f1.calls", "count", "lower", "solve_s on spectrum"),
    ("specfun.hyp2f1.s", "s", "lower", "solve_s on spectrum"),
    ("spectral.riesz_projection.calls", "count", "lower",
     "solve_s on spectrum; setup_s on sweep and tune"),
    ("spectral.riesz_projection.s", "s", "lower",
     "solve_s on spectrum; setup_s on sweep and tune"),
    ("evolve.stable_dtau.s", "s", "lower", "setup_s on sweep"),
    ("spectral.assemble_L.s", "s", "lower", "setup_s on sweep"),
    ("grid.build_grid.s", "s", "lower", "setup_s on sweep"),
    ("trace.overhead_s", "s", "lower",
     "none: mean traced-minus-untraced op_s over twin ops"),
)


def rhs_flops(n):
    """Computed flops of one nonlinear RHS on an n-node grid: the 2n x 2n
    matvec with L (8n^2), the n x n Volterra matvec (2n^2) and about 12
    elementwise operations per node for the running average and N."""
    return 10 * n * n + 12 * n


class Tracer:
    """Spans of the traced ops of one run: name, start, end, parent, op id.

    ``work`` holds the similarity time an ``integrate`` span advanced and
    ``raised`` whether the call ended in an exception.
    """

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("d")
        self.raised = array("b")
        self._stack = []
        self._op_id = -1

    def _wrap(self, func, name, before=None):
        if name not in self.names:
            self.names.append(name)
        sid = self.names.index(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            idx = len(self.start)
            self.name_id.append(sid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self._op_id)
            self.end.append(0.0)
            self.work.append(0.0)
            self.raised.append(0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = perf_counter()
                self.raised[idx] = 1
                self.work[idx] = _tau_advanced(getattr(exc, "trajectory",
                                                       None))
                raise
            finally:
                self._stack.pop()
            self.end[idx] = perf_counter()
            self.work[idx] = _tau_advanced(result)
            return result
        return traced

    @contextlib.contextmanager
    def traced_op(self, op_id, only=None, before=None):
        """Patch the TRACED attributes (those whose span name is in `only`,
        if given) for the duration of one op.

        `before` maps span names to a callable run before each call, outside
        its span.
        """
        before = before or {}
        saved = []
        self._op_id = op_id
        try:
            for mod_name, attr, name in TRACED:
                if only is not None and name not in only:
                    continue
                module = importlib.import_module(mod_name)
                func = getattr(module, attr)
                saved.append((module, attr, func))
                setattr(module, attr,
                        self._wrap(func, name, before.get(name)))
            yield
        finally:
            for module, attr, func in reversed(saved):
                setattr(module, attr, func)
            self._op_id = -1

    def durations(self, name, since=0):
        """Durations of the spans called `name` recorded from index `since`
        on."""
        if name not in self.names:
            return []
        sid = self.names.index(name)
        return [self.end[i] - self.start[i]
                for i in range(since, len(self.name_id))
                if self.name_id[i] == sid]


def _tau_advanced(traj):
    taus = getattr(traj, "taus", None)
    if taus is None or len(taus) == 0:
        return 0.0
    return float(taus[-1] - taus[0])


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(start, end, parent):
    """Each span's duration minus the time its direct child spans cover."""
    children = defaultdict(list)
    for i, par in enumerate(parent):
        if par >= 0:
            children[par].append((start[i], end[i]))
    out = [e - s for s, e in zip(start, end)]
    for par, intervals in children.items():
        out[par] -= covered(intervals, start[par], end[par])
    return out


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it.

    Uses the nearest-rank percentile: q is the largest integer with
    n - ceil(q n / 100) >= 10.  Below 20 samples no percentile from the
    median up qualifies, and the maximum is reported instead.  Returns
    (label, value).
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return "max", xs[-1]
    q = 100
    while n - _ceil_div(q * n, 100) < 10:
        q -= 1
    return f"p{q}", xs[_ceil_div(q * n, 100) - 1]


def _ceil_div(a, b):
    return -(-a // b)


def layer_metrics(tracer, op_grid_n):
    """Per-layer metrics, and calls, time and self time of every span
    name, each per traced op, from the spans of the traced ops.

    `op_grid_n` maps each traced op id to its evolution grid size, which
    the computed RHS flop rate needs; spans of other ops are skipped.
    ``trace.overhead_s`` is left to the caller, which times the untraced
    ops.
    """
    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    aborts = tune_integrations = 0
    tau_done = flops = 0.0
    for i, sid in enumerate(tracer.name_id):
        if tracer.op[i] not in op_grid_n:
            continue
        name = names[sid]
        calls[name] += 1
        total[name] += tracer.end[i] - tracer.start[i]
        self_total[name] += selfs[i]
        if name == "evolve.integrate":
            aborts += tracer.raised[i]
            tau_done += tracer.work[i]
            par = tracer.parent[i]
            if par >= 0 and names[tracer.name_id[par]] == "evolve.tune_T":
                tune_integrations += 1
        elif name == "model.nonlin_N":
            flops += rhs_flops(op_grid_n[tracer.op[i]])
    integrate_s = total["evolve.integrate"]
    values = {
        "evolve.integrate.self_s": self_total["evolve.integrate"],
        "evolve.tune_T.integrations": tune_integrations,
        "evolve.integrate.aborts": aborts,
        "spectral.discrete_eigenvalues.self_s":
            self_total["spectral.discrete_eigenvalues"],
    }
    for name, *_ in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "s") and name not in values:
            values[name] = calls[layer] if stat == "calls" else total[layer]
    nops = max(len(op_grid_n), 1)
    out = {name: value / nops for name, value in values.items()}
    # rates are ratios of totals, not per-op sums
    out["evolve.tau_per_s"] = tau_done / integrate_s if integrate_s else 0.0
    out["evolve.rhs_gflops"] = (flops / integrate_s / 1e9 if integrate_s
                                else 0.0)
    spans = {name: {"calls": n / nops, "s": total[name] / nops,
                    "self_s": self_total[name] / nops}
             for name, n in calls.items() if n}
    return out, spans
