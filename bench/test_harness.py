"""Tests of the benchmark harness's own logic.

    python3 -m pytest -q bench
"""

import json
from pathlib import Path

import pytest

import run  # puts the repository's src/ on sys.path
import tracing
import workloads
from blowlab import evolve as blowlab_evolve
from blowlab import model as blowlab_model


def test_covered_merges_overlaps_and_clips_to_parent():
    assert tracing.covered([], 0.0, 10.0) == 0.0
    assert tracing.covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert tracing.covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == 3.0
    assert tracing.covered([(8.0, 12.0), (-1.0, 1.0)], 0.0, 10.0) == 3.0
    assert tracing.covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_only_direct_children():
    # 0: root [0, 10]; 1, 2: its children, overlapping on [2, 3];
    # 3: grandchild inside 1; 4: second root with no children
    start = [0.0, 1.0, 2.0, 1.5, 20.0]
    end = [10.0, 3.0, 5.0, 2.0, 21.0]
    parent = [-1, 0, 0, 1, -1]
    assert tracing.self_times(start, end, parent) == pytest.approx(
        [10.0 - 4.0, 2.0 - 0.5, 3.0, 0.5, 1.0])


@pytest.mark.parametrize("n, label, value", [
    (100, "p90", 90), (1000, "p99", 990), (20, "p50", 10), (55, "p81", 45),
    (19, "max", 19), (1, "max", 1),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, label, value):
    values = list(range(n, 0, -1))
    assert tracing.tail_percentile(values) == (label, value)
    if label != "max":
        assert sum(v > value for v in values) >= 10
        # one percentile higher would leave fewer than ten beyond it
        q = int(label[1:]) + 1
        rank = -(-q * n // 100)
        assert n - rank < 10


P3_SWEEP = {"p": 3.0, "n": 64}


def test_op_passes_its_gates_on_unmodified_code():
    tracer = tracing.Tracer()
    rec = run.run_op(workloads.SWEEP, P3_SWEEP, (0, 0), tracer,
                     run.SpeedProbe(), 0)
    assert rec["failures"] == []
    assert rec["fingerprint"]["integrations"] == 1
    assert 0.95 <= rec["fingerprint"]["rate"] <= 1.05
    # an untraced op records only its integrate span
    assert tracer.names == ["evolve.integrate"] and len(tracer.start) == 1
    # the probe ran before the one integrate call, outside its span
    assert rec["probes"] == 1
    assert 0.0 < rec["wall_solve_s"] - tracer.durations("evolve.integrate")[0]
    assert run.correctness([rec, dict(rec, op=1)]) == (True, "")


def test_gate_fires_when_nonlinearity_sign_is_flipped(monkeypatch):
    monkeypatch.setattr(blowlab_model, "_SIGN_HOOK", -1.0)
    rec = run.run_op(workloads.SWEEP, P3_SWEEP, (0, 0), tracing.Tracer(),
                     run.SpeedProbe(), 0)
    assert rec["failures"]
    assert run.correctness([rec])[0] is False


def test_only_the_stepping_time_is_scaled_by_the_probe():
    tracer, probe = tracing.Tracer(), run.SpeedProbe()

    def work():
        with tracer.traced_op(0, run.COUNTED, {"evolve.integrate": probe}):
            blowlab_evolve.integrate(*args)

    state = workloads.SWEEP.setup(P3_SWEEP, (0, 0))
    init = blowlab_model.U_map(state["v"], 1.0, state["params"],
                               state["grid"])
    args = (init, 0.2, state["ops"], state["grid"], state["params"])
    _, wall, stepping = run._timed(tracer, probe, work)
    assert len(probe.samples) == 1
    # the probe ran inside the timed call but is not in its wall time
    assert 0.0 < stepping <= wall < stepping + probe.samples[0]


def test_correctness_rejects_different_answers_to_the_same_inputs():
    rec = {"op": 0, "config": P3_SWEEP, "data_seed": [0, 0], "failures": [],
           "fingerprint": {"rate": 1.0}}
    other = dict(rec, op=1, fingerprint={"rate": 1.0 + 1e-15})
    assert run.correctness([rec, other])[0] is False
    assert run.correctness([rec, dict(other, data_seed=[0, 1])]) == (True, "")


def test_traced_op_records_nested_spans_and_restores_functions():
    original = blowlab_evolve.nonlin_N
    tracer = tracing.Tracer()
    probe = run.SpeedProbe()
    run.run_op(workloads.SWEEP, P3_SWEEP, (0, 0), tracer, probe, 3)
    rec = run.run_op(workloads.SWEEP, P3_SWEEP, (0, 0), tracer, probe, 7,
                     True)
    assert rec["failures"] == []
    assert rec["fingerprint"]["integrations"] == 1
    assert blowlab_evolve.nonlin_N is original
    names = [tracer.names[i] for i in tracer.name_id]
    parent_of = {names[i]: names[p] for i, p in enumerate(tracer.parent)
                 if p >= 0}
    assert parent_of["model.nonlin_N"] == "evolve.integrate"
    assert set(tracer.op) == {3, 7}
    # spans of the untraced op 3 stay out of the per-op figures
    metrics, spans = tracing.layer_metrics(tracer, {7: 64})
    integrate = spans["evolve.integrate"]
    assert integrate["calls"] == 1
    assert 0.0 < integrate["self_s"] < integrate["s"]
    assert metrics["model.nonlin_N.calls"] == names.count("model.nonlin_N")
    assert metrics["spectral.riesz_projection.calls"] == 1
    assert metrics["evolve.tau_per_s"] > 0.0


def test_benchmark_json_lists_the_layer_metrics():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [m[:3] for m in tracing.LAYER_METRICS]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
