"""Checks of the benchmark's own parts: exact references and the trace.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each reference must agree with brute force (``spinz.exact_log_partition``)
on instances of at most 16 vertices, including random tables that exercise
edge orientation, and the traced sweep must rebuild the estimate exactly.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spinz  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SPECS = [
    spinz.GenSpec("cycle", n=3, model="random", coupling=0.5, field_strength=0.3, seed=2),
    spinz.GenSpec("cycle", n=16, model="ising", coupling=0.5, field_strength=0.1),
    spinz.GenSpec("cycle", n=16, model="random", coupling=0.4, field_strength=0.3, seed=7),
    spinz.GenSpec("grid", rows=4, cols=4, model="ising", coupling=0.2, field_strength=0.1),
    spinz.GenSpec("grid", rows=2, cols=7, model="random", coupling=0.4, field_strength=0.3, seed=3),
    spinz.GenSpec("random_regular", n=16, degree=3, model="ising", coupling=0.3, field_strength=0.1, seed=1),
    spinz.GenSpec("random_regular", n=14, degree=3, model="random", coupling=0.4, field_strength=0.3, seed=5),
    spinz.GenSpec("complete", n=6, model="random", coupling=0.3, field_strength=0.2, seed=4),
]


def _write(spec, tmp_path) -> Path:
    path = tmp_path / "instance.json"
    spinz.save_system(spinz.generate(spec), path)
    return path


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-{s.model}-{s.n or s.rows}")
def test_references_match_brute_force(spec, tmp_path):
    system = spinz.generate(spec)
    inst = reference.read_instance(_write(spec, tmp_path))
    exact = spinz.exact_log_partition(system)
    assert reference.elimination_log_partition(inst) == pytest.approx(exact, abs=1e-10)
    if spec.family == "cycle":
        assert reference.cycle_log_partition(inst) == pytest.approx(exact, abs=1e-10)


def test_reference_reads_reversed_edges(tmp_path):
    spec = spinz.GenSpec("cycle", n=5, model="random", coupling=0.5, field_strength=0.3, seed=9)
    path = _write(spec, tmp_path)
    data = json.loads(path.read_text())
    for edge in data["edges"]:
        beta = edge["beta"]
        edge["u"], edge["v"] = edge["v"], edge["u"]
        beta["pm"], beta["mp"] = beta["mp"], beta["pm"]
    path.write_text(json.dumps(data))
    inst = reference.read_instance(path)
    exact = spinz.exact_log_partition(spinz.generate(spec))
    assert reference.cycle_log_partition(inst) == pytest.approx(exact, abs=1e-10)
    assert reference.elimination_log_partition(inst) == pytest.approx(exact, abs=1e-10)


def test_cycle_reference_refuses_other_graphs(tmp_path):
    inst = reference.read_instance(_write(SPECS[3], tmp_path))
    with pytest.raises(ValueError):
        reference.cycle_log_partition(inst)


def test_min_degree_order_width():
    order, widest = reference.min_degree_order(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert sorted(order) == [1, 2, 3, 4, 5]
    assert widest == 3


def test_tail_value():
    assert worker.tail_value([3.0, 1.0, 2.0]) == 3.0
    values = [float(v) for v in range(1, 101)]
    assert worker.tail_value(values) == 90.0  # ten samples (91..100) beyond it


def test_trace_rebuilds_estimate_bit_for_bit(tmp_path):
    spec = spinz.GenSpec("grid", rows=3, cols=4, model="random", coupling=0.2, field_strength=0.2, seed=1)
    path = _write(spec, tmp_path)
    result = worker.trace(str(HERE.parent), str(path), 0.1, str(tmp_path / "spans.jsonl"))
    serial = spinz.fptas_log_partition(spinz.generate(spec), 0.1)
    assert result["log_z_hat"].hex() == serial.log_z_hat.hex()
    assert result["serial_log_z_hat"].hex() == serial.log_z_hat.hex()
    assert result["pool_log_z_hat"].hex() == serial.log_z_hat.hex()
    assert result["render_matches"]
    assert 1 <= result["pool_workers"] <= len(os.sched_getaffinity(0))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sawtree.nodes"] == serial.total_nodes
    assert metrics["partition.vertices"] == 12
    fractions = [metrics[f"sawtree.{k}_frac"] for k in ("cycle_pinned", "cond_pinned", "frontier")]
    assert all(0.0 <= f for f in fractions) and sum(fractions) <= 1.0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == result["spans"]
    assert {s["run"] for s in spans} == {result["run_id"]}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    assert math.isfinite(metrics["partition.other_s"])


def test_step_times_scale_each_step_by_its_calibrations():
    ref = run.REFERENCE_CALIBRATION_S
    solve = {"setup_s": 0.4, "fptas_s": 1.0, "render_s": 0.1, "calibration_s": [ref, ref, 3 * ref]}
    raw = run.step_times(solve, scaled=False)
    assert raw == {"setup_s": 0.4, "fptas_s": 1.0, "solve_s": pytest.approx(1.5)}
    scaled = run.step_times(solve, scaled=True)
    assert scaled["setup_s"] == pytest.approx(0.4)  # host ran at reference speed
    assert scaled["fptas_s"] == pytest.approx(0.5)  # host ran at half speed
    assert scaled["solve_s"] == pytest.approx(0.4 + 0.5 + 0.05)


def test_calibration_is_positive():
    assert 0.0 < worker.calibration_s(1000) < 1.0
