"""Tests of the benchmark itself: tiny runs, percentiles, self times, failure counting."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(name, seed=1):
    if name == "dims7":
        wl = workloads.Dims7(seed, max_weight=4)
    else:
        wl = workloads.WORKLOADS[name](seed, tiny=True)
    wl.min_samples = 1
    return wl


@pytest.mark.parametrize("name", ["dims7", "algebra", "numerics"])
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name):
    result, info = run.run(name, 1, 0, workload=tiny(name), setup_s=0.1)
    assert result["correct"], info
    assert result["failed"] == 0 and result["attempted"] == len(tiny(name).requests)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    result, _ = run.run("algebra", 1, 0, trace=True, workload=tiny("algebra"))
    assert result["correct"]
    names = [n for n, _ in run.per_layer_names()]
    assert list(result["metrics"]) == names
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["products.harmonic.calls"] >= 1 and m["products.star.calls"] >= 1
    assert m["hpoly.mul.calls"] > 0 and m["cli.main.self_s"] > 0
    assert m["relations.intersect_with_h0.self_s"] == 0 and m["relations.matrix_rows"] == 0
    assert 0 < m["trace.overhead_frac"] < 1
    # spans are gone again once the traced run ends
    from qmzv import cli, products, relations

    assert relations.harmonic is products.harmonic and cli.PRODUCTS["harmonic"] is products.harmonic
    assert not hasattr(products.harmonic, "__wrapped__") and products.harmonic.__name__ == "harmonic"


def test_weight_counts_come_from_the_largest_weight():
    wl = tiny("dims7")
    counter = tracing.CallCounter()
    undo = counter.install()
    try:
        wl.execute(wl.requests[0])
    finally:
        tracing.uninstall(undo)
    assert sorted(counter.matrix) == [2, 3, 4]
    assert counter.matrix[4] == {"rows": 44, "cols": 34, "max_row_bits": 3, "dim": 3}
    assert counter.counts["relations.gen_double_shuffle.generators"] > 0


def test_percentile_and_sample_count_rule():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.samples_needed(90) == 100
    assert run.samples_needed(50) == 20


def test_every_traversal_leaves_ten_samples_beyond_p90():
    for name in ("algebra", "numerics"):
        wl = workloads.WORKLOADS[name](2)
        assert wl.min_samples == run.samples_needed(90)
        assert run.samples_beyond(len(wl.requests), 90) >= 10
    wl = tiny("algebra")
    with pytest.raises(ValueError):
        run.measure(wl, run.Tally(), 0, run.samples_needed(90))


def test_latency_is_each_requests_median_repeat():
    runs = [[3.0, 1.0, 2.0], [2.0, 4.0, 2.5], [9.0, 2.0, 1.0]]
    assert run.request_latencies(runs) == [3.0, 2.0, 2.0]
    m = run.end_to_end(runs, 0.5)
    assert m["wall_s"] == 7.0 and m["ops_per_s"] == 9 / 26.5
    assert m["op_p50_ms"] == 2000.0 and m["op_p90_ms"] == 3000.0


def test_speed_factor_is_the_median_kernel_time_around_a_request():
    meter = speed.Speedometer()
    meter.times = [i * 0.02 for i in range(500)]
    meter.costs = [speed.REF_S * (1 if t < 5 else 3) for t in meter.times]
    assert meter.factor(1.0, 2.0) == 1
    assert meter.factor(8.0, 8.001) == 3
    # no sample near: the nearest BRACKET samples stand in
    assert meter.factor(100.0, 101.0) == 3
    runs = [[(1.0, 1.5, 0.5), (8.0, 8.3, 0.3)]]
    assert run.adjusted_times(runs, meter) == [[0.5, pytest.approx(0.1)]]
    assert run.busy_times(runs) == [[0.5, 0.3]]


def test_speedometer_samples_during_requests_and_leaves_its_time_out():
    class Spin:
        requests = [None]

        def execute(self, request):
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass

    class Quiet:
        def record(self, *args):
            pass

    with speed.Speedometer() as meter:
        ((t0, t1, busy),) = run.traverse(Spin(), Quiet(), meter)
    assert len(meter.costs) > 2 * speed.BRACKET
    assert meter.paused > 0 and busy < t1 - t0 - 0.9 * meter.paused
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["a", 0.0, 10.0, -1, 1],
        ["b", 1.0, 4.0, 0, 1],
        ["c", 3.0, 6.0, 0, 1],  # overlaps b: covered once
        ["d", 8.0, 12.0, 0, 1],  # runs past its parent: clipped
        ["e", 2.0, 3.0, 1, 1],
        ["a", 20.0, 21.0, -1, 2],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0, 1.0]
    assert tracing.layer_self_times(spans) == {"a": 4.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 1.0}


def test_recorder_nests_spans_by_call():
    ticks = iter(range(100))
    recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))

    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * inner(x))
    recorder.request = 7
    assert outer(1) == 4
    assert recorder.spans == [["outer", 0.0, 5.0, -1, 7], ["inner", 1.0, 2.0, 0, 7], ["inner", 3.0, 4.0, 0, 7]]
    assert tracing.self_times(recorder.spans) == [3.0, 1.0, 1.0]


def test_a_corrupted_product_makes_fail_frac_positive(monkeypatch):
    from qmzv import cli, products

    def wrong(a, b, cache=None):
        return products.harmonic(a, b, cache).scale(2)

    monkeypatch.setitem(cli.PRODUCTS, "harmonic", wrong)
    result, info = run.run("algebra", 1, 0, workload=tiny("algebra"), setup_s=0.1)
    assert result["failed"] > 0 and not result["correct"]
    assert any(line.startswith("fail_frac") and float(line.split()[1]) > 0 for line in info)


def test_a_wrong_value_that_passes_the_quick_check_is_caught_afterwards(monkeypatch):
    wl = tiny("algebra")
    monkeypatch.setattr(wl, "requests", [dict(r, sha=None) for r in wl.requests])
    from qmzv import cli, products

    monkeypatch.setitem(cli.PRODUCTS, "shuffle", lambda a, b, cache=None: products.shuffle(a, b, cache) + a)
    result, _ = run.run("algebra", 1, 0, workload=wl, setup_s=0.1)
    assert 0 < result["failed"] <= result["attempted"]


def test_recorded_input_digests_still_reproduce():
    recorded = json.loads((HERE / "baseline.json").read_text())["inputs"]
    for name, by_seed in recorded.items():
        for seed, want in by_seed.items():
            assert workloads.WORKLOADS[name](int(seed)).input_digest() == want, (name, seed)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "algebra", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
