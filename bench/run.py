"""The qmzv benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workload's requests go one at a time (closed loop, one client, one process)
through ``qmzv.cli.main`` or the public API. The request list is traversed
again and again until ``--seconds`` of request time are collected, and
every output is checked.

``--trace 0`` prints the end-to-end metrics, with every time adjusted to
the speed of the machine the baseline was taken on (``speed.py``); the
unadjusted figures are printed above the result. ``--trace 1`` makes one
traversal with call counters, then traverses for ``--seconds`` with a span
around every public qmzv function, and prints per-layer metrics per
traversal, unadjusted. The spans are written to ``bench/out/`` when the
run ends. The last line of stdout is the result as JSON; the exit code is 0
only when every output was right.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
}

# per-layer metrics: spans give .self_s, the counting traversal gives .calls and sizes
SELF_TIMES = [
    "relations.intersect_with_h0",
    "relations.element_coordinates",
    "relations.rref",
    "relations.gen_double_shuffle",
    "relations.gen_resummation",
    "words.contract_to_a",
    "words.expand_to_x",
    "products.harmonic",
    "products.shuffle_x",
    "products.star",
    "products.shuffle",
    "evaluate.z_q",
    "evaluate.f_word_table",
    "evaluate.l_value",
    "evaluate.dq_check",
    "evaluate.binom_tail",
    "relations.verify_numeric",
    "expr.parse_element",
    "expr.format_element",
    "cli.main",
]
CALLS = [
    "words.contract_to_a",
    "products.harmonic",
    "products.shuffle_x",
    "products.star",
    "evaluate.z_q",
    "evaluate.f_word_table",
    "hpoly.mul",
    "hpoly.add",
]
SIZES = [
    "relations.gen_double_shuffle.generators",
    "relations.gen_resummation.generators",
    "words.contract_to_a.terms_in",
]
MATRIX = ["rows", "cols", "dim", "max_row_bits"]
# summed self time of every span of a layer; hpoly has none (see tracing.UNSPANNED)
LAYER_TOTALS = ["words", "products", "relations", "evaluate", "expr", "cli"]


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [(n + ".self_s", "s/traversal") for n in SELF_TIMES + LAYER_TOTALS]
    names += [(n + ".calls", "count") for n in CALLS]
    names += [(n, "count") for n in SIZES]
    names += [("products.cache_entries", "count")]
    names += [("relations.matrix_" + m if m in ("rows", "cols") else "relations." + m, "count") for m in MATRIX]
    names += [("process.peak_rss_mb", "MB"), ("trace.overhead_frac", "ratio")]
    return names


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p % of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100 * n))


def samples_needed(p, beyond=10):
    """Fewest samples that leave `beyond` of them above the p-th percentile."""
    n = 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


class Tally:
    """Requests attempted and failed, with the first failure's description."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.attempts = collections.Counter()

    def record(self, workload, index, output):
        self.attempted += 1
        self.attempts[index] += 1
        if isinstance(output, Exception):
            ok, why = False, "%s: %s" % (type(output).__name__, output)
        else:
            try:
                ok, why = workload.check(index, output), "wrong output"
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                ok, why = False, "unreadable output: %s" % exc
        if not ok:
            self._fail(workload, index, 1, why)

    def finish(self, workload):
        """Add the thorough checks; a request whose output fails them failed on every attempt."""
        for index in workload.deferred_failures():
            self._fail(workload, index, self.attempts[index], "wrong output")

    def _fail(self, workload, index, count, why):
        self.failed += count
        if self.first_failure is None:
            self.first_failure = "request %d %s: %s" % (index, json.dumps(workload.requests[index])[:200], why)


def traverse(workload, tally, meter=None, clock=time.perf_counter):
    """One pass over the request list; returns (start, end, busy) of each request.

    Only the request itself is timed; checking its output is not. busy is
    end - start less the time the speedometer's samples took from the
    request. Before each request the garbage of earlier ones is collected,
    untimed, as a fresh ``qmzv`` process would start without it; otherwise
    which request pays for a collection depends on the order the seed gave.
    """
    timings = []
    for index, request in enumerate(workload.requests):
        gc.collect()
        t0 = clock()
        paused = meter.paused if meter else 0.0
        try:
            output = workload.execute(request)
        except Exception as exc:  # a failed request is counted, not fatal
            output = exc
        paused = (meter.paused if meter else 0.0) - paused
        t1 = clock()
        timings.append((t0, t1, t1 - t0 - paused))
        tally.record(workload, index, output)
    return timings


def measure(workload, tally, seconds, min_samples, passes=None, meter=None):
    """Traversals until `seconds` of request time, or exactly `passes` of them.

    Each request gives one latency sample (its median repeat), so a traversal
    must hold at least min_samples requests.
    """
    if len(workload.requests) < min_samples:
        raise ValueError("%d requests per traversal, need %d samples" % (len(workload.requests), min_samples))
    runs = []
    busy = 0.0
    while not runs or (len(runs) < passes if passes else busy < seconds):
        runs.append(traverse(workload, tally, meter))
        busy += sum(b for _, _, b in runs[-1])
    return runs


def busy_times(runs):
    """The measured time of every request, traversal by traversal."""
    return [[b for _, _, b in timings] for timings in runs]


def adjusted_times(runs, meter):
    """The time of every request at the baseline machine's speed (see speed.py)."""
    return [[b / meter.factor(t0, t1) for t0, t1, b in timings] for timings in runs]


def request_latencies(runs):
    """Each request's median latency over the traversals.

    The machine's speed drifts by tens of percent over seconds; the median
    of repeats spread over the whole run follows its usual speed, where
    a single pass or the best repeat would follow bursts and dips.
    """
    return [statistics.median(repeats) for repeats in zip(*runs)]


def end_to_end(runs, setup_s):
    lat = request_latencies(runs)
    return {
        "wall_s": sum(lat),
        "ops_per_s": sum(map(len, runs)) / sum(map(sum, runs)),
        "op_p50_ms": percentile(lat, 50) * 1000,
        "op_p90_ms": percentile(lat, 90) * 1000,
        "setup_s": setup_s,
    }


def measure_setup(workload, seed):
    """Median time of fresh interpreters that import, generate inputs and warm up.

    Each probe's wall time is adjusted to the baseline machine's speed by
    kernel samples taken just before and after it (see speed.py).
    """
    times = []
    for _ in range(SETUP_PROBES):
        meter = speed.Speedometer()
        meter.bracket()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        t1 = time.perf_counter()
        meter.bracket()
        times.append((t1 - t0) / meter.factor(t0, t1))
    return statistics.median(times)


def per_layer(workload, tally, seconds):
    """One counting traversal, then traced traversals for `seconds` of request time."""
    import tracing

    counter = tracing.CallCounter()
    undo = counter.install()
    try:
        measure(workload, tally, 0, 0, passes=1)
    finally:
        tracing.uninstall(undo)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recorder = tracing.SpanRecorder()
    undo = recorder.install()
    try:
        traced_runs = busy_times(measure(workload, _RequestIds(tally, recorder), seconds, 0))
    finally:
        tracing.uninstall(undo)

    npasses = len(traced_runs)
    self_s = tracing.layer_self_times(recorder.spans)
    top = counter.matrix[max(counter.matrix)] if counter.matrix else {}
    values = {n + ".self_s": self_s.get(n, 0.0) / npasses for n in SELF_TIMES}
    for layer in LAYER_TOTALS:
        values[layer + ".self_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + ".")) / npasses
    values.update({n + ".calls": counter.counts[n] for n in CALLS})
    values.update({n: counter.counts[n] for n in SIZES})
    values["products.cache_entries"] = counter.cache_entries()
    values.update({"relations.matrix_rows": top.get("rows", 0), "relations.matrix_cols": top.get("cols", 0)})
    values.update({"relations.dim": top.get("dim", 0), "relations.max_row_bits": top.get("max_row_bits", 0)})
    values["process.peak_rss_mb"] = rss_mb
    values["trace.overhead_frac"] = len(recorder.spans) * tracing.span_cost() / sum(map(sum, traced_runs))
    return values, recorder.spans, npasses


class _RequestIds:
    """A tally that also stamps each request's spans with its own id."""

    def __init__(self, tally, recorder):
        self.tally = tally
        self.recorder = recorder

    def record(self, workload, index, output):
        self.tally.record(workload, index, output)
        self.recorder.request += 1


def write_spans(path, spans):
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    OUT.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request"], "names": names, "spans": [[index[s[0]]] + s[1:] for s in spans]}, fh)


def run(name, seed, seconds, trace=False, workload=None, setup_s=None):
    """Run one workload; returns (result dict, extra info lines)."""
    from workloads import WORKLOADS

    if workload is None:
        workload = WORKLOADS[name](seed)
    workload.warm_up()
    if not trace and setup_s is None:
        setup_s = measure_setup(name, seed)
    tally = Tally()
    info = ["workload %s seed %d inputs %s" % (name, seed, workload.input_digest())]
    if trace:
        values, spans, npasses = per_layer(workload, tally, seconds)
        metrics = {n: {"value": values[n], "unit": unit} for n, unit in per_layer_names()}
        path = OUT / ("spans-%s-%d.json" % (name, seed))
        write_spans(path, spans)
        info.append("1 counting traversal, %d traced traversals; spans %d written to %s" % (npasses, len(spans), path.relative_to(ROOT)))
    else:
        with speed.Speedometer() as meter:
            timings = measure(workload, tally, seconds, workload.min_samples, meter=meter)
        runs = adjusted_times(timings, meter)
        values = end_to_end(runs, setup_s)
        metrics = {n: {"value": values[n], "unit": unit} for n, unit in END_TO_END.items()}
        samples = len(workload.requests)
        info.append("traversals %d; latency samples %d (median of %d repeats each), %d beyond p90" % (len(runs), samples, len(runs), samples_beyond(samples, 90)))
        raw = end_to_end(busy_times(timings), setup_s)
        info.append(
            "machine speed: kernel median %.4g ms against %.4g ms on the baseline machine (%d samples); unadjusted wall_s %.6g, op_p50_ms %.6g, op_p90_ms %.6g"
            % (statistics.median(meter.costs) * 1000, speed.REF_S * 1000, len(meter.costs), raw["wall_s"], raw["op_p50_ms"], raw["op_p90_ms"])
        )
    tally.finish(workload)
    info.append("fail_frac %.6g" % (tally.failed / tally.attempted))
    if tally.first_failure:
        info.append("first failure: " + tally.first_failure)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("dims7", "algebra", "numerics"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="import, generate inputs, warm up, exit")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qmzv" / "__init__.py").is_file():
        print("error: no qmzv sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.warm_up()
        return 0
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), workload)
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
