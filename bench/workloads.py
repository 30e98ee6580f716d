"""The three benchmark workloads: seeded inputs, one request at a time, output checks.

Each workload turns a seed into a fixed list of requests (one pass), runs a
request through ``qmzv.cli.main`` or the public API in-process, and checks
each output. The requests of ``algebra`` and ``numerics`` are drawn from the
pools in ``data/``, which ``record.py`` generated together with the outputs
the code gave then; ``dims7`` is one request and does not use the seed.

Functions of qmzv are always looked up on their module at call time, so the
tracer in ``trace.py`` sees every call these requests make.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from qmzv import cli, evaluate, expr, products
from qmzv.evaluate import binom_tail, f_word

DATA = Path(__file__).resolve().parent / "data"

EXPECTED_INDEX_COUNTS = [1, 3, 7, 15, 31, 63]
EXPECTED_DIMS = [0, 1, 3, 8, 20, 45]

# Numeric values must agree to this share of their size on top of the printed
# tail bound: the bound covers truncation, not float rounding.
ROUNDING = 1e-12


def call_cli(argv):
    """Run qmzv.cli.main in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_pool(name):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)["requests"]


def stratified(pool, bins, rng):
    """One request from each of bins[stratum] equal-size cost bins of that stratum.

    Bins are contiguous in the recorded cost order, so every pass holds the
    same mix of cheap and expensive requests whatever the seed.
    """
    stream = []
    for stratum, nbins in bins.items():
        members = sorted((r for r in pool if r["stratum"] == stratum), key=lambda r: r["cost_ms"])
        if len(members) < nbins:
            raise ValueError("stratum %s has %d requests, needs %d" % (stratum, len(members), nbins))
        for b in range(nbins):
            lo, hi = b * len(members) // nbins, (b + 1) * len(members) // nbins
            stream.append(rng.choice(members[lo:hi]))
    rng.shuffle(stream)
    return stream


class Workload:
    """One traversal's requests; subclasses define warm_up_requests, execute and check_output."""

    min_samples = 1

    def __init__(self, requests):
        self.requests = requests
        self._kept = {}

    def input_digest(self):
        return digest(json.dumps(self.requests, sort_keys=True))

    def warm_up(self):
        for request in self.warm_up_requests():
            self.check_output(request, self.execute(request), deep=False)

    def check(self, index, output):
        """True unless the output of request index fails the quick check.

        The first right output of each request is kept for the thorough
        check, which ``deferred_failures`` runs after the timed traversals so
        that it cannot disturb them.
        """
        ok = self.check_output(self.requests[index], output, deep=False)
        if ok:
            self._kept.setdefault(index, output)
        return ok

    def deferred_failures(self):
        """Indices whose kept output fails the thorough check."""
        kept, self._kept = self._kept, {}
        return [i for i, out in kept.items() if not self.check_output(self.requests[i], out, deep=True)]


class Dims7(Workload):
    def __init__(self, seed, max_weight=7):
        super().__init__([{"argv": ["dims", "--max-weight", str(max_weight), "--json"]}])

    def warm_up_requests(self):
        return [{"argv": ["dims", "--max-weight", "3", "--json"]}]

    def execute(self, request):
        return call_cli(request["argv"])

    def check_output(self, request, output, deep):
        code, text = output
        rows = json.loads(text)["rows"]
        n = int(request["argv"][2]) - 1
        return (
            code == 0
            and [r["indices"] for r in rows] == EXPECTED_INDEX_COUNTS[:n]
            and [r["dim"] for r in rows] == EXPECTED_DIMS[:n]
            and all(r["bound"] == r["indices"] - r["dim"] for r in rows)
        )


ALGEBRA_BINS = {"harmonic": 128, "shuffle": 128, "star": 128}
ALGEBRA_TINY_BINS = {"harmonic": 2, "shuffle": 2, "star": 2}
CHECK_Q = Fraction(1, 2)
CHECK_N = 100


class Algebra(Workload):
    min_samples = 100  # samples_needed(90) in run.py

    def __init__(self, seed, tiny=False):
        pool = load_pool("algebra.json")
        if tiny:
            # the cheapest quarter of each stratum, a few requests in all
            pool = [r for r in pool if r["cost_ms"] <= _quantile([p["cost_ms"] for p in pool if p["stratum"] == r["stratum"]], 0.25)]
        super().__init__(stratified(pool, ALGEBRA_TINY_BINS if tiny else ALGEBRA_BINS, random.Random(seed)))
        self._values = {}

    def warm_up_requests(self):
        return [{"kind": kind, "a": "z2", "b": "z3 + h*z2", "sha": None} for kind in ALGEBRA_BINS]

    def execute(self, request):
        return call_cli(["product", request["kind"], request["a"], request["b"]])

    def check_output(self, request, output, deep):
        code, text = output
        if code != 0 or (request["sha"] is not None and digest(text) != request["sha"]):
            return False
        return not deep or self.product_theorem_holds(request, text)

    def product_theorem_holds(self, request, text):
        """Z(a*b) = Z(a) Z(b) at q = 1/2; for star, on the images under e."""
        a, b, p = (expr.parse_element(t) for t in (request["a"], request["b"], text.strip()))
        if request["kind"] == "star":
            a, b, p = (products.e_map(x) for x in (a, b, p))
        (va, ta, sa), (vb, tb, sb), (vp, tp, sp) = (self.z_value(x) for x in (a, b, p))
        allowed = 1e-9 + tp + ta * (abs(vb) + tb) + tb * abs(va) + ROUNDING * (sp + sa * sb)
        return abs(vp - va * vb) <= allowed

    def z_value(self, e):
        """(value, tail bound, sum of |term|) of Z_q(e) at q = 1/2 from per-word sums."""
        h = 1 - CHECK_Q
        value = tail = size = 0.0
        for word, coeff in e.terms.items():
            if word not in self._values:
                ctx = evaluate.QContext(q=CHECK_Q, N=CHECK_N)
                self._values[word] = (f_word(word, CHECK_N, ctx), binom_tail(CHECK_Q, CHECK_N, len(word))) if word else (1.0, 0.0)
            v, t = self._values[word]
            c = float(coeff.evaluate(h))
            value += c * v
            tail += abs(c) * t
            size += abs(c * v)
        return value, tail, size


NUMERICS_BINS = {"eval": 64, "polylog": 48, "exact": 48, "dq": 16, "verify4": 1, "verify5": 1, "verify6": 1}
NUMERICS_TINY_BINS = {"eval": 2, "polylog": 2, "verify4": 1, "exact": 1, "dq": 1}


class Numerics(Workload):
    min_samples = 100  # samples_needed(90) in run.py

    def __init__(self, seed, tiny=False):
        bins = NUMERICS_TINY_BINS if tiny else NUMERICS_BINS
        super().__init__(stratified(load_pool("numerics.json"), bins, random.Random(seed)))

    def warm_up_requests(self):
        return [
            {"kind": "eval", "argv": ["eval", "z2", "--json"], "value": None},
            {"kind": "polylog", "argv": ["polylog", "z2", "--t", "1/2", "--json"], "value": None},
            {"kind": "verify", "argv": ["verify", "relations_w4.json", "--json"]},
            {"kind": "exact", "expr": "z2", "q": "1/2", "N": 20, "value": None},
            {"kind": "dq", "expr": "z2", "t": 0.3, "q": "1/2", "N": 100},
        ]

    def execute(self, request):
        kind = request["kind"]
        if kind in ("eval", "polylog"):
            return call_cli(request["argv"])
        if kind == "verify":
            argv = list(request["argv"])
            argv[1] = str(DATA / argv[1])
            return call_cli(argv)
        e = expr.parse_element(request["expr"])
        if kind == "exact":
            ctx = evaluate.QContext(q=Fraction(request["q"]), N=request["N"], mode="exact")
            return evaluate.z_q(e, ctx)
        ctx = evaluate.QContext(q=Fraction(request["q"]), N=request["N"])
        return evaluate.dq_check(e, request["t"], ctx)

    def check_output(self, request, output, deep):
        kind = request["kind"]
        if kind == "exact":
            return request["value"] is None or _close(float(output.value), request["value"], request["tail_bound"])
        if kind == "dq":
            return abs(output.difference) < 1e-8
        code, text = output
        if code != 0:
            return False
        doc = json.loads(text)
        if kind == "verify":
            return doc["all_ok"] is True
        return request["value"] is None or _close(float(doc["value"]), request["value"], doc["tail_bound"])


def _close(value, recorded, bound):
    return abs(value - recorded) <= bound + ROUNDING * max(1.0, abs(recorded))


def _quantile(values, share):
    values = sorted(values)
    return values[int(share * (len(values) - 1))]


WORKLOADS = {"dims7": Dims7, "algebra": Algebra, "numerics": Numerics}
