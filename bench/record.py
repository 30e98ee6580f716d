"""Regenerate the request pools and relation documents in data/.

    python3 bench/record.py

Run from the repository root. Each pool entry stores the request, the output
the current code gives for it (a digest for products, values for numerics)
and its cost in ms, which the workloads use to stratify their passes.
Re-recording changes every workload's inputs and reference outputs, so do it
only when the benchmark is redefined, never to make a check pass.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from qmzv.evaluate import QContext, binom_tail, z_q  # noqa: E402
from qmzv.expr import format_element, letter_name, parse_element  # noqa: E402
from qmzv.words import Element, a_words_of_degree, word_in_space, xi_rho_times  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 1306_6164
ALGEBRA_PER_KIND = 256
ALGEBRA_MAX_COST_MS = 40.0
TOL = 1e-10
Q_CHOICES = ("1/2", "1/3", "2/3", "1/4", "3/4", "2/5", "3/5")
EXACT_Q_CHOICES = ("1/2", "1/3", "1/4", "2/5")

ADMISSIBLE = {m: list(a_words_of_degree(m, admissible_only=True)) for m in range(1, 9)}


def element_text(rng, degree, max_terms=3, homogeneous=True):
    """1..max_terms terms h^j * word with rational coefficients; first sign positive."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = degree if homogeneous else rng.randint(1, degree)
        j = rng.randint(0, min(2, deg - 1))
        word = rng.choice(ADMISSIBLE[deg - j])
        terms[(j, word)] = Fraction(rng.randint(1, 5), rng.choice((1, 1, 2, 3))) * rng.choice((1, -1))
    parts = []
    for k, ((j, word), c) in enumerate(terms.items()):
        c = abs(c) if k == 0 else c
        coeff = str(abs(c)) + ("" if j == 0 else "*h" if j == 1 else "*h^%d" % j)
        body = " ".join(letter_name(u) for u in word)
        if coeff != "1":
            body = coeff + "*" + body
        parts.append(body if k == 0 else ("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def cost_ms(workload, request, repeats=5):
    """Fastest of a few runs, and the last output."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = workload.execute(request)
        elapsed = (time.perf_counter() - t0) * 1000
        best = elapsed if best is None else min(best, elapsed)
    return round(best, 3), out


def record_algebra(rng):
    wl = workloads.Algebra.__new__(workloads.Algebra)
    workloads.Workload.__init__(wl, [])
    wl._values = {}
    pool = []
    for kind in ("harmonic", "shuffle", "star"):
        seen = set()
        while sum(r["kind"] == kind for r in pool) < ALGEBRA_PER_KIND:
            total = rng.randint(2, 8)
            d1 = rng.randint(1, total - 1)
            request = {"kind": kind, "a": element_text(rng, d1), "b": element_text(rng, total - d1), "sha": None}
            if (request["a"], request["b"]) in seen:
                continue
            seen.add((request["a"], request["b"]))
            cost, (code, text) = cost_ms(wl, request)
            if cost > ALGEBRA_MAX_COST_MS:
                continue
            if code != 0 or not wl.product_theorem_holds(request, text):
                raise SystemExit("product check failed while recording: %r" % (request,))
            request.update(sha=workloads.digest(text), cost_ms=cost, stratum=kind)
            pool.append(request)
    return pool


def _tail_ok(q, N, length, scale=1.0):
    return binom_tail(Fraction(q), N, length) * scale < TOL * 1e-2


def record_numerics(rng):
    wl = workloads.Numerics.__new__(workloads.Numerics)
    workloads.Workload.__init__(wl, [])
    pool = []

    def add(request, stratum):
        cost, out = cost_ms(wl, request)
        if not wl.check_output(request, out, deep=True):
            raise SystemExit("numeric check failed while recording: %r" % (request,))
        request.update(cost_ms=cost, stratum=stratum)
        pool.append(request)
        return out

    def draw_qn(length, choices=Q_CHOICES, n_range=(60, 400), weight=0):
        """q and N whose tail bound, scaled by (1-q)^-weight, is far below TOL."""
        while True:
            q, N = rng.choice(choices), rng.randrange(n_range[0], n_range[1] + 1, 10)
            if _tail_ok(q, N, length, float(1 - Fraction(q)) ** -weight):
                return q, N

    for kind, count in (("eval", 128), ("polylog", 96)):
        for _ in range(count):
            text = element_text(rng, rng.randint(1, 6), homogeneous=False)
            length = max(len(w) for w in parse_element(text).terms)
            q, N = draw_qn(length)
            argv = [kind, text, "--q", q, "--N", str(N), "--json"]
            if kind == "polylog":
                t = Fraction(rng.randint(1, 9), 10) * rng.choice((1, -1))
                while not _tail_ok(abs(t), N, length):
                    t /= 2
                argv[2:2] = ["--t=%s" % t]
            code, out = add({"kind": kind, "argv": argv, "value": None}, kind)
            pool[-1]["value"] = float(json.loads(out)["value"])
    for d in (4, 5, 6):
        for _ in range(10):
            q, N = draw_qn(d, n_range=(300, 300), weight=d)
            add({"kind": "verify", "argv": ["verify", "relations_w%d.json" % d, "--q", q, "--N", str(N), "--json"]}, "verify%d" % d)
    for _ in range(48):
        text = element_text(rng, rng.randint(2, 4), max_terms=2)
        length = max(len(w) for w in parse_element(text).terms)
        q, N = draw_qn(length, EXACT_Q_CHOICES, (40, 110))
        ref = z_q(parse_element(text), QContext(q=Fraction(q), N=N))
        add({"kind": "exact", "expr": text, "q": q, "N": N, "value": ref.value, "tail_bound": ref.tail_bound}, "exact")
    shapes = [Element.from_word(w) for m in range(1, 5) for w in a_words_of_degree(m) if word_in_space(w, "H0")]
    shapes += [xi_rho_times(r, Element.from_word(u)) for r in range(0, 3) for m in range(0, 3 - r) for u in a_words_of_degree(m) if 0 not in u]
    for _ in range(32):
        e = rng.choice(shapes)
        request = {"kind": "dq", "expr": format_element(e), "t": rng.randint(1, 6) / 10, "q": rng.choice(("1/2", "1/3")), "N": 300}
        add(request, "dq")
    return pool


def main():
    data = HERE / "data"
    data.mkdir(exist_ok=True)
    for d in (4, 5, 6):
        code, _ = workloads.call_cli(["relations", "--weight", str(d), "--json", "--out", str(data / ("relations_w%d.json" % d))])
        if code != 0:
            raise SystemExit("relations --weight %d failed" % d)
    rng = random.Random(POOL_SEED)
    for name, pool in (("algebra.json", record_algebra(rng)), ("numerics.json", record_numerics(rng))):
        write_pool(data / name, pool)
        print("%s: %d requests" % (name, len(pool)))


def write_pool(path, pool):
    """One request per line, so a re-recording diffs request by request."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"pool_seed": %d, "requests": [\n' % POOL_SEED)
        fh.write(",\n".join(json.dumps(r, sort_keys=True) for r in pool))
        fh.write("\n]}\n")


if __name__ == "__main__":
    main()
