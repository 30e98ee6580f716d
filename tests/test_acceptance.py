"""Acceptance checks: one test per shipped guarantee.

Each function is a single pass/fail gate; run with -v to get the one-line
verdict per guarantee. The dimension-table and weight-8 checks write their
records (passing modes, runtimes) to acceptance_report.json next to this
file's parent directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from qmzv.hpoly import HPoly
from qmzv.words import (
    XI,
    Element,
    a_words_of_degree,
    element_weight,
    word_degree,
    word_in_space,
    xi_rho_times,
)
from qmzv.products import delta0, delta1, e_inv, e_map, harmonic, i0, i1, shuffle, star
from qmzv.evaluate import QContext, binom_tail, dq_check, f_word, l_value, z_q, zbar_q
from qmzv.relations import (
    dims_table,
    gen_double_shuffle,
    gen_hoffman,
    gen_resummation,
    in_row_space,
)

E = Element.from_word

EXPECTED_INDEX_COUNTS = [1, 3, 7, 15, 31, 63]
EXPECTED_DIMS = [0, 1, 3, 8, 20, 45]
EXPECTED_BOUNDS = [1, 2, 4, 7, 11, 18]

_DIMS_BY_MODE = {}
_REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.json"


def _record(section, value):
    """Set one section of acceptance_report.json, keeping the others."""
    report = json.loads(_REPORT_PATH.read_text()) if _REPORT_PATH.exists() else {}
    report[section] = value
    _REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def _dims_rows(hbar_lifts):
    if hbar_lifts not in _DIMS_BY_MODE:
        t0 = time.time()
        rows = dims_table(7, include_hbar_lifts=hbar_lifts)
        _DIMS_BY_MODE[hbar_lifts] = (rows, time.time() - t0)
    return _DIMS_BY_MODE[hbar_lifts][0]


def _admissible_words(max_degree):
    out = []
    for m in range(1, max_degree + 1):
        out.extend(a_words_of_degree(m, admissible_only=True))
    return out


def _word_values(words, ctx):
    """Per-word evaluations shared across many element evaluations."""
    cache = {}
    for w in words:
        res = z_q(E(w), ctx)
        cache[w] = (res.value, res.tail_bound)
    return cache


def _eval_element_cached(e, ctx, cache):
    hval = 1 - ctx.q_value
    value = 0.0
    tail = 0.0
    for word, coeff in e.terms.items():
        c = coeff.evaluate(hval)
        if word not in cache:
            res = z_q(E(word), ctx)
            cache[word] = (res.value, res.tail_bound)
        v, tb = cache[word]
        value += c * v
        tail += abs(c) * tb
    return value, tail


def test_dimension_table_matches_expected_counts():
    # weights <= 5 must be quick, measured end to end through the CLI
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "qmzv", "dims", "--max-weight", "5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    small_elapsed = time.time() - t0
    assert proc.returncode == 0
    assert "1 3 7 15" in proc.stdout and "0 1 3 8" in proc.stdout
    assert small_elapsed <= 10.0, "weights <= 5 took %.1fs" % small_elapsed

    passing = {}
    timings = {}
    for lifts, label in ((True, "hbar_lifts"), (False, "no_hbar_lifts")):
        rows = _dims_rows(lifts)
        timings[label] = round(_DIMS_BY_MODE[lifts][1], 2)
        ok = (
            [r.index_count for r in rows] == EXPECTED_INDEX_COUNTS
            and [r.dim_n for r in rows] == EXPECTED_DIMS
        )
        passing[label] = ok
    _record(
        "dimension_table",
        {
            "expected_index_counts": EXPECTED_INDEX_COUNTS,
            "expected_dims": EXPECTED_DIMS,
            "passing_modes": [k for k, v in passing.items() if v],
            "runtime_seconds": timings,
            "small_weights_cli_seconds": round(small_elapsed, 2),
        },
    )
    assert any(passing.values()), passing

    # the full run through the CLI prints the same table rows
    proc = subprocess.run(
        [sys.executable, "-m", "qmzv", "dims", "--max-weight", "7"],
        capture_output=True,
        text=True,
        timeout=1800,
    )
    assert proc.returncode == 0
    assert "1 3 7 15 31 63" in proc.stdout
    assert "0 1 3 8 20 45" in proc.stdout


WEIGHT_8_DIGESTS = {
    "hbar_lifts": "403f09d820e1cb326b70dac5efa9f13c6a3b9b39ecd9d730b95b1dc78baff903",
    "no_hbar_lifts": "7e695c5bd39e7b9d49900bdf6fb60345701df3ae89360a113575f9d961174077",
}
WEIGHT_8_BUDGET_S = 20.0  # per mode; each took 3-4 s on a 2-core VM


def test_weight_8_relations_in_both_modes():
    # weight 8 is the supported weight whose elimination folds the most primes
    # (5), so this pins the multimodular RREF on real data, end to end
    docs, timings = {}, {}
    for label, flags in (("hbar_lifts", ()), ("no_hbar_lifts", ("--no-hbar-lifts",))):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "qmzv", "relations", "--weight", "8", "--json", *flags],
            capture_output=True,
            text=True,
            timeout=600,
        )
        timings[label] = round(time.time() - t0, 2)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == WEIGHT_8_DIGESTS[label]
        docs[label] = json.loads(proc.stdout)
    for doc in docs.values():
        indices, dim = len(doc["index_basis"]) - 1, len(doc["relations"])
        assert (indices, dim, indices - dim) == (127, 100, 27)
    assert docs["hbar_lifts"]["relations"] == docs["no_hbar_lifts"]["relations"]
    _record("relations_weight_8", {"indices": 127, "dim": 100, "bound": 27, "runtime_seconds": timings, "budget_seconds": WEIGHT_8_BUDGET_S})
    assert max(timings.values()) <= WEIGHT_8_BUDGET_S, timings


def test_implied_bounds_consistency():
    rows = _dims_rows(True)
    assert [r.implied_bound for r in rows] == EXPECTED_BOUNDS
    for r in rows:
        assert r.index_count - r.dim_n == r.implied_bound


def _product_theorem_deviations(product):
    words = _admissible_words(4)
    pairs = [
        (w1, w2)
        for i, w1 in enumerate(words)
        for w2 in words[i:]
        if sum(max(u, 1) for u in w1) + sum(max(u, 1) for u in w2) <= 5
    ]
    failures = []
    prod_cache = {}
    for q in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
        ctx = QContext(q=q, N=300)
        values = _word_values(words, ctx)
        elem_cache = dict(values)
        for w1, w2 in pairs:
            v1, t1 = values[w1]
            v2, t2 = values[w2]
            vp, tp = _eval_element_cached(product(E(w1), E(w2), prod_cache), ctx, elem_cache)
            dev = abs(vp - v1 * v2)
            allowed = 1e-9 + tp + t1 * (abs(v2) + t2) + t2 * abs(v1)
            if dev >= allowed:
                failures.append((q, w1, w2, dev, allowed))
    return pairs, failures


def test_harmonic_product_theorem_numeric():
    pairs, failures = _product_theorem_deviations(harmonic)
    assert len(pairs) == 63
    assert not failures, failures[:3]


def test_shuffle_product_theorem_numeric():
    pairs, failures = _product_theorem_deviations(shuffle)
    assert len(pairs) == 63
    assert not failures, failures[:3]


def test_star_shuffle_transport_exact():
    words = _admissible_words(5)
    star_cache = {}
    shuffle_cache = {}
    checked = 0
    for i, w1 in enumerate(words):
        for w2 in words[i:]:
            if sum(max(u, 1) for u in w1) + sum(max(u, 1) for u in w2) > 6:
                continue
            lhs = e_map(star(E(w1), E(w2), star_cache))
            rhs = shuffle(e_map(E(w1)), e_map(E(w2)), shuffle_cache)
            assert lhs == rhs, (w1, w2)
            checked += 1
    assert checked == 217


def test_structural_map_identities_exact():
    for m in range(1, 7):
        for w in a_words_of_degree(m, admissible_only=True):
            assert delta0(i0(E(w))) == E(w), w
    for m in range(0, 7):
        for w in a_words_of_degree(m, admissible_only=True):
            assert delta1(i1(E(w))) == E(w), w
    for m in range(0, 8):
        for w in a_words_of_degree(m, admissible_only=True):
            assert e_inv(e_map(E(w))) == E(w), w
            assert e_map(e_inv(E(w))) == E(w), w


def test_polylog_evaluation_lemma_numeric():
    q = Fraction(1, 2)
    ctx = QContext(q=q, N=300)
    for w in _admissible_words(4):
        lhs = l_value(E(w), q, ctx).value
        rhs = z_q(e_map(E(w)), ctx).value
        assert abs(lhs - rhs) < 1e-9, w


def test_q_difference_formulas_numeric():
    ctx = QContext(q=Fraction(1, 2), N=300)
    t = 0.3
    graded = [w for m in range(0, 5) for w in a_words_of_degree(m) if word_in_space(w, "H0")]
    assert len(graded) == 8
    for w in graded:
        rep = dq_check(E(w), t, ctx)
        assert rep.form == "graded2", w
        assert abs(rep.difference) < 1e-8, (w, rep.difference)
    checked = 0
    for r in range(0, 4):
        for m in range(0, 4 - r):
            for u in a_words_of_degree(m):
                if u and (u[0] == XI or any(v == XI for v in u)):
                    continue
                e = xi_rho_times(r, E(u))
                rep = dq_check(e, t, ctx)
                assert rep.form == "xi_rho", (r, u)
                assert rep.r == r
                assert abs(rep.difference) < 1e-8, (r, u, rep.difference)
                checked += 1
    assert checked == 15


def test_hoffman_identity_numeric_and_exact():
    ctx = QContext(q=Fraction(1, 2), N=300)
    indices = []
    for total in range(2, 6):
        for w in a_words_of_degree(total):
            if w and all(u >= 1 for u in w) and w[0] >= 2:
                indices.append(w)
    assert len(indices) == 15
    ds_cache = {}
    by_weight = {}
    for k in indices:
        g = gen_hoffman(k)
        res = zbar_q(g, ctx)
        assert abs(res.value) < 1e-9, (k, res.value)
        d = sum(k) + 1
        if d not in by_weight:
            by_weight[d] = gen_double_shuffle(d, ds_cache)
        assert in_row_space(g, by_weight[d], d), k


def test_resummation_duality_numeric():
    for q in (Fraction(1, 2), Fraction(1, 3)):
        ctx = QContext(q=q, N=300)
        cache = {}
        count = 0
        for d in range(1, 7):
            for row in gen_resummation(d, include_hbar_lifts=False):
                # the weight-d Element of the row: each n w read as n h^(d - deg w) w
                g = Element((w, HPoly((0,) * (d - word_degree(w)) + (n,))) for w, n in row.items())
                weight = element_weight(g)
                scale = float((1 - q)) ** (-weight)
                value, tail = _eval_element_cached(g, ctx, cache)
                assert abs(value) * scale < 1e-9 + tail * scale, (d, g)
                count += 1
        # 232 compositions of weights 1..6 minus the 20 self-dual ones
        assert count == 212


def _random_admissible_element(rng, degree, words_by_degree):
    pairs = []
    for w in rng.sample(words_by_degree[degree], min(2, len(words_by_degree[degree]))):
        c = HPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 2))])
        if c:
            pairs.append((w, c))
    return Element(pairs) if pairs else E(words_by_degree[degree][0])


def test_product_axioms_exact_random():
    rng = random.Random(2026)
    words_by_degree = {m: list(a_words_of_degree(m, admissible_only=True)) for m in range(1, 4)}
    caches = {"star": {}, "shuffle": {}, "harmonic": {}}
    for _ in range(100):
        degrees = []
        budget = 5
        for _ in range(3):
            d = rng.randint(1, min(3, budget - (2 - len(degrees))))
            degrees.append(d)
            budget -= d
        a, b, c = (_random_admissible_element(rng, d, words_by_degree) for d in degrees)
        for name, product in (("harmonic", harmonic), ("shuffle", shuffle), ("star", star)):
            cache = caches[name]
            assert product(a, b, cache) == product(b, a, cache), name
            assert product(product(a, b, cache), c, cache) == product(a, product(b, c, cache), cache), name


def test_brute_force_oracle_equivalence():
    q = 0.5
    N = 201
    ctx = QContext(q=q, N=N)

    def qint(n):
        return (1.0 - q**n) / (1.0 - q)

    def brute(word):
        # plain nested descending loops, no shared recursion
        def rec(pos, upper):
            if pos == len(word):
                return 1.0
            k = word[pos]
            total = 0.0
            for n in range(len(word) - pos, upper):
                total += q ** ((k - 1) * n) / qint(n) ** k * rec(pos + 1, n)
            return total

        return rec(0, N)

    words = [w for m in range(2, 5) for w in a_words_of_degree(m) if word_in_space(w, "H0") and w]
    assert len(words) == 7
    for w in words:
        got = z_q(E(w), ctx).value
        want = brute(w)
        assert abs(got - want) < 1e-12, (w, got, want)
