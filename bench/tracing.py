"""Outside-in tracing of qmzv: spans and counters around its public functions.

Nothing inside the package is edited. ``install`` replaces every public
function of each layer module at every module binding that callers use (for
example ``relations.harmonic`` as well as ``products.harmonic``, and the
``cli.DISPATCH`` entries), and ``uninstall`` puts the originals back.

Two recorders plug into that: ``SpanRecorder`` keeps one span per call
(name, start, end, parent, request id) in memory, from which per-layer self
times are derived; ``CallCounter`` counts calls and a few sizes in a separate
pass, including the ``HPoly`` arithmetic that is too hot to time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("hpoly", "words", "products", "relations", "evaluate", "expr", "cli")

# Leaf helpers called once per letter, term or coefficient: a span would cost
# more than their work, so they are counted but not spanned, and their time
# stays in the caller's self time. The whole hpoly layer is of this kind.
UNSPANNED = {
    "words.letter_degree",
    "words.word_degree",
    "words.weight",
    "words.word_sort_key",
    "words.is_admissible_start",
    "words.word_in_space",
    "expr.letter_name",
    "expr.format_word",
}


def public_functions():
    """(span name, function) for each public plain function defined in a layer module.

    Generator functions are left out: a span around one would close before
    any of its work runs.
    """
    out = []
    for layer in LAYERS:
        mod = importlib.import_module("qmzv." + layer)
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj):
                continue
            out.append(("%s.%s" % (layer, attr), obj))
    return out


def install(replacements):
    """Rebind every qmzv module attribute and dict entry found in replacements.

    replacements maps id(original function) to its stand-in. Returns the undo
    list for uninstall.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != "qmzv" and not name.startswith("qmzv."):
            continue
        namespace = vars(mod)
        for attr, obj in list(namespace.items()):
            new = replacements.get(id(obj))
            if new is not None:
                undo.append((namespace, attr, obj))
                namespace[attr] = new
            elif type(obj) is dict:
                for key, value in list(obj.items()):
                    new = replacements.get(id(value))
                    if new is not None:
                        undo.append((obj, key, value))
                        obj[key] = new
    return undo


def uninstall(undo):
    for container, key, original in reversed(undo):
        if isinstance(container, type):
            setattr(container, key, original)
        else:
            container[key] = original


class SpanRecorder:
    """In-memory spans: [name, start, end, parent index or -1, request id]."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.request = 0
        self._stack = []
        self._clock = clock

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self._clock
        recorder = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, recorder.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        return install({
            id(fn): self.wrap(name, fn)
            for name, fn in public_functions()
            if name not in UNSPANNED and not name.startswith("hpoly.")
        })


def span_cost(calls=20000, repeats=5):
    """Seconds a span adds to one call: a wrapped do-nothing function against a bare one."""

    def nothing():
        return None

    costs = []
    for _ in range(repeats):
        traced = SpanRecorder().wrap("calibration", nothing)
        t0 = time.perf_counter()
        for _ in range(calls):
            nothing()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(max(0.0, (t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[repeats // 2]


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            s, e = max(spans[j][1], start), min(spans[j][2], end)
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append(end - start - covered)
    return out


def layer_self_times(spans):
    """Summed self time per span name."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


class CallCounter:
    """Call counts for every public function plus the sizes the benchmark reports.

    Sizes: terms entering contract_to_a, generators per family, entries in
    the product caches that callers share, and the elimination matrix shape,
    rank and largest coefficient (in bits) per weight.
    """

    def __init__(self):
        self.counts = Counter()
        self.caches = {}
        self.matrix = {}
        self._weight = None

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _sized(self, name, fn):
        counts = self.counts
        caches = self.caches

        def sized(*args, **kwargs):
            counts[name] += 1
            if name == "words.contract_to_a":
                counts[name + ".terms_in"] += len(args[0].terms)
            cache = kwargs.get("cache", args[2] if len(args) > 2 else None)
            if name.startswith("products.") and cache is not None:
                caches[id(cache)] = cache
            result = fn(*args, **kwargs)
            if name.startswith("relations.gen_"):
                counts[name + ".generators"] += len(result)
            return result

        return sized

    def _intersect(self, fn):
        counts = self.counts

        def intersect(generators, d, *args, **kwargs):
            counts["relations.intersect_with_h0"] += 1
            self._weight = d
            self.matrix[d] = {}
            try:
                result = fn(generators, d, *args, **kwargs)
            finally:
                self._weight = None
            self.matrix[d]["dim"] = result.dimension
            return result

        return intersect

    def _echelon(self, fn):
        def echelon(int_rows, ncols):
            pivots = fn(int_rows, ncols)
            # the first echelon of an intersection is the generator matrix; rref's comes after
            if self._weight is not None and "rows" not in self.matrix[self._weight]:
                bits = max((abs(x).bit_length() for row in pivots.values() for x in row), default=0)
                self.matrix[self._weight].update(rows=len(int_rows), cols=ncols, max_row_bits=bits)
            return pivots

        return echelon

    def install(self):
        from qmzv import relations
        from qmzv.hpoly import HPoly

        sized = ("words.contract_to_a", "relations.gen_double_shuffle", "relations.gen_resummation")
        replacements = {}
        for name, fn in public_functions():
            if name == "relations.intersect_with_h0":
                replacements[id(fn)] = self._intersect(fn)
            elif name in sized or name.startswith("products."):
                replacements[id(fn)] = self._sized(name, fn)
            else:
                replacements[id(fn)] = self._counted(name, fn)
        echelon = relations._int_echelon
        replacements[id(echelon)] = self._echelon(echelon)
        undo = install(replacements)
        for attr, name in (("__mul__", "hpoly.mul"), ("__rmul__", "hpoly.mul"), ("__add__", "hpoly.add"), ("__radd__", "hpoly.add")):
            original = vars(HPoly)[attr]
            undo.append((HPoly, attr, original))
            setattr(HPoly, attr, self._counted(name, original))
        return undo

    def cache_entries(self):
        return sum(len(cache) for cache in self.caches.values())

