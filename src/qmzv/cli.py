"""Command-line front end.

Subcommands: product, eval, polylog, relations, dims, verify, hoffman.
Data goes to stdout (or --out), progress and diagnostics to stderr.
Exit codes: 0 success, 1 verification failure or an eval/polylog tail bound
above --tol (the value is still printed), 2 usage/parse/domain error, float
overflow or the recursion limit, 141 when the reader of stdout or stderr
closed its pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import DomainError, QmzvError
from .expr import _monomial_text, _signed_sum, format_element, parse_element
from .words import Element, a_words_of_degree, contract_to_a, expand_to_x, index_from_text, index_to_text, word_degree
from .products import harmonic, shuffle, shuffle_x, star
from .evaluate import QContext, _suffix_tables, l_value, z_q
from .relations import (
    dims_table,
    gen_hoffman,
    relation_basis,
    relation_basis_from_doc,
    relation_basis_to_doc,
    verify_numeric,
)

PRODUCTS = {"harmonic": harmonic, "shuffle": shuffle, "star": star}


def _checked(convert, text, ok, message):
    """convert(text) if that parses and ok accepts it; otherwise a usage error with message."""
    try:
        value = convert(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(message) from None
    if not ok(value):
        raise argparse.ArgumentTypeError(message)
    return value


def _q_arg(text):
    return _checked(Fraction, text, lambda q: 0 < q < 1, "q must be a rational with 0 < q < 1")


def _t_arg(text):
    return _checked(Fraction, text, lambda t: abs(t) < 1, "t must be a rational with |t| < 1")


def _n_arg(text):
    return _checked(int, text, lambda n: 10 <= n <= 100_000, "N must be an integer between 10 and 100000")


def _tol_arg(text):
    return _checked(float, text, lambda tol: tol > 0, "tol must be a number > 0")


def _weight_arg(text):
    return _checked(int, text, lambda w: 2 <= w <= 8, "weight must be an integer between 2 and 8")


def _add_output(sp):
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sp.add_argument("--out", metavar="PATH", help="write the payload to a file")


def _add_context(sp):
    sp.add_argument("--q", type=_q_arg, default=Fraction(1, 2), help="rational with 0 < q < 1 (default 1/2)")
    sp.add_argument("--N", type=_n_arg, default=300, help="truncation bound, 10 to 100000; memory grows linearly with it (default 300)")
    sp.add_argument("--tol", type=_tol_arg, default=1e-10, help="verification tolerance; eval and polylog exit 1 when the tail bound exceeds it (default 1e-10)")


def build_parser():
    parser = argparse.ArgumentParser(prog="qmzv", description="words, products, and relations for q-analogue multiple zeta values")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("product", help="multiply two expressions")
    sp.add_argument("kind", choices=sorted(PRODUCTS))
    sp.add_argument("e1", help="expression; after --, it may start with '-': product harmonic -- -z2 z3")
    sp.add_argument("e2", help="expression, as e1")
    _add_output(sp)

    sp = sub.add_parser("eval", help="evaluate Z_q on an expression")
    sp.add_argument("expr", help="expression; after --, it may start with '-': eval -- -z2")
    _add_context(sp)
    _add_output(sp)

    sp = sub.add_parser("polylog", help="evaluate the polylogarithm L at t")
    sp.add_argument("expr", help="expression; after --, it may start with '-': polylog --t 1/2 -- -z2")
    sp.add_argument("--t", type=_t_arg, required=True, help="rational with |t| < 1; a negative one as --t=-1/2")
    _add_context(sp)
    _add_output(sp)

    sp = sub.add_parser("relations", help="relation basis over admissible indices at one weight")
    sp.add_argument("--weight", type=_weight_arg, required=True)
    sp.add_argument("--no-hbar-lifts", action="store_true", help="drop the h-multiples of lower-weight duality generators")
    _add_output(sp)

    sp = sub.add_parser("dims", help="dimension table for weights 2..max")
    sp.add_argument("--max-weight", type=_weight_arg, default=7)
    sp.add_argument("--no-hbar-lifts", action="store_true")
    _add_output(sp)

    sp = sub.add_parser("verify", help="numeric checks of the relation basis and product theorems")
    sp.add_argument("file", nargs="?", help="relation document to verify instead of a freshly computed basis")
    sp.add_argument("--weight", type=_weight_arg, default=4)
    sp.add_argument("--no-hbar-lifts", action="store_true")
    _add_context(sp)
    _add_output(sp)

    sp = sub.add_parser("hoffman", help="print the raising-minus-splitting element of an index")
    sp.add_argument("index", help="comma-separated admissible index, e.g. 2,1")
    _add_output(sp)

    return parser


def _format_index(ix):
    return index_to_text(ix) or "()"


def _format_row(row, index_basis):
    return _signed_sum((c < 0, _monomial_text(abs(c), 0, "zbar(%s)" % index_to_text(ix))) for c, ix in zip(row, index_basis) if c)


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


def cmd_product(args):
    operands = [parse_element(args.e1), parse_element(args.e2)]
    if any(isinstance(w, str) for e in operands for w in e.terms):
        raise DomainError("product needs A-basis operands: the letters xi and z1, z2, ..., not x, y or r")
    result = PRODUCTS[args.kind](*operands)
    text = format_element(result)
    return text, {"kind": args.kind, "result": text}, None, 0


def _series_output(res, args, t_doc):
    """Text, document and exit code of a series value; the code is 1, with a note on stderr, when the tail bound exceeds --tol."""
    value = "%.15g" % res.value
    doc = {"value": value, "tail_bound": res.tail_bound, "certified": res.certified, **t_doc, "q": str(args.q), "N": args.N}
    code = 0 if res.tail_bound <= args.tol else 1
    if code:
        print("tail bound %.3g exceeds --tol %.3g; raise --N" % (res.tail_bound, args.tol), file=sys.stderr)
    return "%s ± %.3g" % (value, res.tail_bound), doc, None, code


def cmd_eval(args):
    ctx = QContext(q=args.q, N=args.N, tol=args.tol)
    return _series_output(z_q(parse_element(args.expr), ctx), args, {})


def cmd_polylog(args):
    ctx = QContext(q=args.q, N=args.N, tol=args.tol)
    return _series_output(l_value(parse_element(args.expr), args.t, ctx), args, {"t": str(args.t)})


def cmd_relations(args):
    basis = relation_basis(args.weight, not args.no_hbar_lifts)
    doc = relation_basis_to_doc(basis)
    summary = "dimension %d" % basis.dimension
    lines = [summary, "indices: " + " ".join(_format_index(ix) for ix in basis.index_basis)]
    for row in basis.rows:
        lines.append("0 = " + _format_row(row, basis.index_basis))
    return "\n".join(lines), doc, summary, 0


def cmd_dims(args):
    rows = dims_table(args.max_weight, not args.no_hbar_lifts, progress=_progress)
    lines = [
        "weights " + " ".join(str(r.weight) for r in rows),
        "indices " + " ".join(str(r.index_count) for r in rows),
        "dim " + " ".join(str(r.dim_n) for r in rows),
        "bound " + " ".join(str(r.implied_bound) for r in rows),
    ]
    for r in rows:
        lines.append("weight %d: %d / %d / %d" % (r.weight, r.index_count, r.dim_n, r.implied_bound))
    doc = {
        "max_weight": args.max_weight,
        "mode": {"hbar_lifts": not args.no_hbar_lifts},
        "rows": [{"weight": r.weight, "indices": r.index_count, "dim": r.dim_n, "bound": r.implied_bound} for r in rows],
    }
    return "\n".join(lines), doc, None, 0


def _defining_shuffle(e1, e2, cache):
    """The integral shuffle on A-elements by its defining route: expand to x/y/r, shuffle_x, contract."""
    return contract_to_a(shuffle_x(expand_to_x(e1), expand_to_x(e2), cache))


def _spot_check_products(weight, ctx, tables):
    """Deviations of Z_q(w . w') from Z_q(w) Z_q(w') on all small pairs.

    This checks the product theorem on the paper's defining route: the
    shuffle is taken over x/y/r words (_defining_shuffle), not by the
    A-word recursion of products.shuffle, which the tests pin equal to it.
    That route also keeps the order in which each product's terms are
    summed, so the printed deviations do not move by a rounding.
    """
    cap = min(weight, 5)
    words = []
    for m in range(1, cap):
        words.extend(a_words_of_degree(m, admissible_only=True))
    pairs = []
    for i, w1 in enumerate(words):
        for w2 in words[i:]:
            if word_degree(w1) + word_degree(w2) <= cap:
                pairs.append((w1, w2))
    out = {"harmonic": [], "shuffle": []}
    cache = {}
    singles = {w: z_q(Element.from_word(w), ctx, tables) for w in words}
    for w1, w2 in pairs:
        e1, e2 = Element.from_word(w1), Element.from_word(w2)
        r1, r2 = singles[w1], singles[w2]
        for name, prod in (("harmonic", harmonic), ("shuffle", _defining_shuffle)):
            rp = z_q(prod(e1, e2, cache.setdefault(name, {})), ctx, tables)
            dev = abs(rp.value - r1.value * r2.value)
            allowed = ctx.tol + rp.tail_bound + r1.tail_bound * (abs(r2.value) + r2.tail_bound) + r2.tail_bound * abs(r1.value)
            out[name].append((dev, allowed))
    return out


def cmd_verify(args):
    ctx = QContext(q=args.q, N=args.N, tol=args.tol)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            basis = relation_basis_from_doc(json.load(fh))
    else:
        basis = relation_basis(args.weight, not args.no_hbar_lifts)
    tables = _suffix_tables(ctx)  # one suffix memo for every series this request evaluates
    report = verify_numeric(basis, ctx, tables)
    families = [{"name": "relations", "checks": len(report.rows), "max_abs": report.max_abs, "ok": report.all_ok}]
    lines = ["relations weight=%d: %d rows, max |value| %.3g: %s" % (report.weight, len(report.rows), report.max_abs, "ok" if report.all_ok else "FAIL")]
    failures = []
    for chk in report.rows:
        if not chk.ok:
            detail = "row %d: |value| %.3g exceeds %.3g; 0 = %s" % (chk.row, chk.value, chk.allowed, _format_row(basis.rows[chk.row], basis.index_basis))
            failures.append(detail)
            lines.append("  FAIL " + detail)
    spots = _spot_check_products(basis.weight, ctx, tables)
    for name in ("harmonic", "shuffle"):
        checks = spots[name]
        worst = max((d for d, _ in checks), default=0.0)
        ok = all(d <= a for d, a in checks)
        families.append({"name": name + " product", "checks": len(checks), "max_abs": worst, "ok": ok})
        lines.append("%s product: %d pairs, max deviation %.3g: %s" % (name, len(checks), worst, "ok" if ok else "FAIL"))
        if not ok:
            failures.append(name + " product theorem violated")
    all_ok = all(f["ok"] for f in families)
    lines.append("all checks passed" if all_ok else "verification FAILED")
    doc = {"weight": report.weight, "q": str(args.q), "N": args.N, "tol": args.tol, "families": families, "failures": failures, "all_ok": all_ok}
    return "\n".join(lines), doc, None, 0 if all_ok else 1


def cmd_hoffman(args):
    text = format_element(gen_hoffman(index_from_text(args.index)))
    return text, {"index": args.index, "element": text}, None, 0


DISPATCH = {
    "product": cmd_product,
    "eval": cmd_eval,
    "polylog": cmd_polylog,
    "relations": cmd_relations,
    "dims": cmd_dims,
    "verify": cmd_verify,
    "hoffman": cmd_hoffman,
}


def _usage_error(message):
    print("error: %s" % (message,), file=sys.stderr)
    return 2


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: exit quietly, as a SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot fail again
        return 141
    return code


def _run(args):
    """Run one parsed command and write its payload; its exit code, or 2 after one error line."""
    try:
        text, doc, summary, code = DISPATCH[args.cmd](args)
        body = json.dumps(doc, indent=2) if args.json else text
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
    except BrokenPipeError:  # an OSError, but not a usage error: main handles it
        raise
    except (QmzvError, OSError, ValueError) as exc:
        return _usage_error(exc)
    except OverflowError:
        return _usage_error("float overflow in the series; try a smaller q, t or subscript")
    except RecursionError:
        return _usage_error("the recursion limit was reached: a shuffle goes one level deeper per x/y/r letter")
    if not args.out:
        print(body)
        if summary and args.json:
            print(summary, file=sys.stderr)
    elif summary:
        print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
