"""End-to-end command-line behavior through subprocesses."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from qmzv import cli
from qmzv.evaluate import QContext, _suffix_tables
from qmzv.relations import relation_basis, relation_basis_from_doc, relation_basis_to_doc
from qmzv.words import a_words_of_degree


def _main(*args):
    """stdout of qmzv.cli.main run in-process; the command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(args)) == 0, args
    return out.getvalue()


def _run(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "qmzv", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr)
    return proc


def test_product_harmonic_example():
    proc = _run("product", "harmonic", "xi", "xi")
    assert proc.stdout.strip() == "-h*xi + 2*xi xi + z2"


def test_product_units():
    assert _run("product", "shuffle", "1", "z3").stdout.strip() == "z3"
    assert _run("product", "star", "z2", "1").stdout.strip() == "z2"


def test_product_parse_error_exits_2():
    proc = _run("product", "harmonic", "z0", "xi", expect=2)
    assert "error" in proc.stderr


def test_unwritable_out_exits_2(tmp_path):
    target = tmp_path / "missing" / "x"
    proc = _run("product", "harmonic", "z2", "z3", "--out", str(target), expect=2)
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "x"),
        ("polylog", "x y", "--t", "1/2"),
        ("product", "harmonic", "x", "y"),
        ("product", "shuffle", "x", "y"),
        ("product", "star", "x", "y"),
        ("product", "harmonic", "z2", "x"),
        ("product", "harmonic", "1/0*z2", "z2"),
    ],
    ids=" ".join,
)
def test_input_outside_the_domain_exits_2_with_a_message(argv):
    proc = subprocess.run([sys.executable, "-m", "qmzv", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, (argv, proc.returncode, proc.stderr)
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, cause",
    [
        (("eval", "z160", "--q", "99/100"), "float overflow"),
        (("polylog", "z1100", "--t", "1/2"), "float overflow"),
        (("product", "shuffle", "z999", "z999"), "recursion limit"),
        (("product", "shuffle", "z3000", "z2"), "recursion limit"),
        (("product", "star", "z1001", "z2"), "letters up to z1000"),
        (("eval", "h^1000000000"), "h exponent above 1000"),
        (("hoffman", "100000"), "at most 1000"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_overflow_recursion_and_oversized_parts_exit_2_with_one_line(argv, cause):
    proc = _run(*argv, expect=2)
    assert proc.stderr.startswith("error: ") and cause in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_small_commands_do_not_import_numpy(tmp_path):
    doc = str(tmp_path / "w3.json")
    script = (
        "import sys\n"
        "import qmzv\n"
        "from qmzv import cli\n"
        "doc = sys.argv[1]\n"
        "for argv in (['product', 'harmonic', 'z2', 'z3 z1'], ['eval', 'z2 z1'], ['polylog', 'z2 z1', '--t', '3/10'],\n"
        "             ['dims', '--max-weight', '3'], ['verify', '--weight', '3'], ['relations', '--weight', '3', '--json', '--out', doc],\n"
        "             ['verify', doc]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, doc], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "w3.json").read_text())["weight"] == 3


# sha256 of the stdout of each command, recorded before the shared suffix
# tables of evaluate.py: sharing them must not move a single bit of output
NUMERIC_OUTPUT_DIGESTS = {
    ("verify", "--weight", "4", "--json"): "36622648479af7c1e5b90bbaccc393f92f8c7ffca4c8446a4614c8e0f407d4a6",
    ("verify", "W5", "--q", "2/3", "--json"): "7a23beb20ff108b78cd105dee1decc3d11241f04d3502046b1e9746c49b0010f",
    ("eval", "z2 z1", "--json"): "36497aa65eecbb15d7c9fb3289ea7822bae332e878e4c27b31de03acf5da1c9f",
    ("eval", "xi z2 + 3*h*z3 - z2 xi", "--q", "1/3", "--N", "200", "--json"): "88d43ba6aee62ea37537269d554783da85048c7e8f233056e0bc5c8ade5281b2",
    ("polylog", "z2 z1", "--t", "3/10", "--json"): "5e258da9259f3aa447deb3a0e6897abb515c75f9bed276ff75b3f78bfd9f6d9a",
    ("polylog", "xi z2 - h*z3 z1", "--t", "7/10", "--q", "2/3", "--json"): "c9cd05f3852cd397830e7a000f956202a306cb7dc690a9d071d36a83fbddc2dc",
}


def test_numeric_outputs_match_the_recorded_digests(tmp_path):
    w5 = str(tmp_path / "w5.json")
    assert _main("relations", "--weight", "5", "--json", "--out", w5)
    for argv, digest in NUMERIC_OUTPUT_DIGESTS.items():
        text = _main(*(w5 if a == "W5" else a for a in argv))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv


def test_spot_checks_evaluate_each_single_word_once(monkeypatch):
    real, calls = cli.z_q, []

    def counting(e, ctx, tables=None):
        calls.append(e)
        return real(e, ctx, tables)

    monkeypatch.setattr(cli, "z_q", counting)
    ctx = QContext(q=Fraction(1, 2), N=60)
    spots = cli._spot_check_products(5, ctx, _suffix_tables(ctx))
    pairs = len(spots["harmonic"])
    words = [w for m in range(1, 5) for w in a_words_of_degree(m, admissible_only=True)]
    assert pairs == len(spots["shuffle"]) > len(words)
    # every word of degree 1..4 pairs with xi, so each is one single word of the checks
    assert len(calls) == len(words) + 2 * pairs


def test_eval_tail_bound_above_tol_exits_1_and_still_prints():
    proc = _run("eval", "z2 z1", "--q", "99/100", expect=1)
    assert proc.stdout.startswith("1.17127879239336 ± 2.93e+03")
    assert "tail bound 2.93e+03 exceeds --tol 1e-10" in proc.stderr and "--N" in proc.stderr


def test_eval_tail_bound_within_tol_exits_0():
    proc = _run("eval", "z2 z1", "--q", "99/100", "--N", "4000")
    assert proc.stdout.startswith("1.17596436850055 ± 2.78e-12") and proc.stderr == ""


def test_eval_unit():
    assert _run("eval", "1").stdout.strip() == "1 ± 0"


def test_eval_divergent_exits_2():
    proc = _run("eval", "z1", expect=2)
    assert "error" in proc.stderr


def test_eval_json_carries_certification():
    proc = _run("eval", "z2", "--q", "1/3", "--json")
    doc = json.loads(proc.stdout)
    assert doc["certified"] is True
    assert doc["tail_bound"] < 1e-20
    # partial sums of sum q^n/[n]^2 at q=1/3: 1/3 + 1/16 + 3/169 + ...
    assert abs(float(doc["value"]) - 0.421970328951157) < 1e-11


def test_negative_arguments_follow_a_double_dash_or_an_equals_sign():
    # argparse reads a leading "-" as an option
    for argv, message in (
        (("eval", "-z2"), "the following arguments are required: expr"),
        (("product", "harmonic", "-z2", "z3"), "the following arguments are required: e2"),
        (("polylog", "z2", "--t", "-1/2"), "argument --t: expected one argument"),
    ):
        assert message in _run(*argv, expect=2).stderr, argv
    z2 = json.loads(_main("eval", "z2", "--json"))["value"]
    assert json.loads(_main("eval", "--json", "--", "-z2"))["value"] == "-" + z2
    at_t = json.loads(_main("polylog", "z2", "--t=-1/2", "--json"))["value"]
    assert at_t.startswith("-")
    assert json.loads(_main("polylog", "--t=-1/2", "--json", "--", "-z2"))["value"] == at_t[1:]
    assert _main("product", "harmonic", "--", "-z2", "z3") == "-h*z4 - z2 z3 - z3 z2 - z5\n"


def test_eval_rejects_bad_q():
    _run("eval", "z2", "--q", "3/2", expect=2)
    _run("eval", "z2", "--q", "abc", expect=2)
    _run("eval", "z2", "--N", "5", expect=2)


def test_exponent_notation_is_refused_at_once():
    # Fraction would build 10^3000000 first: eval then failed later with another
    # message, and polylog printed past Python's 4300-digit conversion limit
    for argv, message in (
        (("eval", "z2", "--q", "1e-3000000"), "q must be a rational with 0 < q < 1"),
        (("polylog", "z2", "--t", "1E-3000000"), "t must be a rational with |t| < 1"),
    ):
        proc = _run(*argv, expect=2)
        assert message in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
    # integers, P/Q and plain decimals read as before
    assert _main("eval", "z2", "--q", "0.5") == _main("eval", "z2", "--q", "1/2")
    assert _main("polylog", "z2", "--t", "0") == _main("polylog", "z2", "--t", "0/3")


def test_polylog_matches_library():
    from fractions import Fraction

    from qmzv.evaluate import QContext, l_value
    from qmzv.expr import parse_element

    proc = _run("polylog", "z2", "--t", "3/10", "--q", "1/2")
    shown = float(proc.stdout.split("±")[0])
    lib = l_value(parse_element("z2"), Fraction(3, 10), QContext(q=Fraction(1, 2))).value
    assert abs(shown - lib) < 1e-14


def test_hoffman_examples():
    assert _run("hoffman", "2").stdout.strip() == "-z2 z1 + z3"
    assert _run("hoffman", "2,1").stdout.strip() == "-z2 z1 z1 + z2 z2 + z3 z1"
    _run("hoffman", "1,2", expect=2)
    _run("hoffman", "2,x", expect=2)
    assert "nonempty index" in _run("hoffman", "", expect=2).stderr


def test_relations_weight_three_text():
    proc = _run("relations", "--weight", "3")
    assert "dimension 1" in proc.stdout
    assert "zbar(2,1) - zbar(3)" in proc.stdout


def test_relations_json_round_trip(tmp_path):
    out = tmp_path / "basis.json"
    proc = _run("relations", "--weight", "4", "--json", "--out", str(out))
    assert "dimension 3" in proc.stdout
    doc = json.loads(out.read_text())
    basis = relation_basis_from_doc(doc)
    assert basis == relation_basis(4)
    assert json.loads(json.dumps(relation_basis_to_doc(basis))) == doc


def test_relations_no_lift_mode_flag():
    proc = _run("relations", "--weight", "3", "--no-hbar-lifts", "--json")
    doc = json.loads(proc.stdout)
    assert doc["mode"]["hbar_lifts"] is False


def test_dims_table_output():
    proc = _run("dims", "--max-weight", "4")
    assert "1 3 7" in proc.stdout
    assert "0 1 3" in proc.stdout
    assert "weight 2: 1 / 0 / 1" in proc.stdout


def test_verify_passes(tmp_path):
    proc = _run("verify", "--weight", "3", "--q", "1/2")
    assert "all checks passed" in proc.stdout
    out = tmp_path / "b.json"
    _run("relations", "--weight", "3", "--json", "--out", str(out))
    proc = _run("verify", str(out))
    assert "all checks passed" in proc.stdout


def test_verify_flags_corrupted_file(tmp_path):
    out = tmp_path / "b.json"
    _run("relations", "--weight", "3", "--json", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["relations"][0][1] = "5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = _run("verify", str(bad), expect=1)
    assert "FAIL row 0" in proc.stdout
    assert "zbar(2)" in proc.stdout


def test_verify_rejects_malformed_file(tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{broken")
    _run("verify", str(bad), expect=2)
    # JSON values that are not strings where index texts and coefficients belong
    good = json.loads(_run("relations", "--weight", "3", "--json").stdout)
    for key, value in (("index_basis", [1, 2]), ("relations", [[True, 0.5] + good["relations"][0][2:]])):
        bad.write_text(json.dumps(dict(good, **{key: value})))
        proc = _run("verify", str(bad), expect=2)
        assert "malformed relation document" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_usage_error_exits_2():
    for argv in (
        ("relations",),
        ("nonsense",),
        ("relations", "--weight", "9"),
        ("relations", "--weight", "x"),
        ("eval", "z2", "--N", "3.5"),
        ("eval", "z2", "--N", "100001"),
        ("eval", "z2", "--tol", "abc"),
        ("eval", "z2", "--q", "1/0"),
        ("eval", "z2", "--q", "2"),
        ("polylog", "z2", "--t", "1"),
    ):
        proc = _run(*argv, expect=2)
        assert "_arg" not in proc.stderr, (argv, proc.stderr)


def test_closed_stdout_pipe_exits_141_quietly():
    # the reader of stdout is gone before the value is written: exit as SIGPIPE would, no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qmzv", "eval", "z2"], stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
