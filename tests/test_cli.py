import ast
import contextlib
import inspect
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from helpers import grothendieck_serre_failures, non_stable_ideals
from hypothesis import example, given, settings
from hypothesis import strategies as st
from window_oracle import lcm_window, windowed_rows_equal

from lexlab import (DegreeWindow, InvalidArgument, MonomialIdeal, ParseError, Poly, RingSpec,
                    UnluckyCoordinates, exchange_property, gin, lex_ideal,
                    local_cohomology_table, parse_ideal, parse_monomial, parse_polynomial,
                    parse_ring)
import lexlab
from lexlab.cli import main
from lexlab import reports
from lexlab.cohomology import LCTable, default_window
from lexlab.errors import InternalInconsistency
from lexlab.reports import ideal_from_json, probe_rigidity, verify_main
from lexlab.families import FamilySpec, all_strongly_stable

R3 = RingSpec(3)
EXAMPLE_TEXT = "x^2, x*y, y^2, x*z^2, y*z^2"


# -- parsing ---------------------------------------------------------------------


def test_parse_ring():
    assert parse_ring("x,y,z") == R3
    assert parse_ring("a, b").names == ("a", "b")
    with pytest.raises(ParseError):
        parse_ring("")
    with pytest.raises(ParseError):
        parse_ring("x,x")


def test_parse_monomial():
    assert parse_monomial("x^2*y*z^3", R3) == (2, 1, 3)
    assert parse_monomial("1", R3) == (0, 0, 0)
    with pytest.raises(ParseError):
        parse_monomial("x + y", R3)
    with pytest.raises(ParseError):
        parse_monomial("2*x", R3)


def test_parse_ideal_examples():
    ideal = parse_ideal(EXAMPLE_TEXT, R3)
    assert isinstance(ideal, MonomialIdeal)
    assert ideal.gens == ((2, 0, 0), (1, 1, 0), (1, 0, 2), (0, 2, 0), (0, 1, 2))
    assert parse_ideal("", parse_ring("x,y")).is_zero
    polys = parse_ideal("x^2 - y^2, x*y", parse_ring("x,y"))
    assert isinstance(polys, list) and all(isinstance(p, Poly) for p in polys)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2 + $", R3)
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse_polynomial("x * q", R3)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_polynomial("x^(2)", R3)
    for text in ("x^y", "x^1/2", "x^"):
        with pytest.raises(ParseError, match="exponent must be a non-negative integer") as err:
            parse_polynomial(text, R3)
        assert err.value.position == 2, text
    # past Python's limit for converting digits to an integer
    big = "1" * 5000
    for text, position in ((big + "*x", 0), ("x^" + big, 2), ("y + 1/" + big + "*x", 4)):
        with pytest.raises(ParseError, match="number of more than") as err:
            parse_polynomial(text, R3)
        assert err.value.position == position, position


POLYNOMIAL_TEXT = st.text(alphabet=st.sampled_from("xyzq0123456789/^*+- ") | st.characters(),
                          max_size=30) | st.lists(st.sampled_from(
    ["x", "y^2", "z^13", "3/2", "1/0", "1 / 4", "*", "+", "-", " ", "^", "q", "2",
     "7" * 4301])).map("".join)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(POLYNOMIAL_TEXT)
@example("x^")
def test_parse_polynomial_returns_a_poly_or_a_positioned_parse_error(text):
    # any exception other than ParseError fails the test
    try:
        poly = parse_polynomial(text, R3)
    except ParseError as err:
        assert err.position is not None and 0 <= err.position <= len(text), text
    else:
        assert isinstance(poly, Poly)


RING_TEXT = st.lists(st.from_regex(r"[A-Za-z_][A-Za-z_0-9]*", fullmatch=True)
                     | st.text(max_size=4), min_size=1, max_size=5).map(",".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(RING_TEXT)
@example("1,2")
@example("a b,c")
@example("x^2,y")
def test_ring_names_parse_back_as_their_variables(text):
    try:
        ring = parse_ring(text)
    except ParseError:
        return
    for i, name in enumerate(ring.names):
        variable = tuple(int(k == i) for k in range(ring.n))
        assert parse_polynomial(name, ring).terms == {variable: 1}, (text, name)


def test_parse_zero_denominator():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + 1/0*y", R3)
    assert err.value.position == 4
    assert main(["lex", "--ring", "x,y", "0/0*x"]) == 2


def test_parse_rational_coefficients():
    from fractions import Fraction
    p = parse_polynomial("3/2*x*y - z^2", R3)
    assert p.terms == {(1, 1, 0): Fraction(3, 2), (0, 0, 2): Fraction(-1)}


# -- commands --------------------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_hf_json(capsys):
    code, out, _ = run(capsys, "hf", "--ring", "x,y,z", "--format", "json", EXAMPLE_TEXT)
    assert code == 0
    data = json.loads(out)
    assert data["values"][:6] == [1, 3, 3, 1, 1, 1]
    assert data["numerator"] == [1, 0, -3, 0, 4, -2]
    assert data["d0"] == 5


def test_cli_lex_and_sat(capsys):
    code, out, _ = run(capsys, "lex", "--ring", "x,y,z", EXAMPLE_TEXT)
    assert code == 0
    assert out.strip() == "(x^2, x*y, x*z, y^3, y^2*z, y*z^2)"
    code, out, _ = run(capsys, "sat", "--ring", "x,y,z", EXAMPLE_TEXT)
    assert code == 0
    assert out.strip() == "(x, y)"
    code, out, _ = run(capsys, "lex", "--ring", "x,y,z", "--values", "1,3,3,1,1")
    assert code == 0
    assert out.strip() == "(x^2, x*y, x*z, y^3, y^2*z, y*z^2)"


def test_cli_lex_of_the_zero_ideal(capsys):
    # "" is the zero ideal, as in hf, sat, lc, gin and verify-main
    code, out, _ = run(capsys, "lex", "--ring", "x,y", "")
    assert code == 0 and out.strip() == "(0)"
    for argv in ([], ["x*y", "--values", "1,2,2"], ["", "--values", "1,2,2"]):
        code, _, err = run(capsys, "lex", "--ring", "x,y", *argv)
        assert code == 2 and "not both" in err, argv


@pytest.mark.parametrize("ring", ["x", "x,y,z"])
def test_cli_zero_and_unit_ideals(capsys, ring):
    # the projection chain of the zero ideal is empty and that of the unit
    # ideal is the unit: R/0 = R has only its top row, R/R no row at all
    n = len(ring.split(","))
    code, out, _ = run(capsys, "lc", "--ring", ring, "--format", "json", "0")
    assert code == 0 and list(json.loads(out)["rows"]) == [str(n)]
    code, out, _ = run(capsys, "lc", "--ring", ring, "--format", "json", "1")
    assert code == 0 and json.loads(out)["rows"] == {}
    for text, shown in (("0", "(0)"), ("1", "(1)"), ("x^3", "(1)" if n == 1 else "(x^3)")):
        code, out, _ = run(capsys, "sat", "--ring", ring, text)
        assert code == 0 and out.strip() == shown, text
    code, out, _ = run(capsys, "verify-main", "--ring", ring, "--format", "json", "0")
    assert code == 0 and json.loads(out)["verdict"] == "consistent"
    code, _, err = run(capsys, "verify-main", "--ring", ring, "1")
    assert code == 3 and "verification needs a proper ideal" in err


def test_cli_lex_of_high_degree_power(capsys):
    # the lex generators are stepped to, so no degree's monomials are listed
    code, out, _ = run(capsys, "lex", "--ring", "x,y,z", "x^1600")
    assert code == 0
    assert out.strip() == "(x^1600)"


def test_cli_hf_of_large_exponents(capsys):
    # the numerator recursion splits exponents at their median, not by units
    code, out, _ = run(capsys, "hf", "--ring", "x,y", "--format", "json",
                       "x^600, x^599*y, y^700")
    assert code == 0
    numerator = json.loads(out)["numerator"]
    assert {k: c for k, c in enumerate(numerator) if c} == {
        0: 1, 600: -2, 601: 1, 700: -1, 1299: 1}


def test_cli_gin(capsys):
    code, out, _ = run(capsys, "gin", "--ring", "x,y", "--seed", "1", "x^2 - y^2, x*y")
    assert code == 0
    assert out.strip() == "(x^2, x*y, y^3)"


def test_cli_gin_unlucky_coordinates(capsys):
    # all three trials agree on (x*y), which is not strongly stable: bad luck
    # in the coordinates, not a fault
    code, _, err = run(capsys, "gin", "--ring", "x,y", "--bound", "1", "--seed", "5",
                       "x^2 - y^2")
    assert code == 3 and "trial seeds" in err
    ring = parse_ring("x,y")
    with pytest.raises(UnluckyCoordinates):
        gin(parse_ideal("x^2 - y^2", ring), ring=ring, bound=1, seed=5)


def test_cli_window_only_where_it_is_used(capsys):
    for argv in (["lex", "x^2"], ["sat", "x^2"], ["gin", "x^2"], ["verify-main", "x^2"],
                 ["enumerate", "--target", "1,2,1", "--max-degree", "2"],
                 ["probe-rigidity", "--target", "1,2,1", "--max-degree", "2"]):
        command, *rest = argv
        assert _exit_code([command, "--ring", "x,y", "--window=0:1", *rest]) == 2, argv
        assert _exit_code([command, "--ring", "x,y", *rest]) == 0, argv


def test_cli_lc_default_window_ends_at_the_top_row_degree(capsys):
    # the 14-generator lex ideal of 1,4,6,4,2,1 has generators up to degree 6,
    # so the lcm bound would put the top at 14; nothing is nonzero above 4
    code, out, _ = run(capsys, "lex", "--ring", "x,y,z,w", "--values", "1,4,6,4,2,1")
    assert code == 0
    code, out, _ = run(capsys, "lc", "--ring", "x,y,z,w", "--format", "json",
                       out.strip()[1:-1])
    assert code == 0
    data = json.loads(out)
    assert data["window"][1] == 4
    assert data["rows"]["0"]["4"] and data["rows"]["0"]["3"]


def test_cli_lc_window(capsys):
    code, out, _ = run(capsys, "lc", "--ring", "x,y,z", "--window=-4:3",
                       "--format", "json", EXAMPLE_TEXT)
    assert code == 0
    data = json.loads(out)
    assert data["rows"]["0"] == {"1": 2, "2": 2}
    assert data["window"] == [-4, 3]


def test_cli_verify_consistent(capsys):
    code, out, _ = run(capsys, "verify-main", "--ring", "x,y,z", "--format", "json",
                       EXAMPLE_TEXT)
    assert code == 0
    data = json.loads(out)
    assert data["condition_i"] and data["condition_ii_on_window"]
    assert data["verdict"] == "consistent"


def test_cli_verify_negative_control(capsys):
    code, out, _ = run(capsys, "verify-main", "--ring", "x,y,z,w", "--format", "json",
                       "x*z, x*w, y*z, y*w")
    assert code == 0   # both conditions fail together: a consistent verdict
    data = json.loads(out)
    assert not data["condition_i"] and not data["condition_ii_on_window"]
    assert data["first_mismatch"] == [0, 1]
    code, out, _ = run(capsys, "verify-main", "--ring", "x,y,z,w", "x*z, x*w, y*z, y*w")
    assert code == 0 and "\nfirst mismatch:   (i, j) = (0, 1)\n" in out


def test_cli_exit_codes(capsys):
    code, _, err = run(capsys, "hf", "--ring", "x,y,z", "x^2 + $")
    assert code == 2 and "parse error" in err
    # 21 generators: beyond the Taylor oracle's cap, no limit for the library
    gens = ", ".join(f"x^{5-a-b}*y^{a}*z^{b}" if (5 - a - b) else f"y^{a}*z^{b}"
                     for a in range(6) for b in range(6 - a)).replace("y^0*", "").replace("*z^0", "")
    ideal = parse_ideal(gens, R3)
    assert len(ideal.gens) == 21
    w = lcm_window(ideal)
    code, out, _ = run(capsys, "lc", "--ring", "x,y,z", f"--window={w.lo}:{w.hi}",
                       "--format", "json", gens)
    assert code == 0
    table = LCTable.from_json(json.loads(out))
    assert table.window == w
    assert table.entries and not grothendieck_serre_failures(ideal, table)
    # the default display window shows the same entries on its smaller range
    code, out, _ = run(capsys, "lc", "--ring", "x,y,z", "--format", "json", gens)
    assert code == 0
    shown = LCTable.from_json(json.loads(out))
    assert all(shown.get(i, j) == table.get(i, j)
               for i in range(4) for j in shown.window.degrees())
    # engine errors exit 3: 7 exceeds dim R_2 = 6
    code, _, err = run(capsys, "lex", "--ring", "x,y,z", "--values", "1,3,7")
    assert code == 3
    # the unit ideal has no lex ideal, no verification and no family
    code, _, err = run(capsys, "lex", "--ring", "x,y", "1")
    assert code == 3 and "lex ideal of the unit ideal is not defined" in err
    code, _, err = run(capsys, "verify-main", "--ring", "x,y", "1")
    assert code == 3 and "verification needs a proper ideal" in err
    for command in ("enumerate", "probe-rigidity"):
        code, _, err = run(capsys, command, "--ring", "x,y", "--from-ideal", "1",
                           "--max-degree", "2")
        assert code == 3 and "target leaves no room for a proper ideal" in err, command
    # a window may end below max generator degree + n: the series data is
    # closed-form, so the window only sets how far the values are printed
    code, out, _ = run(capsys, "hf", "--ring", "x,y,z", "--window=0:1", "x^2, y*z")
    assert code == 0 and out.splitlines()[0] == "values 0..1: 1 3"
    # hf shows degrees from 0, so a window starting elsewhere is a usage error
    for window in ("--window=5:6", "--window=-50:6"):
        code, _, err = run(capsys, "hf", "--ring", "x,y", window, "x^2")
        assert code == 2 and "parse error" in err, window
    # a negative --max-degree names no family
    for target in (["--from-ideal", "x^2", "--max-degree", "-3"],
                   ["--target", "1,2,1", "--max-degree", "-1"]):
        code, _, err = run(capsys, "enumerate", "--ring", "x,y", *target)
        assert code == 2 and "parse error" in err, target
    # an empty --target is bad values, not a missing option
    for command in ("enumerate", "probe-rigidity"):
        code, _, err = run(capsys, command, "--ring", "x,y", "--target", "", "--max-degree", "1")
        assert code == 2 and "bad --target values ''" in err, command
    # gin needs two trials and a coordinate bound of at least 1, also on a
    # strongly stable ideal, which is its own gin
    for option in (["--trials", "1"], ["--trials", "0"], ["--bound", "0"], ["--bound=-3"]):
        code, _, err = run(capsys, "gin", "--ring", "x,y", *option, "x^2 - y^2, x*y")
        assert code == 2 and "parse error" in err, option
        code, _, err = run(capsys, "gin", "--ring", "x,y,z", *option, EXAMPLE_TEXT)
        assert code == 2 and "parse error" in err, option
    # gin needs homogeneous generators
    for text in ("x^2 - y, x*y", "x^2 - 1"):
        code, _, err = run(capsys, "gin", "--ring", "x,y", text)
        assert code == 2 and "parse error" in err, text
    code, _, err = run(capsys, "verify-main", "--ring", "x,y,z", "--with-gin",
                       "--trials", "1", EXAMPLE_TEXT)
    assert code == 2 and "parse error" in err
    # polynomial input where a monomial ideal is needed
    for command in ("hf", "lex", "sat", "lc", "verify-main"):
        code, _, err = run(capsys, command, "--ring", "x,y", "x^2 - y^2, x*y")
        assert (code, err) == (2, "lexlab: parse error: this command needs a monomial ideal\n")
    # a family takes exactly one target, and --from-ideal a monomial one
    for command in ("enumerate", "probe-rigidity"):
        for target in ([], ["--target", "1,2,1", "--from-ideal", "x^2"]):
            code, _, err = run(capsys, command, "--ring", "x,y", *target, "--max-degree", "2")
            assert (code, err) == (
                2, "lexlab: parse error: give exactly one of --target or --from-ideal\n")
        code, _, err = run(capsys, command, "--ring", "x,y", "--from-ideal", "x^2 - y^2",
                           "--max-degree", "2")
        assert (code, err) == (2, "lexlab: parse error: --from-ideal needs a monomial ideal\n")
    # a ring name the polynomial grammar cannot read back as that name
    for command, ring, text in (("hf", "1,2", "2"), ("hf", "a b,c", "c"), ("hf", "x^2,y", "y"),
                                ("lex", "1,2", "2*1")):
        code, out, err = run(capsys, command, "--ring", ring, text)
        assert (code, out) == (2, "") and "parse error: bad variable name" in err, ring
    # numbers past Python's limit for converting digits to an integer
    big = "1" * 5000
    for argv in (["hf", "--ring", "x,y", big + "*x"], ["hf", "--ring", "x,y", "x^" + big],
                 ["hf", "--ring", "x,y", "1/" + big + "*x"],
                 ["lc", "--ring", "x,y", "--window=0:" + big, "x"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "parse error: number of more than" in err, argv[-1][:9]
    # an exponent too large to size a list of exponents by
    for command in ("hf", "lex", "verify-main"):
        code, out, err = run(capsys, command, "--ring", "x,y", "x^99999999999999999999")
        assert (code, out, err) == (3, "", "lexlab: a number is too large for this machine\n")
    # a local cohomology row spanning more degrees than a list can hold
    # fails when it is sized, before any degree of it is built
    too_large, out_of_memory = "a number is too large for this machine", "out of memory"
    for argv, message in ((["x^99999999999999999999"], too_large),
                          (["--window=0:3", "x^99999999999999999999"], too_large),
                          (["x^1000000000000000"], out_of_memory)):
        code, out, err = run(capsys, "lc", "--ring", "x,y", *argv)
        assert (code, out, err) == (3, "", f"lexlab: {message}\n"), argv


@pytest.mark.parametrize("call, message", [
    (lambda: FamilySpec(RingSpec(2), (1, 2, 1), -1), "max_degree must be at least 0, got -1"),
    (lambda: gin(parse_ideal(EXAMPLE_TEXT, R3), trials=1), "trials must be at least 2, got 1"),
    (lambda: gin(parse_ideal(EXAMPLE_TEXT, R3), bound=0), "bound must be at least 1, got 0"),
    (lambda: gin(parse_ideal("x*y, x^2 - y", RingSpec(2))),
     "homogeneous generators, got generator 2 with terms of degrees [1, 2]"),
    (lambda: DegreeWindow(3, 1), "empty degree window: lo 3 exceeds hi 1"),
], ids=["max_degree", "trials", "bound", "homogeneous", "window"])
def test_library_checks_arguments_once(call, message):
    # the CLI keeps no copy of these checks: it maps InvalidArgument to exit 2
    with pytest.raises(InvalidArgument) as err:
        call()
    assert isinstance(err.value, ValueError) and message in str(err.value)


def test_cli_malformed_numbers_exit_2(capsys):
    code, _, err = run(capsys, "lex", "--ring", "x,y,z", "--values", "1,a")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "lc", "--ring", "x,y,z", "--window=3:1", EXAMPLE_TEXT)
    assert code == 2 and "parse error" in err


def _limit_address_space():
    limit = 256 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command", ["lex", "verify-main"])
def test_cli_out_of_memory_is_one_line_and_exit_3(command):
    # the lex ideal of four squares in R8 (Gotzmann number 11,356,522) does
    # not fit in 256 MB of address space
    src = Path(lexlab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "lexlab.cli", command, "--ring", "x1,x2,x3,x4,x5,x6,x7,x8",
         "x1^2, x2^2, x3^2, x4^2"],
        env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=_limit_address_space,
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "lexlab: out of memory\n")


RING_30 = ",".join(f"x{i}" for i in range(1, 31))
SPARSE_30 = ["x1*x2", "x29*x30", "x1^2*x30, x2*x29^3"]


@pytest.mark.parametrize("command, ideal", [*(("lc", text) for text in SPARSE_30),
                                            *(("verify-main", text) for text in SPARSE_30[:2])])
def test_cli_takayama_walks_only_the_variables_that_divide_a_generator(command, ideal):
    # a walk over all 2^30 sign patterns takes about an hour; over the 2^k
    # patterns of the k variables in use, each run took 0.07-0.12 s with
    # interpreter start-up on a 2-core Intel Xeon host
    src = Path(lexlab.__file__).resolve().parent.parent
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "lexlab.cli", command, "--ring", RING_30, ideal],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert elapsed < 3, elapsed


# -- the exit-code contract under fuzzed input ----------------------------------


def _short_numbers(text):
    # numbers of at most two digits keep every command's cost small
    return not re.search(r"\d{3}", text)


def _junk(alphabet):
    return st.text(alphabet=st.sampled_from(alphabet) | st.characters(),
                   max_size=14).filter(_short_numbers)


def _monomial_text(exps):
    return "*".join(f"{v}^{e}" for v, e in zip("xy", exps) if e) or "1"


IDEAL_TEXT = _junk("xyz^*+-,/ ()0123456789") | st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(_monomial_text),
    max_size=4).map(", ".join)
VALUES_TEXT = _junk("0123456789,-+ _a.") | st.lists(
    st.integers(-2, 12), max_size=6).map(lambda vs: ",".join(map(str, [1, *vs])))
WINDOW_TEXT = _junk("0123456789:-+ ") | st.tuples(
    st.integers(-30, 30), st.integers(-30, 30)).map(lambda w: f"{w[0]}:{w[1]}")
# exponents in the thousands, where a recursion that lowers them one at a
# time would run out of stack
LARGE_IDEAL_TEXT = st.lists(
    st.tuples(st.integers(0, 1500), st.integers(0, 1500)).map(_monomial_text),
    min_size=1, max_size=4).map(", ".join)


def _exit_code(argv):
    """main's exit code; argparse's own usage errors exit 2 by SystemExit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=150, deadline=None, derandomize=True)
@given(IDEAL_TEXT, VALUES_TEXT, WINDOW_TEXT, LARGE_IDEAL_TEXT)
@example(ideal="x", values="1", window="0:1", large="x^3000, x^2999*y, y^3100")
def test_cli_fuzz_exit_codes(ideal, values, window, large):
    # main catches LexlabError and ValueError; any other exception fails here
    for argv in (["lex", "--ring", "x,y", "--", ideal],
                 ["sat", "--ring", "x,y", "--", ideal],
                 ["lc", "--ring", "x,y", f"--window={window}", "--", ideal],
                 ["hf", "--ring", "x,y,z", f"--window={window}", "x^2, y*z"],
                 ["lex", "--ring", "x,y,z", f"--values={values}"],
                 ["enumerate", "--ring", "x,y", f"--target={values}", "--max-degree", "2"],
                 ["hf", "--ring", "x,y", "--", large],
                 ["sat", "--ring", "x,y", "--", large],
                 ["lc", "--ring", "x,y", "--window=-2:2", "--", large]):
        assert _exit_code(argv) in (0, 2, 3), argv


FAMILY_OPTIONS = ["--target", "--from-ideal", "--max-degree"]


@pytest.mark.parametrize("command, options", [
    ("hf", ["--window"]),
    ("lex", ["--values"]),
    ("sat", []),
    ("gin", ["--trials", "--seed", "--bound"]),
    ("lc", ["--window"]),
    ("verify-main", ["--trials", "--seed", "--with-gin"]),
    ("enumerate", FAMILY_OPTIONS),
    ("probe-rigidity", FAMILY_OPTIONS),
])
def test_cli_help_lists_each_commands_options(capsys, command, options):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    listed = re.findall(r"^  (--?[a-z-]+)", capsys.readouterr().out, re.M)
    assert sorted(listed) == sorted(["-h", "--ring", "--format", *options])


def test_cli_violation_exit_code(capsys, monkeypatch):
    import lexlab.cli as cli
    real = verify_main

    def doctored(*args, **kwargs):
        report = real(*args, **kwargs)
        report.verdict = "THEOREM VIOLATION"
        return report

    monkeypatch.setattr(cli, "verify_main", doctored)
    code, _, _ = run(capsys, "verify-main", "--ring", "x,y,z", EXAMPLE_TEXT)
    assert code == 4


def test_cli_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--ring", "x,y,z", "--target", "1,3,3,1,1",
                       "--max-degree", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == len(data["members"]) > 0
    code, _, err = run(capsys, "enumerate", "--ring", "x,y,z", "--target", "1,3,9",
                       "--max-degree", "2")
    assert code == 3
    # an empty --from-ideal is the zero ideal, as "0" is
    for text in ("", "0"):
        code, out, _ = run(capsys, "enumerate", "--ring", "x,y", "--from-ideal", text,
                           "--max-degree", "1")
        assert code == 0 and out.strip() == "(0)", text


@pytest.mark.parametrize("ring, ideal, max_degree, members", [
    ("x,y,z", "x^2,y^2,z^2", "44", ["(x^2, x*y, x*z, y^3, y^2*z, y*z^2, z^4)",
                                    "(x^2, x*y, x*z^2, y^2, y*z^2, z^4)"]),
    ("x,y", "x^2", "600", ["(x^2)"]),
    ("x", "x^3", "1500", ["(x^3)"]),
])
def test_cli_enumerate_to_high_degree(capsys, ring, ideal, max_degree, members):
    # one nested call per degree and per monomial of a degree once ended in RecursionError
    code, out, _ = run(capsys, "enumerate", "--ring", ring, "--from-ideal", ideal,
                       "--max-degree", max_degree)
    assert code == 0
    assert out.splitlines() == members


@pytest.mark.parametrize("ring, ideal", [("x", "x^5"), ("x,y", "x, y^10")])
def test_cli_family_capped_below_every_member_is_empty(capsys, ring, ideal):
    # the lex ideal has a generator in degree 5 or 10, and no member can be
    # generated below it: (0) and (x) miss the target's value in that degree
    code, out, _ = run(capsys, "enumerate", "--ring", ring, "--from-ideal", ideal,
                       "--max-degree", "1")
    assert code == 0 and out.strip() == "(empty family)"
    code, out, _ = run(capsys, "probe-rigidity", "--ring", ring, "--from-ideal", ideal,
                       "--max-degree", "1")
    assert code == 0 and out.splitlines()[0] == "members: 0"


def test_cli_family_walk_stops_at_the_lex_top_degree(capsys):
    # the lex ideal of (x^2, y^2) is generated in degrees <= 3, so a cap of
    # 1200 costs no more than a cap of 3
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "probe-rigidity", "--ring", "x,y", "--from-ideal", "x^2,y^2",
                       "--max-degree", "1200")
    elapsed = time.perf_counter() - t0
    assert code == 0 and out.splitlines()[0] == "members: 1"
    assert "(x^2, x*y, y^3)" in out
    assert elapsed < 2, elapsed


def test_cli_family_capped_far_below_the_lex_top_degree(capsys):
    # T is the Gotzmann number 11,356,522 here; the layers stop at the cap of
    # 3 and no lex ideal is built
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "enumerate", "--ring", "x1,x2,x3,x4,x5,x6,x7,x8",
                       "--from-ideal", "x1^2, x2^2, x3^2, x4^2", "--max-degree", "3")
    elapsed = time.perf_counter() - t0
    assert code == 0 and out.strip() == "(empty family)"
    assert elapsed < 5, elapsed


def test_cli_probe_rigidity(capsys):
    code, out, _ = run(capsys, "probe-rigidity", "--ring", "x,y,z", "--target",
                       "1,3,3,1,1", "--max-degree", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["none_found"] is True
    # the flags are exact, so no note qualifies them; they agree with the
    # tables compared degree by degree on the lcm window
    assert "note" not in data
    assert data["members"]
    for member in data["members"]:
        ideal = ideal_from_json(member["ideal"])
        lex = lex_ideal(ideal)
        w = lcm_window(ideal, lex)
        flags = windowed_rows_equal(local_cohomology_table(ideal, w),
                                    local_cohomology_table(lex, w))
        assert tuple(member["equal_rows"]) == flags, member


def test_probe_rigidity_reports_per_index_patterns():
    # family sharing the two-planes Hilbert function over four variables
    r4 = parse_ring("x,y,z,w")
    spec = FamilySpec(r4, (1, 4, 6, 8, 10), 3)
    report = probe_rigidity(spec)
    assert len(report.members) == 2
    patterns = {m.equal_rows for m in report.members}
    assert (True, True, True, True, True) in patterns        # the lex member itself
    assert (False, False, True, True, True) in patterns      # equality only from i = 2 up
    assert not report.candidates                             # monotone patterns: no candidate


def test_probe_rigidity_empty_family():
    spec = FamilySpec(R3, (1, 3, 3, 1, 1), 2)   # generators capped too low: no members
    report = probe_rigidity(spec)
    assert not report.members and not report.candidates
    assert report.to_json()["none_found"] is True


def test_probe_rigidity_has_no_jobs_option():
    assert _exit_code(["probe-rigidity", "--ring", "x,y,z", "--target", "1,3,3,1,1",
                       "--max-degree", "3", "--jobs", "4"]) == 2


def test_verify_main_never_violates_on_family():
    # reports must agree on both conditions, member by member
    spec = FamilySpec(R3, (1, 3, 3, 1, 1), 3)
    from lexlab.families import enumerate_strongly_stable
    for member in enumerate_strongly_stable(spec):
        report = verify_main(member)
        assert report.verdict == "consistent"
        assert report.condition_i == report.condition_ii_on_window


def test_cli_verify_main_with_gin_prints_the_recorded_json(capsys):
    # the README example's report, recorded from the coordinate-trial route:
    # returning a strongly stable ideal as its own gin changes no byte
    code, out, _ = run(capsys, "verify-main", "--ring", "x,y,z", "--with-gin",
                       "--format", "json", EXAMPLE_TEXT)
    assert code == 0
    assert out == (Path(__file__).parent / "verify_main_with_gin.json").read_text()


@pytest.mark.parametrize("argv, recorded", [
    (("lc", "--ring", "x,y,z", EXAMPLE_TEXT, "--window=-6:4"), "lc_window_example.txt"),
    (("verify-main", "--ring", "x,y,z", "--with-gin", EXAMPLE_TEXT),
     "verify_main_with_gin.txt"),
])
def test_cli_readme_tables_print_the_recorded_text(capsys, argv, recorded):
    # recorded before the tables became display-only; the verify-main summary
    # prints the window, which is now built on first access
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (Path(__file__).parent / recorded).read_text()


@pytest.mark.parametrize("fmt, recorded, unused", [
    ("table", "verify_main_with_gin.txt", "to_json"),
    ("json", "verify_main_with_gin.json", "summary_lines"),
])
def test_cli_verify_main_renders_only_the_format_asked(capsys, monkeypatch, fmt, recorded,
                                                       unused):
    # the other format would spell out every generator of the ideal, the lex
    # ideal and both exchange sides once more, only to throw them away
    calls = []
    original = getattr(reports.VerificationReport, unused)
    monkeypatch.setattr(reports.VerificationReport, unused,
                        lambda self: calls.append(self) or original(self))
    code, out, _ = run(capsys, "verify-main", "--ring", "x,y,z", "--with-gin",
                       "--format", fmt, EXAMPLE_TEXT)
    assert (code, calls) == (0, [])
    assert out == (Path(__file__).parent / recorded).read_text()


def _count_report_calls(monkeypatch, *names):
    """Calls that `reports` makes to each named function, by name."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(reports, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(reports, name, wrapper)

    for name in names:
        counted(name)
    return calls


def test_verify_main_builds_tables_only_for_display(monkeypatch):
    # the exchange sides too: condition (i) is read from row 0 of the tables
    calls = _count_report_calls(monkeypatch, "local_cohomology_table", "default_window",
                                "exchange_property")
    family = [I for I in all_strongly_stable(R3, 3) if not I.is_zero]
    assert len(family) == 64
    built = [verify_main(I, include_gin=with_gin) for I in family for with_gin in (False, True)]
    built += [verify_main(I) for I in non_stable_ideals()]
    assert calls == {"local_cohomology_table": 0, "default_window": 0, "exchange_property": 0}
    monkeypatch.undo()
    for report in built:
        window = default_window(report.ideal, report.lex)
        assert report.to_json()["tables"] == {
            "ideal": local_cohomology_table(report.ideal, window).to_json(),
            "lex": local_cohomology_table(report.lex, window).to_json()}, report.ideal
        assert report.table_ideal is report.table_ideal
        sides = exchange_property(report.ideal)
        assert (report.sat_then_lex, report.lex_then_sat) == (sides.left, sides.right)
        assert report.condition_i == sides.holds, report.ideal


def _flipped(report):
    """A fresh report from `report`'s constructor arguments with condition
    (i) flipped, so it carries none of the original's cached display data:
    the first mismatch moves between None and row 0."""
    args = {name: getattr(report, name)
            for name in inspect.signature(reports.VerificationReport).parameters}
    args["first_mismatch"] = (0, 0) if report.condition_i else None
    return reports.VerificationReport(**args)


def test_verify_main_sides_cross_check_row_zero(capsys, monkeypatch):
    # a report whose (i) disagrees with its explicit sides is a bug: exit 3
    holds = verify_main(parse_ideal(EXAMPLE_TEXT, R3))
    fails = verify_main(MonomialIdeal(RingSpec(4), ((1, 0, 1, 0), (1, 0, 0, 1),
                                                    (0, 1, 1, 0), (0, 1, 0, 1))))
    assert holds.condition_i and not fails.condition_i
    for report in (holds, fails):
        for side in ("sat_then_lex", "lex_then_sat"):
            with pytest.raises(InternalInconsistency):
                getattr(_flipped(report), side)
        with pytest.raises(InternalInconsistency):
            _flipped(report).to_json()
    import lexlab.cli as cli

    def flipping(*args, **kwargs):
        return _flipped(verify_main(*args, **kwargs))

    monkeypatch.setattr(cli, "verify_main", flipping)
    code, out, err = run(capsys, "verify-main", "--ring", "x,y,z", EXAMPLE_TEXT)
    assert code == 3 and out == "" and "row 0" in err


def test_verify_main_rejects_bad_trials_before_any_lex_work(monkeypatch):
    calls = _count_report_calls(monkeypatch, "lex_ideal", "tables_agree")
    ideal = parse_ideal("x^4*y^4, z^5*w^3", parse_ring("x,y,z,w"))
    with pytest.raises(InvalidArgument):
        verify_main(ideal, include_gin=True, trials=1)
    assert calls == {"lex_ideal": 0, "tables_agree": 0}
    assert _exit_code(["verify-main", "--ring", "x,y,z,w", "--with-gin", "--trials", "1",
                       "x^4*y^4, z^5*w^3"]) == 2


def test_report_json_with_gin():
    ideal = parse_ideal(EXAMPLE_TEXT, R3)
    report = verify_main(ideal, include_gin=True, trials=2)
    data = json.loads(json.dumps(report.to_json()))
    assert ideal_from_json(data["gin"]) == report.gin == ideal
    assert report.condition_iii is False      # gin = I differs from the lex ideal
    assert data["condition_iii"] is False


# -- the README examples ------------------------------------------------------------


def _readme_blocks(language):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    return re.findall(rf"```{language}\n(.*?)```", readme, re.S)


def test_readme_cli_examples_exit_0(capsys):
    lines = [line for block in _readme_blocks("sh") for line in block.splitlines()
             if line.startswith("lexlab ")]
    assert len(lines) == 9
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_readme_library_example_gives_its_commented_results():
    (block,) = _readme_blocks("python")
    namespace = {}
    checked = []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        comment = block.splitlines()[stmt.end_lineno - 1].split("#", 1)[1].strip()
        result = str(eval(code, namespace))
        assert comment.startswith(result), (code, result, comment)
        checked.append(result)
    assert checked == ["(x^2, x*y, x*z, y^3, y^2*z, y*z^2)", "True", "{1: 2, 2: 2}"]
