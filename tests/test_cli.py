import argparse
import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdet.circuits import classify, evaluate, measure, parse_circuit, render_circuit
from symdet.cli import main, parse_expression
from symdet.fields import PRIME_DEFAULT, RATIONAL, sample_random
from symdet.polynomials import expand_circuit, parse_polynomial


def num(n):
    return RATIONAL.from_int(n)


def test_parse_expression_single_variable():
    c = parse_expression("x")
    assert len(c.gates) == 1 and measure(c).skinny == 0
    assert evaluate(c, {"x": num(9)})[0] == num(9)


def test_parse_expression_fig1():
    c = parse_expression("(x+y)*(x+y) + 2*y*z")
    assert classify(c).is_formula
    point = {"x": num(1), "y": num(2), "z": num(3)}
    assert evaluate(c, point)[0] == num(21)


def test_parse_expression_green_scaling():
    c = parse_expression("2*(x+y)")
    assert measure(c).green == 1
    assert evaluate(c, {"x": num(3), "y": num(4)})[0] == num(14)


def test_parse_expression_subtraction():
    c = parse_expression("x - y - 1")
    assert evaluate(c, {"x": num(10), "y": num(3)})[0] == num(6)


def test_parse_expression_fractions_and_constants():
    c = parse_expression("1/2 * x + 5")
    assert evaluate(c, {"x": num(6)})[0] == num(8)


def test_parse_expression_syntax_error_has_position():
    from symdet.cli import SyntaxErrorAt

    with pytest.raises(SyntaxErrorAt):
        parse_expression("x + * y")
    with pytest.raises(SyntaxErrorAt):
        parse_expression("(x + y")


def test_parse_render_round_trip_random(rng):
    c = parse_expression("(x+y)*(x-y) + 3*z*z - 7")
    back = parse_circuit(render_circuit(c))
    for trial in range(5):
        point = {v: sample_random(PRIME_DEFAULT, rng) for v in c.variables}
        assert evaluate(c, point, PRIME_DEFAULT) == evaluate(back, point, PRIME_DEFAULT)


# -- subcommands ---------------------------------------------------------------


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_parse_json(capsys):
    code, out, _ = run(["parse", "--expr", "(x+y)*(x+y) + 2*y*z", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["is_formula"] is True
    assert report["is_weakly_skew"] is True
    assert report["skinny"] == 5


def test_cli_minimize_roundtrip(tmp_path, capsys):
    src = tmp_path / "c.circuit"
    src.write_text("vars x\ng0 = input x\ng1 = const 7\ng2 = add g0 g1*3\noutput g2\n")
    code, out, _ = run(["minimize", str(src)], capsys)
    assert code == 0
    mini = parse_circuit(out)
    assert evaluate(mini, {"x": num(1)})[0] == num(22)


@pytest.mark.parametrize("method,size", [("valiant", "skinny"), ("valiant", "fat"),
                                         ("sym", "fat"), ("ws-sym", "skinny"),
                                         ("ws-nonsym", "skinny")])
def test_cli_build_refuses_a_size_the_method_does_not_build(capsys, method, size):
    code, out, err = run(["build", "--expr", "x*y + 2", "--method", method,
                          "--size", size], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"--method {method} has no size {size}" in err


def test_cli_build_and_verify(tmp_path, capsys):
    circ = tmp_path / "f.circuit"
    circ.write_text(render_circuit(parse_expression("(x+y)*(x+y) + 2*y*z")))
    matrix = tmp_path / "out.matrix"
    code, _out, err = run(
        ["build", "--method", "sym", "--size", "green", str(circ),
         "-o", str(matrix)],
        capsys,
    )
    assert code == 0
    assert "dimension" in err
    code, out, _ = run(["verify", str(circ), str(matrix), "--seed", "7"], capsys)
    assert code == 0
    assert out.startswith("verified")


def test_cli_build_json_reports_bound(capsys):
    code, out, _ = run(
        ["build", "--method", "ws-nonsym", "--size", "fat",
         "--expr", "x*y + z", "--json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] <= report["bound"]
    assert report["matrix"]["dim"] == report["dimension"]


def test_cli_verify_detects_corruption(tmp_path, capsys):
    circ = tmp_path / "f.circuit"
    circ.write_text(render_circuit(parse_expression("x*y + z")))
    matrix = tmp_path / "m.matrix"
    code, _, _ = run(
        ["build", "--method", "sym", str(circ), "-o", str(matrix)], capsys
    )
    assert code == 0
    text = matrix.read_text().replace("1/2", "1")  # corrupt both mirror copies
    assert "1/2" not in text
    matrix.write_text(text)
    code, out, _ = run(
        ["verify", str(circ), str(matrix), "--seed", "1", "--json"], capsys
    )
    assert code == 1
    verdict = json.loads(out)
    assert verdict["status"] == "FAILED" and "witness" in verdict


def test_cli_sym_build_stderr_is_its_bound_line(capsys):
    code, out, err = run(["build", "--expr", "x*y + z", "--method", "sym"], capsys)
    dim = int(out.split()[0])
    assert code == 0
    assert re.fullmatch(rf"# sym \(skinny\): dimension {dim} <= \d+\n", err)


def test_cli_detsym(capsys):
    code, out, err = run(["detsym", "--n", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0].endswith("symmetric")
    assert "<= 39" in err


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cli_detsym_prints_the_library_matrix_and_its_bound_line(capsys, n):
    from symdet.determinant import det_sym_matrix
    from symdet.graphs import render_matrix

    m = det_sym_matrix(n)
    code, out, err = run(["detsym", "--n", str(n)], capsys)
    assert code == 0 and out == render_matrix(m)
    assert err == f"# determinant representation n={n}: dimension {m.dim} <= {4 * n**3 + 7}\n"


@pytest.mark.parametrize("field", ["gf2_16", "gf2:8"])
def test_cli_char2_square_prints_the_library_matrix_and_its_bound_line(capsys, field):
    """The square's bound is twice the ws-nonsym fat bound, 2m + 2."""
    from symdet.char2 import square_matrix_char2
    from symdet.cli import build_bound, field_from_flag
    from symdet.graphs import render_matrix

    expr = "(x+y)*(x+y) + x*y*z"
    c = parse_expression(expr, field_from_flag(field))
    m = square_matrix_char2(c)
    bound = 2 * build_bound("ws-nonsym", "fat", c)
    assert bound == 2 * len(c.gates) + 2
    code, out, err = run(["char2-square", "--expr", expr, "--field", field], capsys)
    assert code == 0 and out == render_matrix(m)
    assert err == f"# char-2 square: dimension {m.dim} <= {bound}\n"


@pytest.mark.parametrize("argv", [["build", "--expr", "x*y + z", "--method", "sym"],
                                  ["build", "--expr", "x*y + z", "--method", "ws-sym", "--json"],
                                  ["detsym", "--n", "1"]])
def test_cli_dot_write_fails_before_anything_is_printed(tmp_path, capsys, argv):
    dot = tmp_path / "missing" / "g.dot"
    code, out, err = run([*argv, "--dot", str(dot)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_detsym_dot_draws_the_program_it_closes(tmp_path, capsys, monkeypatch):
    import sys

    from symdet.determinant import build_det_abp as build
    from symdet.graphs import export_dot

    calls = []
    for name, module in list(sys.modules.items()):  # every binding of the builder
        if name.startswith("symdet") and getattr(module, "build_det_abp", None) is build:
            monkeypatch.setattr(module, "build_det_abp",
                                lambda *a, **k: calls.append(a) or build(*a, **k))
    dot = tmp_path / "g.dot"
    code, out, _ = run(["detsym", "--n", "2", "--dot", str(dot)], capsys)
    assert code == 0 and out.splitlines()[0].endswith("symmetric")
    assert len(calls) == 1
    assert dot.read_text() == export_dot(build(2).digraph)


@pytest.mark.parametrize("flags, status", [([], 0), (["--field", "gf2_16"], 0),
                                           (["--field", "p61"], 1), (["--field", "q"], 1)])
def test_cli_char2_square_builds_only_in_characteristic_2(capsys, flags, status):
    code, out, err = run(["char2-square", "--expr", "x*y + z", *flags], capsys)
    assert code == status
    if status:
        assert out == ""
        assert err.startswith("error: circuit lives in") and err.count("\n") == 1
    else:
        assert out.splitlines()[0] == "4 symmetric" and "dimension 4 <= 12" in err


@pytest.mark.parametrize("method", ["sym", "ws-sym"])
def test_cli_symmetric_build_refuses_characteristic_2(capsys, method):
    code, out, err = run(["build", "--expr", "x*y + z", "--method", method,
                          "--field", "gf2_16"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: symmetric closing needs 1/2") and err.count("\n") == 1


def test_cli_char2_square_and_verify(tmp_path, capsys):
    circ = tmp_path / "c.circuit"
    circ.write_text("vars x y\ng0 = input x\ng1 = input y\ng2 = add g0 g1\noutput g2\n")
    code, out, _ = run(["char2-square", str(circ), "--field", "gf2_16"], capsys)
    assert code == 0
    matrix = tmp_path / "m.matrix"
    matrix.write_text(out)
    code, out, _ = run(
        ["verify", str(circ), str(matrix), "--field", "gf2_16",
         "--test-field", "gf2_16", "--power", "2", "--seed", "3"],
        capsys,
    )
    assert code == 0


def test_cli_pperm(tmp_path, capsys):
    mfile = tmp_path / "b.matrix"
    mfile.write_text("2\na b\nc d\n")
    code, out, _ = run(["pperm", str(mfile), "--check-identity"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "a d" in lines[0] and "b c" in lines[0]
    assert lines[1].endswith("True")


def variable_matrix_text(n):
    return f"{n}\n" + "".join(
        " ".join(f"b{i}_{j}" for j in range(n)) + "\n" for i in range(n))


@pytest.mark.parametrize("text,method", [
    ("2\na b\nc d\n", "random, error <= 2^-280"),  # 20 log2(4 / 2^16)
    (variable_matrix_text(5), "random, error <= 2^-253"),  # 20 log2(10 / 2^16)
], ids=["n=2", "n=5"])
def test_cli_pperm_verdict_over_q_does_not_depend_on_n(tmp_path, capsys, text, method):
    mfile = tmp_path / "b.matrix"
    mfile.write_text(text)
    code, out, _ = run(["pperm", str(mfile), "--check-identity", "--field", "q",
                        "--seed", "4"], capsys)
    assert code == 0
    assert out.splitlines()[1] == f"det(A+I) == per*(B)^2 [{method}]: True"


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("field,entry", [("p61", "3"), ("q", "1/2")])
def test_cli_pperm_entry_without_image_in_test_field(tmp_path, capsys, n, field, entry):
    text = variable_matrix_text(n).replace("b0_0", entry, 1)
    mfile = tmp_path / "b.matrix"
    mfile.write_text(text)
    code, out, err = run(["pperm", str(mfile), "--check-identity", "--field", field],
                         capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert len(out.splitlines()) == 1  # per*(B) is printed before the check


def test_cli_bounds_csv(capsys):
    code, out, _ = run(["bounds", "--n", "2", "--d", "2"], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("n,d,")
    assert row == "2,2,7,10,6,8"


@pytest.mark.parametrize("argv", [["--n", "0", "--d", "1"],
                                  ["--n", "2", "--d", "0", "--table"]])
def test_cli_bounds_checks_n_and_d_before_printing(capsys, argv):
    code, out, err = run(["bounds", *argv], capsys)
    assert code == 1 and out == ""
    assert err == "error: need n, d >= 1\n"


def test_cli_demo_is_deterministic(capsys):
    code1, out1, _ = run(["demo"], capsys)
    code2, out2, _ = run(["demo"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "det(first 5x5 display) = 1 * y + 1 * x" in out1
    assert "rows 3 and 4 swapped) = 1 * y + 1 * x" in out1
    assert "2 * x y z" in out1


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--method", "nope", "--expr", "x"])
    assert exc.value.code == 2


def parse_outcome(parse, argv, capsys):
    """What ``parse`` makes of ``argv``: the namespace's items in order, the
    exit status it raised, or what it returned; then its stdout and stderr."""
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    if isinstance(result, argparse.Namespace):
        result = list(vars(result).items())
    out = capsys.readouterr()
    return result, out.out, out.err


# argv as ``main`` hands it to the parser, a leading-minus --expr joined to it
DISPATCH_ARGVS = [
    ["-h"], ["build", "-h"],
    ["build", "--expr=x"],                                   # --method missing
    ["build", "--expr=x", "--method", "sym", "--bogus"],     # an unknown option
    ["build", "--expr=x", "--method", "sym", "extra"],       # an extra positional
    ["bounds", "--n", "2", "--d", "2", "3"],
    ["build", "--expr=-x*y", "--method", "sym"],             # parses
    ["verify", "--expr=-x", "m.matrix", "--seed", "3", "--json"],
    ["build", "--expr=-x*y", "--method", "sym", "extra"],
    [], ["nosuch", "--n", "2"], ["--n", "2", "bounds"],      # no or an unknown subcommand
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=str)
def test_cli_dispatch_reads_argv_as_the_top_level_parser(argv, capsys):
    """Handing argv to the subcommand's own parser gives the top-level
    parser's namespace, or its exit status, usage and message; so does
    ``main`` wherever parsing ends the run."""
    from symdet.cli import _parse_args, _parser

    expected = parse_outcome(_parser().parse_args, argv, capsys)
    assert parse_outcome(_parse_args, argv, capsys) == expected
    if expected[0][0] == "exit":
        assert parse_outcome(main, argv, capsys) == expected


def test_cli_bad_file_exits_1(capsys):
    code, _, err = run(["parse", "/nonexistent/file.circuit"], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("text", ["3 symmetric\n0 x\nx 0\n", "1\nx\ny\n"])
def test_cli_verify_rejects_matrix_of_wrong_dimension(tmp_path, capsys, text):
    circ = tmp_path / "f.circuit"
    circ.write_text(render_circuit(parse_expression("x")))
    matrix = tmp_path / "m.matrix"
    matrix.write_text(text)
    code, _, err = run(["verify", str(circ), str(matrix), "--seed", "1"], capsys)
    assert code == 1
    assert err.startswith("error:") and "dimension" in err


@pytest.mark.parametrize("header", ["1 symetric extra", "1.0", "1 symmetric symmetric",
                                    "1 Symmetric", "+1", "-1", "x"])
def test_cli_verify_rejects_malformed_matrix_header(tmp_path, capsys, header):
    circ = tmp_path / "f.circuit"
    circ.write_text(render_circuit(parse_expression("x")))
    matrix = tmp_path / "m.matrix"
    matrix.write_text(f"{header}\nx\n")
    code, out, err = run(["verify", str(circ), str(matrix), "--seed", "1"], capsys)
    assert code == 1 and not out
    assert err == f"error: malformed matrix header '{header}'\n"


@pytest.mark.parametrize("token", ["2*", "-", "3*0x"])
def test_cli_verify_rejects_malformed_variable_token(tmp_path, capsys, token):
    circ = tmp_path / "f.circuit"
    circ.write_text(render_circuit(parse_expression("x")))
    matrix = tmp_path / "m.matrix"
    matrix.write_text(f"1\n{token}\n")
    code, out, err = run(["verify", str(circ), str(matrix), "--seed", "1"], capsys)
    assert code == 1 and "FAILED" not in out
    assert err.startswith("error:") and repr(token) in err


def test_cli_ci_mode_requires_seed(tmp_path, capsys):
    circ = tmp_path / "f.circuit"
    circ.write_text(render_circuit(parse_expression("x + y")))
    matrix = tmp_path / "m.matrix"
    code, _, _ = run(["build", "--method", "sym", str(circ), "-o", str(matrix)], capsys)
    assert code == 0
    code, _, err = run(["verify", "--ci", str(circ), str(matrix)], capsys)
    assert code == 1 and "--seed" in err
    code, out, _ = run(["verify", "--ci", "--seed", "4", str(circ), str(matrix)], capsys)
    assert code == 0


def test_cli_demo_matches_golden_file(capsys):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "demo.txt"
    code, out, _ = run(["demo"], capsys)
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("bad", ["", "()", "x*", "2**x", "x )", "x + "])
def test_parse_expression_rejects_malformed(bad):
    from symdet.cli import SyntaxErrorAt

    with pytest.raises(SyntaxErrorAt):
        parse_expression(bad)


def test_parse_expression_leading_minus():
    c = parse_expression("-x + 5")
    assert evaluate(c, {"x": num(2)})[0] == num(3)


def test_parse_expression_constant_only():
    c = parse_expression("7")
    assert evaluate(c, {})[0] == num(7)
    c = parse_expression("2*3 - 6")
    assert evaluate(c, {})[0] == num(0)


# a scalar left over at the top scales the first arrow of a product; a bare
# variable becomes the sum of its scaled arrow and a zero arrow from const 1
LEFTOVER_SCALAR = [
    ("-x*y", "-1 * x y", "vars x y\ng0 = input x\ng1 = input y\ng2 = mul g0*-1 g1\noutput g2\n"),
    ("3*(x*y)", "3 * x y", "vars x y\ng0 = input x\ng1 = input y\ng2 = mul g0*3 g1\noutput g2\n"),
    ("2*x", "2 * x", "vars x\ng0 = input x\ng1 = const 1\ng2 = add g0*2 g1*0\noutput g2\n"),
    ("-x", "-1 * x", "vars x\ng0 = input x\ng1 = const 1\ng2 = add g0*-1 g1*0\noutput g2\n"),
]


@pytest.mark.parametrize("expr, poly, rendered", LEFTOVER_SCALAR, ids=[e for e, *_ in LEFTOVER_SCALAR])
def test_parse_expression_applies_a_leftover_scalar(expr, poly, rendered):
    c = parse_expression(expr)
    assert expand_circuit(c)[0] == parse_polynomial(poly, c.variables)
    assert render_circuit(c) == rendered


@pytest.mark.parametrize("expr, poly, rendered", LEFTOVER_SCALAR, ids=[e for e, *_ in LEFTOVER_SCALAR])
def test_cli_parse_render_echoes_the_canonical_circuit(capsys, expr, poly, rendered):
    code, out, _ = run(["parse", f"--expr={expr}", "--render"], capsys)
    assert code == 0
    assert out.startswith("gates: 3\n") and out.endswith("\n" + rendered)


@pytest.mark.parametrize("command, expr", [
    (["parse"], "-x*y"), (["minimize"], "-x"), (["build", "--method", "valiant"], "-x"),
    (["char2-square"], "-x"), (["verify"], "-x"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_cli_expr_with_a_leading_minus_on_every_circuit_command(tmp_path, capsys, command, expr):
    """``--expr`` takes the next argument whatever it starts with, and reads
    it as ``--expr=<value>`` does."""
    matrix = tmp_path / "m.matrix"
    matrix.write_text("1\n-1*x\n")
    tail = [str(matrix)] if command == ["verify"] else []
    code, out, err = run(command + ["--expr", expr] + tail, capsys)
    assert code == 0 and out
    assert run(command + [f"--expr={expr}"] + tail, capsys) == (code, out, err)


def test_cli_expr_without_a_value_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--expr"])
    assert exc.value.code == 2
    assert "argument --expr: expected one argument" in capsys.readouterr().err


def test_cli_verify_symbolic_mismatch_exits_1(tmp_path, capsys):
    """det = x + p equals x in Z_p, p = 2^61 - 1, at every trial point, but
    not over Q, where the exact comparison runs."""
    matrix = tmp_path / "m.matrix"
    matrix.write_text("2\nx -2305843009213693951\n1 1\n")
    code, out, _ = run(["verify", "--expr", "x", str(matrix)], capsys)
    assert code == 1 and out.startswith("FAILED (dimension 2, ")


def test_cli_parse_reads_stdin(capsys, monkeypatch):
    import io

    text = render_circuit(parse_expression("x*y + 1"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["parse", "--json"])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["skinny"] == 2


class _UnreadableStdin:
    """A standard input whose every read fails the test."""

    def read(self, *args):
        pytest.fail("standard input was read")

    readline = readlines = __iter__ = read


def test_cli_verify_with_only_a_circuit_path_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """``verify c.circuit`` with the matrix forgotten: argparse gives the one
    path to ``matrix``, so it is a usage error naming the matrix argument,
    not a circuit read from standard input."""
    monkeypatch.setattr("sys.stdin", _UnreadableStdin())
    circ = tmp_path / "f.circuit"
    circ.write_text(X_CIRCUIT)
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(circ), "--seed", "1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: symdet verify ")
    assert out.err.endswith("symdet verify: error: the following arguments are required: matrix\n")


def test_cli_verify_with_a_circuit_path_and_expr_is_a_usage_error(tmp_path, capsys):
    """``verify c.circuit --expr E m.matrix``: argparse gives the circuit
    path to ``matrix`` and leaves the matrix over, so verify's own parser
    names the conflict, as ``parse c.circuit --expr E`` does."""
    circ = tmp_path / "f.circuit"
    circ.write_text(X_CIRCUIT)
    matrix = tmp_path / "m.matrix"
    matrix.write_text("1\nx\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(circ), "--expr", "x", str(matrix), "--seed", "1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: symdet verify ")
    assert out.err.endswith("symdet verify: error: give a circuit file or --expr, not both\n")


def test_cli_verify_reads_the_circuit_from_stdin_given_a_dash(tmp_path, capsys, monkeypatch):
    matrix = tmp_path / "m.matrix"
    matrix.write_text("1\nx\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(X_CIRCUIT))
    code, out, _ = run(["verify", "-", str(matrix)], capsys)
    assert code == 0 and out.startswith("verified-exact (dimension 1, ")
    monkeypatch.setattr("sys.stdin", _UnreadableStdin())
    code, out, _ = run(["verify", "--expr", "x", str(matrix)], capsys)
    assert code == 0 and out.startswith("verified-exact (dimension 1, ")


def test_cli_build_valiant_bound_uses_minimized_form(tmp_path, capsys):
    # the addition vanishes under minimization (1+1 folds), so the builder
    # takes the diagonal fallback; the reported bound must follow suit
    from symdet.circuits import CircuitBuilder

    b = CircuitBuilder()
    two = b.add(b.const(1), b.const(1))
    f = b.build([b.mul(b.mul(b.var("x"), b.var("y")), two)])
    circ = tmp_path / "c.circuit"
    circ.write_text(render_circuit(f))
    code, out, err = run(
        ["build", "--method", "valiant", str(circ), "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 3 and report["bound"] == 3


def test_cli_build_never_reports_spurious_bound_violation(tmp_path, capsys, rng):
    """The reported theorem bound must cover whatever the builder produces."""
    from symdet.circuits import random_circuit

    for i in range(25):
        profile = "formula" if i % 2 == 0 else "weakly-skew"
        c = random_circuit(profile, rng.randint(1, 12), 3, rng,
                           weighted=True, const_prob=0.3,
                           constant_pool=(1, -1, 2, 0, 5))
        if not any(g.kind == "input" for g in c.gates.values()):
            continue
        path = tmp_path / f"c{i}.circuit"
        path.write_text(render_circuit(c))
        methods = [("valiant", None), ("sym", "skinny"), ("sym", "green"),
                   ("ws-sym", "fat"), ("ws-sym", "green"),
                   ("ws-nonsym", "fat"), ("ws-nonsym", "green")]
        if profile == "weakly-skew":
            methods = methods[3:]
        for method, size in methods:
            argv = ["build", "--method", method, str(path), "--json"]
            if size:
                argv += ["--size", size]
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0, (i, method, size, out)
            report = json.loads(out)
            assert report["dimension"] <= report["bound"], (i, method, size)


X_CIRCUIT = "vars x\ng0 = input x\noutput g0\n"
HALF_CIRCUIT = "vars x\ng0 = input x\ng1 = const 1/2\ng2 = add g0 g1\noutput g2\n"
XY_PLUS_ONE = ("vars x y\ng0 = input x\ng1 = input y\ng2 = mul g0 g1\n"
               "g3 = const 1\ng4 = add g2 g3\noutput g4\n")


@pytest.mark.parametrize("circuit, matrix, flags", [
    (X_CIRCUIT, "1\n1/2\n", ["--field", "gf2_16"]),      # 1/2 has no inverse of 2
    (HALF_CIRCUIT, "1\nx\n", ["--test-field", "gf2_16"]),  # 1/2 does not embed
])
def test_cli_verify_field_errors_exit_1(tmp_path, capsys, circuit, matrix, flags):
    circ = tmp_path / "f.circuit"
    circ.write_text(circuit)
    mat = tmp_path / "m.matrix"
    mat.write_text(matrix)
    code, _, err = run(["verify", str(circ), str(mat), "--seed", "1", *flags], capsys)
    assert code == 1
    assert err.startswith("error:")


# the last three define a gate, the outputs or the variables a second time
@pytest.mark.parametrize("line", ["g1 = const 1/0", "g1 = add g0", "foo",
                                  "g0 = const 1", "output g0", "vars x y"])
def test_cli_malformed_circuit_line_exits_1(tmp_path, capsys, line):
    circ = tmp_path / "f.circuit"
    circ.write_text(f"vars x\ng0 = input x\n{line}\noutput g0\n")
    code, _, err = run(["parse", str(circ)], capsys)
    assert code == 1
    assert err.startswith("error:") and line.split()[-1] in err


@pytest.mark.parametrize("text, message", [
    ("vars x\ng0 = input x\noutput g0 g5\n", "output 5 is not a gate"),
    ("vars x\ng0 = input x\noutput g0 g0\n", "duplicate output gate"),
    ("vars x\ng0 = input x\ng1 = add g0 g7\noutput g1\n", "references missing gate 7"),
    ("vars x\ng0 = input x\ng1 = input y\ng2 = add g0 g1\noutput g2\n",
     "undeclared variables {'y'}"),
    ("vars x\ng0 = input x\n", "circuit needs at least one output"),
], ids=["output-not-a-gate", "duplicate-output", "missing-gate", "undeclared-variable",
        "no-output"])
def test_cli_structurally_invalid_circuit_exits_1(tmp_path, capsys, text, message):
    circ = tmp_path / "f.circuit"
    circ.write_text(text)
    code, out, err = run(["parse", str(circ)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


def test_cli_empty_expr_does_not_read_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(X_CIRCUIT))
    code, out, err = run(["parse", "--expr", ""], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_circuit_file_and_expr_exit_1(tmp_path, capsys):
    circ = tmp_path / "f.circuit"
    circ.write_text(X_CIRCUIT)
    code, out, err = run(["parse", str(circ), "--expr", "y"], capsys)
    assert code == 1 and out == ""
    assert err == "error: give a circuit file or --expr, not both\n"


def test_cli_parse_refuses_a_variable_name_with_a_star(tmp_path, capsys):
    """A name a matrix entry would read as a scaling is no variable name, so
    ``build`` cannot write a matrix that ``verify`` refuses."""
    circ = tmp_path / "f.circuit"
    circ.write_text("g0 = input a*b\ng1 = input c\ng2 = add g0 g1\noutput g2\n")
    code, out, err = run(["parse", str(circ)], capsys)
    assert code == 1 and out == ""
    assert err == "error: bad variable name 'a*b' in line 'g0 = input a*b'\n"


def test_cli_verify_refuses_a_scaled_entry_with_a_star_in_its_name(tmp_path, capsys):
    circ = tmp_path / "f.circuit"
    circ.write_text(render_circuit(parse_expression("2*a*b")))
    mat = tmp_path / "m.matrix"
    mat.write_text("1\n2*a*b\n")
    code, out, err = run(["verify", str(circ), str(mat), "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err == "error: malformed matrix entry '2*a*b': bad variable name 'a*b'\n"


def test_cli_malformed_matrix_constant_names_the_entry(tmp_path, capsys):
    circ = tmp_path / "f.circuit"
    circ.write_text(X_CIRCUIT)
    mat = tmp_path / "m.matrix"
    mat.write_text("1\n0x\n")
    code, _, err = run(["verify", str(circ), str(mat), "--field", "p61"], capsys)
    assert code == 1
    assert err == "error: malformed matrix entry '0x': malformed constant '0x'\n"


@pytest.mark.parametrize("line, message", [
    ("g1 = const 0x", "malformed constant '0x'"),
    ("g1 = add g0 gx", "expected gate reference, got 'gx'"),
])
def test_cli_malformed_circuit_token_names_token_and_line(tmp_path, capsys, line, message):
    circ = tmp_path / "f.circuit"
    circ.write_text(f"vars x\ng0 = input x\n{line}\ng2 = add g0 g1\noutput g2\n")
    code, _, err = run(["parse", str(circ), "--field", "p61"], capsys)
    assert code == 1
    assert err == f"error: {message} in line {line!r}\n"


def test_cli_constant_in_exponent_form_is_malformed_over_gf2_16(tmp_path, capsys):
    """1e5 is no constant in any field; over GF(2^16) it once read as 0."""
    circ = tmp_path / "f.circuit"
    circ.write_text("vars x\ng0 = input x\ng1 = const 1e5\ng2 = add g0 g1\noutput g2\n")
    code, out, err = run(["parse", str(circ), "--field", "gf2_16"], capsys)
    assert code == 1 and out == ""
    assert err == "error: malformed constant '1e5' in line 'g1 = const 1e5'\n"


def test_cli_malformed_expression_constant_names_the_token(capsys):
    code, _, err = run(["parse", "--expr", "x + 0x"], capsys)
    assert code == 1
    assert err == "error: malformed constant '0x' at position 4\n"


def test_cli_expression_nesting_is_bounded(capsys):
    from symdet.circuits import MAX_NESTING

    nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    code, _, _ = run(["parse", "--expr", nested], capsys)
    assert code == 0
    code, _, err = run(["parse", "--expr", f"({nested})"], capsys)
    assert code == 1
    assert err.startswith("error: expression nested too deeply")


@pytest.mark.parametrize("expr", ["", "x +", "(x"])
def test_cli_expression_names_its_end(capsys, expr):
    code, out, err = run(["parse", "--expr", expr], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "end of expression" in err and "None" not in err


@pytest.mark.parametrize("dim", [9, 8])
def test_cli_char2_square_bound_failure_is_an_error_line(capsys, monkeypatch, dim):
    """One bound check serves the three build subcommands.  x + y has 3
    gates, so its char-2 square bound is 8 and its ws-nonsym fat bound 4;
    DET_1's bound is 11.  A lowering that returns one row over the bound
    (dim 9) is an error line, one at the bound (dim 8) is emitted."""
    from symdet.cli import _BUILDERS, build_bound
    from symdet.determinant import det_sym_lowering
    from symdet.fields import GF2_16
    from symdet.graphs import SymbolicMatrix, Weight

    c = parse_expression("x + y")
    abp = det_sym_lowering(1)[1]
    # (argv, field, bound, label, patch: matrix -> (name, what the CLI calls))
    cases = [
        (["char2-square", "--expr", "x + y"], GF2_16, 8, "char-2 square",
         lambda m: ("symdet.cli.square_matrix_char2", lambda c: m)),
        (["detsym", "--n", "1"], RATIONAL, 11, "determinant representation n=1",
         lambda m: ("symdet.cli.det_sym_lowering", lambda n: (m, abp))),
        (["build", "--method", "ws-nonsym", "--size", "fat", "--expr", "x + y"], RATIONAL, 4,
         "ws-nonsym (fat)",
         lambda m: ("symdet.cli._BUILDERS", {**_BUILDERS, "ws-nonsym": (
             _BUILDERS["ws-nonsym"][0], lambda c, size: (m, None))})),
    ]
    assert [build_bound("char2-square", "fat", c), build_bound("detsym", 1),
            build_bound("ws-nonsym", "fat", c)] == [bound for _, _, bound, _, _ in cases]
    for argv, spec, bound, label, patch in cases:
        rows = dim - 8 + bound
        one = Weight.const(spec.one())
        identity = SymbolicMatrix([{i: one} for i in range(rows)], spec=spec, symmetric=True)
        monkeypatch.setattr(*patch(identity))
        code, out, err = run(argv, capsys)
        if rows > bound:
            assert code == 1 and out == ""
            assert err == f"error: dimension {rows} exceeds bound {bound}\n"
        else:
            assert code == 0 and out.startswith(f"{rows} symmetric\n")
            assert err == f"# {label}: dimension {rows} <= {bound}\n"


def test_cli_exact_verdict_refuses_a_constant_that_does_not_embed(tmp_path, capsys):
    """0x3 of GF(2^8) has no image in the GF(2^16) test field; the exact
    comparison of a small matrix refuses it as the randomized test does."""
    circ = tmp_path / "f.circuit"
    circ.write_text("vars x\ng0 = input x\ng1 = const 0x3\ng2 = add g0 g1\noutput g2\n")
    mat = tmp_path / "m.matrix"
    code, _, _ = run(["build", "--field", "gf2:8", "--method", "ws-nonsym", "--size", "fat",
                      str(circ), "-o", str(mat)], capsys)
    assert code == 0
    code, out, err = run(["verify", "--field", "gf2:8", str(circ), str(mat)], capsys)
    assert code == 1 and out == ""
    assert err == "error: cannot embed GF(2^8) element into GF(2^16)\n"


@pytest.mark.parametrize("name", ["3x", "-y", "+z"])
def test_cli_build_rejects_circuit_input_name_a_matrix_cannot_hold(tmp_path, capsys, name):
    """A name the matrix format reads back as a constant or a sign is
    refused where it enters, not after the matrix is written."""
    circ = tmp_path / "f.circuit"
    line = f"g0 = input {name}"
    circ.write_text(f"vars {name} w\n{line}\ng1 = input w\ng2 = add g0 g1\noutput g2\n")
    matrix = tmp_path / "m.matrix"
    for method in ("ws-nonsym", "ws-sym", "sym"):
        code, out, err = run(["build", "--method", method, str(circ), "-o", str(matrix)], capsys)
        assert code == 1 and out == "" and not matrix.exists()
        assert err.startswith("error:") and repr(name) in err and repr(line) in err


def test_cli_build_dot_draws_the_gadget_of_the_build(tmp_path, capsys):
    from symdet.formulas import build_sym_graph, build_valiant_digraph
    from symdet.graphs import export_dot
    from symdet.weakly_skew import build_ws_abp, build_ws_graph

    c = parse_expression("(x+y)*(x+y) + 2*y*z")
    circ = tmp_path / "f.circuit"
    circ.write_text(render_circuit(c))
    gadgets = {
        ("valiant", "green"): build_valiant_digraph(c).graph,
        ("sym", "skinny"): build_sym_graph(c, "skinny").graph,
        ("sym", "green"): build_sym_graph(c, "green").graph,
        ("ws-sym", "fat"): build_ws_graph(c, "fat").graph,
        ("ws-sym", "green"): build_ws_graph(c, "green").graph,
        ("ws-nonsym", "fat"): build_ws_abp(c, "fat").graph,
        ("ws-nonsym", "green"): build_ws_abp(c, "green").graph,
    }
    for (method, size), graph in gadgets.items():
        dot = tmp_path / f"{method}-{size}.dot"
        code, _, _ = run(["build", "--method", method, "--size", size, str(circ),
                          "--dot", str(dot)], capsys)
        assert code == 0
        assert dot.read_text() == export_dot(graph), (method, size)


def test_cli_build_dot_of_constant_circuit(tmp_path, capsys):
    # in green mode a variable-free circuit takes the 1x1 constant fallback
    # of the weakly skew lowerings, which has no gadget graph to draw
    circ = tmp_path / "f.circuit"
    circ.write_text("g0 = const 3\ng1 = const 4\ng2 = mul g0 g1\noutput g2\n")
    for method, drawn in [("valiant", True), ("sym", True), ("ws-sym", False),
                          ("ws-nonsym", False)]:
        dot = tmp_path / f"{method}.dot"
        code, out, _ = run(["build", "--method", method, "--size", "green", str(circ),
                            "--dot", str(dot)], capsys)
        assert code == 0, method
        assert dot.exists() == drawn, method
        if method.startswith("ws"):
            assert out == "1 symmetric\n12\n"


def test_cli_build_minimizes_at_most_once(tmp_path, capsys, monkeypatch,
                                          fig1_weakly_skew):
    import importlib

    module = importlib.import_module("symdet.minimize")  # symdet.minimize is the function
    rewrites = []
    rewrite = module._rewrite
    monkeypatch.setattr(module, "_rewrite", lambda c: rewrites.append(c) or rewrite(c))
    formula = tmp_path / "f.circuit"
    formula.write_text(render_circuit(parse_expression("(x+y)*(x+y) + 2*y*z + 3")))
    weakly_skew = tmp_path / "w.circuit"
    weakly_skew.write_text(render_circuit(fig1_weakly_skew))
    builds = [(formula, "valiant", "green"), (formula, "sym", "skinny"),
              (formula, "sym", "green")]
    builds += [(path, method, size) for path in (formula, weakly_skew)
               for method in ("ws-sym", "ws-nonsym") for size in ("fat", "green")]
    for path, method, size in builds:
        rewrites.clear()
        code, _, _ = run(["build", "--method", method, "--size", size, str(path),
                          "--dot", str(tmp_path / "g.dot")], capsys)
        assert code == 0
        # a green build shares one rewrite; skinny and fat sizes need none
        expected = 1 if size == "green" else 0
        assert len(rewrites) == expected, (path.name, method, size, len(rewrites))
    rewrites.clear()
    code, _, _ = run(["char2-square", "--expr", "x*y + z"], capsys)
    assert code == 0 and rewrites == []


def spy_on_symdet(monkeypatch, name) -> list[str]:
    """Record the module through which each call of the library function
    ``name`` goes, in every ``symdet`` module that binds it."""
    import sys

    import symdet.circuits

    fn = getattr(symdet.circuits, name)
    calls = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("symdet") and getattr(module, name, None) is fn:
            def spy(*args, _where=mod_name, **kwargs):
                calls.append(_where)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
    return calls


def test_cli_build_and_verify_check_a_rendered_formula_once(tmp_path, capsys, monkeypatch):
    """A rendered file is in topological order as read, so building a
    formula never sorts its gates nor classifies them (one count of readers
    says it is a formula), and only ``minimize`` validates, for green sizes,
    the circuit it writes; verifying sorts and validates nothing."""
    formula = tmp_path / "f.circuit"
    formula.write_text(render_circuit(parse_expression("(x+y)*(x+y) + 2*y*z + 3")))
    spies = {name: spy_on_symdet(monkeypatch, name)
             for name in ("classify", "topo_sort", "validate")}
    for method, size in (("valiant", "green"), ("sym", "skinny"), ("sym", "green")):
        matrix = tmp_path / f"{method}-{size}.mat"
        for calls in spies.values():
            calls.clear()
        code, _, _ = run(["build", str(formula), "--method", method, "--size", size,
                          "-o", str(matrix)], capsys)
        assert code == 0
        assert spies["classify"] == spies["topo_sort"] == [], (method, size)
        assert spies["validate"] == (["symdet.minimize"] if size == "green" else []), (
            method, size)
        for calls in spies.values():
            calls.clear()
        code, out, _ = run(["verify", str(formula), str(matrix), "--seed", "1"], capsys)
        assert code == 0 and out.startswith("verified")
        assert spies["validate"] == spies["topo_sort"] == [], (method, size)


def test_cli_module_runs_without_warnings():
    # importing symdet must not import symdet.cli, or ``python -m symdet.cli``
    # warns that the module was already in sys.modules
    import os
    import pathlib
    import subprocess
    import sys

    import symdet

    src = str(pathlib.Path(symdet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "symdet.cli", "bounds", "--n", "2", "--d", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n,d,")


TEN_PRODUCTS = "a*b+c*d+e*f+g*h+a*c+b*d+e*g+f*h+a*h+b*g"


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-5", "--json"]])
def test_cli_verify_rejects_fewer_than_one_trial(tmp_path, capsys, flags):
    one = tmp_path / "one.matrix"
    one.write_text("1\n1\n")
    code, out, err = run(["verify", "--expr", TEN_PRODUCTS, str(one), *flags], capsys)
    assert code == 1
    assert out == "" and err.startswith("error:") and "trial" in err


def test_cli_verify_states_error_bound(tmp_path, capsys):
    matrix = tmp_path / "m.matrix"
    code, _, _ = run(["build", "--method", "sym", "--expr", TEN_PRODUCTS, "-o", str(matrix)],
                     capsys)
    assert code == 0
    verify = ["verify", "--expr", TEN_PRODUCTS, str(matrix), "--seed", "3"]
    code, out, _ = run(verify + ["--json"], capsys)
    verdict = json.loads(out)
    # the determinant's degree is at most the number of rows holding a
    # variable: one per leaf of the ten products, plus one more
    assert code == 0 and verdict["degree_bound"] == 22 < verdict["dimension"]
    bound = math.ceil(verdict["error_bound_log2"])
    assert bound < -1000
    code, out, _ = run(verify, capsys)
    assert code == 0
    assert out == (f"verified-random (dimension {verdict['dimension']}, field Z_{PRIME_DEFAULT.p},"
                   f" trials 20, error <= 2^{bound})\n")


def test_cli_verify_power_0_of_the_empty_matrix(tmp_path, capsys):
    """det of the 0x0 matrix is 1 = 1^0; both sides are constants, and the
    stated bound takes degree 1, not log2(0)."""
    empty = tmp_path / "z.matrix"
    empty.write_text("0\n")
    code, out, err = run(["verify", "--expr", "1", str(empty), "--power", "0"], capsys)
    assert code == 0 and err == ""
    assert out.startswith("verified-random (dimension 0,")


def test_cli_exact_verdict_names_the_field_it_compared_in(tmp_path, capsys):
    """The exact path compares over the matrix's field, Q here, not the
    test field Z_p it would have drawn points from."""
    matrix = tmp_path / "m.matrix"
    code, _, _ = run(["build", "--method", "valiant", "--expr", "x*y + z", "-o", str(matrix)],
                     capsys)
    assert code == 0
    verify = ["verify", "--expr", "x*y + z", str(matrix), "--seed", "1"]
    code, out, _ = run(verify, capsys)
    assert code == 0 and out == "verified-exact (dimension 2, field Q, trials 0)\n"
    code, out, _ = run(verify + ["--json"], capsys)
    assert code == 0 and json.loads(out)["field"] == "Q"


# -- test fields ---------------------------------------------------------------


@pytest.mark.parametrize("test_field", ["p:7", "gf2", "gf2:8"])
def test_cli_verify_in_too_small_a_field_exits_1(tmp_path, capsys, test_field):
    circ = tmp_path / "f.circuit"
    circ.write_text(X_CIRCUIT)
    mat = tmp_path / "m.matrix"
    mat.write_text("1\nx\n")
    code, out, err = run(["verify", str(circ), str(mat), "--test-field", test_field], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "2^16" in err


def test_cli_verify_over_q_names_the_finite_field_it_needs(tmp_path, capsys):
    """Q is refused for being infinite, not small: the trials sample points."""
    mat = tmp_path / "m.matrix"
    mat.write_text("1\nx\n")
    code, out, err = run(["verify", "--expr", "x", str(mat), "--test-field", "q"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: identity testing samples from a finite field, not Q\n"


def test_cli_pperm_beyond_the_symbolic_cap_exits_1(tmp_path, capsys):
    mfile = tmp_path / "b.matrix"
    mfile.write_text(variable_matrix_text(9))
    code, out, err = run(["pperm", str(mfile)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "8x8" in err


def test_cli_pperm_over_gf2_is_tested_in_gf2_16(tmp_path, capsys):
    mfile = tmp_path / "b.matrix"
    mfile.write_text(variable_matrix_text(5).replace("b2_3", "1"))
    code, out, _ = run(["pperm", str(mfile), "--field", "gf2", "--check-identity",
                        "--seed", "2"], capsys)
    assert code == 0
    # 20 log2(10 / 2^16), where testing in GF(2) itself stated 2^47
    assert out.splitlines()[1] == "det(A+I) == per*(B)^2 [random, error <= 2^-253]: True"


def test_cli_verify_over_gf2_is_tested_in_gf2_16(tmp_path, capsys):
    circ = tmp_path / "f.circuit"
    circ.write_text(XY_PLUS_ONE)
    code, out, _ = run(["char2-square", str(circ), "--field", "gf2"], capsys)
    assert code == 0
    mat = tmp_path / "m.matrix"
    mat.write_text(out)
    code, out, _ = run(["verify", str(circ), str(mat), "--field", "gf2", "--power", "2",
                        "--seed", "3", "--json"], capsys)
    verdict = json.loads(out)
    assert code == 0 and verdict["status"] == "verified-random"
    assert verdict["field"] == "GF(2^16)" and verdict["trials"] == 40
    assert verdict["error_bound_log2"] < -400


def test_cli_pperm_constant_outside_gf2_of_small_field_exits_1(tmp_path, capsys):
    """A GF(2^8) matrix is tested in GF(2^16), into which only its constants
    0 and 1 embed."""
    mfile = tmp_path / "b.matrix"
    mfile.write_text("2\n0x3 a\nb c\n")
    code, out, err = run(["pperm", str(mfile), "--field", "gf2:8", "--check-identity"],
                         capsys)
    assert code == 1
    assert len(out.splitlines()) == 1  # per*(B) is printed before the check
    assert err.startswith("error: cannot embed")
    mfile.write_text("2\n1 a\nb c\n")
    code, out, _ = run(["pperm", str(mfile), "--field", "gf2:8", "--check-identity"],
                       capsys)
    assert code == 0 and out.splitlines()[1].endswith("]: True")


@pytest.mark.parametrize("field", ["gf2:1", "gf2:5"])
def test_cli_builds_over_any_small_binary_field(field, capsys):
    """GF(2) itself, and degrees the default moduli were never listed for."""
    code, out, _ = run(["build", "--expr", "x*y+x", "--method", "ws-nonsym",
                        "--field", field], capsys)
    assert code == 0 and out.startswith("2\n")


def test_cli_binary_degree_without_default_modulus_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--expr", "x", "--method", "ws-nonsym", "--field", "gf2:65"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --field: no default modulus for GF(2^65); pass one\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, reason", [
    ("p:1", "1 is not prime"),
    ("p:1763", "1763 is not prime"),  # 41 * 43: a Miller-Rabin witness refuses it
    ("gf2:0", "binary field degree must be >= 1"),
    ("zz", "unknown field 'zz'"),
])
def test_cli_refused_field_says_why(field, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--expr", "x", "--field", field])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(f"symdet parse: error: argument --field: {reason}\n")


def test_cli_detsym_refuses_n_below_1(capsys):
    code, out, err = run(["detsym", "--n", "0"], capsys)
    assert (code, out, err) == (1, "", "error: need n >= 1\n")


def test_build_bound_refuses_an_unknown_method():
    from symdet.cli import build_bound

    with pytest.raises(ValueError, match="unknown method 'green'"):
        build_bound("green", "fat", parse_expression("x*y"))


def test_cli_z2_square_verifies_and_pperm_checks(tmp_path, capsys):
    """Z_2 is GF(2): its matrices are tested in GF(2^16), which contains it."""
    code, out, _ = run(["char2-square", "--expr", "x*y+z", "--field", "p:2"], capsys)
    assert code == 0
    mat = tmp_path / "m.matrix"
    mat.write_text(out)
    verify = ["verify", "--expr", "x*y+z", str(mat), "--field", "p:2", "--power", "2"]
    code, out, _ = run(verify, capsys)
    assert code == 0 and out.startswith("verified-random") and "GF(2^16)" in out
    lines = mat.read_text().splitlines()
    assert lines[:2] == ["4 symmetric", "0 0 z y"]
    lines[:2] = ["4", "0 0 z x"]  # one entry changed, so no longer symmetric
    mat.write_text("\n".join(lines) + "\n")
    code, out, _ = run(verify, capsys)
    assert code == 1 and out.startswith("FAILED")
    bfile = tmp_path / "b.matrix"
    bfile.write_text("2\nx y\nz 1\n")
    code, out, _ = run(["pperm", str(bfile), "--field", "p:2", "--check-identity"], capsys)
    assert code == 0 and out.splitlines()[1].endswith("]: True")


# -- fuzzing the pperm / verify boundary ---------------------------------------

FUZZ_FIELDS = ("gf2", "gf2:8", "gf2_16", "q", "p61")
FUZZ_TOKENS = (
    "0", "x", "y", "b",                                        # valid everywhere
    "1", "0x3", "0x80", "0x1f", "0x8001", "-1", "3", "1/3", "-2", "5",  # field constants
    "3*x", "0x1f*y", "1/3*b",                                  # scaled variables
    "2*", "-", "1/0", "0x",                                    # malformed
)


@st.composite
def matrix_texts(draw):
    """Matrix files of dimension 0-4: mostly well formed, some with ragged
    rows or a wrong header."""
    n = draw(st.integers(0, 4))
    header = draw(st.one_of(st.just(str(n)), st.just(f"{n} symmetric"),
                            st.sampled_from([str(n + 1), "x", "-1", ""])))
    widths = st.integers(max(n - 1, 0), n + 1) if draw(st.booleans()) else st.just(n)
    rows = [draw(st.lists(st.sampled_from(FUZZ_TOKENS), min_size=w, max_size=w))
            for w in draw(st.lists(widths, min_size=n, max_size=n))]
    return header + "\n" + "".join(" ".join(row) + "\n" for row in rows)


@settings(max_examples=150, deadline=None)
@given(text=matrix_texts(), field=st.sampled_from(FUZZ_FIELDS))
def test_cli_pperm_and_verify_exit_cleanly_on_any_matrix_text(text, field):
    with tempfile.TemporaryDirectory() as tmp:
        circ, mat = Path(tmp) / "f.circuit", Path(tmp) / "m.matrix"
        circ.write_text(XY_PLUS_ONE)
        mat.write_text(text)
        for argv in (["pperm", str(mat), "--check-identity"],
                     ["verify", str(circ), str(mat)]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--field", field, "--seed", "1"])
            assert code in (0, 1), (argv, text)
