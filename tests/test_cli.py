import json

import pytest

from symdet.circuits import classify, evaluate, measure, parse_circuit, render_circuit
from symdet.cli import main, parse_expression
from symdet.fields import PRIME_DEFAULT, RATIONAL, sample_random


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


def test_cli_detsym(capsys):
    code, out, err = run(["detsym", "--n", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0].endswith("symmetric")
    assert "<= 39" in err


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


def test_cli_bounds_csv(capsys):
    code, out, _ = run(["bounds", "--n", "2", "--d", "2"], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("n,d,")
    assert row == "2,2,7,10,6,8"


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


def test_cli_parse_reads_stdin(capsys, monkeypatch):
    import io

    text = render_circuit(parse_expression("x*y + 1"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["parse", "--json"])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["skinny"] == 2


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
