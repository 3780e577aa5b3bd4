"""Fuzzing the circuit, expression and matrix parsers.

Token-soup circuit files and ``--expr`` strings go through the parsers in
process, where a parser returns or raises one of the library's error
classes, and through ``symdet.cli.main``, where every input ends in exit
status 0, or 1 with exactly one ``error:`` line.  Token-soup matrix files go
through ``parse_matrix`` in process, where a matrix that parses renders to
text that parses back to it.  Rendered circuits with mutated tokens check
the gate lines ``parse_circuit`` reads by pattern against a line-by-line
reading of the same file.

The differential property draws small weighted circuits, with 0 among their
constants and arrow weights, over Q, Z_p and GF(2^16), and builds each with
every method and size of ``symdet build`` that accepts it, and with
``char2-square`` in characteristic 2: every matrix must respect its bound and
pass ``identity_test``, every certificate of at most 12 vertices its
audit, and every symmetric matrix must get the same lanes from the
symmetric elimination that verifies it as from the general one.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from symdet.char2 import square_matrix_char2
from symdet.circuits import (
    COMPUTATION,
    CONST,
    VAR,
    Circuit,
    CircuitError,
    Gate,
    classify,
    is_variable_name,
    parse_circuit,
    parse_expression,
    random_circuit,
    render_circuit,
    topo_sort,
    validate,
)
from symdet.cli import _BUILDERS, build_bound, field_from_flag, main
from symdet.fields import GF2_16, PRIME_DEFAULT, RATIONAL, FieldError, parse_element, sample_lanes
from symdet.graphs import parse_matrix, render_matrix
from symdet.oracles import check_abp_certificate, check_symmetric_certificate
from symdet.verify import CompiledMatrix, _lockstep_det, _symmetric_det, identity_test

FIELDS = ("q", "p61", "gf2", "gf2_16")
PARSE_ERRORS = (CircuitError, ValueError, FieldError)
FUZZ = settings(max_examples=150, deadline=2000, derandomize=True)

CIRCUIT_TOKENS = (
    "g0", "g1", "g3", "g7", "=", "input", "const", "add", "mul", "vars", "output", "x", "y", "z",
    "1", "-1", "2", "1/2", "0x3", "g1*2", "g0*-1", "g2*1/3",   # well formed
    "g", "g-1", "g2*", "*", "1/0", "0x", "x*y", "#", "add3", "ÿ",  # malformed
)
BUILDS = (
    ["--method", "valiant"], ["--method", "sym"], ["--method", "sym", "--size", "green"],
    ["--method", "ws-sym"], ["--method", "ws-nonsym", "--size", "green"],
)


@st.composite
def circuit_texts(draw):
    """A circuit file of up to 7 gates, mostly well formed, with up to two
    corruptions: a line replaced by token soup, a token replaced, a line
    dropped or repeated."""
    lines, unread = [], []
    for i in range(draw(st.integers(1, 7))):
        if len(unread) < 2 or draw(st.booleans()):
            kind = draw(st.sampled_from(("input", "const")))
            value = ("x", "y", "z") if kind == "input" else ("1", "-1", "2", "1/2", "0x3")
            lines.append(f"g{i} = {kind} {draw(st.sampled_from(value))}")
        else:
            # arguments not yet read, or now and then any earlier gate
            args = [unread.pop(draw(st.integers(0, len(unread) - 1))) if draw(st.booleans())
                    else draw(st.integers(0, i - 1)) for _ in range(2)]
            weights = [draw(st.sampled_from(("", "", "*2", "*-1", "*1/2"))) for _ in args]
            op = draw(st.sampled_from(("add", "mul")))
            lines.append(f"g{i} = {op} g{args[0]}{weights[0]} g{args[1]}{weights[1]}")
        unread.append(i)
    lines.append("output " + " ".join(f"g{j}" for j in sorted(set(unread))))
    if draw(st.booleans()):
        lines.insert(0, "vars " + " ".join(draw(st.lists(st.sampled_from("xyz"), max_size=3))))
    soup = st.lists(st.sampled_from(CIRCUIT_TOKENS), max_size=5).map(" ".join)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(("soup", "token", "drop", "repeat")))
        if how == "soup":
            lines[at] = draw(soup)
        elif how == "token":
            tokens = lines[at].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(CIRCUIT_TOKENS))
            lines[at] = " ".join(tokens)
        elif how == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
        if not lines:
            break
    return "".join(line + "\n" for line in lines)


def reference_parse_circuit(text, spec):
    """The line parser that checks nothing a line's form does not, then
    the whole of ``validate``: the slow path ``parse_circuit`` must agree
    with, gate for gate and message for message."""
    gates, outputs, variables = {}, None, None

    def gid_of(token):
        if not (token.startswith("g") and token[1:].isdecimal()):
            raise ValueError(f"expected gate reference, got {token!r}")
        return int(token[1:])

    def arg_of(token):
        if "*" in token:
            gtok, wtok = token.split("*", 1)
            return gid_of(gtok), parse_element(wtok, spec)
        return gid_of(token), spec.one()

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars "):
            if variables is not None:
                raise CircuitError(f"second vars line {raw!r}")
            variables = line.split()[1:]
            continue
        try:
            if line.startswith("output"):
                if outputs is not None:
                    raise CircuitError(f"second output line {raw!r}")
                outputs = [gid_of(t) for t in line.split()[1:]]
                continue
            lhs, eq, rhs = line.partition("=")
            toks = rhs.split()
            kind = toks[0] if toks else None
            if not eq or len(toks) != (2 if kind in ("input", "const") else 3):
                raise CircuitError(f"malformed gate line {raw!r}")
            gid = gid_of(lhs.strip())
            if gid in gates:
                raise CircuitError(f"gate g{gid} defined again in line {raw!r}")
            if kind == "input":
                if not is_variable_name(toks[1]):
                    raise CircuitError(f"bad variable name {toks[1]!r} in line {raw!r}")
                gates[gid] = Gate(gid, VAR, name=toks[1])
            elif kind == "const":
                gates[gid] = Gate(gid, CONST, value=parse_element(toks[1], spec))
            elif kind in COMPUTATION:
                gates[gid] = Gate(gid, kind, args=(arg_of(toks[1]), arg_of(toks[2])))
            else:
                raise CircuitError(f"unknown gate kind {kind!r} in line {raw!r}")
        except ValueError as exc:
            raise CircuitError(f"{exc} in line {raw!r}") from None
    return validate(Circuit(gates, outputs or [], spec=spec, variables=variables))


def parsed_or_raised(parse, text, spec):
    """What ``parse`` makes of ``text``: the circuit's gates, outputs,
    variables and topological order, or the type and message it raised."""
    try:
        c = parse(text, spec)
    except PARSE_ERRORS as exc:
        return type(exc), str(exc)
    return c.gates, c.outputs, c.variables, c.topo_order()


@st.composite
def shuffled_render_texts(draw):
    """A rendered random circuit with its gate lines shuffled: arguments
    that come later in the file, a case the render order never has."""
    c = random_circuit(draw(st.sampled_from(("formula", "weakly-skew"))),
                       draw(st.integers(1, 12)), 3, draw(st.randoms(use_true_random=False)),
                       const_prob=0.3, weighted=draw(st.booleans()))
    lines = render_circuit(c).splitlines()
    head, gates, tail = lines[:1], lines[1:-1], lines[-1:]
    return "".join(line + "\n" for line in head + draw(st.permutations(gates)) + tail)


@FUZZ
@given(text=st.one_of(circuit_texts(), shuffled_render_texts()),
       field=st.sampled_from(FIELDS))
@example(text="vars x\ng0 = input x\ng1 = add g0 g7\noutput g9\n", field="q")
@example(text="vars x\ng1 = add g0 g0\ng0 = input x\n", field="q")
@example(text="vars x\ng0 = input x\ng1 = input y\noutput g0\n", field="q")
@example(text="vars x y\ng0 = input x\ng1 = input y\noutput g0\n", field="q")
@example(text="g0 = input x\ng1 = add g0 g2\ng2 = mul g1 g0\noutput g2 g2\n", field="q")
@example(text="g0 = input x\ng1 = add g0 g2\ng2 = mul g1 g0\noutput g2\n", field="q")
def test_parse_circuit_agrees_with_the_line_parser_and_validate(text, field):
    """The one-pass reader against the reference: the same circuit and
    topological order, the walk's postorder, or the same error.  The
    examples hold two faults each, so the first one reported must be the
    reference's: a missing argument and an output that is no gate, no
    output and a later argument, an undeclared variable and a dead gate, a
    dead gate alone, a cycle and a repeated output, a cycle alone."""
    spec = field_from_flag(field)
    got = parsed_or_raised(parse_circuit, text, spec)
    assert got == parsed_or_raised(reference_parse_circuit, text, spec)
    if isinstance(got[0], dict):
        assert list(got[3]) == topo_sort({gid: g.args for gid, g in got[0].items()})


# spellings of whitespace: the pattern of a gate line must split and strip
# as ``str.split`` and ``str.strip`` do
SPACES = (" ", "  ", "\t", " \t", "\xa0", "\u2003", "\x1f", "\x0b")
# a gate reference spelled every way, the weights among them
REFERENCE_FORMS = ("g{}", "g{}*2", "g{}*-1", "g{}*1/2", "g{}*0x3", "g{}*1/0", "g{}*x",
                   "g{}*", "g{}*2*3", "g0{}", "g", "gx", "g-{}", "G{}", "g{}.0", "g{} ",
                   "g\u0663", "g{}\u0663", "g\U0001d7d9", "g{}#*2", "g{}*2#x")
TOKEN_FORMS = ("add", "mul", "input", "const", "output", "vars", "=", "x", "y", "1", "-1",
               "1/2", "0x3", "\u0663", "x#", "add3", "ÿ", "g1=", "=g1")


@st.composite
def mutated_render_texts(draw):
    """A rendered random circuit whose lines have their tokens mutated:
    odd whitespace, weighted and malformed references, Unicode digits, a
    repeated gate id, tokens replaced, added or dropped, comments."""
    c = random_circuit(draw(st.sampled_from(("formula", "weakly-skew"))),
                       draw(st.integers(1, 8)), 3, draw(st.randoms(use_true_random=False)),
                       const_prob=0.3, weighted=draw(st.booleans()))
    lines = render_circuit(c).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split(" ")
        i = draw(st.integers(0, len(tokens) - 1))
        how = draw(st.sampled_from(("space", "reference", "token", "extra", "drop", "id",
                                    "comment")))
        if how == "space":
            seps = [draw(st.sampled_from(SPACES + ("",))) for _ in tokens]
            lines[at] = draw(st.sampled_from(SPACES + ("",))) + "".join(
                t + sep for t, sep in zip(tokens, seps))
            continue
        if how == "reference":
            tokens[i] = draw(st.sampled_from(REFERENCE_FORMS)).format(draw(st.integers(0, 9)))
        elif how == "token":
            tokens[i] = draw(st.sampled_from(TOKEN_FORMS))
        elif how == "extra":
            tokens.insert(i, draw(st.sampled_from(TOKEN_FORMS + REFERENCE_FORMS[:3])).format(1))
        elif how == "drop":
            del tokens[i]
        elif how == "id":
            tokens[0] = f"g{draw(st.integers(0, len(lines)))}"
        else:
            tokens.insert(i, "#" + draw(st.sampled_from(TOKEN_FORMS)))
        lines[at] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


@FUZZ
@given(text=mutated_render_texts(), field=st.sampled_from(FIELDS))
@example(text="vars x\ng0 =\tinput  x\t\ng1\xa0=  add g0*2 g0 # c\noutput g1\n", field="q")
@example(text="vars x\ng0 = input x\ng1 = add g0*2*3 g0\noutput g1\n", field="q")
@example(text="vars x\ng0 = input x\ng1 = add g0* g0\noutput g1\n", field="q")
@example(text="vars x\ng0 = input x\ng\u0661 = add g0 g\u0660\noutput g1\n", field="q")
@example(text="vars x\ng0 = input x\ng0 = const 1\noutput g0\n", field="q")
@example(text="vars x\ng0 = input x\ng1 = mul g0 g0 g0\noutput g1\n", field="q")
@example(text="vars x\ng0 = input x y\noutput g0\n", field="q")
@example(text="vars x\ng0 = input x\ng1 = const 0x3#x\ng2 = add g0 g1*1/0\noutput g2\n",
         field="p61")
@example(text="vars x\ng0 = input x\ng1 = add g0*2#x g0\noutput g1\n", field="q")
@example(text="vars x\ng0 = input -x\noutput g0\n", field="q")
@example(text="vars x\ng0 = input x\ng1 = add g0 g2\ng2 = input x\noutput g1\n", field="q")
@example(text="vars x\ng\u0661 = input x\noutput g1\n", field="q")
@example(text="vars x\ng0 = input x\ng\U0001d7d9 = const 3\ng2 = add g0 g\u0661\noutput g2\n",
         field="q")
@example(text="vars x\ng0 = input x\ng1 = input x\ng2 = mul g\u0660*2 g\U0001d7d9*1/3\n"
         "output g2\n", field="q")
@example(text="vars x y\ng0 = input x\ng1 = input y\ng2 = add g0* g1\noutput g2\n", field="q")
def test_parse_circuit_fast_path_agrees_with_the_line_parser(text, field):
    """The pattern-matched gate lines against a line-by-line reading of the
    same file (``reference_parse_circuit``): the same gates, outputs,
    variables and order, or the same error and message, whichever line the
    pattern takes and whichever it leaves to the per-line checks."""
    spec = field_from_flag(field)
    assert (parsed_or_raised(parse_circuit, text, spec)
            == parsed_or_raised(reference_parse_circuit, text, spec))


EXPRESSIONS = st.lists(
    st.sampled_from(("x", "y", "z2", "(", ")", "+", "-", "*", " ", "2", "1/2", "0x3",
                     "1/0", "3x", "/", "^", "_", ".", "é")),
    max_size=12,
).map("".join)


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(argv, code: int, err: str) -> None:
    assert code in (0, 1), (argv, code)
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


@FUZZ
@given(text=circuit_texts(), field=st.sampled_from(FIELDS))
def test_parse_circuit_returns_or_raises_a_parse_error(text, field):
    try:
        parse_circuit(text, field_from_flag(field))
    except PARSE_ERRORS:
        pass


@FUZZ
@given(text=circuit_texts(), field=st.sampled_from(FIELDS), build=st.sampled_from(BUILDS))
def test_cli_exits_cleanly_on_any_circuit_text(text, field, build):
    with tempfile.TemporaryDirectory() as tmp:
        circ = Path(tmp) / "f.circuit"
        circ.write_text(text)
        for argv in (["parse", str(circ)], ["minimize", str(circ)],
                     ["build", str(circ), *build]):
            argv += ["--field", field]
            assert_clean_exit(argv, *run_cli(argv))


@FUZZ
@given(expr=EXPRESSIONS, field=st.sampled_from(FIELDS))
def test_parse_expression_returns_or_raises_a_parse_error(expr, field):
    try:
        parse_expression(expr, field_from_flag(field))
    except PARSE_ERRORS:
        pass


@FUZZ
@given(expr=EXPRESSIONS, field=st.sampled_from(FIELDS))
def test_cli_parse_expr_exits_cleanly(expr, field):
    argv = ["parse", f"--expr={expr}", "--field", field]
    assert_clean_exit(argv, *run_cli(argv))


MATRIX_FIELDS = ("q", "p61", "gf2_16")
MATRIX_TOKENS = (
    "0", "0", "x", "y", "b1_2", "1", "-1", "2", "1/2", "0x3", "0x1F", "3*x", "-1*y", "1/3*b1_2",
    "0x3*x", "0*x",                                                   # well formed
    "x*", "*x", "1/0", "0x", "0xZZ", "2**x", "x*y", "1/2/3", "--1", "1e3", "0x10001", "٣", "é",
    "3x", "symmetric",                                                # malformed
)


@st.composite
def matrix_texts(draw):
    """A matrix file of dimension 0-4, mostly well formed, symmetric when its
    header says so, with up to two corruptions: a header or a row replaced
    by token soup, a token replaced, a row dropped or repeated."""
    n = draw(st.integers(0, 4))
    symmetric = draw(st.booleans())
    cells = [[draw(st.sampled_from(MATRIX_TOKENS[:16])) for _ in range(n)] for _ in range(n)]
    if symmetric:
        cells = [[cells[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    lines = [f"{n} symmetric" if symmetric else str(n)] + [" ".join(row) for row in cells]
    soup = st.lists(st.sampled_from(MATRIX_TOKENS + ("4", "symmetric", "-2", "")),
                    max_size=5).map(" ".join)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(("soup", "token", "drop", "repeat")))
        if how == "soup":
            lines[at] = draw(soup)
        elif how == "token":
            tokens = lines[at].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(MATRIX_TOKENS))
            lines[at] = " ".join(tokens)
        elif how == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
        if not lines:
            break
    return "".join(line + "\n" for line in lines)


@FUZZ
@given(text=matrix_texts(), field=st.sampled_from(MATRIX_FIELDS))
def test_parse_matrix_returns_or_raises_a_parse_error(text, field):
    spec = field_from_flag(field)
    try:
        m = parse_matrix(text, spec)
    except PARSE_ERRORS:
        return
    again = parse_matrix(render_matrix(m), spec)
    assert (again.rows, again.symmetric) == (m.rows, m.symmetric)


# constants and arrow weights of each field, 0 among them
POOLS = {
    RATIONAL: (0, 1, -1, 2, Fraction(1, 2)),
    PRIME_DEFAULT: (0, 1, -1, 2, Fraction(1, 2)),
    GF2_16: tuple(GF2_16.from_bits(mask) for mask in (0, 1, 0x2, 0x3, 0x8000)),
}
# the symmetric methods
SYMMETRIC = ("sym", "ws-sym")


def eliminate_both_ways(m, spec, rng, t: int = 5) -> tuple[list[int], list[int]]:
    """The lanes of ``_symmetric_det`` and of ``_lockstep_det`` on the
    symmetric matrix ``m`` compiled into ``spec``, at ``t`` points drawn
    from ``rng``."""
    assert m.symmetric
    compiled = CompiledMatrix(m, spec)
    lanes = sample_lanes(spec, rng, compiled.variables, t)
    return tuple(det(compiled.arith, compiled.lane_rows(lanes, t), t)
                 for det in (_symmetric_det, _lockstep_det))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=st.sampled_from(list(POOLS)), profile=st.sampled_from(("formula", "weakly-skew")),
       budget=st.integers(1, 6), n_vars=st.integers(1, 3), rng=st.randoms(use_true_random=False))
def test_every_build_of_a_small_weighted_circuit_is_certified(spec, profile, budget, n_vars, rng):
    pool = POOLS[spec]
    c = random_circuit(profile, budget, n_vars, rng, spec=spec, constant_pool=pool,
                       const_prob=0.3, weighted=True, weight_pool=pool)
    cl = classify(c)
    char2 = spec.characteristic == 2
    test_spec = GF2_16 if char2 else PRIME_DEFAULT
    for method, (sizes, builder) in _BUILDERS.items():
        if not (cl.is_formula if method in ("valiant", "sym") else cl.is_weakly_skew):
            continue
        if char2 and method in SYMMETRIC:  # the symmetric closing needs 1/2
            continue
        for size in sizes:
            matrix, cert = builder(c, size)
            assert matrix.dim <= build_bound(method, size, c), (method, size)
            assert identity_test(c, matrix, spec=test_spec).ok, (method, size)
            if method in SYMMETRIC:
                symmetric, general = eliminate_both_ways(matrix, test_spec, rng)
                assert symmetric == general, (method, size)
            if cert is not None and cert.graph.n <= 12:
                if method in SYMMETRIC:  # a formula gadget has no unacceptable path
                    skipped = check_symmetric_certificate(cert)
                    assert method != "sym" or skipped == 0
                else:
                    check_abp_certificate(cert)
    if char2 and cl.is_weakly_skew:
        square = square_matrix_char2(c)
        assert square.dim <= 2 * len(c.gates) + 2
        assert identity_test(c, square, spec=GF2_16, power=2).ok
        symmetric, general = eliminate_both_ways(square, GF2_16, rng)
        assert symmetric == general
