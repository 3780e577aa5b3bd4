"""Command-line surface: parse, minimize, build, verify, bounds, demo.

Subcommands operate on the circuit/matrix text formats defined by the
library modules and print machine-readable output with ``--json``.  Exit
status is 0 on success, 1 when a construction or verification fails its
contract (including any theorem-bound violation, which is a hard error),
and 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .circuits import (
    ADD,
    COMPUTATION,
    VAR,
    Circuit,
    CircuitBuilder,
    CircuitError,
    SyntaxErrorAt,  # noqa: F401  (re-exported: the CLI's parse errors)
    classify,
    measure,
    parse_circuit,
    parse_expression,
    render_circuit,
)
from .char2 import partial_perm_identity, render_partial_permanent, square_matrix_char2
from .determinant import det_sym_lowering, det_sym_matrix
from .fields import GF2, GF2_16, PRIME_DEFAULT, RATIONAL, FieldError, FieldSpec
from .formulas import sym_lowering, valiant_lowering, valiant_matrix
from .graphs import export_dot, parse_matrix, render_matrix
from .minimize import green_form, minimize
from .oracles import symbolic_det
from .polynomials import bounds_report
from .verify import identity_test, testable
from .weakly_skew import ws_nonsym_lowering, ws_sym_lowering


def field_from_flag(text: str) -> FieldSpec:
    text = text.strip().lower()
    if text in ("q", "rational"):
        return RATIONAL
    if text in ("p61", "default", "p"):
        return PRIME_DEFAULT
    if text in ("gf2",):
        return GF2
    if text in ("gf2_16", "gf2k", "gf216"):
        return GF2_16
    if text.startswith(("p:", "gf2:")):
        make = FieldSpec.prime if text[0] == "p" else FieldSpec.binary
        n = int(text.partition(":")[2])
        try:  # argparse shows the message of an ArgumentTypeError only
            return make(n)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown field {text!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _resolve_seed(args) -> int:
    if getattr(args, "ci", False) and args.seed is None:
        raise CircuitError("--ci requires an explicit --seed")
    return args.seed if args.seed is not None else 0


def _load_circuit(args) -> Circuit:
    spec = args.field
    if args.expr is not None:
        if args.circuit not in ("-", None):
            raise CircuitError("give a circuit file or --expr, not both")
        return parse_expression(args.expr, spec)
    if args.circuit == "-":
        return parse_circuit(sys.stdin.read(), spec)
    with open(args.circuit) as fh:
        return parse_circuit(fh.read(), spec)


def cmd_parse(args) -> int:
    c = _load_circuit(args)
    cl = classify(c)
    rep = measure(c)
    report = {
        "gates": len(c.gates),
        "outputs": len(c.outputs),
        "variables": list(c.variables),
        "is_formula": cl.is_formula,
        "is_weakly_skew": cl.is_weakly_skew,
        "skinny": rep.skinny,
        "fat": rep.fat,
        "var_inputs": rep.var_inputs,
        "green": rep.green,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for k, v in report.items():
            print(f"{k}: {v}")
        if args.render:
            sys.stdout.write(render_circuit(c))
    return 0


def cmd_minimize(args) -> int:
    c = _load_circuit(args)
    sys.stdout.write(render_circuit(minimize(c)))
    return 0


#: method -> (the sizes it builds, the default first; build(circuit, size) ->
#: (matrix, certificate of the gadget graph the matrix closes, or None where
#: there is none))
_BUILDERS = {
    "valiant": (("green",), lambda c, size: valiant_lowering(c)),
    "sym": (("skinny", "green"), sym_lowering),
    "ws-sym": (("fat", "green"), ws_sym_lowering),
    "ws-nonsym": (("fat", "green"), ws_nonsym_lowering),
}


def build_bound(method: str, size: str | int, c: Circuit | None = None) -> int:
    """Dimension bound promised by the applicable theorem: a green size
    counts the gates of ``green_form(c)``, a skinny or fat size those of
    ``c``, which takes no rewrite; DET_n's size is n."""
    if method == "detsym":
        return 4 * size**3 + 7
    if method == "char2-square":  # the bipartite double of the ws-nonsym matrix
        return 2 * build_bound("ws-nonsym", size, c)
    kinds = [g.kind for g in (green_form(c) if size == "green" else c).gates.values()]
    e = sum(k in COMPUTATION for k in kinds)  # skinny or green size
    ei = e + kinds.count(VAR)
    if method == "valiant":
        # an addition-free green form takes the diagonal fallback of
        # dimension (variable leaves)+1
        return e + 1 if ADD in kinds else kinds.count(VAR) + 1
    if method == "sym":
        extra = 0 if size == "green" else sum(
            1 for g in c.gates.values() for _, w in g.args if not w.is_one())
        return 2 * (e + extra) + 3
    if method == "ws-sym":
        return 2 * len(kinds) + 1 if size == "fat" else 2 * ei + 1
    if method == "ws-nonsym":
        return len(kinds) + 1 if size == "fat" else ei + 1
    raise ValueError(f"unknown method {method!r}")


def _lower_circuit(args):
    """``build``: the ``--method`` row of ``_BUILDERS`` at ``--size``.
    Each lowering returns (size, circuit, matrix, what ``--dot`` draws)."""
    sizes, builder = _BUILDERS[args.method]
    size = args.size or sizes[0]
    if size not in sizes:
        raise ValueError(f"--method {args.method} has no size {size} "
                         f"(it builds {' or '.join(sizes)})")
    c = _load_circuit(args)
    if args.method in ("sym", "ws-sym") and args.field.characteristic == 2:
        raise ValueError("symmetric closing needs 1/2; characteristic 2 is not supported "
                         "(see char2-square)")
    matrix, cert = builder(c, size)
    return size, c, matrix, None if cert is None else cert.graph


def _lower_det(args):
    """``detsym``: DET_n takes no circuit; its size is n."""
    matrix, abp = det_sym_lowering(args.size)
    return args.size, None, matrix, abp.digraph


def _lower_square(args):
    """``char2-square``: bounded as twice the ``ws-nonsym`` fat size."""
    c = _load_circuit(args)
    return "fat", c, square_matrix_char2(c), None


def cmd_build(args) -> int:
    """``build``, ``detsym`` and ``char2-square``: lower by the subcommand's
    ``lower``, hold the matrix to ``build_bound`` (a dimension above it is a
    hard error, reported before anything is written), then emit."""
    size, c, matrix, graph = args.lower(args)
    bound = build_bound(args.method, size, c)
    if matrix.dim > bound:
        raise ValueError(f"dimension {matrix.dim} exceeds bound {bound}")
    if args.dot and graph is not None:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(graph))
    out = render_matrix(matrix)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    if args.json:
        print(json.dumps({"method": args.method, "size": size, "dimension": matrix.dim,
                          "bound": bound, "symmetric": matrix.symmetric,
                          "matrix": matrix.to_json()}, indent=2))
    else:
        print(f"# {args.label.format(method=args.method, size=size)}: "
              f"dimension {matrix.dim} <= {bound}", file=sys.stderr)
        if not args.output:
            sys.stdout.write(out)
    return 0


def _bound_text(error_bound_log2: float | None) -> str:
    """The Schwartz-Zippel clause of a verdict line, empty when exact."""
    if error_bound_log2 is None:
        return ""
    return f", error <= 2^{math.ceil(error_bound_log2)}"


def cmd_pperm(args) -> int:
    with open(args.matrix) as fh:
        m = parse_matrix(fh.read(), args.field)
    print(render_partial_permanent(m))
    if args.check_identity:
        spec = args.field if args.field.characteristic == 2 and testable(args.field) else GF2_16
        verdict = partial_perm_identity(m, seed=_resolve_seed(args), spec=spec)
        print(f"det(A+I) == per*(B)^2 [random{_bound_text(verdict.error_bound_log2)}]:"
              f" {verdict.ok}")
        return 0 if verdict.ok else 1
    return 0


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    c = _load_circuit(args)
    with open(args.matrix) as fh:
        m = parse_matrix(fh.read(), args.field)
    spec = args.test_field
    if spec is None:
        spec = (args.field if testable(args.field)
                else GF2_16 if args.field.characteristic == 2 else PRIME_DEFAULT)
    verdict = identity_test(
        c, m, trials=args.trials, spec=spec, seed=seed, power=args.power
    )
    if args.json:
        print(json.dumps(verdict.to_json(), indent=2))
    else:
        print(f"{verdict.status} (dimension {verdict.dimension}, field {verdict.field},"
              f" trials {verdict.trials}{_bound_text(verdict.error_bound_log2)})")
    return 0 if verdict.ok else 1


def cmd_bounds(args) -> int:
    if args.n < 1 or args.d < 1:
        raise ValueError("need n, d >= 1")
    print("n,d,formula_bound,sym_dimension_bound,quarez_dimension,monomial_formula_size")
    for n in range(1, args.n + 1) if args.table else [args.n]:
        for d in range(1, args.d + 1) if args.table else [args.d]:
            r = bounds_report(n, d)
            print(f"{r.n},{r.d},{r.formula_bound},{r.sym_dimension_bound},"
                  f"{r.quarez_dimension},{r.monomial_formula_size}")
    return 0


def cmd_demo(args) -> int:
    spec = RATIONAL
    print("== golden examples ==")
    m_3x3 = parse_matrix("3 symmetric\n0 x y\nx 0 z\ny z 0", spec)
    print("det [[0,x,y],[x,0,z],[y,z,0]] =", symbolic_det(m_3x3).render())
    first = parse_matrix(
        "5 symmetric\n0 x 0 y -1\nx 0 1 0 0\n0 1 0 -1 0\ny 0 -1 0 1/2\n-1 0 0 1/2 0",
        spec,
    )
    print("det(first 5x5 display) =", symbolic_det(first).render())
    second = parse_matrix("4\nx 0 0 1\n0 y 0 1\n0 0 1 0\n1 1 0 0", spec)
    print("det(second 4x4 display, as printed) =", symbolic_det(second).render())
    fixed = parse_matrix("4\nx 0 0 1\n0 y 0 1\n1 1 0 0\n0 0 1 0", spec)
    print("det(second display, rows 3 and 4 swapped) =", symbolic_det(fixed).render())

    print()
    print("== (x+y)^2 + 2yz through all four constructions ==")
    c = parse_expression("(x+y)*(x+y) + 2*y*z", spec)
    rep = measure(c)
    print(f"formula: skinny {rep.skinny}, fat {rep.fat}, green {rep.green}")
    for method, size in (
        ("valiant", "green"),
        ("sym", "skinny"),
        ("sym", "green"),
        ("ws-sym", "fat"),
        ("ws-sym", "green"),
        ("ws-nonsym", "fat"),
        ("ws-nonsym", "green"),
    ):
        matrix, _ = _BUILDERS[method][1](c, size)
        bound = build_bound(method, size, c)
        verdict = identity_test(c, matrix, seed=1)
        print(f"{method:9s} {size:6s}: dim {matrix.dim:2d} <= {bound:2d}  {verdict.status}")

    print()
    print("== 2xy has no 2x2 symmetric representation; the fallback is 3x3 ==")
    c2 = parse_expression("2*x*y", spec)
    m2 = valiant_matrix(c2)
    print(f"valiant(2xy): dimension {m2.dim}, det = {symbolic_det(m2).render()}")

    print()
    print("== determinant polynomial, n = 2 ==")
    md = det_sym_matrix(2)
    print(f"dimension {md.dim} <= {build_bound('detsym', 2)}, det = {symbolic_det(md).render()}")

    print()
    print("== characteristic 2: square of x + y over GF(2^16) ==")
    cb = CircuitBuilder(GF2_16)
    cxy = cb.build([cb.add(cb.var("x"), cb.var("y"))])
    a = square_matrix_char2(cxy)
    d = symbolic_det(a)
    print(f"dimension {a.dim}, det = {d.render()}  (= (x+y)^2 mod 2)")

    print()
    print("== bounds (n=2, d=2) ==")
    r = bounds_report(2, 2)
    print(f"F={r.formula_bound} S={r.sym_dimension_bound} "
          f"quarez={r.quarez_dimension} monomial={r.monomial_formula_size}")
    return 0


def _parser() -> argparse.ArgumentParser:
    """The top-level parser, whose subparsers are the subcommands."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    top = argparse.ArgumentParser(prog="symdet", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_circuit_args(p):
        circuit = p.add_argument("circuit", nargs="?", default="-",
                                 help="circuit file (default: stdin)")
        p.add_argument("--expr", help="inline expression instead of a file")
        p.add_argument("--field", type=field_from_flag, default=RATIONAL,
                       help="constant field: q, p61, p:<prime>, gf2, gf2_16, gf2:<k>")
        return circuit

    p = sub.add_parser("parse", help="validate, classify and measure a circuit")
    add_circuit_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--render", action="store_true", help="echo the canonical file")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("minimize", help="weight-pushing minimization")
    add_circuit_args(p)
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("build", help="build a determinantal representation")
    add_circuit_args(p)
    p.add_argument("--method", required=True,
                   choices=sorted(_BUILDERS))
    p.add_argument("--size", choices=("skinny", "green", "fat"))
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", help="write the gadget graph in DOT format: for valiant and "
                   "ws-nonsym the branching program, whose vertices in order, less t and "
                   "the eliminated relay vertices, are the matrix rows; for sym and ws-sym "
                   "the vertex split of that program, whose vertices in order are the "
                   "matrix rows, then one closing vertex if their count is even")
    p.add_argument("-o", "--output", help="write the matrix to a file")
    p.set_defaults(fn=cmd_build, lower=_lower_circuit, label="{method} ({size})")

    p = sub.add_parser("detsym", help="symmetric representation of DET_n")
    p.add_argument("--n", dest="size", metavar="N", type=int, required=True)
    p.add_argument("--dot", help="write the branching program in DOT format")
    p.set_defaults(fn=cmd_build, lower=_lower_det, method="detsym",
                   label="determinant representation n={size}", json=False, output=None)

    p = sub.add_parser("char2-square", help="characteristic-2 square construction")
    add_circuit_args(p)
    p.set_defaults(fn=cmd_build, lower=_lower_square, method="char2-square",
                   label="char-2 square", field=GF2_16, json=False, output=None, dot=None)

    p = sub.add_parser("pperm", help="partial permanent of a matrix")
    p.add_argument("matrix")
    p.add_argument("--field", type=field_from_flag, default=GF2)
    p.add_argument("--check-identity", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ci", action="store_true",
                   help="reproducibility mode: an explicit --seed is mandatory")
    p.set_defaults(fn=cmd_pperm)

    p = sub.add_parser("verify", help="identity-test a circuit against a matrix")
    # no default circuit: a lone path, which argparse gives to matrix, is
    # then told apart from "-" and refused in _parse_args
    add_circuit_args(p).help = "circuit file, - for stdin (omitted with --expr)"
    p.set_defaults(circuit=None)
    p.add_argument("matrix")
    p.add_argument("--trials", type=int)
    p.add_argument("--test-field", type=field_from_flag, default=None,
                   help="evaluation field (default: --field when it has at least 2^16 "
                   "elements, else gf2_16 in characteristic 2 and p61 otherwise)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ci", action="store_true",
                   help="reproducibility mode: an explicit --seed is mandatory")
    p.add_argument("--power", type=int, default=1,
                   help="check det = circuit^power (2 for char-2 squares)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bounds", help="bound calculator (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--table", action="store_true", help="all pairs up to (n, d)")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("demo", help="reproduce the worked examples")
    p.set_defaults(fn=cmd_demo)

    return top, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with the top-level parser's part done
    here: a known subcommand's own parser reads ``argv[1:]`` into a
    namespace that holds the subcommand's name, the namespace the top-level
    parser would return.  Without a subcommand, with an unknown one or with
    arguments left over, the top-level parser reads ``argv`` and reports it,
    so every usage line, message and exit code is its own.  ``verify`` with
    neither a circuit nor ``--expr`` (one path, taken as the matrix) is a
    usage error naming the missing matrix, not a circuit read from stdin;
    with ``--expr`` and a path left over, it is one naming the conflict."""
    top, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if (args.command == "verify" and args.expr is not None
                and any(a == "-" or a[:1] != "-" for a in rest)):
            command.error("give a circuit file or --expr, not both")
        if not rest:
            if args.command == "verify" and args.circuit is None and args.expr is None:
                command.error("the following arguments are required: matrix")
            return args
    return top.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--expr" in argv[:-1]:  # its value may start with a minus, as in -x*y
        i = argv.index("--expr")
        argv[i:i + 2] = ["--expr=" + argv[i + 1]]
    args = _parse_args(argv)
    try:
        return args.fn(args)
    except (CircuitError, FieldError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
