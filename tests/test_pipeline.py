"""End-to-end pipelines across module boundaries."""

import ast
import random
import time
from functools import cache
from pathlib import Path

import pytest

from symdet.char2 import partial_perm_identity, square_matrix_char2
from symdet.circuits import CircuitBuilder, classify, evaluate, measure, random_circuit
from symdet.determinant import det_sym_matrix, det_variable
from symdet.fields import GF2_16, PRIME_DEFAULT, RATIONAL, MixedFields, sample_random
from symdet.formulas import sym_matrix, valiant_matrix
from symdet.graphs import SymbolicMatrix, parse_matrix, render_matrix
from symdet.polynomials import (
    DensePolynomial,
    expand_circuit,
    monomial_sum_circuit,
    poly_to_formula,
    random_dense_polynomial,
)
from symdet.verify import det_eval, identity_test
from symdet.weakly_skew import ws_nonsym_matrix, ws_sym_matrix
from tests.conftest import addition_chain, leibniz_det

SRC = Path(__file__).resolve().parents[1] / "src" / "symdet"


def test_dense_polynomial_to_symmetric_matrix(rng):
    """dense coefficients -> weighted formula -> symmetric matrix -> identity."""
    for trial in range(5):
        n, d = rng.randint(2, 3), rng.randint(2, 3)
        p = random_dense_polynomial(n, d, rng)
        f = poly_to_formula(p)
        m = sym_matrix(f, "green")
        assert m.dim <= 2 * measure(f).green + 3
        for _ in range(5):
            point = {v: sample_random(PRIME_DEFAULT, rng) for v in p.variables}
            assert det_eval(m, point, PRIME_DEFAULT) == p.evaluate(point, PRIME_DEFAULT)


def test_monomial_sum_through_all_lowerings(rng):
    c = monomial_sum_circuit(3, 3)
    rep = measure(c)
    sym = ws_sym_matrix(c, "green")
    assert sym.dim <= 2 * (rep.green + rep.var_inputs) + 1
    assert identity_test(c, sym, seed=1).ok
    nonsym = ws_nonsym_matrix(c, "green")
    assert nonsym.dim <= rep.green + rep.var_inputs + 1
    assert identity_test(c, nonsym, seed=2).ok


def test_formula_through_every_method_agrees(rng):
    for i in range(10):
        f = random_circuit("formula", rng.randint(1, 10), 4, rng,
                           weighted=True, const_prob=0.2)
        matrices = [
            valiant_matrix(f),
            sym_matrix(f, "skinny"),
            sym_matrix(f, "green"),
            ws_sym_matrix(f, "fat"),
            ws_sym_matrix(f, "green"),
            ws_nonsym_matrix(f, "fat"),
            ws_nonsym_matrix(f, "green"),
        ]
        point = {v: sample_random(PRIME_DEFAULT, rng) for v in f.variables}
        want = evaluate(f, point, PRIME_DEFAULT)[0]
        for m in matrices:
            assert det_eval(m, point, PRIME_DEFAULT) == want, i


def test_mul_gates_of_weakly_skew_are_disjoint(rng):
    """Both argument sub-circuits of every multiplication are disjoint."""
    for _ in range(25):
        c = random_circuit("weakly-skew", rng.randint(3, 18), 4, rng)
        assert classify(c).is_weakly_skew
        anc = {}
        for gid in c.topo_order():
            g = c.gates[gid]
            anc[gid] = {gid}
            for a, _w in g.args:
                anc[gid] |= anc[a]
        for g in c.gates.values():
            if g.kind == "mul":
                (a, _), (b, _) = g.args
                assert not (anc[a] & anc[b]), f"mul {g.gid} arguments overlap"


def test_evaluate_rejects_mixed_field_assignment(fig1_formula):
    with pytest.raises(MixedFields):
        evaluate(
            fig1_formula,
            {"x": RATIONAL.one(), "y": RATIONAL.one(), "z": RATIONAL.one()},
            PRIME_DEFAULT,
        )


def test_cli_pipeline_on_monomial_circuit(tmp_path, capsys):
    from symdet.circuits import render_circuit
    from symdet.cli import main

    circ = tmp_path / "m22.circuit"
    circ.write_text(render_circuit(monomial_sum_circuit(2, 2)))
    matrix = tmp_path / "m22.matrix"
    assert main(["build", "--method", "ws-sym", "--size", "green",
                 str(circ), "-o", str(matrix)]) == 0
    capsys.readouterr()
    assert main(["verify", str(circ), str(matrix), "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verified")


def test_no_production_path_reads_the_dense_view(monkeypatch, fig1_formula, fig1_weakly_skew):
    """build -> render -> parse -> identity test for every construction with
    ``SymbolicMatrix.entries`` disabled: matrices are built, rendered,
    parsed, compiled and checked from their nonzeros only."""
    n = 2
    names = tuple(sorted(det_variable(i, j) for i in range(1, n + 1) for j in range(1, n + 1)))
    det_n = poly_to_formula(leibniz_det(
        [[DensePolynomial.variable(det_variable(i, j), names, RATIONAL)
          for j in range(1, n + 1)] for i in range(1, n + 1)]))
    square = random_circuit("weakly-skew", 6, 3, random.Random(8), spec=GF2_16,
                            constant_pool=(1, 3, 7))
    assert not expand_circuit(square)[0].is_zero()  # det = 0 would check little
    builds = [
        (fig1_formula, lambda: sym_matrix(fig1_formula, "skinny"), {}),
        (fig1_formula, lambda: sym_matrix(fig1_formula, "green"), {}),
        (fig1_formula, lambda: valiant_matrix(fig1_formula), {}),
        (det_n, lambda: det_sym_matrix(n), {}),
        (square, lambda: square_matrix_char2(square), {"spec": GF2_16, "power": 2}),
    ] + [
        (fig1_weakly_skew, lambda lower=lower, mode=mode: lower(fig1_weakly_skew, mode), {})
        for lower in (ws_sym_matrix, ws_nonsym_matrix) for mode in ("fat", "green")
    ]

    def dense_view(self):
        raise AssertionError("the dense view was materialized")

    monkeypatch.setattr(SymbolicMatrix, "entries", property(dense_view))
    for circuit, build, options in builds:
        m = build()
        m.to_json()
        back = parse_matrix(render_matrix(m), m.spec)
        for exact in (True, False):
            assert identity_test(circuit, back, seed=3, exact_upgrade=exact, **options).ok
    b = parse_matrix("5\n" + "\n".join(" ".join(f"b{i}{j}" if (i + j) % 3 else "0x1"
                                                 for j in range(5)) for i in range(5)), GF2_16)
    assert partial_perm_identity(b).ok


# -- deep inputs ------------------------------------------------------------------


def product_sum_chain(depth: int):
    """((x0 * x1) + 2 x2) * x3 ... : ``depth`` gates alternating a
    multiplication and a weighted addition."""
    b = CircuitBuilder()
    acc = b.var("x0")
    for k in range(1, depth + 1):
        x = b.var(f"x{k % 7}")
        acc = b.mul(acc, x) if k % 2 else b.add(acc, x, 1, 2)
    return b.build([acc])


LOWERINGS = {
    "sym-skinny": lambda c: sym_matrix(c, "skinny"),
    "sym-green": lambda c: sym_matrix(c, "green"),
    "valiant": valiant_matrix,
    "ws-sym-fat": lambda c: ws_sym_matrix(c, "fat"),
    "ws-sym-green": lambda c: ws_sym_matrix(c, "green"),
    "ws-nonsym-fat": lambda c: ws_nonsym_matrix(c, "fat"),
    "ws-nonsym-green": lambda c: ws_nonsym_matrix(c, "green"),
}


@cache
def deep_chain(kind: str):
    return product_sum_chain(1000) if kind == "product-sum-1000" else addition_chain(3000)


@pytest.mark.parametrize("kind", ["product-sum-1000", "weighted-sum-3000"])
@pytest.mark.parametrize("lowering", sorted(LOWERINGS))
def test_deep_chain_lowers_under_the_default_recursion_limit(lowering, kind):
    c = deep_chain(kind)
    m = LOWERINGS[lowering](c)
    assert identity_test(c, m, trials=2, seed=1).ok


@pytest.mark.parametrize("mode", ["fat", "green"])
def test_deep_chain_sheds_its_relay_vertices(mode):
    """The 3000-deep weighted sum closes to an ABP of 6001 vertices, s and
    one per input and addition; every input vertex is a singleton pivot, so
    the matrix keeps s and the additions.  The build takes about 0.3 s; with
    a pass that moves the arcs of a growing column again at every addition
    it reaches the same dimension in about 45 s, hence the budget."""
    c = deep_chain("weighted-sum-3000")
    start = time.perf_counter()
    m = ws_nonsym_matrix(c, mode)
    assert time.perf_counter() - start < 10
    assert m.dim == 3001


def test_cli_builds_and_verifies_a_deep_chain(tmp_path, capsys):
    from symdet.circuits import render_circuit
    from symdet.cli import main

    circ = tmp_path / "deep.circuit"
    circ.write_text(render_circuit(product_sum_chain(1000)))
    matrix = tmp_path / "deep.matrix"
    assert main(["build", "--method", "sym", "--size", "green",
                 str(circ), "-o", str(matrix)]) == 0
    assert main(["verify", str(circ), str(matrix), "--seed", "1", "--trials", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("verified")


def test_benchmark_traced_names_exist():
    """Every function the benchmark's tracer wraps by name still exists, so
    a rename cannot break ``perfbench/run.py --trace 1`` unnoticed."""
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.SPANNED + tracing.COUNTED:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"symdet.{module}"), function, None)), name


def test_src_has_no_unused_imports():
    """A lint check that needs no install: every name a ``symdet`` module
    imports at top level is used in it (as a name, or listed in its
    ``__all__``), unless the import line says ``# noqa: F401``."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree = ast.parse(text)
        lines = text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(elt.value for elt in node.value.elts)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert not unused, unused


def test_field_arithmetic_is_written_only_in_fields():
    """The plain-int arithmetic of a finite field lives in ``fields.py``: no
    other module imports a ``_gf2_*`` helper or compares a degree ``.k`` with
    16, the largest degree with log/exp tables."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: imports {alias.name}" for alias in node.names
                          if alias.name.startswith("_gf2_")]
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_gf2_"):
                found.append(f"{path.name}: uses {node.attr}")
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if (any(isinstance(x, ast.Attribute) and x.attr == "k" for x in operands)
                        and any(isinstance(x, ast.Constant) and x.value == 16 for x in operands)):
                    found.append(f"{path.name}:{node.lineno}: compares .k with 16")
    assert not found, found


def test_only_fields_and_verify_construct_field_elements():
    """A rational is stored in one form, a plain int when it is an integer,
    because only ``fields`` calls the ``FieldElement`` constructor, and
    ``verify``, which boxes the ints of a finite field (one form only)."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "FieldElement" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                callers.add(path.name)
    assert callers == {"fields.py", "verify.py"}


def symdet_imports(path: Path) -> list[tuple[str, set[str]]]:
    """Every ``symdet`` module that ``path`` imports, at module or function
    level, with the names imported from it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (
                node.module or "").startswith("symdet")):
            names = {alias.name for alias in node.names}
            module = (node.module or "").rpartition(".")[2]
            if module in ("", "symdet"):  # ``from . import oracles``
                found += [(name, set()) for name in names]
            else:
                found.append((module, names))
        elif isinstance(node, ast.Import):
            found += [(alias.name.rpartition(".")[2], set())
                      for alias in node.names if alias.name.startswith("symdet.")]
    return found


def test_only_the_exact_upgrade_and_the_demo_import_the_oracles():
    """The oracles stay independent of what they check: of the library's
    modules only ``verify`` (the exact upgrade's ``symbolic_det``), ``cli``
    (the demo) and ``__init__`` import from ``oracles``, which holds the
    certificate audits, so no fast path can lean on an oracle."""
    importers = {}
    for path in sorted(SRC.glob("*.py")):
        for module, names in symdet_imports(path):
            if module == "oracles":
                importers.setdefault(path.stem, set()).update(names)
    assert set(importers) <= {"verify", "cli", "__init__"}, importers
    assert importers["verify"] == {"symbolic_det"}


def test_the_constructions_import_neither_the_oracles_nor_the_polynomials():
    """The modules a build runs through depend only on ``fields`` and each
    other: none imports the exponential references in ``oracles`` or the
    symbolic layer in ``polynomials``, at module or function level."""
    constructions = {"circuits", "minimize", "graphs", "formulas", "weakly_skew", "determinant"}
    found = [f"{stem}.py imports {module}"
             for stem in sorted(constructions)
             for module, _ in symdet_imports(SRC / f"{stem}.py")
             if module not in constructions | {"fields"}]
    assert not found, found


def test_the_only_deferred_import_breaks_a_real_cycle():
    """Imports sit at module level, except the one from ``minimize`` inside
    ``circuits.measure``: ``minimize`` imports ``circuits``, and the
    benchmark traces ``measure`` by that name."""
    deferred = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if node is not top and isinstance(node, (ast.Import, ast.ImportFrom)):
                    module = getattr(node, "module", None) or ", ".join(
                        alias.name for alias in node.names)
                    deferred.add((path.stem, getattr(top, "name", ""), module))
    assert deferred == {("circuits", "measure", "minimize")}, deferred


def test_every_symmetric_matrix_is_the_closed_vertex_split_of_a_program():
    """One symmetrization: an undirected graph is built only in ``graphs``
    (the vertex split) and by the bipartite doubling of characteristic 2,
    only the three symmetric lowerings split a program and close the split,
    so every symmetric gadget matrix is the closed vertex split of a
    branching program."""
    def callers(name: str) -> set[tuple[str, str]]:
        """(module, top-level definition) of every call of ``name``."""
        found = set()
        for path in sorted(SRC.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call) and name in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        found.add((path.stem, getattr(top, "name", "")))
        return found

    assert {(m, f) for m, f in callers("WeightedGraph") if m != "graphs"} == {
        ("char2", "double_matrix")}
    assert callers("close_symmetric") == {
        ("formulas", "sym_lowering"),
        ("weakly_skew", "ws_sym_lowering"),
        ("determinant", "det_sym_lowering"),
    }
    assert callers("split_vertices") == {
        ("formulas", "build_sym_graph"),
        ("weakly_skew", "build_ws_graph"),
        ("determinant", "det_sym_lowering"),
    }


def test_every_build_subcommand_emits_through_one_function():
    """One build path: inside ``cli``, rendering a matrix, writing a DOT
    file and holding a dimension to its bound each happen in one function,
    so ``build``, ``detsym`` and ``char2-square`` cannot fork again."""
    tree = ast.parse((SRC / "cli.py").read_text())
    found: dict[str, set[str]] = {"render_matrix": set(), "export_dot": set(), "bound": set()}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in found:
                found[node.func.id].add(getattr(top, "name", ""))
            elif isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Attribute) and side.attr == "dim"
                    for side in [node.left, *node.comparators]):
                found["bound"].add(getattr(top, "name", ""))
    assert found == {"render_matrix": {"cmd_build"}, "export_dot": {"cmd_build"},
                     "bound": {"cmd_build"}}, found


def test_no_module_imports_a_private_name_of_another():
    """A helper two modules share has one public home: no module of
    ``src/symdet`` imports an underscore name from a sibling module."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (
                    node.module or "").startswith("symdet")):
                found += [f"{path.name}:{node.lineno}: {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def test_only_graphs_tells_a_graph_from_a_digraph():
    """One graph representation: an undirected graph is the symmetric arc
    map of its adjacency, so outside ``graphs`` no module reads the derived
    ``edges`` view or asks ``isinstance`` whether a gadget graph is directed."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "edges":
                found.append(f"{path.name}:{node.lineno}: reads .edges")
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                  and len(node.args) == 2):
                named = {getattr(n, "id", None) or getattr(n, "attr", None)
                         for n in ast.walk(node.args[1])}
                if named & {"WeightedDigraph", "WeightedGraph"}:
                    found.append(f"{path.name}:{node.lineno}: isinstance on a graph class")
    assert not found, found
