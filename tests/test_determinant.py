import hashlib
import random

import pytest

from symdet.circuits import parse_expression
from symdet.determinant import (
    build_det_abp,
    det_sym_matrix,
    det_variable,
)
from symdet.fields import PRIME_DEFAULT, RATIONAL, FieldSpec, sample_random
from symdet.graphs import (
    PathSumCertificate,
    SymbolicMatrix,
    Weight,
    entries_alphabet_ok,
    export_dot,
    render_matrix,
    split_vertices,
)
from symdet.oracles import (
    check_symmetric_certificate,
    complement_vertices,
    enumerate_st_paths,
    path_sum,
    symbolic_det,
    unique_cover_is_weight1_matching,
)
from symdet.polynomials import DensePolynomial
from symdet.verify import det_eval
from tests.conftest import leibniz_det, poly_equal


def det_reference(n, variables):
    entries = [
        [
            DensePolynomial.variable(det_variable(i, j), variables, RATIONAL)
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    return leibniz_det(entries)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_abp_path_sum_equals_leibniz(n):
    abp = build_det_abp(n)
    variables = tuple(sorted({
        w.name for w in abp.digraph.arcs.values() if w.kind != "const"
    }))
    paths = enumerate_st_paths(abp.digraph, abp.s, abp.t)
    assert all(len(path) == abp.n + 2 for path in paths)
    assert poly_equal(path_sum(abp.digraph, paths, variables), det_reference(n, variables))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_layer_discipline(n):
    abp = build_det_abp(n)
    for (u, v) in abp.digraph.arcs:
        assert abp.layers[v] == abp.layers[u] + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vertex_count_bound(n):
    abp = build_det_abp(n)
    # the merged sink is appended on top of the 2n^3+3 budget
    assert abp.digraph.n <= 2 * n**3 + 3 + 1


def test_abp_weights_alphabet():
    abp = build_det_abp(3)
    for w in abp.digraph.arcs.values():
        if w.kind == "const":
            assert w.coeff in (RATIONAL.one(), -RATIONAL.one())


def test_symmetrize_structure():
    abp = build_det_abp(2)
    g, _ = split_vertices(abp.digraph, [abp.s, abp.t])
    assert g.n == 2 * (abp.digraph.n - 2) + 2
    links = sum(1 for w in g.edges.values()
                if w.kind == "const" and w.coeff == -RATIONAL.one())
    assert links >= abp.digraph.n - 2  # one -1 link per interior vertex


def test_symmetrized_acceptable_path_sum_n2():
    """The vertex splits of DET_1 and DET_2 pass the one symmetric audit
    against the Leibniz expression: every s-t path has 2n+2 vertices and
    counts with the sign (-1)^n, which its n links cancel."""
    for n, leibniz in ((1, "x1_1"), (2, "x1_1*x2_2 - x1_2*x2_1")):
        abp = build_det_abp(n)
        g, _ = split_vertices(abp.digraph, [abp.s, abp.t])
        source = parse_expression(leibniz)
        out = source.outputs[0]
        cert = PathSumCertificate(g, g.roles["s"], {out: g.roles["t"]}, {out: RATIONAL.one()},
                                  source)
        check_symmetric_certificate(cert)


def test_non_path_vertices_pair_up_in_unit_cycles():
    abp = build_det_abp(2)
    g, _ = split_vertices(abp.digraph, [abp.s, abp.t])
    path = next(iter(enumerate_st_paths(g, g.roles["s"], g.roles["t"])))
    rest = complement_vertices(g, path)
    assert unique_cover_is_weight1_matching(g, rest)


@pytest.mark.parametrize("n", [1, 2])
def test_det_sym_matrix_symbolic(n):
    m = det_sym_matrix(n)
    assert m.symmetric
    assert m.dim <= 4 * n**3 + 7
    d = symbolic_det(m)
    variables = d.variables
    assert poly_equal(d, det_reference(n, variables))


@pytest.mark.parametrize("n", [3, 4])
def test_det_sym_matrix_random_points(n):
    m = det_sym_matrix(n)
    assert m.dim <= 4 * n**3 + 7
    assert entries_alphabet_ok(m)
    rng = random.Random(n)
    value_matrix = SymbolicMatrix(
        [[Weight.var(det_variable(i, j)) for j in range(1, n + 1)]
         for i in range(1, n + 1)],
        spec=RATIONAL,
    )
    for _ in range(5):
        point = {
            det_variable(i, j): sample_random(PRIME_DEFAULT, rng)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }
        assert det_eval(m, point, PRIME_DEFAULT) == det_eval(
            value_matrix, point, PRIME_DEFAULT
        )


def test_det_sym_matrix_n6_random_points():
    n = 6
    m = det_sym_matrix(n)
    assert m.dim <= 4 * n**3 + 7
    rng = random.Random(6)
    value_matrix = SymbolicMatrix(
        [[Weight.var(det_variable(i, j)) for j in range(1, n + 1)]
         for i in range(1, n + 1)],
        spec=RATIONAL,
    )
    for _ in range(2):
        point = {
            det_variable(i, j): sample_random(PRIME_DEFAULT, rng)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }
        assert det_eval(m, point, PRIME_DEFAULT) == det_eval(
            value_matrix, point, PRIME_DEFAULT
        )


def test_det_sym_matrix_over_prime_field():
    spec = FieldSpec.prime((1 << 61) - 1)
    m = det_sym_matrix(2, spec)
    assert m.spec == spec and m.symmetric


DET_SHA256 = "51b1a168bc2d0a80d191febd9ec3423220dda9acc03ed0d755c2a1d04be56c94"


def test_det_program_and_matrices_match_golden_digest():
    """Byte-for-byte pin of the DET_n program (n = 1..7: DOT rendering,
    layers, s, t, sinks, sorted arcs) and of the DET_n matrix (n = 1..6,
    over Q and Z_101).  A rewrite of the program's generation must leave
    it unchanged."""
    digest = hashlib.sha256()
    for n in range(1, 8):
        abp = build_det_abp(n)
        arcs = " ".join(
            f"{u}>{v}:{w.render()}" for (u, v), w in sorted(abp.digraph.arcs.items())
        )
        digest.update(
            f"n={n}\n{export_dot(abp.digraph)}layers={sorted(abp.layers.items())}"
            f" s={abp.s} t={abp.t} plus={abp.plus_sinks} minus={abp.minus_sinks}"
            f" arcs={arcs}\n".encode()
        )
    for spec in (RATIONAL, FieldSpec.prime(101)):
        for n in range(1, 7):
            digest.update(f"{spec} n={n}\n{render_matrix(det_sym_matrix(n, spec))}".encode())
    assert digest.hexdigest() == DET_SHA256
