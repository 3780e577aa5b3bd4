"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Every tolerance and corpus size is pinned here; the
criteria cover dimension bounds, exact and randomized identities,
certificate audits, the worked golden examples, and oracle coherence.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from symdet.char2 import (
    double_matrix,
    partial_perm_identity,
    partial_permanent,
    plus_identity,
    square_matrix_char2,
)
from symdet.circuits import (
    CircuitBuilder,
    classify,
    measure,
    random_circuit,
)
from symdet.cli import parse_expression
from symdet.determinant import build_det_abp, det_sym_matrix, det_variable
from symdet.fields import GF2, GF2_16, PRIME_DEFAULT, RATIONAL, sample_random
from symdet.formulas import sym_matrix, valiant_matrix
from symdet.graphs import (
    SymbolicMatrix,
    Weight,
    WeightedDigraph,
    WeightedGraph,
    entries_alphabet_ok,
    parse_matrix,
)
from symdet.minimize import minimize
from symdet.oracles import (
    check_symmetric_certificate,
    cycle_cover_sum,
    enumerate_st_paths,
    path_sum,
    referee_submatrix_sum,
    ryser_permanent,
    symbolic_det,
)
from symdet.polynomials import (
    DensePolynomial,
    bounds_report,
    expand_circuit,
    monomial_sum_circuit,
    poly_to_formula,
    random_dense_polynomial,
)
from symdet.verify import VERIFIED_RANDOM, det_eval, identity_test
from symdet.weakly_skew import (
    build_ws_graph,
    ws_nonsym_matrix,
    ws_sym_matrix,
)
from tests.conftest import leibniz_det, mutate_matrix, poly_equal


def report(criterion: str, detail: str, elapsed: float, budget: float) -> None:
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.1f}s < {budget:.0f}s]",
          flush=True)
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def _variable_bearing(maker):
    c = maker()
    while not any(g.kind == "input" for g in c.gates.values()):
        c = maker()
    return c


@pytest.fixture(scope="module")
def formulas_200():
    """200 seeded random formulas, skinny size <= 30, <= 8 variables,
    constants restricted to the matrix entry alphabet."""
    rng = random.Random(260_801)
    from fractions import Fraction

    pool = (1, -1, Fraction(1, 2))
    out = []
    for _ in range(200):
        e = rng.randint(1, 30)
        out.append(
            _variable_bearing(
                lambda: random_circuit(
                    "formula", e, 8, rng, constant_pool=pool, const_prob=0.12
                )
            )
        )
    return out


@pytest.fixture(scope="module")
def weakly_skew_200():
    """200 seeded random weakly skew circuits of fat size <= 25; the first
    chunk is small enough for exhaustive certificate audits."""
    rng = random.Random(260_802)
    out = []
    for i in range(200):
        budget = rng.randint(2, 6) if i < 70 else rng.randint(7, 25)
        out.append(
            _variable_bearing(
                lambda: random_circuit("weakly-skew", budget, 8, rng,
                                       const_prob=0.1)
            )
        )
    return out


def test_criterion_1_formula_symmetric_bound_and_identity(formulas_200):
    t0 = time.time()
    max_dim = exact_checked = 0
    for i, f in enumerate(formulas_200):
        e = measure(f).skinny
        assert e <= 30
        m = sym_matrix(f, "skinny")
        assert m.symmetric, i
        assert m.dim <= 2 * e + 3, (i, m.dim, e)
        assert entries_alphabet_ok(m), i
        max_dim = max(max_dim, m.dim)
        verdict = identity_test(
            f, m, trials=20, spec=PRIME_DEFAULT, seed=1000 + i, exact_upgrade=False
        )
        assert verdict.ok, (i, verdict)
        if e <= 6:
            assert poly_equal(symbolic_det(m), expand_circuit(f)[0]), i
            exact_checked += 1
    report(
        "1",
        f"200 formulas, dim <= 2e+3, alphabet ok, 20-trial identities, "
        f"{exact_checked} exact symbolic (e <= 6), max dim {max_dim}",
        time.time() - t0,
        60,
    )


def test_criterion_2_green_size_bounds(formulas_200, weakly_skew_200):
    t0 = time.time()
    for i, f in enumerate(formulas_200):
        rep = measure(f)
        m = sym_matrix(f, "green")
        assert m.dim <= 2 * rep.green + 3, (i, m.dim, rep.green)
    for i, c in enumerate(weakly_skew_200):
        rep = measure(c)
        m = ws_sym_matrix(c, "green")
        assert m.dim <= 2 * (rep.green + rep.var_inputs) + 1, (i, m.dim, rep)
    report(
        "2",
        "green dims <= 2*gsize+3 (200 formulas) and <= 2(e+i)+1 (200 weakly skew)",
        time.time() - t0,
        60,
    )


def test_criterion_3_nonsymmetric_bounds(formulas_200, weakly_skew_200):
    t0 = time.time()
    with_addition = 0
    for i, f in enumerate(formulas_200):
        v = valiant_matrix(f)
        mini = minimize(f)
        if any(g.kind == "add" for g in mini.gates.values()):
            assert v.dim <= measure(f).green + 1, (i, v.dim)
            with_addition += 1
    for i, c in enumerate(weakly_skew_200):
        rep = measure(c)
        fat_m = ws_nonsym_matrix(c, "fat")
        assert fat_m.dim <= rep.fat + 1, (i, fat_m.dim, rep.fat)
        green_m = ws_nonsym_matrix(c, "green")
        assert green_m.dim <= rep.green + rep.var_inputs + 1, (i, green_m.dim)
        if i % 10 == 0:
            assert identity_test(c, fat_m, seed=i, exact_upgrade=False).ok
            assert identity_test(c, green_m, seed=i, exact_upgrade=False).ok
    report(
        "3",
        f"valiant <= gsize+1 on {with_addition} addition-bearing formulas; "
        f"ws-nonsym <= m+1 and <= e+i+1 on 200 circuits",
        time.time() - t0,
        60,
    )


def test_criterion_4_weakly_skew_symmetric(weakly_skew_200):
    t0 = time.time()
    audited = 0
    max_dim = 0
    for i, c in enumerate(weakly_skew_200):
        m_fat = measure(c).fat
        assert m_fat <= 25
        m = ws_sym_matrix(c, "fat")
        assert m.dim <= 2 * m_fat + 1, (i, m.dim, m_fat)
        max_dim = max(max_dim, m.dim)
        verdict = identity_test(
            c, m, trials=20, spec=PRIME_DEFAULT, seed=4000 + i, exact_upgrade=False
        )
        assert verdict.ok, (i, verdict)
        cert = build_ws_graph(c, "fat")
        if cert.graph.n <= 14:
            check_symmetric_certificate(cert)
            audited += 1
    assert audited >= 40, audited
    report(
        "4",
        f"200 circuits, dim <= 2m+1, identities verified, "
        f"{audited} exhaustive certificate audits (|G| <= 14), max dim {max_dim}",
        time.time() - t0,
        180,
    )


def test_criterion_5_det_symmetrization():
    t0 = time.time()
    dims = {}
    for n in (1, 2):
        abp = build_det_abp(n)
        variables = tuple(
            sorted({w.name for w in abp.digraph.arcs.values() if w.kind != "const"})
        )
        total = path_sum(abp.digraph, enumerate_st_paths(abp.digraph, abp.s, abp.t), variables)
        ref = leibniz_det(
            [
                [DensePolynomial.variable(det_variable(i, j), variables, RATIONAL)
                 for j in range(1, n + 1)]
                for i in range(1, n + 1)
            ]
        )
        assert poly_equal(total, ref), n
        m = det_sym_matrix(n)
        dims[n] = m.dim
        assert m.dim <= 4 * n**3 + 7
        assert poly_equal(symbolic_det(m), ref), n

    for n, trials in ((3, 20), (4, 8), (5, 8)):
        m = det_sym_matrix(n)
        dims[n] = m.dim
        assert m.dim <= 4 * n**3 + 7, (n, m.dim)
        value_matrix = SymbolicMatrix(
            [[Weight.var(det_variable(i, j)) for j in range(1, n + 1)]
             for i in range(1, n + 1)],
            spec=RATIONAL,
        )
        rng = random.Random(500 + n)
        for _ in range(trials):
            point = {
                det_variable(i, j): sample_random(PRIME_DEFAULT, rng)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            }
            assert det_eval(m, point, PRIME_DEFAULT) == det_eval(
                value_matrix, point, PRIME_DEFAULT
            ), n
    report(
        "5",
        "DET_n: symbolic n<=2 (paths + oracle), random n=3 (20 pts), n=4,5; "
        f"dims {dims} within 4n^3+7",
        time.time() - t0,
        120,
    )


def test_criterion_6_characteristic_2():
    t0 = time.time()
    rng = random.Random(260_806)
    max_dim = 0
    for i in range(100):
        budget = rng.randint(2, 20)
        c = _variable_bearing(
            lambda: random_circuit(
                "weakly-skew", budget, 6, rng, spec=GF2_16,
                constant_pool=(1, 2, 3, 0x1F), const_prob=0.15,
            )
        )
        m_fat = measure(c).fat
        assert m_fat <= 20
        a = square_matrix_char2(c)
        assert a.symmetric and a.dim <= 2 * m_fat + 2, (i, a.dim, m_fat)
        max_dim = max(max_dim, a.dim)
        verdict = identity_test(
            c, a, spec=GF2_16, power=2, seed=6000 + i, exact_upgrade=False
        )
        assert verdict.ok, (i, verdict)

    for n in (1, 2, 3, 4):
        # exact: symbolic det(A + I) against the squared per*(B)
        entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
        b = SymbolicMatrix(entries, spec=GF2)
        pstar = partial_permanent(b)
        lhs = symbolic_det(plus_identity(double_matrix(b).matrix), variables=pstar.variables)
        assert lhs == pstar * pstar, n
    for n in range(1, 7):
        entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
        verdict = partial_perm_identity(
            SymbolicMatrix(entries, spec=GF2 if n <= 4 else GF2_16), trials=20, seed=n
        )
        assert verdict.status == VERIFIED_RANDOM and verdict.field == "GF(2^16)", n
    for n in (1, 2, 3):
        entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
        b = SymbolicMatrix(entries, spec=GF2)
        lhs = symbolic_det(
            plus_identity(double_matrix(b).matrix),
            variables=referee_submatrix_sum(b).variables,
        )
        assert lhs == referee_submatrix_sum(b), n
    report(
        "6",
        f"100 char-2 squares (40-trial identities over GF(2^16), max dim {max_dim} "
        "<= 2m+2); per* identity exact n<=4, random n=1-6; referee check n<=3",
        time.time() - t0,
        120,
    )


def test_criterion_7_golden_paper_examples():
    t0 = time.time()
    first = parse_matrix(
        "5 symmetric\n0 x 0 y -1\nx 0 1 0 0\n0 1 0 -1 0\ny 0 -1 0 1/2\n-1 0 0 1/2 0"
    )
    x_plus_y = expand_circuit(parse_expression("x + y"))[0]
    assert poly_equal(symbolic_det(first), x_plus_y)

    # the universal-ring 4x4 display has a sign slip as printed (its
    # determinant is -(x+y)); swapping its last two rows restores x+y
    printed = parse_matrix("4\nx 0 0 1\n0 y 0 1\n0 0 1 0\n1 1 0 0")
    assert poly_equal(symbolic_det(printed), -x_plus_y.with_variables(("x", "y")))
    corrected = parse_matrix("4\nx 0 0 1\n0 y 0 1\n1 1 0 0\n0 0 1 0")
    assert poly_equal(symbolic_det(corrected), x_plus_y)

    triangle = parse_matrix("3 symmetric\n0 x y\nx 0 z\ny z 0")
    two_xyz = expand_circuit(parse_expression("2*x*y*z"))[0]
    assert poly_equal(symbolic_det(triangle), two_xyz)

    # 2xy admits no 2x2 symmetric representation; nothing here claims one
    c2xy = parse_expression("2*x*y")
    v = valiant_matrix(c2xy)
    assert v.dim == 3
    assert poly_equal(symbolic_det(v), expand_circuit(c2xy)[0])
    s2xy = sym_matrix(c2xy, "green")
    assert s2xy.dim >= 3
    assert poly_equal(symbolic_det(s2xy), expand_circuit(c2xy)[0])

    # (x+y)^2 + 2yz through all four build methods, exactly
    formula = parse_expression("(x+y)*(x+y) + 2*y*z")
    target = expand_circuit(formula)[0]
    fig1b = _fig1b_weakly_skew()
    assert poly_equal(expand_circuit(fig1b)[0], target)
    built = {
        "valiant": valiant_matrix(formula),
        "sym": sym_matrix(formula, "skinny"),
        "ws-sym": ws_sym_matrix(fig1b, "fat"),
        "ws-nonsym": ws_nonsym_matrix(fig1b, "fat"),
    }
    for name, matrix in built.items():
        det = symbolic_det(matrix, limit=32)
        assert poly_equal(det, target), name
    report(
        "7",
        "5x5 and 4x4 displays (sign erratum noted), 2xyz triangle, 2xy fallback, "
        "Fig.1 polynomial through valiant/sym/ws-sym/ws-nonsym exactly",
        time.time() - t0,
        60,
    )


def _fig1b_weakly_skew():
    b = CircuitBuilder(RATIONAL)
    x, y = b.var("x"), b.var("y")
    shared = b.add(x, y)
    x2, y2 = b.var("x"), b.var("y")
    closed_sum = b.add(x2, y2)
    square = b.mul(closed_sum, shared)
    z = b.var("z")
    double_z = b.add(z, z)
    prod = b.mul(double_z, y)
    return b.build([b.add(square, prod)])


def test_criterion_8_dense_polynomial_bounds():
    t0 = time.time()
    rng = random.Random(260_808)
    for _ in range(50):
        n = rng.randint(1, 5)
        d = rng.randint(1, 5)
        p = random_dense_polynomial(n, d, rng)
        f = poly_to_formula(p)
        assert classify(f).is_formula
        bound = bounds_report(n, d).formula_bound
        assert measure(f).skinny <= bound, (n, d)
        assert expand_circuit(f, variables=p.variables)[0] == p
    for n in range(1, 9):
        for d in range(1, 9):
            assert measure(monomial_sum_circuit(n, d)).skinny == 2 * n * d - n + d - 1
    r = bounds_report(1, 1)
    assert (r.formula_bound, r.sym_dimension_bound) == (1, 2)
    r = bounds_report(2, 2)
    assert (r.formula_bound, r.sym_dimension_bound) == (7, 10)
    assert (r.quarez_dimension, r.monomial_formula_size) == (6, 8)
    r = bounds_report(3, 3)
    assert (r.formula_bound, r.sym_dimension_bound) == (28, 38)
    assert r.monomial_formula_size == 3 * math.comb(6, 4)
    report(
        "8",
        "50 dense polynomials within F(n,d); monomial circuit sizes exact for "
        "n,d <= 8; bound table hand-checked at (1,1), (2,2), (3,3)",
        time.time() - t0,
        30,
    )


def _matrix_as_graph(m: SymbolicMatrix):
    if m.symmetric:
        g = WeightedGraph(m.spec)
        for _ in range(m.dim):
            g.add_vertex()
        for i in range(m.dim):
            for j in range(i, m.dim):
                if not m.entry(i, j).is_zero():
                    g.add_edge(i, j, m.entry(i, j))
        return g
    dg = WeightedDigraph(m.spec)
    for _ in range(m.dim):
        dg.add_vertex()
    for i in range(m.dim):
        for j in range(m.dim):
            if not m.entry(i, j).is_zero():
                dg.add_arc(i, j, m.entry(i, j))
    return dg


def test_criterion_9_oracle_coherence_and_perturbations():
    t0 = time.time()
    rng = random.Random(260_809)

    corpus: list[SymbolicMatrix] = [
        parse_matrix("3 symmetric\n0 x y\nx 0 z\ny z 0"),
        parse_matrix("5 symmetric\n0 x 0 y -1\nx 0 1 0 0\n0 1 0 -1 0\n"
                     "y 0 -1 0 1/2\n-1 0 0 1/2 0"),
        parse_matrix("4\nx 0 0 1\n0 y 0 1\n0 0 1 0\n1 1 0 0"),
    ]
    while len(corpus) < 40:
        f = random_circuit("formula", rng.randint(0, 1), 2, rng, const_prob=0.2)
        m = sym_matrix(f, "skinny")
        if m.dim <= 6:
            corpus.append(m)
        n = ws_nonsym_matrix(f, "green")
        if n.dim <= 6:
            corpus.append(n)
    checked = 0
    for m in corpus:
        if m.dim > 6:
            continue
        g = _matrix_as_graph(m)
        variables = m.variables()
        assert cycle_cover_sum(g, signed=True, variables=variables) == symbolic_det(
            m, variables=variables
        )
        assert cycle_cover_sum(g, signed=False, variables=variables) == ryser_permanent(
            m, variables=variables
        )
        checked += 1
    assert checked >= 40

    caught = total = 0
    instances = []
    while len(instances) < 50:
        f = random_circuit("formula", rng.randint(2, 8), 3, rng, const_prob=0.1)
        instances.append((f, sym_matrix(f, "skinny")))
    while total < 1000:
        f, m = instances[total % len(instances)]
        bad = mutate_matrix(m, rng)
        total += 1
        if identity_test(f, bad, seed=9000 + total, exact_upgrade=False).status == "FAILED":
            caught += 1
    rate = caught / total
    assert rate >= 0.99, f"caught {caught}/{total}"
    report(
        "9",
        f"oracle quadrangle on {checked} matrices <= 6x6; perturbation suite "
        f"caught {caught}/{total} mutations ({100 * rate:.1f}% >= 99%)",
        time.time() - t0,
        120,
    )
