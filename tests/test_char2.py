import pytest

from symdet.char2 import (
    NotCharTwo,
    double_matrix,
    partial_perm_identity,
    partial_permanent,
    plus_identity,
    referee_submatrix_sum,
    square_matrix_char2,
)
from symdet.circuits import CircuitBuilder, measure, random_circuit
from symdet.fields import GF2, GF2_16, RATIONAL
from symdet.graphs import SymbolicMatrix, Weight
from symdet.oracles import enumerate_cycle_covers, symbolic_det
from symdet.polynomials import parse_polynomial
from symdet.verify import identity_test
from tests.conftest import poly_equal


def var_matrix(names, spec=RATIONAL):
    return SymbolicMatrix(
        [[Weight.var(n) for n in row] for row in names], spec=spec
    )


def test_partial_permanent_1x1():
    p = partial_permanent(var_matrix([["a"]]))
    assert poly_equal(p, parse_polynomial("1 + 1 * a", ("a",)))


def test_partial_permanent_zero_matrix():
    z = SymbolicMatrix([[Weight.const(RATIONAL.zero())] * 2 for _ in range(2)])
    assert poly_equal(partial_permanent(z), parse_polynomial("1", ()))


def test_partial_permanent_2x2():
    p = partial_permanent(var_matrix([["a", "b"], ["c", "d"]]))
    expected = parse_polynomial(
        "1 + 1 * a + 1 * b + 1 * c + 1 * d + 1 * a d + 1 * b c",
        ("a", "b", "c", "d"),
    )
    assert poly_equal(p, expected)


def test_partial_permanent_value_matrix():
    rows = [[GF2_16.from_bits(3), GF2_16.from_bits(5)],
            [GF2_16.from_bits(7), GF2_16.from_bits(9)]]
    v = partial_permanent(rows)
    expected = (GF2_16.one() + rows[0][0] + rows[0][1] + rows[1][0] + rows[1][1]
                + rows[0][0] * rows[1][1] + rows[0][1] * rows[1][0])
    assert v == expected


def test_doubling_block_structure():
    m = var_matrix([["a", "b"], ["c", "d"]])
    dbl = double_matrix(m)
    a = dbl.matrix
    assert a.dim == 4 and a.symmetric
    assert a.entry(0, 2).render() == "a" and a.entry(2, 0).render() == "a"
    assert a.entry(0, 1).is_zero() and a.entry(2, 3).is_zero()
    assert not any(u == v for (u, v) in dbl.graph.edges)


def test_matching_bijection_with_cycle_covers(rng):
    """Cycle covers of the source digraph match perfect matchings of the double."""
    from symdet.graphs import WeightedDigraph

    for _ in range(10):
        n = rng.randint(1, 4)
        dg = WeightedDigraph(GF2)
        for _ in range(n):
            dg.add_vertex()
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.5:
                    dg.add_arc(i, j, Weight.const(GF2.one()))
        rows = [[dg.arcs.get((i, j), Weight.const(GF2.zero())) for j in range(n)]
                for i in range(n)]
        m = SymbolicMatrix(rows, spec=GF2)
        covers = enumerate_cycle_covers(dg)
        dbl = double_matrix(m)
        matchings = enumerate_cycle_covers(dbl.graph)
        # each perfect matching appears once as a fixed-point-free involution
        # built from 2-cycles; covers of the digraph biject with them
        two_cycle_covers = [
            c for c in matchings
            if all(c[c[v]] == v and c[v] != v for v in c)
        ]
        assert len(two_cycle_covers) == len(covers)


def test_square_of_single_variable():
    b = CircuitBuilder(GF2_16)
    c = b.build([b.var("x")])
    a = square_matrix_char2(c)
    assert a.symmetric and a.dim <= 2 * measure(c).fat + 2
    d = symbolic_det(a)
    assert poly_equal(d, parse_polynomial("1 * x^2", ("x",), GF2_16))


def test_square_of_sum_is_sum_of_squares():
    b = CircuitBuilder(GF2_16)
    c = b.build([b.add(b.var("x"), b.var("y"))])
    a = square_matrix_char2(c)
    d = symbolic_det(a)
    assert poly_equal(d, parse_polynomial("1 * x^2 + 1 * y^2", ("x", "y"), GF2_16))


def test_square_requires_char2():
    b = CircuitBuilder(RATIONAL)
    c = b.build([b.var("x")])
    with pytest.raises(NotCharTwo):
        square_matrix_char2(c)


def test_squares_random_circuits(rng):
    for i in range(30):
        c = random_circuit("weakly-skew", rng.randint(2, 12), 3, rng,
                           spec=GF2_16, constant_pool=(1, 2, 3))
        a = square_matrix_char2(c)
        assert a.dim <= 2 * measure(c).fat + 2
        v = identity_test(c, a, spec=GF2_16, power=2, seed=i,
                          trials=12, exact_upgrade=False)
        assert v.ok, (i, v)


def test_frobenius_consistency_on_matchings(rng):
    """sum of squared matching weights equals the square of the sum, mod 2."""
    from symdet.oracles import cycle_cover_sum_short
    from symdet.graphs import WeightedGraph

    g = WeightedGraph(GF2)
    for _ in range(4):
        g.add_vertex()
    g.add_edge(0, 2, Weight.var("a"))
    g.add_edge(0, 3, Weight.var("b"))
    g.add_edge(1, 2, Weight.var("c"))
    g.add_edge(1, 3, Weight.var("d"))
    total = cycle_cover_sum_short(g)  # sum of w(mu)^2 over perfect matchings
    plain = parse_polynomial("1 * a d + 1 * b c", ("a", "b", "c", "d"), GF2)
    assert poly_equal(total, plain * plain)


def test_partial_perm_identity_n1_gf2():
    b = SymbolicMatrix([[Weight.var("b")]], spec=GF2)
    verdict = partial_perm_identity(b)
    assert verdict.ok and verdict.method == "symbolic"
    # det [[1, b], [b, 1]] = 1 - b^2 = (1+b)^2 mod 2
    assert "b^2" in verdict.lhs


def test_partial_perm_identity_symbolic_n_le_4(rng):
    for n in (2, 3, 4):
        entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
        b = SymbolicMatrix(entries, spec=GF2)
        verdict = partial_perm_identity(b)
        assert verdict.ok and verdict.method == "symbolic", n


def test_partial_perm_identity_random_n5_n6():
    for n in (5, 6):
        entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
        b = SymbolicMatrix(entries, spec=GF2_16)
        verdict = partial_perm_identity(b, trials=20, seed=n)
        assert verdict.ok and verdict.method == "random", n


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("trials", [0, -3])
def test_partial_perm_identity_rejects_fewer_than_one_trial(n, trials):
    entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError, match="at least one trial"):
        partial_perm_identity(SymbolicMatrix(entries, spec=GF2_16), trials=trials)


def test_parity_of_partial_matchings_via_determinant(rng):
    """For 0/1 matrices, det(A+I) mod 2 is the parity of partial matchings."""
    for _ in range(10):
        n = rng.randint(1, 3)
        rows = [[Weight.const(GF2.from_int(rng.randint(0, 1))) for _ in range(n)]
                for _ in range(n)]
        b = SymbolicMatrix(rows, spec=GF2)
        api = plus_identity(double_matrix(b).matrix)
        det = symbolic_det(api)
        count = partial_permanent(b)
        # both are constants in GF(2); det = count^2 = count
        assert det == count * count


def test_referee_cross_check(rng):
    for n in (1, 2, 3):
        entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
        b = SymbolicMatrix(entries, spec=GF2)
        lhs = symbolic_det(plus_identity(double_matrix(b).matrix),
                           variables=referee_submatrix_sum(b).variables)
        assert lhs == referee_submatrix_sum(b)
