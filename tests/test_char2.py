import math
import operator
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdet import char2
from symdet.char2 import (
    NotCharTwo,
    double_matrix,
    partial_perm_identity,
    partial_permanent,
    per_star_lanes,
    plus_identity,
    render_partial_permanent,
    square_matrix_char2,
)
from symdet.circuits import CircuitBuilder, measure, random_circuit
from symdet.fields import (
    GF2,
    GF2_16,
    PRIME_DEFAULT,
    RATIONAL,
    FieldSpec,
    MixedFields,
    sample_random,
)
from symdet.cli import main
from symdet.graphs import CONSTW, VARW, SymbolicMatrix, Weight, parse_matrix
from symdet.oracles import enumerate_cycle_covers, referee_submatrix_sum, symbolic_det
from symdet.polynomials import DensePolynomial, parse_polynomial
from symdet.verify import FAILED, VERIFIED_RANDOM, CompiledMatrix, det_eval, identity_test
from tests.conftest import lanes_of, per_term_render, poly_equal


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
    assert verdict.status == VERIFIED_RANDOM and verdict.field == "GF(2^16)"
    assert verdict.dimension == verdict.degree_bound == 2


def small_pperm_matrices(spec):
    """For n = 1-4: the all-variable B, and B with a constant and a scaled
    entry."""
    for n in (1, 2, 3, 4):
        b = all_variable(n, spec)
        yield b
        c = spec.one() if spec == GF2 else spec.from_bits(0x1F)
        yield SymbolicMatrix(
            [[Weight.const(c) if (i, j) == (0, 0) else
              Weight.scaled(f"b{i}_{j}", c) if (i, j) == (n - 1, 0) else b.entry(i, j)
              for j in range(n)] for i in range(n)],
            spec=spec)


def test_partial_perm_identity_symbolic_n_le_4():
    """The identity holds exactly: symbolic det(A + I) against per*(B)^2."""
    for spec in (GF2, GF2_16):
        for b in small_pperm_matrices(spec):
            lhs = symbolic_det(plus_identity(double_matrix(b).matrix), variables=b.variables())
            rhs = partial_permanent(b).with_variables(b.variables())
            assert lhs == rhs * rhs, (spec, b.dim)


def test_partial_perm_identity_random_n5_n6():
    for n in (5, 6):
        entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
        b = SymbolicMatrix(entries, spec=GF2_16)
        verdict = partial_perm_identity(b, trials=20, seed=n)
        assert verdict.status == VERIFIED_RANDOM, n


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("trials", [0, -3])
def test_partial_perm_identity_rejects_fewer_than_one_trial(n, trials):
    entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError, match="at least one trial"):
        partial_perm_identity(SymbolicMatrix(entries, spec=GF2_16), trials=trials)


def test_partial_perm_identity_needs_characteristic_2():
    b = SymbolicMatrix([[Weight.var("b")]], spec=GF2)
    with pytest.raises(NotCharTwo):
        partial_perm_identity(b, spec=PRIME_DEFAULT)


def test_plus_identity_refuses_an_occupied_diagonal():
    a = SymbolicMatrix([[Weight.const(GF2.zero()), Weight.var("a")],
                        [Weight.var("b"), Weight.var("c")]], spec=GF2)
    with pytest.raises(ValueError, match="diagonal already occupied"):
        plus_identity(a)


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


def test_partial_permanent_rejects_ragged_rows():
    o = GF2_16.one()
    with pytest.raises(ValueError, match="square matrix"):
        partial_permanent([[o, o], [o]])
    with pytest.raises(ValueError, match="square matrix"):
        partial_permanent([[o], [o, o]])
    with pytest.raises(ValueError, match="empty matrix"):
        partial_permanent([])


def test_partial_permanent_rejects_mixed_value_rows():
    with pytest.raises(MixedFields):
        partial_permanent([[GF2_16.one(), GF2.one()], [GF2_16.one(), GF2_16.one()]])


# -- per*(B) against references written here ------------------------------------

PPERM_NAMES = ("x", "y", "z", "w")


def element(spec):
    if spec.kind == "binary":
        return st.integers(0, spec.size - 1).map(spec.from_bits)
    return st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6)).map(spec.from_int)


def pperm_entry(spec):
    """Zero, constant, variable and scaled-variable weights over a small
    name pool, so that monomials repeat, merge and (in characteristic 2)
    cancel."""
    return st.one_of(
        st.just(Weight.const(spec.zero())),
        element(spec).map(Weight.const),
        st.sampled_from(PPERM_NAMES).map(Weight.var),
        st.sampled_from(PPERM_NAMES).map(Weight.var),
        st.tuples(st.sampled_from(PPERM_NAMES), element(spec)).map(
            lambda t: Weight.scaled(*t)),
    )


def brute_per_star(b: SymbolicMatrix) -> DensePolynomial:
    """Sum over every injective partial map of the product of its entries."""
    n, spec, variables = b.dim, b.spec, b.variables()
    pos = {v: k for k, v in enumerate(variables)}
    total = {}
    for k in range(n + 1):
        for rows in combinations(range(n), k):
            for cols in permutations(range(n), k):
                c, mono = spec.one(), [0] * len(variables)
                for i, j in zip(rows, cols):
                    w = b.entry(i, j)
                    if w.kind != VARW:
                        c = c * w.coeff
                    if w.kind != CONSTW:
                        mono[pos[w.name]] += 1
                key = tuple(mono)
                total[key] = total.get(key, spec.zero()) + c
    return DensePolynomial(spec, variables, total)


@pytest.mark.parametrize("spec", [GF2, GF2_16, RATIONAL, PRIME_DEFAULT],
                         ids=["GF2", "GF2_16", "Q", "p61"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_symbolic_partial_permanent_matches_brute_force(spec, data):
    n = data.draw(st.integers(1, 5))
    entry = pperm_entry(spec)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    b = SymbolicMatrix(rows, spec=spec)
    p = partial_permanent(b)
    assert p == brute_per_star(b)
    assert p.render() == brute_per_star(b).render()


@pytest.mark.parametrize("spec", [GF2, GF2_16, RATIONAL, PRIME_DEFAULT],
                         ids=["GF2", "GF2_16", "Q", "p61"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_render_partial_permanent_matches_polynomial_render(spec, data):
    """The text printed from packed monomials is the text of the polynomial,
    by the packed formatter and by the per-term formatter it replaced."""
    n = data.draw(st.integers(1, 6))
    entry = pperm_entry(spec)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    b = SymbolicMatrix(rows, spec=spec)
    p = partial_permanent(b)
    assert render_partial_permanent(b) == p.render() == per_term_render(p)


def boxed_per_star(rows):
    """per* of field-element rows by the used-column DP on boxed elements."""
    n, spec = len(rows), rows[0][0].spec
    acc = {0: spec.one()}
    for i in range(n):
        nxt = {}
        for mask, val in acc.items():
            nxt[mask] = nxt.get(mask, spec.zero()) + val
            for j in range(n):
                if not mask >> j & 1:
                    key = mask | 1 << j
                    nxt[key] = nxt.get(key, spec.zero()) + val * rows[i][j]
        acc = nxt
    return sum(acc.values(), spec.zero())


LANE_FIELDS = [FieldSpec.prime(101), FieldSpec.binary(8), GF2_16, FieldSpec.binary(24)]


@pytest.mark.parametrize("spec", LANE_FIELDS, ids=[str(f) for f in LANE_FIELDS])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), t=st.sampled_from([1, 2, 7]))
def test_lane_partial_permanent_matches_boxed_reference(spec, data, t):
    n = data.draw(st.integers(1, 6))
    small = st.integers(0, 2).map(
        spec.from_bits if spec.kind == "binary" else spec.from_int)
    entry = st.one_of(pperm_entry(spec), small.map(Weight.const))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    b = SymbolicMatrix(rows, spec=spec)
    value = st.one_of(small, element(spec))  # some entries vanish in some lanes
    points = [{v: data.draw(value) for v in PPERM_NAMES} for _ in range(t)]
    lanes = per_star_lanes(CompiledMatrix(b, spec), lanes_of(points), t)
    assert len(lanes) == t
    for x, point in zip(lanes, points):
        expected = boxed_per_star([[w.eval(point, spec) for w in row] for row in b.entries])
        assert x == expected.value


def test_boxed_reference_agrees_with_value_rows():
    rng = random.Random(5)
    for n in range(1, 6):
        rows = [[sample_random(GF2_16, rng) for _ in range(n)] for _ in range(n)]
        assert partial_permanent(rows) == boxed_per_star(rows)


# -- the folded DP: the last row straight into the total -----------------------


def with_zero_row(data, spec, n, entry):
    """``n`` rows of ``entry`` weights, one of them (the last one, often)
    all zero."""
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    zero = data.draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
    rows[zero] = [Weight.const(spec.zero())] * n
    return SymbolicMatrix(rows, spec=spec)


@pytest.mark.parametrize("spec", [GF2, GF2_16, RATIONAL, FieldSpec.prime(101)], ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_folded_symbolic_per_star_matches_brute_force_with_a_zero_row(spec, data):
    n = data.draw(st.integers(1, 4))
    b = with_zero_row(data, spec, n, pperm_entry(spec))
    want = brute_per_star(b)
    assert partial_permanent(b) == want
    assert render_partial_permanent(b) == per_term_render(want)


@pytest.mark.parametrize("spec", [FieldSpec.prime(101), GF2_16], ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), t=st.sampled_from([1, 3]))
def test_folded_lane_per_star_matches_brute_force_with_a_zero_row(spec, data, t):
    n = data.draw(st.integers(1, 4))
    b = with_zero_row(data, spec, n, pperm_entry(spec))
    points = [{v: data.draw(element(spec)) for v in PPERM_NAMES} for _ in range(t)]
    lanes = per_star_lanes(CompiledMatrix(b, spec), lanes_of(points), t)
    want = brute_per_star(b)
    assert lanes == [want.evaluate(point).value for point in points]


@pytest.mark.parametrize("spec", [FieldSpec.prime(101), GF2_16, RATIONAL], ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_folded_value_per_star_matches_the_unfolded_dp_with_a_zero_row(spec, data):
    n = data.draw(st.integers(1, 5))
    rows = [[w.coeff for w in row]
            for row in with_zero_row(data, spec, n, element(spec).map(Weight.const)).entries]
    assert partial_permanent(rows) == boxed_per_star(rows)


def test_per_star_of_no_rows_and_of_one_empty_row_is_one():
    """The empty partial map alone: ``one`` itself, for every kind of value."""
    arith = GF2_16.arith
    kinds = [({0: GF2_16.one()}, char2._merge, char2._times, char2._addmul),
             ([1, 1, 1], arith.add, arith.mul, arith.addmul),
             (GF2_16.one(), operator.add, operator.mul, lambda x, v, e: x + v * e)]
    for one, *ops in kinds:
        assert char2._per_star([], one, *ops) is one
        assert char2._per_star([{}], one, *ops) is one


def test_per_star_of_one_row_adds_each_entry_to_one():
    x, y = GF2_16.from_bits(0x1F), GF2_16.from_bits(3)
    assert partial_permanent([[x]]) == GF2_16.one() + x
    arith = GF2_16.arith
    assert char2._per_star([{0: [2, 0], 1: [5, 7]}], [1, 1], arith.add, arith.mul,
                           arith.addmul) == [1 ^ 2 ^ 5, 1 ^ 7]
    b = SymbolicMatrix([[Weight.scaled("a", y)]], spec=GF2_16)
    assert render_partial_permanent(b) == "0x1 + 0x3 * a"


# -- verdicts ------------------------------------------------------------------


def all_variable(n, spec):
    entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
    return SymbolicMatrix(entries, spec=spec)


@pytest.mark.parametrize("n,trials", [(1, 20), (2, 20), (3, 20), (4, 20), (5, 20), (6, 3), (7, 1)])
def test_random_verdict_states_schwartz_zippel_bound(n, trials):
    verdict = partial_perm_identity(all_variable(n, GF2_16), trials=trials, seed=1)
    assert verdict.status == VERIFIED_RANDOM and verdict.trials == trials
    assert verdict.dimension == verdict.degree_bound == 2 * n
    assert verdict.error_bound_log2 == pytest.approx(trials * math.log2(2 * n / 2**16))


def test_random_verdict_reports_first_mismatch(monkeypatch):
    real = char2.per_star_lanes

    def off_by_one_in_lane_2(compiled, lanes, t):
        out = real(compiled, lanes, t)
        out[2] ^= 1
        return out

    monkeypatch.setattr(char2, "per_star_lanes", off_by_one_in_lane_2)
    for n in (2, 5):
        b = all_variable(n, GF2_16)
        verdict = partial_perm_identity(b, trials=4, seed=3)
        assert verdict.status == FAILED and verdict.trials == 4 and verdict.seed == 3
        assert verdict.degree_bound == 2 * n
        # the witness is the point of lane 2, where per* was bumped by one
        point = {v: GF2_16.from_bits(int(x, 16)) for v, x in verdict.witness_point.items()}
        assert sorted(point) == list(b.variables())
        det = det_eval(plus_identity(double_matrix(b).matrix), point)
        pstar = partial_permanent([[w.eval(point, GF2_16) for w in row] for row in b.entries])
        assert verdict.lhs == det.render() == (pstar * pstar).render()
        assert verdict.rhs == ((pstar + 1) * (pstar + 1)).render()


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6])
def test_identity_embeds_b_into_the_test_field_for_every_n(n):
    """The verdict does not depend on n: B over Q is compared in GF(2^16)."""
    assert partial_perm_identity(all_variable(n, RATIONAL), seed=2).ok
    entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
    entries[0][0] = Weight.const(RATIONAL.from_fraction("1/3"))
    entries[-1][0] = Weight.scaled("b0_1", RATIONAL.from_int(2))  # embeds to 0
    b = SymbolicMatrix(entries, spec=RATIONAL)
    assert partial_perm_identity(b, seed=2).ok


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6])
def test_identity_rejects_entries_without_an_image(n):
    with pytest.raises(MixedFields):
        partial_perm_identity(all_variable(n, PRIME_DEFAULT).with_entry(
            0, 0, Weight.const(PRIME_DEFAULT.from_int(3))))
    entries = [[Weight.var(f"b{i}_{j}") for j in range(n)] for i in range(n)]
    entries[0][0] = Weight.const(RATIONAL.from_fraction("1/2"))
    with pytest.raises(MixedFields):
        partial_perm_identity(SymbolicMatrix(entries, spec=RATIONAL))


# constants beside variables: per*(B) runs on scalar ints and lanes at once
MIXED_B = ("5\n"
           "b0 0x3 0 b1 1\n"
           "0x1F b2 1 0 b3\n"
           "1 0 b4 0x3 0\n"
           "0 b0 0x1F 1 b5\n"
           "b6 1 0 0x3 0x1F\n")


def per_star_of_changed_b(monkeypatch, b: SymbolicMatrix, spec) -> None:
    """Make the per*(B) side of the identity read B with its (0, 1) entry
    changed from 0x3 to 0x5, while det(A + I) still reads B."""
    real = char2.per_star_lanes
    changed = CompiledMatrix(b.with_entry(0, 1, Weight.const(spec.from_bits(0x5))), spec)
    monkeypatch.setattr(char2, "per_star_lanes", lambda compiled, lanes, t:
                        real(changed, lanes, t))


def test_partial_perm_identity_with_constant_entries(monkeypatch):
    b = parse_matrix(MIXED_B, GF2_16)
    verdict = partial_perm_identity(b, seed=6)
    assert verdict.status == VERIFIED_RANDOM and verdict.degree_bound == 10
    per_star_of_changed_b(monkeypatch, b, GF2_16)
    assert partial_perm_identity(b, seed=6).status == FAILED


def test_cli_pperm_check_identity_with_constant_entries(tmp_path, capsys, monkeypatch):
    mfile = tmp_path / "b.matrix"
    mfile.write_text(MIXED_B)
    argv = ["pperm", str(mfile), "--field", "gf2_16", "--check-identity", "--seed", "6"]
    assert main(argv) == 0
    per_star, check = capsys.readouterr().out.splitlines()
    assert per_star == brute_per_star(parse_matrix(MIXED_B, GF2_16)).render()
    assert check.endswith(": True")
    per_star_of_changed_b(monkeypatch, parse_matrix(MIXED_B, GF2_16), GF2_16)
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines()[1].endswith(": False")


def test_cli_pperm_builds_no_dense_polynomial(tmp_path, capsys, monkeypatch):
    """``symdet pperm`` prints per*(B) straight from the packed monomials."""
    n = 6
    text = f"{n}\n" + "".join(
        " ".join(f"b{i}_{j}" for j in range(1, n + 1)) + "\n" for i in range(1, n + 1))
    mfile = tmp_path / "b.matrix"
    mfile.write_text(text)
    built = []
    original = DensePolynomial.__init__

    def init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DensePolynomial, "__init__", init)
    argv = ["pperm", str(mfile), "--field", "gf2_16"]
    assert main(argv) == 0
    assert main([*argv, "--check-identity", "--seed", "3"]) == 0
    assert built == []
    monkeypatch.undo()
    plain, checked, verdict = capsys.readouterr().out.splitlines()
    assert plain == checked == partial_permanent(parse_matrix(text, GF2_16)).render()
    assert plain.count(" + ") + 1 == sum(math.comb(n, k) ** 2 * math.factorial(k)
                                         for k in range(n + 1))
    assert verdict.endswith(": True")
