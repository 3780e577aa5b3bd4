import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdet.circuits import CircuitBuilder, random_circuit
from symdet.determinant import build_det_abp
from symdet.fields import GF2, GF2_16, PRIME_DEFAULT, RATIONAL, FieldSpec, embed
from symdet.formulas import build_sym_graph, build_valiant_digraph
from symdet.graphs import (
    PathSumCertificate,
    SymbolicMatrix,
    Weight,
    WeightedDigraph,
    WeightedGraph,
    adjacency,
    close_abp,
    close_symmetric,
    eliminate_pivots,
    entries_alphabet_ok,
    export_dot,
    parse_matrix,
    parse_weight,
    render_matrix,
    split_vertices,
)
from symdet.oracles import (
    _is_weight1_matching,
    all_cycles_even,
    check_symmetric_certificate,
    cycle_cover_sum,
    cycle_cover_sum_short,
    enumerate_cycle_covers,
    enumerate_st_paths,
    path_sum,
    referee_submatrix_sum,
    ryser_permanent,
    symbolic_det,
)
from symdet.polynomials import DensePolynomial, TooLarge, parse_polynomial
from symdet.verify import CompiledMatrix, _dense_det
from symdet.weakly_skew import build_ws_abp, build_ws_graph
from tests.conftest import lanes_of, poly_equal


def wv(name):
    return Weight.var(name)


def wc(n):
    return Weight.const(RATIONAL.from_fraction(n))


def triangle_2xyz():
    g = WeightedGraph()
    for _ in range(3):
        g.add_vertex()
    g.add_edge(0, 1, wv("x"))
    g.add_edge(0, 2, wv("y"))
    g.add_edge(1, 2, wv("z"))
    return g


def test_adjacency_of_graph_is_symmetric():
    g = WeightedGraph()
    for _ in range(2):
        g.add_vertex()
    g.add_edge(0, 1, wv("x"))
    m = adjacency(g)
    assert m.symmetric
    assert m.entry(0, 1).render() == "x" and m.entry(1, 0).render() == "x"
    assert m.entry(0, 0).is_zero()


def test_adjacency_of_digraph_not_symmetric():
    dg = WeightedDigraph()
    for _ in range(2):
        dg.add_vertex()
    dg.add_arc(0, 1, wv("x"))
    m = adjacency(dg)
    assert not m.symmetric
    assert m.entry(0, 1).render() == "x"
    assert m.entry(1, 0).is_zero()


@pytest.mark.parametrize("u,v", [(0, 2), (2, 0), (-1, 0), (0, -1), (2, 2)])
def test_add_arc_refuses_an_arc_outside_the_vertex_range(u, v):
    """``add_arc`` is the one range check on the way to ``adjacency``."""
    dg = WeightedDigraph()
    for _ in range(2):
        dg.add_vertex()
    with pytest.raises(ValueError, match=re.escape(f"arc {u}->{v} outside vertex range")):
        dg.add_arc(u, v, wv("x"))
    assert not dg.arcs


@pytest.mark.parametrize("rows,message", [
    ([{0: wv("x")}, {2: wv("y")}], "matrix entry outside the square"),
    ([{0: wv("x")}, {-1: wv("y")}], "matrix entry outside the square"),
    ([[wv("x"), wc(1)], [wv("y")]], "matrix is not square"),
])
def test_symbolic_matrix_refuses_a_row_that_does_not_fit(rows, message):
    """The checks of the public constructor, which ``adjacency`` and
    ``parse_matrix`` do not take."""
    with pytest.raises(ValueError, match=message):
        SymbolicMatrix(rows)


def test_adjacency_rows_are_those_the_checked_constructor_stores():
    """Arcs and edges added in random order: ``adjacency`` stores, key
    order included, the rows that ``SymbolicMatrix`` stores from the same
    cells through its checked path, and flags a graph symmetric."""
    rng = random.Random(31)
    weights = [wv("x"), wv("y"), wc(2), wc(-1), wc("1/2"),
               Weight.scaled("z", RATIONAL.from_int(3))]
    for _ in range(300):
        n = rng.randint(0, 9)
        g = rng.choice([WeightedDigraph, WeightedGraph])()
        for _ in range(n):
            g.add_vertex()
        cells = [(u, v) for u in range(n) for v in range(n)]
        rng.shuffle(cells)
        for u, v in cells[:rng.randint(0, len(cells))]:
            if (u, v) not in g.arcs:
                add = g.add_edge if isinstance(g, WeightedGraph) else g.add_arc
                add(u, v, rng.choice(weights))
        cells = [{v: w for (r, v), w in g.arcs.items() if r == u} for u in range(n)]
        symmetric = isinstance(g, WeightedGraph)
        want = SymbolicMatrix(cells, spec=g.spec, symmetric=symmetric)
        m = adjacency(g)
        assert m.symmetric == symmetric
        assert [list(row.items()) for row in m.rows] == [list(row.items()) for row in want.rows]


def test_triangle_matrix_and_det():
    m = adjacency(triangle_2xyz())
    d = symbolic_det(m)
    assert poly_equal(d, parse_polynomial("2 * x y z", ("x", "y", "z")))


def test_no_parallel_edges():
    g = WeightedGraph()
    for _ in range(2):
        g.add_vertex()
    g.add_edge(0, 1, wv("x"))
    with pytest.raises(ValueError):
        g.add_edge(1, 0, wv("y"))


def test_zero_weight_edges_omitted():
    g = WeightedGraph()
    for _ in range(2):
        g.add_vertex()
    g.add_edge(0, 1, wc(0))
    assert not g.edges


def test_cycle_cover_sum_two_vertex():
    g = WeightedGraph()
    for _ in range(2):
        g.add_vertex()
    g.add_edge(0, 1, wv("x"))
    signed = cycle_cover_sum(g, signed=True)
    unsigned = cycle_cover_sum(g, signed=False)
    assert poly_equal(signed, parse_polynomial("-1 * x^2", ("x",)))
    assert poly_equal(unsigned, parse_polynomial("1 * x^2", ("x",)))


def test_cycle_cover_sum_triangle():
    g = triangle_2xyz()
    assert poly_equal(
        cycle_cover_sum(g, signed=True), parse_polynomial("2 * x y z", ("x", "y", "z"))
    )


def test_cycle_cover_too_large():
    g = WeightedGraph()
    for _ in range(13):
        g.add_vertex()
    with pytest.raises(TooLarge):
        cycle_cover_sum(g, signed=True)


def test_reversing_cycles_are_distinct_covers():
    g = triangle_2xyz()
    covers = enumerate_cycle_covers(g)
    # the triangle has two orientations; no other cover exists (no loops)
    assert len(covers) == 2
    weights = [cycle_cover_sum(g, signed=False)]
    assert weights[0].coeffs  # both orientations add up, coefficient 2


def test_oracle_coherence_random_matrices(rng):
    names = ("a", "b", "c", "d")
    for trial in range(20):
        n = rng.randint(1, 4)
        g = WeightedGraph()
        for _ in range(n):
            g.add_vertex()
        for i in range(n):
            for j in range(i, n):
                r = rng.random()
                if r < 0.4:
                    g.add_edge(i, j, wv(rng.choice(names)))
                elif r < 0.6:
                    g.add_edge(i, j, wc(rng.randint(-3, 3)))
        m = adjacency(g)
        det = symbolic_det(m)
        per = ryser_permanent(m)
        assert poly_equal(det, cycle_cover_sum(g, signed=True))
        assert poly_equal(per, cycle_cover_sum(g, signed=False))


def test_short_cover_k2_example():
    g = WeightedGraph(GF2)
    for _ in range(2):
        g.add_vertex()
    one = Weight.const(GF2.one())
    g.add_edge(0, 0, one)
    g.add_edge(1, 1, one)
    g.add_edge(0, 1, wv("b"))
    s = cycle_cover_sum_short(g)
    assert poly_equal(s, parse_polynomial("1 + 1 * b^2", ("b",), GF2))


def test_short_cover_single_loop():
    g = WeightedGraph(GF2)
    g.add_vertex()
    g.add_edge(0, 0, Weight.const(GF2.one()))
    s = cycle_cover_sum_short(g)
    assert s == parse_polynomial("1", (), GF2)


def test_short_cover_equals_det_mod2(rng):
    for trial in range(15):
        n = rng.randint(1, 6)
        g = WeightedGraph(GF2)
        for _ in range(n):
            g.add_vertex()
        for i in range(n):
            for j in range(i, n):
                r = rng.random()
                if r < 0.35:
                    g.add_edge(i, j, wv(f"e{i}{j}"))
                elif r < 0.5:
                    g.add_edge(i, j, Weight.const(GF2.one()))
        det2 = symbolic_det(adjacency(g))
        short = cycle_cover_sum_short(g)
        assert poly_equal(det2, short), trial


def test_matrix_text_round_trip():
    m = adjacency(triangle_2xyz())
    text = render_matrix(m)
    assert text.splitlines()[0] == "3 symmetric"
    back = parse_matrix(text)
    assert back.dim == 3 and back.symmetric
    assert render_matrix(back) == text


@pytest.mark.parametrize("text", [
    "3 symmetric\n0 x\nx 0",          # header larger than the rows given
    "2\n0 x\nx 0\n1 1",               # rows past the header count
    "2\n0 x\nx 0 1",                   # a row longer than the header says
])
def test_parse_matrix_rejects_dimension_mismatch(text):
    with pytest.raises(ValueError, match="dimension"):
        parse_matrix(text)


def test_matrix_json():
    m = adjacency(triangle_2xyz())
    js = m.to_json()
    assert js["dim"] == 3 and js["symmetric"] is True
    assert js["entries"][0][1] == "x"


def test_symmetry_flag_validated():
    with pytest.raises(ValueError):
        SymbolicMatrix([[wc(0), wv("x")], [wv("y"), wc(0)]], symmetric=True)


def test_entries_alphabet():
    ok = parse_matrix("2 symmetric\n0 x\nx 1/2")
    assert entries_alphabet_ok(ok)
    bad = parse_matrix("1\n7")
    assert not entries_alphabet_ok(bad)
    scaled = SymbolicMatrix([[Weight.scaled("x", RATIONAL.from_int(5))]], spec=RATIONAL)
    assert scaled.entry(0, 0).render() == "5*x"
    assert not entries_alphabet_ok(scaled)


def test_export_dot():
    g = WeightedGraph()
    s, t = g.add_vertex(), g.add_vertex()
    g.add_edge(s, t, wv("x"))
    g.roles.update(s=s, t=t)
    dot = export_dot(g)
    assert "graph G {" in dot and '--' in dot and 'label="x"' in dot
    assert "doublecircle" in dot
    dg = WeightedDigraph()
    a, b = dg.add_vertex(), dg.add_vertex()
    dg.add_arc(a, b, wv("x"))
    assert "->" in export_dot(dg)
    assert export_dot(dg) == export_dot(dg)


def test_st_paths_enumeration():
    g = triangle_2xyz()
    paths = enumerate_st_paths(g, 0, 2)
    assert sorted(paths) == [[0, 1, 2], [0, 2]]
    assert enumerate_st_paths(g, 1, 1) == [[1]]  # the one path of no arcs


def test_reversing_a_cover_cycle_preserves_weight(rng):
    """In a symmetric digraph, flipping the orientation of one cycle of a
    cover yields another cover of the same weight."""
    from symdet.oracles import cover_cycles, cover_weight
    from symdet.fields import RATIONAL

    for _ in range(10):
        n = rng.randint(3, 6)
        g = WeightedGraph()
        for _ in range(n):
            g.add_vertex()
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    g.add_edge(i, j, wv(f"w{i}{j}"))
        covers = enumerate_cycle_covers(g)
        variables = tuple(sorted(w.name for w in g.edges.values()))
        cover_set = {tuple(sorted(c.items())) for c in covers}
        for cover in covers[:20]:
            for cyc in cover_cycles(cover):
                if len(cyc) < 3:
                    continue
                flipped = dict(cover)
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    flipped[b] = a
                assert tuple(sorted(flipped.items())) in cover_set
                assert cover_weight(g, flipped, variables, RATIONAL) == cover_weight(
                    g, cover, variables, RATIONAL
                )


@pytest.mark.parametrize("token", ["2*", "-", "3*0x", "-x", "+y", "1/2* "])
def test_parse_weight_rejects_names_that_do_not_read_back(token):
    with pytest.raises(ValueError, match=re.escape(repr(token.strip()))):
        parse_weight(token, RATIONAL)


# -- the sparse representation against a dense reference ----------------------

# tokens of matrix files: several spellings of zero, constants, variables
# and scaled variables, scaled zeros included (they stay stored)
TOKENS = {
    RATIONAL: ["0", "0/3", "-0", "1", "-1", "1/2", "3", "-7/5",
               "x", "y", "z", "2*x", "-1*y", "0*x", "0/5*z"],
    GF2_16: ["0", "0x0", "0x00", "0x1", "0x1f", "3", "0xabc",
             "x", "y", "z", "0x3*x", "0x0*y", "0*z"],
}
ZEROS = {RATIONAL: ["0", "0/3", "-0", "0/5"], GF2_16: ["0", "0x0", "0x00", "-0", "0/5"]}


@st.composite
def token_grids(draw, spec):
    """A square grid of tokens, mostly zeros; symmetric (then perturbed at
    a few cells) half of the time, so the first broken pair varies."""
    n = draw(st.integers(1, 6))
    token = st.one_of(st.sampled_from(ZEROS[spec]), st.sampled_from(TOKENS[spec]))
    grid = [[draw(token) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                grid[j][i] = grid[i][j]
        for _ in range(draw(st.integers(0, 2))):
            grid[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(token)
    return grid


def dense_text(grid) -> list[list[str]]:
    return [[w.render() for w in row] for row in grid]


def first_broken_pair(grid):
    n = len(grid)
    for i in range(n):
        for j in range(i):
            if grid[i][j] != grid[j][i]:
                return i, j
    return None


@pytest.mark.parametrize("spec", [RATIONAL, GF2_16], ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sparse_matrix_matches_dense_reference(spec, data):
    tokens = data.draw(token_grids(spec))
    grid = [[parse_weight(tok, spec) for tok in row] for row in tokens]
    n = len(grid)
    broken = first_broken_pair(grid)
    header = f"{n}" if broken else f"{n} symmetric"
    text = "\n".join([header] + [" ".join(row) for row in tokens]) + "\n"
    m = parse_matrix(text, spec)
    built = [
        SymbolicMatrix(grid, spec=spec, symmetric=not broken),
        # rows given right to left are stored in column order all the same
        SymbolicMatrix([dict(reversed(list(enumerate(row)))) for row in grid], spec=spec,
                       symmetric=not broken),
    ]
    rendered = "\n".join([header] + [" ".join(r) for r in dense_text(grid)]) + "\n"
    # parse_matrix hands its rows over unchecked: they are the checked ones
    checked = SymbolicMatrix(m.entries, spec=spec, symmetric=not broken)
    assert [list(row.items()) for row in m.rows] == [list(row.items()) for row in checked.rows]
    for x in [m] + built:
        assert all(list(row) == sorted(row) for row in x.rows)
        assert x.entries == tuple(tuple(row) for row in grid)
        assert all(x.entry(i, j) == grid[i][j] for i in range(n) for j in range(n))
        assert x.variables() == tuple(sorted({w.name for row in grid for w in row
                                              if w.kind != "const"}))
        assert render_matrix(x) == rendered
        assert x.to_json() == {"dim": n, "symmetric": not broken,
                               "entries": dense_text(grid)}
        assert render_matrix(parse_matrix(rendered, spec)) == rendered
    if broken:
        for rows in (grid, [{j: w for j, w in enumerate(row)} for row in grid]):
            with pytest.raises(ValueError, match=re.escape("symmetry broken at (%d,%d)" % broken)):
                SymbolicMatrix(rows, spec=spec, symmetric=True)
        with pytest.raises(ValueError, match=re.escape("symmetry broken at (%d,%d)" % broken)):
            parse_matrix("\n".join([f"{n} symmetric"] + [" ".join(row) for row in tokens]), spec)

    # determinants: the compiled sparse path against dense elimination
    names = ("x", "y", "z")
    if spec == RATIONAL:
        values = data.draw(st.tuples(*[st.integers(-50, 50)] * 3))
        point = {v: RATIONAL.from_int(x) for v, x in zip(names, values)}
        exact = _dense_det([[w.eval(point, spec) for w in row] for row in grid], spec)
        for target in (PRIME_DEFAULT, FieldSpec.prime(65537)):
            compiled = CompiledMatrix(m, target)
            lane = compiled.lane_det(lanes_of([{v: embed(x, target) for v, x in point.items()}]), 1)
            assert lane == [embed(exact, target).value]
    else:
        values = data.draw(st.tuples(*[st.integers(0, spec.size - 1)] * 3))
        point = {v: spec.from_bits(x) for v, x in zip(names, values)}
        exact = _dense_det([[w.eval(point, spec) for w in row] for row in grid], spec)
        assert CompiledMatrix(m, spec).lane_det(lanes_of([point]), 1) == [exact.value]


def _small_abp() -> WeightedDigraph:
    """s -> a -> t with weights x, y, and the parallel arc s -> t of weight z."""
    dg = WeightedDigraph()
    s, a, t = (dg.add_vertex() for _ in range(3))
    dg.add_arc(s, a, wv("x"))
    dg.add_arc(a, t, wv("y"))
    dg.add_arc(s, t, wv("z"))
    dg.roles.update(s=s, a=a, t=t)
    return dg


@pytest.mark.parametrize("single", [(0,), (0, 2)])
def test_split_vertices_pairs_the_split_vertices_in_order(single):
    dg = _small_abp()
    g, copies = split_vertices(dg, single)
    expected, n = [], 0
    for v in range(3):
        expected.append((n, n) if v in single else (n, n + 1))
        n = expected[-1][1] + 1
    assert copies == expected and g.n == n
    edges = {(copies[v][0], copies[v][1]): wc(-1) for v in range(3) if v not in single}
    for (u, v), w in dg.arcs.items():
        edges[tuple(sorted((copies[u][1], copies[v][0])))] = w
    assert g.edges == edges
    # an unsplit vertex keeps its role; the split a loses it
    assert g.roles == {role: copies[v][0] for role, v in dg.roles.items() if v in single}


@pytest.mark.parametrize("single, whole", [
    pytest.param((0,), 1, id="odd-1"),
    pytest.param((0, 2), 2, id="even-2"),
])
def test_close_symmetric_determinant_is_the_signed_path_sum(single, whole):
    """At odd |G| (s whole) the closing is the edge t-s, at even |G| (s and
    t whole) one more vertex.  A cover runs one s-t path through the closing
    in either direction and pairs the rest of G by its -1 links, so the
    determinant is c times the path sum that counts paths of ``whole``
    vertices (mod 4) positively and the others negatively; the links of the
    split vertices cancel that sign, which leaves the program's unsigned
    path sum c * (x*y + z)."""
    g, copies = split_vertices(_small_abp(), single)
    s, t = copies[0][0], copies[2][1]
    c = RATIONAL.from_int(3)
    before = (g.n, dict(g.edges), dict(g.roles))
    m = close_symmetric(g, s, t, c)
    assert (g.n, g.edges, g.roles) == before
    assert m.symmetric and m.dim == g.n + (g.n + 1) % 2 and g.n % 2 == whole % 2
    names = ("x", "y", "z")
    x, y, z = (DensePolynomial.variable(v, names, RATIONAL) for v in names)
    if len(single) == 1:  # s a_in a_out t_in t_out, and s t_in t_out
        paths = [(5, x * y), (3, -z)]
    else:                 # s a_in a_out t, and s t
        paths = [(4, -(x * y)), (2, z)]
    total = DensePolynomial.zero(RATIONAL, names)
    for vertices, w in paths:
        total = total + w.scale(RATIONAL.from_int((-1) ** ((vertices - whole) // 2 % 2)))
    assert total == x * y + z
    assert poly_equal(symbolic_det(m), total.scale(c))


def _lowering_programs(kind, mode):
    """The programs a symmetric lowering splits, each as (program, s, t, c,
    the vertices left whole): DET_n for ``mode`` = n, or 15 seeded weighted
    formulas or weakly skew circuits with a variable in ``mode``."""
    if kind == "det":
        abp = build_det_abp(mode)
        return [(abp.digraph, abp.s, abp.t, RATIONAL.one(), [abp.s, abp.t])]
    rng, programs = random.Random(25), []
    while len(programs) < 15:
        if kind == "formula":
            c = random_circuit("formula", 4, 2, rng, weighted=True)
        else:
            c = random_circuit("weakly-skew", 6, 2, rng, weighted=True)
        if not any(g.kind == "input" for g in c.gates.values()):
            continue  # a variable-free circuit lowers to its 1x1 constant
        cert = (build_valiant_digraph if kind == "formula" else build_ws_abp)(c, mode)
        t, scalar = cert.output()
        programs.append((cert.graph, cert.s, t, scalar,
                         [cert.s, t] if kind == "formula" else [cert.s]))
    return programs


@pytest.mark.parametrize("kind, mode", [("formula", "skinny"), ("formula", "green"),
                                        ("ws", "fat"), ("ws", "green"), ("det", 1), ("det", 2)])
def test_closed_split_is_the_unsigned_path_sum_of_its_program(kind, mode):
    """The one symmetric closing rule: split a program with -1 links,
    leaving s whole and t too when the lowering does, and close it with c;
    the determinant is c * sum_P w(P) over the program's s-t paths, the
    convention :func:`close_abp` meets."""
    for dg, s, t, c, single in _lowering_programs(kind, mode):
        g, copies = split_vertices(dg, single)
        m = close_symmetric(g, copies[s][0], copies[t][1], c)
        names = tuple(sorted({w.name for w in dg.arcs.values() if w.kind != "const"}))
        want = path_sum(dg, enumerate_st_paths(dg, s, t), names).scale(c)
        assert poly_equal(symbolic_det(m, names, limit=40), want)


def _random_loop_digraph(rng: random.Random, spec: FieldSpec) -> WeightedDigraph:
    """A sparse digraph on 1-7 vertices, most with a unit loop; the other
    loops and the arcs are variables, scaled variables and constants from a
    pool holding 0 and values whose sums cancel (+-1 and 2, or 1 and 3 in
    characteristic 2)."""
    pool = ([spec.from_bits(b) for b in (0, 1, 1, 3)] if spec.kind == "binary"
            else [spec.from_int(k) for k in (0, 1, -1, 2)])

    def weight() -> Weight:
        r = rng.random()
        if r < 0.6:
            return Weight.const(rng.choice(pool))
        name = rng.choice("xyz")
        return Weight.var(name) if r < 0.85 else Weight.scaled(name, rng.choice(pool[1:]))

    dg = WeightedDigraph(spec)
    dg.n = rng.randint(1, 7)
    for u in range(dg.n):
        for v in range(dg.n):
            if u == v:
                w = Weight.const(spec.one()) if rng.random() < 0.75 else weight()
                dg.add_arc(u, u, w)
            elif rng.random() < 0.3:
                dg.add_arc(u, v, weight())
    return dg


@pytest.mark.parametrize("spec", [RATIONAL, PRIME_DEFAULT, GF2_16], ids=str)
def test_eliminate_pivots_keeps_determinant_and_permanent(spec):
    """The singleton-pivot pass against the slow references: with sign -1
    the determinant (cofactor expansion) is unchanged, with sign +1 the
    permanent (Ryser), and neither dimension nor nonzeros grow."""
    rng = random.Random(20261019)
    eliminated = 0
    for _ in range(300):
        dg = _random_loop_digraph(rng, spec)
        arcs = dict(dg.arcs)
        before = adjacency(dg)
        names = before.variables()
        for sign, oracle in ((-1, symbolic_det), (1, ryser_permanent)):
            after = adjacency(eliminate_pivots(dg, sign))
            assert dg.arcs == arcs
            assert after.dim <= before.dim
            assert sum(map(len, after.rows)) <= sum(map(len, before.rows))
            assert poly_equal(oracle(after, names), oracle(before, names))
            eliminated += before.dim - after.dim
    assert eliminated > 200


def test_close_abp_eliminates_relay_vertices():
    """A chain s -> a -> b -> t of unit-loop relays with constant arcs
    closes to the 1x1 matrix of its path weight."""
    dg = WeightedDigraph(RATIONAL)
    for _ in range(4):
        dg.add_vertex()
    dg.add_arc(0, 1, wv("x"))
    dg.add_arc(1, 2, wc(2))
    dg.add_arc(2, 3, wc(3))
    arcs = dict(dg.arcs)
    m = close_abp(dg, 0, 3, RATIONAL.one())
    assert dg.arcs == arcs
    assert m.dim == 1 and m.entry(0, 0).render() == "6*x"


def _cells(m: SymbolicMatrix) -> list[list[str]]:
    return [[w.render() for w in row] for row in m.entries]


def test_close_abp_scales_only_the_arcs_into_t():
    """c rides on the arcs into t (a -> t and s -> t, merged into s); the
    arc s -> a is only negated, and the unit loop of a stays 1."""
    m = close_abp(_small_abp(), 0, 2, RATIONAL.from_int(3))
    assert _cells(m) == [["3*z", "-1*x"], ["3*y", "1"]]
    assert poly_equal(symbolic_det(m), parse_polynomial("3 * x y + 3 * z", ("x", "y", "z")))


def test_close_abp_with_sign_1_keeps_the_permanent():
    """Without the negation the permanent is the path sum; the
    determinant then counts the path of three vertices negatively."""
    m = close_abp(_small_abp(), 0, 2, RATIONAL.from_int(3), sign=1)
    assert _cells(m) == [["3*z", "x"], ["3*y", "1"]]
    names = ("x", "y", "z")
    assert poly_equal(ryser_permanent(m, names), parse_polynomial("3 * x y + 3 * z", names))
    assert poly_equal(symbolic_det(m), parse_polynomial("-3 * x y + 3 * z", names))


def _random_abp(rng: random.Random, spec: FieldSpec) -> WeightedDigraph:
    """An acyclic program on 2-7 vertices in topological order, s first and
    t last, with variable, scaled and constant arcs."""
    dg = WeightedDigraph(spec)
    n = rng.randint(2, 7)
    for _ in range(n):
        dg.add_vertex()
    for u in range(n - 1):
        for v in range(u + 1, n):
            if rng.random() < 0.45 or (u, v) == (0, n - 1):
                r, c = rng.random(), spec.from_int(rng.choice((1, 2, 3, 5, -1)))
                if r < 0.4:
                    dg.add_arc(u, v, Weight.const(c))
                elif r < 0.6:
                    dg.add_arc(u, v, Weight.scaled(rng.choice("xyz"), c))
                else:
                    dg.add_arc(u, v, Weight.var(rng.choice("xyz")))
    return dg


@pytest.mark.parametrize("spec", [RATIONAL, PRIME_DEFAULT, GF2_16], ids=str)
def test_close_abp_determinant_and_permanent_are_the_path_sum(spec):
    """det (sign -1) and per (sign 1) of the closed program are both
    c * sum_P w(P) over its s-t paths, on random programs."""
    rng = random.Random(19)
    names = ("x", "y", "z")
    for _ in range(150):
        dg = _random_abp(rng, spec)
        t = dg.n - 1
        c = spec.from_int(rng.choice((1, 2, 7)))
        want = path_sum(dg, enumerate_st_paths(dg, 0, t), names).scale(c)
        for sign, oracle in ((-1, symbolic_det), (1, ryser_permanent)):
            m = close_abp(dg, 0, t, c, sign)
            assert m.dim <= max(dg.n - 1, 1)
            assert poly_equal(oracle(m, names), want)


def two_xy_plus_z():
    b = CircuitBuilder()
    return b.build([b.add(b.mul(b.var("x"), b.var("y"), wa=2), b.var("z"))])


# each symmetric certificate with the whole vertices on each of its paths,
# s and t of the formula split (|G| even) and s of the weakly skew one (odd)
SYMMETRIC_CERTIFICATES = [(lambda c: build_sym_graph(c, "green"), 2),
                          (lambda c: build_ws_graph(c, "fat"), 1)]


@pytest.mark.parametrize("build, whole", SYMMETRIC_CERTIFICATES)
def test_symmetric_audit_catches_a_wrong_scalar(build, whole):
    c = two_xy_plus_z()
    cert = build(c)
    assert 2 - cert.graph.n % 2 == whole
    check_symmetric_certificate(cert)
    out = c.outputs[0]
    cert.scalars[out] = cert.scalars[out] + RATIONAL.one()
    with pytest.raises(AssertionError, match=f"identity failed at gate {out}"):
        check_symmetric_certificate(cert)


@pytest.mark.parametrize("build, whole", SYMMETRIC_CERTIFICATES)
def test_symmetric_audit_catches_a_flipped_link(build, whole):
    """The -1 links carry the sign the closing cancels: with the link of the
    first split vertex, the pair right after the whole ones, set to +1, the
    paths through it count with the wrong sign at some gate."""
    c = two_xy_plus_z()
    cert = build(c)
    g = cert.graph
    assert g.arcs[whole, whole + 1] == g.arcs[whole + 1, whole] == wc(-1)
    g.arcs[whole, whole + 1] = g.arcs[whole + 1, whole] = wc(1)
    with pytest.raises(AssertionError, match="symmetric path-sum identity failed"):
        check_symmetric_certificate(cert)


def test_symmetric_audit_enumerates_each_vertex_set_once(monkeypatch):
    """The audit needs the cycle covers of G minus its whole vertices and
    of every path complement; it enumerates those of each vertex set once,
    whether it skips the path or checks its matching, and when two paths or
    a path and the whole vertices leave the same set."""
    calls = []
    original = enumerate_cycle_covers

    def spy(g, vertices=None):
        calls.append(frozenset(range(g.n) if vertices is None else vertices))
        return original(g, vertices)

    monkeypatch.setattr("symdet.oracles.enumerate_cycle_covers", spy)
    rng = random.Random(5)
    certs = [build_ws_graph(random_circuit("weakly-skew", rng.randint(2, 5), 3, rng,
                                           weighted=True), "fat") for _ in range(20)]
    certs += [build_sym_graph(random_circuit("formula", rng.randint(1, 4), 3, rng,
                                             weighted=True), "skinny") for _ in range(20)]
    for cert in certs:
        if cert.graph.n <= 14:  # the audit's cap
            calls.clear()
            check_symmetric_certificate(cert)
            assert calls and len(calls) == len(set(calls)), calls


def _led_in(cert, length):
    """The certificate with a chain of ``length`` new vertices joined by
    unit edges leading into s, the far end of the chain the new source."""
    g, head = cert.graph.copy(), cert.s
    for _ in range(length):
        v = g.add_vertex()
        g.add_edge(v, head, wc(1))
        head = v
    return replace(cert, graph=g, s=head)


@pytest.mark.parametrize("build, whole", SYMMETRIC_CERTIFICATES)
@pytest.mark.parametrize("shift, message", [(-2, "identity failed"), (2, "identity failed")])
def test_symmetric_audit_catches_a_wrong_path_len(build, whole, shift, message):
    """A unit chain led into s lengthens every path by its length and keeps
    the parity of |G|: four vertices keep every sign, 4 + shift vertices
    make each path shift vertices longer than the sign expects, which flips
    every sign, so the path sum is -f."""
    cert = build(two_xy_plus_z())
    check_symmetric_certificate(_led_in(cert, 4), max_vertices=cert.graph.n + 6)
    wrong = _led_in(cert, 4 + shift)
    assert 2 - wrong.graph.n % 2 == whole
    with pytest.raises(AssertionError, match=message):
        check_symmetric_certificate(wrong, max_vertices=cert.graph.n + 6)


def _x_plus_y_certificate(n, edges, targets):
    """A hand-built certificate for the source x + y (g0 = x, g1 = y,
    g2 = g0 + g1, all three reusable): a graph on ``n`` vertices with the
    unit edges ``edges``, source s = 0, and ``targets`` for g0, g1 and the
    output g2, every scalar 1.  |G| is even in each use, so s and the
    output's target are the whole vertices."""
    b = CircuitBuilder()
    source = b.build([b.add(b.var("x"), b.var("y"))])
    g = WeightedGraph()
    for _ in range(n):
        g.add_vertex()
    for u, v in edges:
        g.add_edge(u, v, wc(1))
    return PathSumCertificate(g, 0, dict(enumerate(targets)),
                              dict.fromkeys(range(3), RATIONAL.one()), source)


# each failing case of one clause of the symmetric audit, every earlier
# clause holding: the base set G - {s, t} = {2, 3, 4, 5} holds the 4-cycle
# 2-3-4-5, so two weight-1 matchings; s = 0 and t = 1 on the same side of a
# bipartite graph, so the path 0-2-1 has 3 vertices; the path 0-2 to g0's
# target leaves {1, 3, 4, 5}, which holds the weight-1 4-cycle 1-3-4-5, while
# the base set {2, 3, 4, 5} has the one matching 2-5, 3-4
AUDIT_CLAUSE_FAILURES = [
    (6, [(0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)], (1, 1, 1),
     r"G minus \[0, 1\] must have a unique weight-1 matching cover"),
    (4, [(0, 2), (2, 1), (2, 3)], (1, 1, 1),
     "s-t path of 3 vertices at gate 0, 2 of them whole"),
    (6, [(0, 2), (1, 3), (3, 4), (4, 5), (5, 1), (2, 5)], (2, 2, 1),
     "path complement at gate 0 must have a unique weight-1 matching cover"),
]


@pytest.mark.parametrize("n, edges, targets, message", AUDIT_CLAUSE_FAILURES)
def test_symmetric_audit_names_the_clause_that_fails(n, edges, targets, message):
    """The base matching, the path parity and the complement matching each
    have a case that only they catch, each reported with its own message."""
    with pytest.raises(AssertionError, match=message):
        check_symmetric_certificate(_x_plus_y_certificate(n, edges, targets))


def _graph(n, edges=()):
    g = WeightedGraph()
    for _ in range(n):
        g.add_vertex()
    for u, v in edges:
        g.add_edge(u, v, wc(1))
    return g


def _zeros(n):
    return SymbolicMatrix([[wc(0)] * n for _ in range(n)])


# each oracle's size cap, one past it, with its own message
ORACLE_CAPS = [
    (lambda: cycle_cover_sum_short(_graph(17)), TooLarge,
     "short-cycle cover enumeration capped at 16 vertices, got 17"),
    (lambda: symbolic_det(_zeros(4), limit=3), TooLarge,
     "symbolic determinant capped at 3x3, got 4"),
    (lambda: symbolic_det(_zeros(17)), TooLarge,
     "symbolic determinant capped at 16x16, got 17"),
    (lambda: ryser_permanent(_zeros(13)), TooLarge,
     "permanent oracle capped at 12x12, got 13"),
    (lambda: referee_submatrix_sum(_zeros(5)), TooLarge,
     "referee cross-check capped at 4x4"),
    (lambda: check_symmetric_certificate(_x_plus_y_certificate(*AUDIT_CLAUSE_FAILURES[0][:3]),
                                         max_vertices=5), ValueError,
     "certificate audit capped at 5 vertices"),
]


@pytest.mark.parametrize("call, error, message", ORACLE_CAPS,
                         ids=["short-covers", "det-limit", "det-default", "ryser",
                              "referee", "audit"])
def test_oracle_caps_refuse_one_past_the_cap(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_oracles_run_at_their_caps():
    assert cycle_cover_sum_short(_graph(16)).is_zero()  # no loops: no cover
    assert symbolic_det(_zeros(3), limit=3).is_zero()
    assert referee_submatrix_sum(_zeros(4)) == DensePolynomial.constant(RATIONAL.one(), ())


def test_weight1_matching_check_refuses_a_cover_with_a_longer_cycle():
    """One cover, of weight 1, is still no matching when a cycle of it is
    not a 2-cycle: here the 4-cycle 0-1-2-3, against a matching of the same
    graph."""
    square = _graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert _is_weight1_matching(square, [{0: 1, 1: 0, 2: 3, 3: 2}])
    assert not _is_weight1_matching(square, [{0: 1, 1: 2, 2: 3, 3: 0}])
    assert not _is_weight1_matching(square, [{0: 1, 1: 0, 2: 3, 3: 2}] * 2)


@pytest.mark.parametrize("n, edges, even", [
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], True),
    (4, [(0, 1), (1, 2), (2, 3), (3, 3)], False),   # a loop
    (5, [(0, 1), (1, 2), (2, 0), (3, 4)], False),   # a triangle
    (6, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 2), (3, 5)], False),  # odd, in a second part
], ids=["square", "loop", "triangle", "odd-in-second-component"])
def test_all_cycles_even_refuses_a_loop_and_an_odd_cycle(n, edges, even):
    assert all_cycles_even(_graph(n, edges)) is even


def _random_graph(seed, spec=RATIONAL):
    """A graph on 1-6 vertices with loops, zero weights, variables and
    constants, each edge added in a random direction; returns the graph and
    its nonzero edges keyed u <= v."""
    rng = random.Random(seed)
    g = WeightedGraph(spec)
    for _ in range(rng.randint(1, 6)):
        g.add_vertex()
    placed = {}
    for u in range(g.n):
        for v in range(u, g.n):
            r = rng.random()
            if r < 0.3:
                w = wv(rng.choice("abc"))
            elif r < 0.6:
                w = Weight.const(spec.from_int(rng.randint(-2, 2)))
            else:
                continue
            g.add_edge(*((u, v) if rng.random() < 0.5 else (v, u)), w)
            if not w.is_zero():
                placed[u, v] = w
    return g, placed


@pytest.mark.parametrize("seed", range(30))
def test_graph_is_the_symmetric_digraph_of_its_edges(seed):
    """Every edge is stored as two arcs of one weight, every loop as one arc,
    and ``edges`` lists each edge once, keyed u <= v."""
    g, placed = _random_graph(seed)
    assert g.arcs == {**placed, **{(v, u): w for (u, v), w in placed.items()}}
    assert len(g.arcs) == 2 * len(placed) - sum(u == v for u, v in placed)
    assert g.edges == placed and all(u <= v for u, v in g.edges)


@pytest.mark.parametrize("spec", [RATIONAL, GF2], ids=str)
@pytest.mark.parametrize("seed", range(15))
def test_graph_reads_as_the_digraph_of_its_arcs(seed, spec):
    """A digraph given the same arcs has the same adjacency rows, only not
    flagged symmetric, and the same signed and unsigned cycle-cover sums."""
    g, _ = _random_graph(seed, spec)
    dg = WeightedDigraph(spec)
    dg.n = g.n
    for (u, v), w in g.arcs.items():
        dg.add_arc(u, v, w)
    mg, mdg = adjacency(g), adjacency(dg)
    assert mg.rows == mdg.rows and mg.symmetric and not mdg.symmetric
    for signed in (True, False):
        assert cycle_cover_sum(g, signed) == cycle_cover_sum(dg, signed)


@pytest.mark.parametrize("seed", range(10))
def test_graph_refuses_an_edge_in_either_direction_twice(seed):
    g, placed = _random_graph(seed)
    for u, v in placed:
        with pytest.raises(ValueError):
            g.add_edge(v, u, wv("z"))
        with pytest.raises(ValueError):
            g.add_edge(u, v, wv("z"))
    assert g.edges == placed
