import pytest

from symdet.fields import GF2, RATIONAL
from symdet.graphs import (
    SymbolicMatrix,
    Weight,
    WeightedDigraph,
    WeightedGraph,
    adjacency,
    entries_alphabet_ok,
    export_dot,
    parse_matrix,
    render_matrix,
)
from symdet.oracles import (
    cycle_cover_sum,
    cycle_cover_sum_short,
    enumerate_cycle_covers,
    enumerate_st_paths,
    ryser_permanent,
    symbolic_det,
)
from symdet.polynomials import TooLarge, parse_polynomial
from tests.conftest import poly_equal


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


def test_strict_mode_rejects_scaled_entries():
    scaled = Weight.scaled("x", RATIONAL.from_int(5))
    with pytest.raises(ValueError):
        SymbolicMatrix([[scaled]], spec=RATIONAL)
    m = SymbolicMatrix([[scaled]], spec=RATIONAL, allow_linear=True)
    assert m.entry(0, 0).render() == "5*x"


def test_symmetry_flag_validated():
    with pytest.raises(ValueError):
        SymbolicMatrix([[wc(0), wv("x")], [wv("y"), wc(0)]], symmetric=True)


def test_entries_alphabet():
    ok = parse_matrix("2 symmetric\n0 x\nx 1/2")
    assert entries_alphabet_ok(ok)
    bad = parse_matrix("1\n7")
    assert not entries_alphabet_ok(bad)


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
