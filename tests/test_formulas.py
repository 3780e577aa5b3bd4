import pytest

import symdet.formulas as formulas
from symdet.circuits import (
    CircuitBuilder,
    measure,
    parse_expression,
    random_circuit,
)
from symdet.fields import GF2_16, PRIME_DEFAULT, RATIONAL, CharTwoHalf
from symdet.formulas import (
    NotAFormula,
    build_sym_graph,
    build_valiant_digraph,
    sym_matrix,
    valiant_matrix,
)
from symdet.graphs import entries_alphabet_ok, render_matrix
from symdet.oracles import (
    check_abp_certificate,
    check_symmetric_certificate,
    ryser_permanent,
    symbolic_det,
)
from symdet.polynomials import expand_circuit
from symdet.weakly_skew import ws_nonsym_matrix
from tests.conftest import addition_chain, circuit_matches, poly_equal


def formula(build):
    b = CircuitBuilder()
    return b.build([build(b)])


FX = formula(lambda b: b.var("x"))
FXY = formula(lambda b: b.add(b.var("x"), b.var("y")))


# -- non-symmetric -----------------------------------------------------------


def test_valiant_digraph_base_case():
    cert = build_valiant_digraph(FX)
    t, c0 = cert.output()
    assert cert.graph.n == 2
    assert c0.is_one()
    ((u, v),) = cert.graph.arcs
    assert (u, v) == (cert.s, t)
    check_abp_certificate(cert)


def test_valiant_digraph_scalar_product():
    f = formula(lambda b: b.mul(b.const(5), b.var("x")))
    cert = build_valiant_digraph(f)
    assert cert.graph.n == 2      # same digraph as for x, c0 carries the 5
    assert cert.output()[1] == RATIONAL.from_int(5)
    check_abp_certificate(cert)


def test_valiant_digraph_sum():
    cert = build_valiant_digraph(FXY)
    assert cert.graph.n == 3
    check_abp_certificate(cert)


def test_valiant_digraph_random(rng):
    for _ in range(60):
        f = random_circuit("formula", rng.randint(0, 6), 3, rng,
                           weighted=True, const_prob=0.25)
        for mode in ("green", "skinny"):
            check_abp_certificate(build_valiant_digraph(f, mode))


def test_valiant_matrix_x_is_1x1():
    m = valiant_matrix(FX)
    assert m.dim == 1
    assert m.entry(0, 0).render() == "x"


def test_valiant_matrix_sum():
    m = valiant_matrix(FXY)
    assert m.dim == 2
    assert circuit_matches(symbolic_det(m), FXY)


def test_valiant_matrix_of_xy_plus_z_is_pinned():
    """The program s -> m -> t (x, y) and s -> t2 -> t (z, 1) closes with
    its arcs into t kept (c0 = 1) and the others negated; the relay t2 is
    then eliminated."""
    m = valiant_matrix(parse_expression("x*y + z"))
    assert [[w.render() for w in row] for row in m.entries] == [["z", "-1*x"], ["y", "1"]]


def test_valiant_zero_scalar_gives_the_zero_matrix():
    """A zero arrow weight into a product makes c0 = 0: the formula is 0,
    and the lowering returns [[0]] as for a program with no s-t path."""
    f = formula(lambda b: b.mul(b.add(b.var("x"), b.var("y")), b.var("z"), wa=0))
    assert build_valiant_digraph(f).output()[1].is_zero()
    m = valiant_matrix(f)
    assert [[w.render() for w in row] for row in m.entries] == [["0"]]


def test_valiant_pure_product_fallback():
    f = formula(lambda b: b.mul(b.mul(b.const(5), b.var("x1")), b.var("x2")))
    m = valiant_matrix(f)
    assert m.dim == 3
    diag = [m.entry(i, i).render() for i in range(3)]
    assert sorted(diag) == ["5", "x1", "x2"]
    assert circuit_matches(symbolic_det(m), f)


def test_valiant_unit_product_uses_n_dims():
    f = formula(lambda b: b.mul(b.var("x1"), b.var("x2")))
    m = valiant_matrix(f)
    assert m.dim == 2
    assert circuit_matches(symbolic_det(m), f)


def test_valiant_dimension_bound(rng):
    from symdet.minimize import green_form

    for _ in range(60):
        f = random_circuit("formula", rng.randint(1, 8), 4, rng,
                           weighted=True, const_prob=0.2)
        m = valiant_matrix(f)
        rep = measure(f)
        has_add = any(g.kind == "add" for g in green_form(f).gates.values())
        if has_add:
            assert m.dim <= rep.green + 1, (m.dim, rep)
        else:
            assert m.dim <= rep.var_inputs + 1, (m.dim, rep)
        if m.dim <= 10:
            assert circuit_matches(symbolic_det(m), f)


def test_valiant_rejects_non_formula(fig1_weakly_skew):
    with pytest.raises(NotAFormula):
        valiant_matrix(fig1_weakly_skew)


# -- symmetric ----------------------------------------------------------------


def test_sym_graph_base_case():
    cert = build_sym_graph(FX, "skinny")
    g = cert.graph
    assert g.n == 2
    assert list(g.edges.values())[0].render() == "x"
    assert check_symmetric_certificate(cert) == 0


def test_sym_matrix_x_is_the_3x3_display():
    m = sym_matrix(FX, "skinny")
    assert render_matrix(m) == "3 symmetric\n0 x 1\nx 0 1/2\n1 1/2 0\n"
    assert circuit_matches(symbolic_det(m), FX)


def test_sym_xy_matches_first_display():
    """x+y: the worked 5x5 display, in vertex order s, u, v, t, c, is the
    emitted matrix once its vertices are put in the emitted order s, t, u,
    v, c and v's row and column are negated, a congruence by a signed
    permutation: the emitted split gives the link u-v the unit -1 and the
    rerouted arc's p->t the weight 1, where the display has 1 and -1."""
    m = sym_matrix(FXY, "skinny")
    assert m.symmetric
    assert circuit_matches(symbolic_det(m), FXY)
    display = [
        ["0", "x", "0", "y", "-1"],
        ["x", "0", "1", "0", "0"],
        ["0", "1", "0", "-1", "0"],
        ["y", "0", "-1", "0", "1/2"],
        ["-1", "0", "0", "1/2", "0"],
    ]
    order = [0, 3, 1, 2, 4]  # display index of each emitted vertex s, t, u, v, c
    v = 3  # v's emitted index

    def negated(cell: str) -> str:
        return cell if cell == "0" else cell[1:] if cell.startswith("-") else "-" + cell

    expected = [[negated(display[i][j]) if (a == v) != (b == v) else display[i][j]
                 for b, j in enumerate(order)] for a, i in enumerate(order)]
    assert [[w.render() for w in row] for row in m.entries] == expected
    assert expected == [
        ["0", "y", "x", "0", "-1"],
        ["y", "0", "0", "1", "1/2"],
        ["x", "0", "0", "-1", "0"],
        ["0", "1", "-1", "0", "0"],
        ["-1", "1/2", "0", "0", "0"],
    ]


def test_sym_conflict_repair_inserts_two_vertices():
    cert = build_sym_graph(FXY, "skinny")
    assert cert.graph.n == 4  # s, t plus the split of the rerouting vertex
    assert check_symmetric_certificate(cert) == 0


def test_sym_chain_of_additions_vertex_count():
    # x1 + ... + x_{n+1} gives exactly 2n+2 vertices
    for n in (1, 2, 3, 4):
        b = CircuitBuilder()
        acc = b.var("x1")
        for i in range(2, n + 2):
            acc = b.add(acc, b.var(f"x{i}"))
        f = b.build([acc])
        cert = build_sym_graph(f, "skinny")
        assert cert.graph.n == 2 * n + 2, (n, cert.graph.n)
        assert check_symmetric_certificate(cert) == 0


def test_sym_certificate_random(rng):
    for _ in range(60):
        f = random_circuit("formula", rng.randint(0, 5), 3, rng, const_prob=0.2)
        cert = build_sym_graph(f, "skinny")
        if cert.graph.n <= 12:
            assert check_symmetric_certificate(cert) == 0


def test_sym_green_certificate_random(rng):
    for _ in range(60):
        f = random_circuit("formula", rng.randint(0, 5), 3, rng,
                           weighted=True, const_prob=0.3)
        cert = build_sym_graph(f, "green")
        if cert.graph.n <= 12:
            assert check_symmetric_certificate(cert) == 0


@pytest.mark.parametrize("spec", [RATIONAL, PRIME_DEFAULT], ids=["Q", "Zp"])
@pytest.mark.parametrize("mode", ["skinny", "green"])
def test_sym_matrix_is_the_closed_split_of_the_formula_program(rng, spec, mode):
    """Both formula lowerings ride on one program: the symmetric matrix
    splits every vertex of the branching program but s and t, then closes
    the even split by one vertex."""
    for _ in range(40):
        f = random_circuit("formula", rng.randint(0, 8), 4, rng, spec=spec,
                           weighted=True, const_prob=0.2)
        n = build_valiant_digraph(f, mode).graph.n
        assert sym_matrix(f, mode).dim == 2 * n - 1


def test_sym_matrix_dimension_and_alphabet(rng):
    for _ in range(40):
        f = random_circuit("formula", rng.randint(1, 10), 4, rng, const_prob=0.0)
        m = sym_matrix(f, "skinny")
        rep = measure(f)
        assert m.symmetric
        assert m.dim <= 2 * rep.skinny + 3
        assert entries_alphabet_ok(m)


def test_sym_green_dimension(rng):
    for _ in range(40):
        f = random_circuit("formula", rng.randint(1, 8), 4, rng,
                           weighted=True, const_prob=0.3)
        m = sym_matrix(f, "green")
        assert m.dim <= 2 * measure(f).green + 3


def test_sym_exact_identity_small(rng):
    for _ in range(40):
        f = random_circuit("formula", rng.randint(0, 5), 3, rng,
                           weighted=True, const_prob=0.25)
        for mode in ("skinny", "green"):
            m = sym_matrix(f, mode)
            if m.dim <= 15:
                assert circuit_matches(symbolic_det(m), f), mode


def test_sym_char2_rejected():
    b = CircuitBuilder(GF2_16)
    f = b.build([b.add(b.var("x"), b.var("y"))])
    with pytest.raises(CharTwoHalf):
        sym_matrix(f, "skinny")


def test_permanent_variant(rng):
    """Unsigned, the path-sum matrix has permanent = formula, scaled arcs too."""
    fs = [parse_expression("x*y + z")]
    fs += [random_circuit("formula", rng.randint(0, 4), 3, rng, const_prob=0.3)
           for _ in range(25)]
    for f in fs:
        for mode in ("fat", "green"):
            b = ws_nonsym_matrix(f, mode, signed=False)
            if b.dim <= 11:
                assert circuit_matches(ryser_permanent(b), f)


def test_fig1_through_both_formula_methods(fig1_formula):
    target = expand_circuit(fig1_formula)[0]
    for mode in ("skinny", "green"):
        m = sym_matrix(fig1_formula, mode)
        assert poly_equal(symbolic_det(m), target)
    v = valiant_matrix(fig1_formula)
    assert poly_equal(symbolic_det(v), target)


def test_sym_graph_upper_bound_tight_on_sum_of_variables():
    # x1 + ... + x_{n+1} needs the full 2e+2 vertices
    for n in (1, 2, 3):
        b = CircuitBuilder()
        acc = b.var("x1")
        for i in range(2, n + 2):
            acc = b.add(acc, b.var(f"x{i}"))
        cert = build_sym_graph(b.build([acc]), "skinny")
        assert cert.graph.n == 2 * n + 2


def test_sym_graph_lower_bound_tight_on_sum_of_products():
    # x1*y1 + ... + xn*yn + z reaches the |f|+2 floor: 2n+2 vertices
    # for skinny size 2n
    for n in (1, 2, 3):
        b = CircuitBuilder()
        acc = b.mul(b.var("x1"), b.var("y1"))
        for i in range(2, n + 1):
            acc = b.add(acc, b.mul(b.var(f"x{i}"), b.var(f"y{i}")))
        acc = b.add(acc, b.var("z"))
        f = b.build([acc])
        assert measure(f).skinny == 2 * n
        cert = build_sym_graph(f, "skinny")
        assert cert.graph.n == 2 * n + 2
        assert check_symmetric_certificate(cert) == 0


@pytest.mark.parametrize("build", [lambda c: build_sym_graph(c, "green"),
                                   build_valiant_digraph], ids=["sym", "valiant"])
def test_lemma_c0_is_combined_once_per_node(build, monkeypatch):
    calls = 0
    combine = formulas._lemma_c0

    def counting(*args):
        nonlocal calls
        calls += 1
        return combine(*args)

    monkeypatch.setattr(formulas, "_lemma_c0", counting)
    cert = build(addition_chain(600))
    # one combination per addition node (600), none per leaf
    assert 0 < calls <= 600
    assert not cert.output()[1].is_zero()


def test_valiant_digraph_refuses_an_unknown_size():
    with pytest.raises(ValueError, match="unknown mode 'fat'"):
        build_valiant_digraph(parse_expression("x*y"), "fat")
