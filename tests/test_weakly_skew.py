import random

import pytest

from symdet.circuits import (
    CircuitBuilder,
    CircuitError,
    classify,
    measure,
    parse_expression,
    random_circuit,
)
from symdet.fields import GF2_16, RATIONAL, CharTwoHalf
from symdet.formulas import build_valiant_digraph
from symdet.minimize import ConstantCircuit
from symdet.oracles import check_abp_certificate, check_symmetric_certificate, symbolic_det
from symdet.verify import identity_test
from symdet.weakly_skew import (
    NotWeaklySkew,
    build_ws_abp,
    build_ws_graph,
    ws_nonsym_matrix,
    ws_sym_matrix,
)
from tests.conftest import circuit_matches


def test_single_input_gadget():
    b = CircuitBuilder()
    c = b.build([b.var("x")])
    cert = build_ws_graph(c, "fat")
    g = cert.graph
    assert g.n == 3
    rendered = sorted(w.render() for w in g.edges.values())
    assert rendered == ["-1", "x"]
    check_symmetric_certificate(cert)


def test_addition_with_equal_arguments_merges_to_weight_2():
    b = CircuitBuilder()
    x = b.var("x")
    c = b.build([b.add(x, x)])
    cert = build_ws_graph(c, "fat")
    weights = sorted(w.render() for w in cert.graph.edges.values())
    assert "2" in weights
    check_symmetric_certificate(cert)
    m = ws_sym_matrix(c, "fat")
    assert circuit_matches(symbolic_det(m), c)


def test_not_weakly_skew_rejected():
    b = CircuitBuilder()
    s = b.add(b.var("x"), b.var("y"))
    c = b.build([b.mul(s, s)])
    with pytest.raises(NotWeaklySkew):
        ws_sym_matrix(c, "fat")
    with pytest.raises(NotWeaklySkew):
        ws_nonsym_matrix(c, "fat")


def test_multiple_outputs_allowed_in_graph():
    b = CircuitBuilder()
    x, y = b.var("x"), b.var("y")
    s1 = b.add(x, y)
    s2 = b.add(s1, y)
    c = b.build([s1, s2])
    cert = build_ws_graph(c, "fat")
    assert set(c.outputs) <= set(cert.targets)
    check_symmetric_certificate(cert)


POOLS = {
    RATIONAL: {},
    GF2_16: {"constant_pool": (1, 3, 7), "weight_pool": (1, 1, 2, 5)},
}


@pytest.mark.parametrize("spec", POOLS, ids=str)
def test_every_branching_program_passes_the_abp_audit(spec):
    """c_a * sum_P w(P) = f_a at every reusable gate of the weakly skew ABP,
    fat and green, and at the output of the formula digraph: one unsigned
    convention for every branching program."""
    rng = random.Random(1019)
    audited = 0
    for i in range(150):
        c = random_circuit("weakly-skew", rng.randint(1, 14), 3, rng, spec=spec,
                           weighted=i % 2 == 1, const_prob=0.2, **POOLS[spec])
        f = random_circuit("formula", rng.randint(0, 7), 3, rng, spec=spec,
                           weighted=i % 2 == 1, const_prob=0.2, **POOLS[spec])
        builds = [lambda: build_ws_abp(c, "fat"), lambda: build_ws_abp(c, "green"),
                  lambda: build_valiant_digraph(f)]
        for build in builds:
            try:
                cert = build()
            except ConstantCircuit:  # green mode needs a non-constant output
                continue
            check_abp_certificate(cert)
            audited += len(classify(cert.source).reusable & set(cert.targets))
    assert audited > 1000, audited


def test_abp_audit_catches_a_wrong_scalar():
    b = CircuitBuilder()
    c = b.build([b.add(b.mul(b.var("x"), b.var("y"), wa=2), b.var("z"))])
    cert = build_ws_abp(c, "fat")
    check_abp_certificate(cert)
    out = c.outputs[0]
    cert.scalars[out] = cert.scalars[out] + RATIONAL.one()
    with pytest.raises(AssertionError, match=f"gate {out}"):
        check_abp_certificate(cert)


def test_sym_needs_single_output():
    b = CircuitBuilder()
    x, y = b.var("x"), b.var("y")
    c = b.build([b.add(x, y), b.mul(b.var("x"), y)])
    with pytest.raises(CircuitError):
        ws_sym_matrix(c, "fat")


def test_fig1b_fat_build(fig1_weakly_skew):
    rep = measure(fig1_weakly_skew)
    m = ws_sym_matrix(fig1_weakly_skew, "fat")
    assert m.symmetric
    assert m.dim <= 2 * rep.fat + 1
    assert identity_test(fig1_weakly_skew, m, seed=5).ok
    n = ws_nonsym_matrix(fig1_weakly_skew, "fat")
    assert n.dim <= rep.fat + 1
    assert circuit_matches(symbolic_det(n), fig1_weakly_skew)


def test_certificate_audits_random(rng):
    audited = 0
    for _ in range(80):
        c = random_circuit("weakly-skew", rng.randint(1, 7), 3, rng)
        cert = build_ws_graph(c, "fat")
        assert cert.graph.n % 2 == 1
        if cert.graph.n <= 14:
            check_symmetric_certificate(cert)
            audited += 1
    assert audited >= 40


def test_green_certificate_audits_random(rng):
    audited = 0
    for _ in range(60):
        c = random_circuit("weakly-skew", rng.randint(2, 8), 3, rng,
                           weighted=True, const_prob=0.3)
        if not any(g.kind == "input" for g in c.gates.values()):
            continue
        try:
            cert = build_ws_graph(c, "green")
        except Exception as exc:
            from symdet.minimize import ConstantCircuit

            assert isinstance(exc, ConstantCircuit)
            continue
        if cert.graph.n <= 14:
            check_symmetric_certificate(cert)
            audited += 1
    assert audited >= 20


def test_sym_matrix_dims_and_identity(rng):
    for i in range(40):
        c = random_circuit("weakly-skew", rng.randint(2, 12), 4, rng)
        rep = measure(c)
        m = ws_sym_matrix(c, "fat")
        assert m.dim <= 2 * rep.fat + 1
        assert identity_test(c, m, seed=i).ok
        g = ws_sym_matrix(c, "green")
        assert g.dim <= 2 * (rep.green + rep.var_inputs) + 1
        assert g.dim <= m.dim  # green never worse than fat
        assert identity_test(c, g, seed=i).ok


def test_nonsym_dims_and_identity(rng):
    for i in range(40):
        c = random_circuit("weakly-skew", rng.randint(2, 12), 4, rng,
                           weighted=(i % 2 == 0), const_prob=0.25)
        rep = measure(c)
        m = ws_nonsym_matrix(c, "fat")
        assert m.dim <= rep.fat + 1
        assert identity_test(c, m, seed=i).ok
        g = ws_nonsym_matrix(c, "green")
        assert g.dim <= rep.green + rep.var_inputs + 1
        assert identity_test(c, g, seed=i).ok


def test_formula_green_bound_via_ws(rng):
    # formulas fed through the weakly-skew lowering obey the e+i bound too
    for _ in range(20):
        f = random_circuit("formula", rng.randint(1, 8), 3, rng)
        rep = measure(f)
        m = ws_nonsym_matrix(f, "green")
        assert m.dim <= rep.green + rep.var_inputs + 1


def test_char2_sym_rejected():
    b = CircuitBuilder(GF2_16)
    c = b.build([b.add(b.var("x"), b.var("y"))])
    with pytest.raises(CharTwoHalf):
        ws_sym_matrix(c, "fat")


def test_unsigned_variant_gives_permanent():
    from symdet.oracles import ryser_permanent

    b = CircuitBuilder()
    c = b.build([b.add(b.var("x"), b.mul(b.var("y"), b.var("z")))])
    m = ws_nonsym_matrix(c, "fat", signed=False)
    assert circuit_matches(ryser_permanent(m), c)


def test_green_handles_minimized_scale_wrapper():
    # minimize(5*x) yields add(x*5, one*0); the zero arrow must vanish from
    # the gadget graph without breaking the certificate
    b = CircuitBuilder()
    c = b.build([b.mul(b.const(5), b.var("x"))])
    cert = build_ws_graph(c, "green")
    check_symmetric_certificate(cert)
    m = ws_sym_matrix(c, "green")
    assert circuit_matches(symbolic_det(m), c)
    n = ws_nonsym_matrix(c, "green")
    assert circuit_matches(symbolic_det(n), c)


def test_measure_green_survives_constant_output_multi():
    b = CircuitBuilder()
    x = b.var("x")
    const_out = b.add(b.const(1), b.const(2))
    var_out = b.add(x, const_out)
    c = b.build([const_out, var_out])
    rep = measure(c)
    assert rep.green == rep.skinny == 2


def test_ws_abp_refuses_an_unknown_size():
    with pytest.raises(ValueError, match="unknown mode 'skinny'"):
        build_ws_abp(parse_expression("x*y"), "skinny")
