import random
from fractions import Fraction

import pytest

from symdet.circuits import (
    Circuit,
    CircuitBuilder,
    classify,
    evaluate,
    measure,
    random_circuit,
)
from symdet.fields import PRIME_DEFAULT, RATIONAL, sample_random
from symdet.minimize import ConstantCircuit, check_normal_form, minimize


def num(n):
    return RATIONAL.from_int(n)


def equivalent(a, b, rng, points=10):
    assert set(a.variables) == set(b.variables)
    for _ in range(points):
        point = {v: sample_random(PRIME_DEFAULT, rng) for v in a.variables}
        if evaluate(a, point, PRIME_DEFAULT) != evaluate(b, point, PRIME_DEFAULT):
            return False
    return True


def test_rule1_constant_input_weight_pushed():
    # input 7 feeding an addition via weight 3 -> input 1 via weight 21
    b = CircuitBuilder()
    c = b.build([b.add(b.var("x"), b.const(7), 1, 3)])
    m = minimize(c)
    check_normal_form(m)
    consts = [g for g in m.gates.values() if g.kind == "const"]
    assert len(consts) == 1 and consts[0].value.is_one()
    add = next(g for g in m.gates.values() if g.kind == "add")
    weights = sorted(w.value for _a, w in add.args)
    assert weights == [1, 21]


def test_rule2_constant_product_collapses():
    # (2*3) feeding two additions: both consumers see weight-6 1-inputs
    b = CircuitBuilder()
    six = b.mul(b.const(2), b.const(3))
    s1 = b.add(b.var("x"), six)
    s2 = b.add(b.var("y"), six)
    c = b.build([b.add(s1, s2)])
    m = minimize(c)
    check_normal_form(m)
    weights = []
    for g in m.gates.values():
        for a, w in g.args:
            if m.gates[a].kind == "const":
                weights.append(w.value)
    assert sorted(weights) == [6, 6]


def test_rule4_output_multiplication_removed():
    # output mul with constant argument: gamma becomes the output,
    # its incoming weights scaled by c1*c2
    b = CircuitBuilder()
    s = b.add(b.var("x"), b.var("y"))
    c = b.build([b.mul(b.const(5), s, 1, 2)])
    m = minimize(c)
    check_normal_form(m)
    out = m.gates[m.outputs[0]]
    assert out.kind == "add"
    assert sorted(w.value for _a, w in out.args) == [10, 10]


def test_rule4_with_variable_output_keeps_value():
    b = CircuitBuilder()
    c = b.build([b.mul(b.const(5), b.var("x"))])
    m = minimize(c)
    check_normal_form(m)
    assert evaluate(m, {"x": num(3)})[0] == num(15)


def test_rule4_scales_mul_output_once():
    # 5 * (x*y): scaling both arrows of the product would square the 5
    b = CircuitBuilder()
    p = b.mul(b.var("x"), b.var("y"))
    c = b.build([b.mul(b.const(5), p)])
    m = minimize(c)
    check_normal_form(m)
    assert evaluate(m, {"x": num(2), "y": num(3)})[0] == num(30)


def test_minimize_requires_variable():
    b = CircuitBuilder()
    c = b.build([b.add(b.const(1), b.const(1))])
    with pytest.raises(ConstantCircuit):
        minimize(c)


def test_normal_form_postconditions(rng):
    for _ in range(60):
        c = random_circuit(
            "weakly-skew",
            rng.randint(2, 14),
            3,
            rng,
            weighted=True,
            constant_pool=(1, -1, 2, 5, 0),
            const_prob=0.35,
        )
        if not any(g.kind == "input" for g in c.gates.values()):
            continue
        try:
            m = minimize(c)
        except ConstantCircuit:
            continue
        check_normal_form(m)


def _not_normal(case):
    """A circuit that breaks one post-condition of ``check_normal_form``,
    every condition checked before it holding."""
    b = CircuitBuilder()
    x = b.var("x")
    if case == "label":
        return b.build([b.add(x, b.const(2))])
    if case == "out-degree":
        one = b.const(1)
        return b.build([b.add(b.add(x, one), b.add(b.var("y"), one))])
    if case == "two constants":
        return b.build([b.mul(x, b.add(b.const(1), b.const(1)))])
    if case == "constant product":
        return b.build([b.mul(x, b.const(1))])
    # a constant addition ahead of the constant sum it reads, so the outer
    # addition is checked first
    sum_of_ones = b.add(b.const(1), b.const(1))
    c = b.build([b.add(x, sum_of_ones)])
    return Circuit({c.outputs[0]: c.gates[c.outputs[0]], **c.gates}, c.outputs)


@pytest.mark.parametrize("case, message", [
    ("label", "constant input 1 not labelled 1"),
    ("out-degree", "constant input 1 has out-degree > 1"),
    ("two constants", "addition 3 has two constant arguments"),
    ("constant product", "multiplication 2 has a constant argument"),
    ("computed constant", "constant argument 3 of addition 4 is not an input"),
])
def test_normal_form_check_names_each_broken_condition(case, message):
    with pytest.raises(AssertionError, match=message):
        check_normal_form(_not_normal(case))


def test_polynomial_preserved_on_200_random_circuits():
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        c = random_circuit(
            "weakly-skew",
            rng.randint(2, 16),
            4,
            rng,
            weighted=True,
            constant_pool=(1, -1, 2, 3, 7),
            const_prob=0.3,
        )
        try:
            m = minimize(c)
        except ConstantCircuit:
            continue
        assert equivalent(c, m, rng)
        checked += 1
    assert checked >= 150


def test_class_preserved(rng):
    for profile in ("formula", "weakly-skew"):
        for _ in range(40):
            c = random_circuit(profile, rng.randint(1, 10), 3, rng,
                               weighted=True, const_prob=0.3)
            try:
                m = minimize(c)
            except ConstantCircuit:
                continue
            cl = classify(m)
            if profile == "formula":
                assert cl.is_formula
            assert cl.is_weakly_skew


def test_monotonicity(rng):
    for _ in range(60):
        c = random_circuit("weakly-skew", rng.randint(2, 14), 3, rng,
                           weighted=True, const_prob=0.3)
        try:
            m = minimize(c)
        except ConstantCircuit:
            continue
        assert measure(m).skinny <= measure(c).skinny
        assert measure(m).var_inputs == measure(c).var_inputs


def test_idempotent_on_green_size(rng):
    for _ in range(30):
        c = random_circuit("weakly-skew", rng.randint(2, 10), 3, rng,
                           weighted=True, const_prob=0.3)
        try:
            m = minimize(c)
        except ConstantCircuit:
            continue
        assert measure(m).green == measure(c).green == measure(minimize(m)).skinny


def _recursive_green_size(circuit):
    """Reference green size for formulas: additions and products of two
    non-constant sides cost 1, constant factors are free; variable-free
    sub-formulas cost nothing (they fold to a scaled 1-input).  Recursive
    over the gates, so for small formulas only."""
    gates = circuit.gates

    def is_const(gid):
        g = gates[gid]
        if g.kind == "input":
            return False
        return all(is_const(a) for a, _ in g.args)

    def size(gid):
        g = gates[gid]
        if is_const(gid) or g.kind == "input":
            return 0
        (l, _), (r, _) = g.args
        if g.kind == "mul" and (is_const(l) or is_const(r)):
            return size(l) + size(r)
        return size(l) + size(r) + 1

    return size(circuit.outputs[0])


def test_green_matrix_dimension_meets_recursive_definition(rng):
    """The symmetric green construction achieves 2e+3 for e the *recursive*
    green size, which can undercut the gate count by one: a scaled bare
    input (5x) needs a carrier gate in circuit form, but in the gadget graph
    the scalar rides the closing edge, costing no vertices."""
    from symdet.formulas import sym_matrix

    for _ in range(60):
        c = random_circuit("formula", rng.randint(1, 12), 4, rng,
                           const_prob=0.3, constant_pool=(1, -1, 2, 5))
        if not any(g.kind == "input" for g in c.gates.values()):
            continue
        dim = sym_matrix(c, "green").dim
        assert dim <= 2 * _recursive_green_size(c) + 3
        assert dim <= 2 * measure(c).green + 3


def test_green_size_exact_on_scaled_products(rng):
    # when constants appear only as product factors the two notions agree
    for _ in range(40):
        c = random_circuit("formula", rng.randint(1, 10), 4, rng, const_prob=0.0)
        assert measure(c).green == _recursive_green_size(c) == measure(c).skinny


def test_rewrite_scans_the_consumers_once(monkeypatch):
    """The arrows leaving each gate are collected by one scan of the
    circuit, so the rewrite stays linear."""
    from symdet.circuits import Circuit

    scans = []
    original = Circuit.consumers

    def counted(self):
        scans.append(len(self.gates))
        return original(self)

    rng = random.Random(800)
    c = random_circuit("weakly-skew", 800, 5, rng, const_prob=0.3, weighted=True)
    assert sum(g.kind == "const" for g in c.gates.values()) > 50
    monkeypatch.setattr(Circuit, "consumers", counted)
    m = minimize(c)
    monkeypatch.undo()
    assert len(scans) <= 1
    check_normal_form(m)
    assert equivalent(c, m, rng)


def test_read_output_with_constant_factor_keeps_its_gate():
    # 5*(x+y) is an output that another output reads: it cannot hand its
    # place to x+y, so it becomes the addition (x+y)*5 + 0*1
    from symdet.circuits import parse_circuit

    c = parse_circuit(
        "g0 = input x\ng1 = input y\ng2 = input z\ng3 = add g0 g1\n"
        "g4 = const 5\ng5 = mul g4 g3\ng6 = add g5 g2\noutput g5 g6\n"
    )
    m = minimize(c)
    check_normal_form(m)
    assert m.outputs == (5, 6)
    assert m.gates[5].kind == "add" and m.gates[5].args[0] == (3, num(5))
    point = {"x": num(2), "y": num(3), "z": num(7)}
    assert evaluate(m, point) == evaluate(c, point) == [num(25), num(32)]


# ---------------------------------------------------------------------------
# byte-for-byte pin of minimize on a seeded corpus
# ---------------------------------------------------------------------------

MINIMIZE_SHA256 = "b1521e70963b7d781b11a92c66869a764880064be495fea6b160f2ebdb57f8cc"


def _rule4_leaves_alone(c, gid, const) -> bool:
    """True unless ``gid`` is a multiplication with exactly one constant
    argument, the output gates rule 4 rewrites.  Extra outputs are drawn
    among the others; an interior output that rule 4 rewrites has its own
    test below."""
    g = c.gates[gid]
    return g.kind != "mul" or sum(const[a] for a, _ in g.args) != 1


def _minimize_corpus():
    """About 1300 seeded circuits: formulas and weakly skew circuits over
    Q, Z_p and GF(2^16), weighted and not, with constant shares 0.2 to 0.7,
    constant pools holding 0 (and 1/2 outside characteristic 2), a third
    of them with one or two extra outputs."""
    from symdet.circuits import Circuit, validate
    from symdet.fields import GF2_16

    gf = GF2_16.from_bits
    fields = (
        (RATIONAL, (1, -1, 0, Fraction(1, 2), 3), (1, 2, -1, Fraction(1, 2))),
        (PRIME_DEFAULT, (1, -1, 0, Fraction(1, 2), 5), (1, 2, -1, Fraction(1, 2))),
        (GF2_16, (1, 0, gf(3), gf(0x1F)), (1, gf(2), gf(7))),
    )
    rng = random.Random(20_13)
    for spec, consts, weights in fields:
        for profile in ("formula", "weakly-skew"):
            for k in range(220):
                budget = rng.randint(1, 12) if profile == "formula" else rng.randint(2, 18)
                c = random_circuit(
                    profile, budget, rng.randint(1, 4), rng, spec=spec,
                    constant_pool=consts, weight_pool=weights,
                    const_prob=0.2 + 0.5 * (k % 6) / 5, weighted=k % 2 == 0,
                )
                if rng.random() < 0.3:
                    const = {}
                    for gid in c.topo_order():
                        g = c.gates[gid]
                        const[gid] = g.kind == "const" or (
                            g.kind != "input" and all(const[a] for a, _ in g.args)
                        )
                    pool = [gid for gid in c.gates
                            if gid not in c.outputs and _rule4_leaves_alone(c, gid, const)]
                    extra = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
                    c = validate(Circuit(c.gates, c.outputs + tuple(extra), spec=spec,
                                         variables=c.variables))
                yield c


def test_minimized_circuits_match_golden_digest():
    """Pins every minimized circuit of the corpus: its rendering, its gate
    ids in dict order and its outputs, or the ConstantCircuit message."""
    import hashlib

    from symdet.circuits import render_circuit

    digest = hashlib.sha256()
    count = minted = promoted = 0
    for c in _minimize_corpus():
        count += 1
        try:
            m = minimize(c)
        except ConstantCircuit as exc:
            digest.update(f"raises ConstantCircuit: {exc}\n".encode())
            continue
        digest.update(render_circuit(m).encode())
        digest.update(f"{list(m.gates)} {m.outputs}\n".encode())
        minted += max(m.gates) > max(c.gates)
        promoted += m.outputs != c.outputs
    assert count >= 1000
    assert minted and promoted
    assert digest.hexdigest() == MINIMIZE_SHA256
