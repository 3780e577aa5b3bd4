import copy
import random
import re
import tracemalloc

import pytest

from symdet.circuits import (
    BadArity,
    Circuit,
    CircuitBuilder,
    CircuitError,
    CyclicCircuit,
    DuplicateVariable,
    Gate,
    MissingAssignment,
    UnreachableGate,
    classify,
    evaluate,
    measure,
    parse_circuit,
    random_circuit,
    reachable_from,
    render_circuit,
    topo_sort,
    validate,
)
from symdet.fields import RATIONAL, FieldSpec, MixedFields
from symdet.graphs import Weight
from symdet.minimize import ConstantCircuit, minimize

Z7 = FieldSpec.prime(7)


def num(n):
    return RATIONAL.from_int(n)


# each immutable value type, by a maker of two equal values and a different one
VALUE_TYPES = {
    "gate": lambda v: Gate(2, "add", args=((0, num(1)), (1, num(v)))),
    "input gate": lambda v: Gate(v, "input", name="x"),
    "weight": lambda v: Weight.scaled("x", num(v)),
    "element": lambda v: Z7.from_int(v),
}


@pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=VALUE_TYPES)
def test_value_types_are_immutable_and_compare_by_value(make):
    a, b = make(3), make(3)
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != make(4)
    for slot in (*type(a).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, slot, None)
        with pytest.raises(AttributeError):
            delattr(a, slot)
    assert a == b == copy.copy(a) == copy.deepcopy(a)


def test_gate_repr_is_its_field_list():
    assert repr(Gate(0, "input", name="x")) == (
        "Gate(gid=0, kind='input', name='x', value=None, args=())")


def test_single_input_is_valid():
    b = CircuitBuilder()
    c = b.build([b.var("x")])
    rep = measure(c)
    assert rep.fat == 1 and rep.skinny == 0 and rep.var_inputs == 1


def test_self_reference_is_cyclic():
    g = Gate(0, "add", args=((0, RATIONAL.one()), (0, RATIONAL.one())))
    with pytest.raises(CyclicCircuit):
        validate(Circuit({0: g}, [0]))


def test_bad_arity_rejected():
    g0 = Gate(0, "input", name="x")
    g1 = Gate(1, "add", args=((0, RATIONAL.one()),))
    with pytest.raises(BadArity):
        validate(Circuit({0: g0, 1: g1}, [1]))


def test_unreachable_gate_rejected():
    b = CircuitBuilder()
    x = b.var("x")
    b.var("y")  # dead
    with pytest.raises(UnreachableGate):
        b.build([x])


@pytest.mark.parametrize("seed", range(20))
def test_dead_gates_are_named_in_sorted_order(seed):
    """``validate`` names, sorted, exactly the gates that ``reachable_from``
    the outputs leaves out, also with two outputs and dead gates that read
    live ones."""
    rng = random.Random(seed)
    c = random_circuit(rng.choice(["formula", "weakly-skew"]), rng.randint(1, 12), 3, rng)
    gates, one = dict(c.gates), RATIONAL.one()
    for gid in range(max(gates) + 1, max(gates) + 1 + rng.randint(1, 4)):
        args = ((rng.choice(list(gates)), one), (rng.choice(list(gates)), one))
        gates[gid] = Gate(gid, rng.choice(["add", "mul"]), args=args)
    outputs = rng.sample(sorted(gates), rng.randint(1, 2))
    circuit = Circuit(gates, outputs)
    dead = sorted(set(gates) - reachable_from(circuit, outputs))
    if not dead:
        assert validate(circuit) is circuit
        return
    with pytest.raises(UnreachableGate) as exc:
        validate(circuit)
    assert str(exc.value) == f"gates {dead} unreachable from any output"


@pytest.mark.parametrize("name", ["a*b", "2x", ""])
def test_builder_refuses_a_variable_name_that_does_not_read_back(name):
    """A name ``parse_circuit`` and ``parse_matrix`` refuse is refused when
    the circuit is built, not when its text is read back."""
    with pytest.raises(CircuitError, match=re.escape(repr(name))):
        CircuitBuilder().var(name)


X = Gate(0, "input", name="x")
ONE = RATIONAL.one()


@pytest.mark.parametrize("gates,error,message", [
    ({0: Gate(0, "input", name="x", args=((0, ONE),))}, BadArity,
     "input gate 0 has arguments"),
    ({0: Gate(0, "input")}, CircuitError, "variable gate 0 has no name"),
    ({0: Gate(0, "const")}, CircuitError, "constant gate 0 has no value"),
    ({0: X, 1: Gate(1, "mul", args=((0, ONE),))}, BadArity, "gate 1 needs exactly 2 arguments"),
    ({0: X, 1: Gate(1, "add", args=((0, ONE), (7, ONE)))}, CircuitError,
     "gate 1 references missing gate 7"),
], ids=["input-with-arguments", "variable-without-name", "constant-without-value",
        "one-argument", "missing-argument"])
def test_validate_names_the_faulty_gate(gates, error, message):
    """Each per-gate check of ``validate``, which ``parse_circuit`` leaves
    to the form of a line, on a circuit built by hand."""
    with pytest.raises(error) as exc:
        validate(Circuit(gates, [max(gates)], variables=["x"]))
    assert str(exc.value) == message


@pytest.mark.parametrize("gates,outputs,variables,message", [
    ({0: X, 1: Gate(1, "add", args=((0, ONE), (7, ONE)))}, [9], ["x"],
     "output 9 is not a gate"),
    ({0: X, 1: Gate(1, "add", args=((0, ONE), (7, ONE))), 2: Gate(2, "input", name="y")},
     [1], ["x"], "gate 1 references missing gate 7"),
    ({0: X, 1: Gate(1, "input", name="y")}, [0], ["x"], "undeclared variables {'y'}"),
], ids=["output-then-gate", "gate-then-variable", "variable-then-liveness"])
def test_validate_reports_the_outputs_then_each_gate_then_the_wiring(
        gates, outputs, variables, message):
    """Of two faults, ``validate`` reports the one it checks first."""
    with pytest.raises(CircuitError) as exc:
        validate(Circuit(gates, outputs, variables=variables))
    assert str(exc.value) == message


def test_parse_refuses_an_unknown_gate_kind():
    text = "vars x\ng0 = input x\ng1 = sub g0 g0\noutput g1\n"
    with pytest.raises(CircuitError) as exc:
        parse_circuit(text)
    assert str(exc.value) == "unknown gate kind 'sub' in line 'g1 = sub g0 g0'"


def test_builder_refuses_a_weight_from_another_field():
    b = CircuitBuilder(Z7)
    x = b.var("x")
    with pytest.raises(MixedFields) as exc:
        b.mul(x, x, RATIONAL.from_int(2))
    assert str(exc.value) == f"weight in {RATIONAL}, builder over {Z7}"
    with pytest.raises(MixedFields):
        b.const(RATIONAL.from_int(2))


def test_duplicate_variable_list_rejected():
    g0 = Gate(0, "input", name="x")
    with pytest.raises(DuplicateVariable):
        validate(Circuit({0: g0}, [0], variables=["x", "x"]))


def test_fig1_formula_classification(fig1_formula):
    cl = classify(fig1_formula)
    assert cl.is_formula and cl.is_weakly_skew


def test_fig1_weakly_skew_classification(fig1_weakly_skew):
    cl = classify(fig1_weakly_skew)
    assert cl.is_weakly_skew and not cl.is_formula
    # z sits inside a closed sub-circuit, hence is not reusable
    z_gates = [g.gid for g in fig1_weakly_skew.gates.values() if g.name == "z"]
    assert z_gates and all(z not in cl.reusable for z in z_gates)


def test_general_circuit_is_not_weakly_skew():
    b = CircuitBuilder()
    x, y = b.var("x"), b.var("y")
    s = b.add(x, y)
    sq = b.mul(s, s)  # shared argument: both sub-circuits leak
    c = b.build([sq])
    cl = classify(c)
    assert not cl.is_weakly_skew and not cl.is_formula


def test_formula_implies_weakly_skew(rng):
    for _ in range(40):
        f = random_circuit("formula", rng.randint(0, 8), 3, rng)
        cl = classify(f)
        assert cl.is_formula
        assert cl.is_weakly_skew


def test_closed_subcircuits_of_weakly_skew_are_disjoint(rng):
    for _ in range(40):
        c = random_circuit("weakly-skew", rng.randint(2, 14), 4, rng)
        cl = classify(c)
        assert cl.is_weakly_skew
        tops = [
            (gid, reachable_from(c, [arg]))
            for gid, arg in cl.owned.items()
            if gid in cl.reusable
        ]
        for i, (g1, s1) in enumerate(tops):
            for g2, s2 in tops[i + 1:]:
                assert not (s1 & s2), f"closed sub-circuits of {g1}, {g2} overlap"


def test_classify_soundness_removal_disconnects(rng):
    """Removing a weakly-skew multiplication separates its closed sub-circuit."""
    for _ in range(25):
        c = random_circuit("weakly-skew", rng.randint(3, 12), 3, rng)
        cl = classify(c)
        for mul_gid, arg in cl.owned.items():
            sub = reachable_from(c, [arg])
            for gid in sub:
                for consumer, _pos in c.consumers()[gid]:
                    assert consumer in sub or consumer == mul_gid


def reference_classify(c: Circuit):
    """``classify`` straight from its docstring, on ``reachable_from`` sets:
    (is_formula, is_weakly_skew, owned arguments in topological order,
    reusable gates)."""
    cons = c.consumers()

    def owns(mul: int, arg: int) -> bool:
        sub = reachable_from(c, [arg])
        leaving = [(g, user) for g in sub for user, _pos in cons[g] if user not in sub]
        return not sub & set(c.outputs) and leaving == [(arg, mul)]

    owned = {}
    for gid in c.topo_order():
        args = [a for a, _w in c.gates[gid].args]
        if c.gates[gid].kind == "mul" and any(owns(gid, a) for a in args):
            owned[gid] = next(a for a in args if owns(gid, a))
    muls = [gid for gid, g in c.gates.items() if g.kind == "mul"]
    inside = set().union(*(reachable_from(c, [a]) for a in owned.values()))
    is_formula = len(c.outputs) == 1 and all(
        len(cons[gid]) == (0 if gid in c.outputs else 1) for gid in c.gates)
    return (is_formula, all(m in owned for m in muls), list(owned.items()),
            frozenset(c.gates) - inside)


def random_dag(rng: random.Random) -> Circuit:
    """A general circuit: arguments drawn from every earlier gate (so shared
    and repeated arguments occur), every sink an output, and some consumed
    gates outputs too, inside what would otherwise be closed sub-circuits."""
    b = CircuitBuilder()
    gates = [b.var(f"x{rng.randint(1, 3)}") for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 14)):
        op = b.mul if rng.random() < 0.5 else b.add
        gates.append(op(rng.choice(gates), rng.choice(gates)))
    used = {a for g in b._gates.values() for a, _w in g.args}
    return b.build([g for g in gates if g not in used]
                   + [g for g in gates if g in used and rng.random() < 0.15])


def classify_corpus():
    """Seeded formulas, weakly skew circuits (weighted, with constants,
    minimized, with extra outputs among their reusable gates) and general
    circuits."""
    rng = random.Random(2024)
    for _ in range(150):
        yield random_circuit("formula", rng.randint(0, 12), 3, rng, weighted=True)
        ws = random_circuit("weakly-skew", rng.randint(1, 30), 3, rng,
                            const_prob=0.3, weighted=rng.random() < 0.5)
        yield ws
        try:
            yield minimize(ws)
        except ConstantCircuit:
            pass
        reusable = sorted(reference_classify(ws)[3] - set(ws.outputs))
        extra = rng.sample(reusable, min(len(reusable), rng.randint(1, 3)))
        yield validate(Circuit(ws.gates, [*ws.outputs, *extra], spec=ws.spec))
        yield random_dag(rng)


def test_classify_matches_reference_definition():
    seen = {"formula": 0, "weakly skew": 0, "general": 0, "multi-output ws": 0}
    for c in classify_corpus():
        cl = classify(c)
        assert (cl.is_formula, cl.is_weakly_skew, list(cl.owned.items()),
                cl.reusable) == reference_classify(c), render_circuit(c)
        kind = ("formula" if cl.is_formula else
                "weakly skew" if cl.is_weakly_skew else "general")
        seen[kind] += 1
        seen["multi-output ws"] += cl.is_weakly_skew and len(c.outputs) > 1
    assert min(seen.values()) >= 100, seen


def test_classify_memory_is_linear_on_a_nested_multiplication_chain():
    b = CircuitBuilder()
    acc = b.var("x0")
    for k in range(1, 1001):
        acc = b.mul(acc, b.var(f"x{k % 7}"))
    c = b.build([acc])
    tracemalloc.start()
    try:
        cl = classify(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cl.is_weakly_skew and len(cl.owned) == 1000
    assert peak < 8 * 2**20, f"classify peaked at {peak / 2**20:.1f} MiB"


def test_evaluate_fig1(fig1_formula, fig1_weakly_skew):
    point = {"x": num(1), "y": num(2), "z": num(3)}
    assert evaluate(fig1_formula, point)[0] == num(21)
    assert evaluate(fig1_weakly_skew, point)[0] == num(21)


def test_evaluate_constant_circuit_ignores_assignment():
    b = CircuitBuilder()
    c = b.build([b.add(b.const(2), b.const(3))])
    assert evaluate(c, {})[0] == num(5)
    assert evaluate(c, {"x": num(9)})[0] == num(5)


def test_evaluate_weighted_arrow():
    b = CircuitBuilder()
    c = b.build([b.add(b.const(1), b.var("x"), 5, 0)])
    assert evaluate(c, {"x": num(7)})[0] == num(5)


def test_evaluate_missing_assignment(fig1_formula):
    with pytest.raises(MissingAssignment):
        evaluate(fig1_formula, {"x": num(1)})


def test_evaluate_over_z7(fig1_formula):
    point = {"x": Z7.from_int(1), "y": Z7.from_int(2), "z": Z7.from_int(3)}
    assert evaluate(fig1_formula, point, Z7) == [Z7.from_int(21 % 7)]


def test_measure_simple_sum():
    b = CircuitBuilder()
    c = b.build([b.add(b.var("x"), b.var("y"))])
    rep = measure(c)
    assert (rep.skinny, rep.fat, rep.var_inputs, rep.green) == (1, 3, 2, 1)


def test_measure_green_of_scaled_sum():
    # 2 * (x + y) has green size 1: the 2 rides on arrow weights
    b = CircuitBuilder()
    s = b.add(b.var("x"), b.var("y"))
    c = b.build([b.mul(b.const(2), s)])
    assert measure(c).green == 1


def test_green_le_skinny_and_fat_relations(rng):
    for _ in range(40):
        c = random_circuit(
            "weakly-skew", rng.randint(2, 12), 3, rng, weighted=True
        )
        rep = measure(c)
        assert rep.green <= rep.skinny
        assert rep.fat >= rep.skinny + 1
        assert rep.skinny + rep.var_inputs <= rep.fat


def test_random_circuit_empty_budget_is_single_input(rng):
    c = random_circuit("formula", 0, 1, rng, const_prob=0.0)
    assert len(c.gates) == 1


def test_random_circuit_deterministic():
    a = random_circuit("weakly-skew", 12, 3, random.Random(5))
    b = random_circuit("weakly-skew", 12, 3, random.Random(5))
    assert render_circuit(a) == render_circuit(b)


def test_random_weakly_skew_classifies(rng):
    for _ in range(30):
        c = random_circuit("weakly-skew", rng.randint(1, 20), 4, rng)
        assert classify(c).is_weakly_skew
        assert measure(c).fat <= 20


def test_text_round_trip(fig1_weakly_skew, rng):
    text = render_circuit(fig1_weakly_skew)
    back = parse_circuit(text)
    assert render_circuit(back) == text
    point = {"x": num(2), "y": num(5), "z": num(-3)}
    assert evaluate(back, point) == evaluate(fig1_weakly_skew, point)


def test_text_format_weights_and_consts():
    text = "vars x\ng0 = input x\ng1 = const 1/2\ng2 = add g0*-1 g1*3\noutput g2\n"
    c = parse_circuit(text)
    assert evaluate(c, {"x": num(4)})[0] == RATIONAL.from_fraction("-5/2")
    assert render_circuit(parse_circuit(render_circuit(c))) == render_circuit(c)


def test_evaluate_matches_expansion_small(rng):
    from symdet.polynomials import expand_circuit

    for _ in range(25):
        c = random_circuit("formula", rng.randint(0, 8), 3, rng, weighted=True)
        poly = expand_circuit(c)[0]
        for trial in range(3):
            point = {v: num(rng.randint(-5, 5)) for v in c.variables}
            assert evaluate(c, point)[0] == poly.evaluate(point)


def test_multi_output_text_round_trip():
    b = CircuitBuilder()
    x, y = b.var("x"), b.var("y")
    s = b.add(x, y)
    p = b.mul(s, y, 1, 2)
    c = b.build([s, p])
    text = render_circuit(c)
    assert text.splitlines()[-1].startswith("output ") and len(c.outputs) == 2
    back = parse_circuit(text)
    point = {"x": num(3), "y": num(4)}
    assert evaluate(back, point) == evaluate(c, point)


# -- topological order: the args-first case against the depth-first walk ------


def reference_topo_sort(args) -> list[int]:
    """Depth-first postorder on an explicit stack, roots and arguments in
    their given order: the walk ``topo_sort`` takes for any order."""
    state: dict[int, int] = {}  # 1 while on the stack, 2 once placed
    order: list[int] = []
    for root in args:
        if state.get(root):
            continue
        stack = [(root, 0)]
        state[root] = 1
        while stack:
            node, i = stack.pop()
            if i < len(args[node]):
                stack.append((node, i + 1))
                arg = args[node][i][0]
                if state.get(arg) == 1:
                    raise CyclicCircuit(f"cycle through gate {arg}")
                if not state.get(arg):
                    state[arg] = 1
                    stack.append((arg, 0))
            else:
                state[node] = 2
                order.append(node)
    return order


@pytest.mark.parametrize("profile", ["formula", "weakly-skew"])
def test_topo_sort_matches_the_depth_first_reference(profile):
    """In builder order, arguments first, the order is the mapping's own;
    with the gates re-inserted shuffled it is the walk's postorder."""
    rng = random.Random(11)
    for _ in range(60):
        c = random_circuit(profile, rng.randint(0, 40), 4, rng, weighted=rng.random() < 0.5)
        args = {gid: g.args for gid, g in c.gates.items()}
        assert topo_sort(args) == reference_topo_sort(args) == list(args)
        ids = list(args)
        rng.shuffle(ids)
        shuffled = {gid: args[gid] for gid in ids}
        assert topo_sort(shuffled) == reference_topo_sort(shuffled)


def test_a_file_listing_a_gate_before_its_arguments_parses():
    text = ("vars x y z\ng4 = mul g3 g0\ng3 = add g1 g2*-2\ng0 = input x\n"
            "g2 = input z\ng1 = input y\ng5 = add g4 g2\noutput g5\n")
    c = parse_circuit(text)
    assert c.topo_order() == (1, 2, 3, 0, 4, 5)
    assert evaluate(c, {"x": num(2), "y": num(3), "z": num(5)}) == [num((3 - 10) * 2 + 5)]


@pytest.mark.parametrize("text", [
    "vars x\ng0 = input x\ng1 = add g2 g0\ng2 = mul g1 g0\noutput g2\n",
    "vars x\ng0 = input x\ng1 = add g1 g0\noutput g1\n",
], ids=["cycle", "self-reference"])
def test_a_cyclic_file_is_refused(text):
    with pytest.raises(CyclicCircuit):
        parse_circuit(text)


def test_random_circuit_refuses_an_unknown_profile():
    with pytest.raises(ValueError, match="unknown profile 'skew'"):
        random_circuit("skew", 3, 2, random.Random(0))
