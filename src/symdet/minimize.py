"""Weight-pushing circuit minimization.

Rewrites a weighted circuit into an equivalent one in which constants
survive only as out-degree-1 input gates labelled 1 feeding additions:

1. inputs are variables or the constant 1, and constant inputs have
   out-degree 1;
2. an addition gate has at most one constant argument, an input gate;
3. a multiplication gate has both arguments non-constant.

"Constant" is decided structurally: a gate is constant iff no variable
input occurs in its sub-circuit.  One pass in topological order gives
each constant gate its value and each other gate the gate it reads
through together with a scale.  A multiplication with one constant
argument that is not an output is bypassed: its readers read its other
argument, scaled by the constant.  Every other computation keeps its id,
and each arrow that leaves a constant gate reads its own 1-input, the
constant moved onto the arrow's weight.  An output multiplication with a
constant argument hands the constant to its other argument, which becomes
the output if nothing else reads it, or becomes an addition with a zero
1-input arm.  The pass never increases the number of computation gates,
keeps the number of variable inputs, and preserves the computed
polynomial of every output; it also preserves formula-ness and weak
skewness.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .circuits import (
    ADD,
    COMPUTATION,
    CONST,
    MUL,
    VAR,
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    evaluate,
    validate,
)
from .fields import FieldElement


class ConstantCircuit(CircuitError):
    """Minimization requires a non-constant output (some variable input)."""


def minimize(circuit: Circuit) -> Circuit:
    """Return the minimized equivalent of a validated weighted circuit.

    The result is kept on the (immutable) circuit, so the size measure, the
    builders and the bound of one build share a single rewrite.
    """
    if circuit._minimized is None:
        circuit._minimized = _rewrite(circuit)
    return circuit._minimized


def green_form(circuit: Circuit) -> Circuit:
    """The circuit green sizes are measured on: the minimized circuit, or for
    a variable-free circuit one constant input per output (green size 0)."""
    if any(g.kind == VAR for g in circuit.gates.values()):
        return minimize(circuit)
    b = CircuitBuilder(circuit.spec)
    return b.build([b.const(v) for v in evaluate(circuit, {})])


def _rewrite(circuit: Circuit) -> Circuit:
    gates, order, one = circuit.gates, circuit.topo_order(), circuit.spec.one()
    const: dict[int, bool] = {}
    for gid in order:
        g = gates[gid]
        const[gid] = g.kind == CONST or (g.kind != VAR and all(const[a] for a, _ in g.args))
    if not any(g.kind == VAR for g in gates.values()):
        raise ConstantCircuit("circuit has no variable input")
    if any(const[o] for o in circuit.outputs):
        raise ConstantCircuit("an output gate computes a constant")

    # each arrow leaving a constant gate reads its own 1-input; the first
    # keeps the gate's id, the others take fresh ids (constant inputs in
    # gate order first, then constant computations in topological order)
    readers = circuit.consumers()
    fresh = itertools.count(max(gates) + 1)
    one_input: dict[tuple[int, int], int] = {}
    for gid in [g for g in gates if gates[g].kind == CONST] + [
        g for g in order if const[g] and gates[g].kind in COMPUTATION
    ]:
        for i, arrow in enumerate(readers[gid]):
            one_input[arrow] = gid if i == 0 else next(fresh)

    def one_constant_factor(g: Gate) -> bool:
        return g.kind == MUL and const[g.args[0][0]] != const[g.args[1][0]]

    value: dict[int, FieldElement] = {}  # constant gate -> its value
    bypass: dict[int, tuple[int, FieldElement]] = {}  # product -> (gate it reads, scale)
    args: dict[int, list[list]] = {}  # kept computation -> [[arg, weight], ...]
    uses: Counter[int] = Counter()  # arrows into each gate of the result
    outs = set(circuit.outputs)
    for gid in order:
        g = gates[gid]
        if g.kind == CONST:
            value[gid] = g.value
        elif const[gid]:
            (a, wa), (b, wb) = g.args
            x, y = wa * value[a], wb * value[b]
            value[gid] = x + y if g.kind == ADD else x * y
        elif gid not in outs and one_constant_factor(g):
            (c, wc), (x, wx) = g.args if const[g.args[0][0]] else g.args[::-1]
            if x in bypass:
                x, s = bypass[x]
                wx = wx * s
            bypass[gid] = (x, (wc * value[c]) * wx)
        elif g.kind != VAR:
            args[gid] = []
            for idx, (a, w) in enumerate(g.args):
                if const[a]:
                    args[gid].append([one_input[gid, idx], w * value[a]])
                else:
                    if a in bypass:
                        a, s = bypass[a]
                        w = w * s
                    args[gid].append([a, w])
                    uses[a] += 1

    # an output multiplication with a constant argument hands the constant
    # to its other argument gamma: gamma becomes the output when nothing else
    # reads it or the product, else the product becomes gamma*scale + 1*0
    outputs = list(circuit.outputs)
    added: set[int] = set()
    for pos, out in enumerate(circuit.outputs):
        g = gates[out]
        if not one_constant_factor(g):
            continue
        (_, c1), (gamma, c2) = args[out] if const[g.args[0][0]] else args[out][::-1]
        scale = c1 * c2
        if gamma in args and uses[gamma] == 1 and gamma not in outputs and not readers[out]:
            outputs[pos] = gamma
            for arg in args[gamma] if gates[gamma].kind == ADD else args[gamma][:1]:
                arg[1] = arg[1] * scale
        else:
            added.add(out)
            args[out] = [[gamma, scale], [next(fresh), circuit.spec.zero()]]

    live: set[int] = set()
    stack = list(outputs)
    while stack:
        gid = stack.pop()
        if gid in live:
            continue
        live.add(gid)
        stack.extend(a for a, _ in args.get(gid, ()))
    result: dict[int, Gate] = {}
    for gid in live:
        if gid in args:
            kind = ADD if gid in added else gates[gid].kind
            result[gid] = Gate(gid, kind, args=tuple(map(tuple, args[gid])))
        elif gid in gates and gates[gid].kind == VAR:
            result[gid] = gates[gid]
        else:
            result[gid] = Gate(gid, CONST, value=one)
    return validate(Circuit(result, outputs, spec=circuit.spec, variables=circuit.variables))


def check_normal_form(circuit: Circuit) -> None:
    """Assert the three post-conditions of minimization; raises AssertionError."""
    cons = circuit.consumers()
    for g in circuit.gates.values():
        if g.kind == CONST:
            assert g.value.is_one(), f"constant input {g.gid} not labelled 1"
            assert len(cons[g.gid]) <= 1, f"constant input {g.gid} has out-degree > 1"
    const: dict[int, bool] = {}
    for gid in circuit.topo_order():
        g = circuit.gates[gid]
        if g.kind == VAR:
            const[gid] = False
        elif g.kind == CONST:
            const[gid] = True
        else:
            const[gid] = all(const[a] for a, _ in g.args)
    for g in circuit.gates.values():
        if g.kind == ADD:
            n_const = sum(1 for a, _ in g.args if const[a])
            assert n_const <= 1, f"addition {g.gid} has two constant arguments"
            for a, _ in g.args:
                if const[a]:
                    assert circuit.gates[a].kind == CONST, (
                        f"constant argument {a} of addition {g.gid} is not an input"
                    )
        elif g.kind == MUL:
            assert not any(const[a] for a, _ in g.args), (
                f"multiplication {g.gid} has a constant argument"
            )
