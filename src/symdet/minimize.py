"""Weight-pushing circuit minimization.

Rewrites a weighted circuit into an equivalent one in which constants
survive only as out-degree-1 input gates labelled 1 feeding additions:

1. inputs are variables or the constant 1, and constant inputs have
   out-degree 1;
2. an addition gate has at most one constant argument, an input gate;
3. a multiplication gate has both arguments non-constant.

Four rewrite rules are applied, each one exhaustively (in topological
order) before the next, and never revisited.  "Constant" is decided
structurally: a gate is constant iff no variable input occurs in its
sub-circuit.  The pass never increases the number of computation gates,
keeps the number of variable inputs, and preserves the computed
polynomial of every output; it also preserves formula-ness and weak
skewness.
"""

from __future__ import annotations

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
    topo_sort,
    validate,
)
from .fields import FieldElement


class ConstantCircuit(CircuitError):
    """Minimization requires a non-constant output (some variable input)."""


class _Scratch:
    """Mutable working copy of a circuit.

    ``users`` maps every gate to the arrows leaving it, ``(consumer, index)``
    keys of an insertion-ordered dict; it is built by one scan of the
    circuit and kept up to date by every method that moves an arrow, so no
    rewrite rescans the circuit for a gate's consumers.
    """

    def __init__(self, circuit: Circuit):
        self.spec = circuit.spec
        self.kind: dict[int, str] = {}
        self.name: dict[int, str | None] = {}
        self.value: dict[int, FieldElement | None] = {}
        self.args: dict[int, list[list]] = {}  # gid -> [[arg, weight], [arg, weight]]
        for g in circuit.gates.values():
            self.kind[g.gid] = g.kind
            self.name[g.gid] = g.name
            self.value[g.gid] = g.value
            self.args[g.gid] = [[a, w] for a, w in g.args]
        self.outputs = list(circuit.outputs)
        self.variables = circuit.variables
        self._next = max(self.kind) + 1 if self.kind else 0
        self.users = self.consumers()

    def fresh_const_one(self) -> int:
        gid = self._next
        self._next += 1
        self.kind[gid] = CONST
        self.name[gid] = None
        self.value[gid] = self.spec.one()
        self.args[gid] = []
        self.users[gid] = {}
        return gid

    def consumers(self) -> dict[int, dict[tuple[int, int], None]]:
        """The arrows leaving each gate, from a scan of every gate."""
        out: dict[int, dict[tuple[int, int], None]] = {gid: {} for gid in self.kind}
        for gid, arglist in self.args.items():
            for idx, (a, _w) in enumerate(arglist):
                out[a][(gid, idx)] = None
        return out

    def set_arg(self, gid: int, idx: int, a: int, w: FieldElement) -> None:
        """Point argument ``idx`` of ``gid`` at ``a`` with weight ``w``."""
        del self.users[self.args[gid][idx][0]][(gid, idx)]
        self.args[gid][idx] = [a, w]
        self.users[a][(gid, idx)] = None

    def set_args(self, gid: int, args: list[list]) -> None:
        """Replace every argument of ``gid``."""
        self._drop_args(gid)
        self.args[gid] = args
        for idx, (a, _w) in enumerate(args):
            self.users[a][(gid, idx)] = None

    def _drop_args(self, gid: int) -> None:
        for idx, (a, _w) in enumerate(self.args[gid]):
            del self.users[a][(gid, idx)]

    def delete(self, gid: int) -> None:
        self._drop_args(gid)
        del self.kind[gid], self.name[gid], self.value[gid], self.args[gid], self.users[gid]

    def to_circuit(self) -> Circuit:
        live: set[int] = set()
        stack = list(self.outputs)
        while stack:
            g = stack.pop()
            if g in live:
                continue
            live.add(g)
            stack.extend(a for a, _ in self.args[g])
        gates = {
            gid: Gate(
                gid,
                self.kind[gid],
                name=self.name[gid],
                value=self.value[gid],
                args=tuple((a, w) for a, w in self.args[gid]),
            )
            for gid in live
        }
        return validate(
            Circuit(gates, self.outputs, spec=self.spec, variables=self.variables)
        )


def _constant_flags(s: _Scratch) -> dict[int, bool]:
    flags: dict[int, bool] = {}
    for gid in topo_sort(s.args):
        if s.kind[gid] == VAR:
            flags[gid] = False
        elif s.kind[gid] == CONST:
            flags[gid] = True
        else:
            flags[gid] = all(flags[a] for a, _ in s.args[gid])
    return flags


def _split_out_degree(s: _Scratch, gid: int) -> None:
    """Duplicate a constant input so that every copy has out-degree 1."""
    for cgid, idx in list(s.users[gid])[1:]:
        dup = s.fresh_const_one()
        s.value[dup] = s.value[gid]
        s.set_arg(cgid, idx, dup, s.args[cgid][idx][1])


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
    s = _Scratch(circuit)
    const = _constant_flags(s)
    if not any(k == VAR for k in s.kind.values()):
        raise ConstantCircuit("circuit has no variable input")
    if any(const[o] for o in s.outputs):
        raise ConstantCircuit("an output gate computes a constant")

    one = s.spec.one()

    # rule 1: constant inputs become 1, their constant pushed onto out-arrows
    for gid in list(s.kind):
        if s.kind[gid] == CONST:
            c = s.value[gid]
            s.value[gid] = one
            if not c.is_one():
                for cgid, idx in s.users[gid]:
                    s.args[cgid][idx][1] = s.args[cgid][idx][1] * c
            _split_out_degree(s, gid)

    # rule 2: computation gates with two constant arguments collapse to a 1-input
    const = _constant_flags(s)  # rule 1 introduced fresh constant inputs
    for gid in topo_sort(s.args):
        if s.kind.get(gid) not in COMPUTATION:
            continue
        (a, wa), (b, wb) = s.args[gid]
        # gates minted by _split_out_degree are constant-1 inputs
        if not (const.get(a, True) and const.get(b, True)):
            continue
        v = wa + wb if s.kind[gid] == ADD else wa * wb
        s.set_args(gid, [])
        if a != b:
            s.delete(b)
        s.delete(a)
        s.kind[gid] = CONST
        s.value[gid] = one
        if not v.is_one():
            for cgid, idx in s.users[gid]:
                s.args[cgid][idx][1] = s.args[cgid][idx][1] * v
        _split_out_degree(s, gid)

    def const_arg_split(gid: int):
        """(beta, c1, gamma, c2) if the gate has exactly one constant argument."""
        (a, wa), (b, wb) = s.args[gid]
        ca, cb = s.kind[a] == CONST, s.kind[b] == CONST
        if ca and not cb:
            return a, wa, b, wb
        if cb and not ca:
            return b, wb, a, wa
        return None

    # rule 3: interior multiplications with a constant argument are bypassed
    outs = set(s.outputs)
    for gid in topo_sort(s.args):
        if s.kind.get(gid) != MUL or gid in outs:
            continue
        split = const_arg_split(gid)
        if split is None:
            continue
        beta, c1, gamma, c2 = split
        scale = c1 * c2
        for cgid, idx in list(s.users[gid]):
            s.set_arg(cgid, idx, gamma, s.args[cgid][idx][1] * scale)
        s.delete(gid)
        s.delete(beta)

    # rule 4: an output multiplication with a constant argument is removed,
    # its constant pushed into the arrows entering the surviving argument
    for pos, out in enumerate(list(s.outputs)):
        while s.kind[out] == MUL:
            split = const_arg_split(out)
            if split is None:
                break
            beta, c1, gamma, c2 = split
            scale = c1 * c2
            promotable = (
                s.kind[gamma] in COMPUTATION
                and len(s.users[gamma]) == 1
                and gamma not in s.outputs
            )
            if promotable:
                s.delete(out)
                s.delete(beta)
                if s.kind[gamma] == ADD:
                    for arg in s.args[gamma]:
                        arg[1] = arg[1] * scale
                else:
                    s.args[gamma][0][1] = s.args[gamma][0][1] * scale
                s.outputs[pos] = gamma
                out = gamma
            else:
                # gamma is an input, another output, or fans out: keep the
                # gate count by turning the product into a weighted addition
                # (the second argument is a vanishing constant arrow)
                s.kind[out] = ADD
                s.set_args(out, [[gamma, scale], [s.fresh_const_one(), s.spec.zero()]])
                s.delete(beta)
                break

    return s.to_circuit()


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
