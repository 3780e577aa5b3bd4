"""Arithmetic circuit intermediate representation.

A circuit is a DAG of gates: inputs (a variable or a field constant) of
in-degree 0 and computation gates (+ or *) of in-degree exactly 2.  Arrows
carry weights, defaulting to 1; an arrow of weight c from gate a into gate b
delivers c times the value of a, so subtraction and constant multiplication
need no gates of their own.  Multiple output gates are permitted.

Structural classification distinguishes formulas (every non-output gate has
out-degree 1, :func:`is_formula`, one count of readers), weakly skew
circuits (each multiplication owns one argument's sub-circuit outright) and
general circuits, and records the owned argument of every multiplication
together with the set of reusable gates, in one union-find pass over the
gates; :func:`reachable_from` gives an owned argument's closed sub-circuit.

Each invariant is checked once, where it is established.  :func:`validate`
is the one check of a circuit built in the library: every gate on its own
(arity, name, value, arguments that exist), then the wiring (outputs,
declared variables, every gate live, no cycle).  :func:`parse_circuit`
reads and checks a file in one pass: its lines give every gate its kind,
arity, name and value, every gate line by one pattern match, and a
file whose every argument names a gate of an earlier line, the order
:func:`render_circuit` writes, is in topological order as read, so only its
wiring is checked; any other order goes through :func:`validate`'s walk.

Circuits are immutable after :func:`validate`; every query here is pure.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .fields import (
    RATIONAL,
    FieldElement,
    FieldSpec,
    MixedFields,
    embed,
    parse_element,
)


class CircuitError(Exception):
    """Base class for circuit construction/validation errors."""


class CyclicCircuit(CircuitError):
    pass


class BadArity(CircuitError):
    pass


class UnreachableGate(CircuitError):
    pass


class DuplicateVariable(CircuitError):
    pass


class MissingAssignment(CircuitError):
    pass


VAR = "input"
CONST = "const"
ADD = "add"
MUL = "mul"
COMPUTATION = (ADD, MUL)


class Gate:
    """One circuit vertex, an immutable value.

    ``args`` is the ordered pair of (argument gate id, arrow weight) for
    computation gates and the empty tuple for inputs.  A slotted class:
    ``__init__`` writes each slot through its descriptor, past the
    ``__setattr__`` guard that makes assignment raise; equality and hashing
    are by value, and the repr lists every field.
    """

    __slots__ = __match_args__ = ("gid", "kind", "name", "value", "args")

    def __init__(
        self,
        gid: int,
        kind: str,
        name: str | None = None,
        value: FieldElement | None = None,
        args: tuple[tuple[int, FieldElement], ...] = (),
    ):
        _set_gid(self, gid)
        _set_kind(self, kind)
        _set_name(self, name)
        _set_value(self, value)
        _set_args(self, args)

    def __setattr__(self, name, value):
        raise AttributeError("Gate is immutable")

    def __delattr__(self, name):
        raise AttributeError("Gate is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.gid, self.kind, self.name, self.value, self.args)
                == (other.gid, other.kind, other.name, other.value, other.args))

    def __hash__(self) -> int:
        return hash((self.gid, self.kind, self.name, self.value, self.args))

    def __reduce__(self):
        return Gate, (self.gid, self.kind, self.name, self.value, self.args)

    def __repr__(self) -> str:
        return (f"Gate(gid={self.gid!r}, kind={self.kind!r}, name={self.name!r}, "
                f"value={self.value!r}, args={self.args!r})")

    @property
    def is_input(self) -> bool:
        return self.kind in (VAR, CONST)


_set_gid, _set_kind, _set_name, _set_value, _set_args = (
    Gate.__dict__[slot].__set__ for slot in Gate.__slots__)


class Circuit:
    """Immutable gate DAG with one or more outputs."""

    def __init__(
        self,
        gates: Mapping[int, Gate],
        outputs: Sequence[int],
        spec: FieldSpec = RATIONAL,
        variables: Sequence[str] | None = None,
    ):
        self.gates: dict[int, Gate] = dict(gates)
        self.outputs: tuple[int, ...] = tuple(outputs)
        self.spec = spec
        if variables is None:
            seen: dict[str, None] = {}
            for g in self.gates.values():
                if g.kind == VAR:
                    seen.setdefault(g.name, None)
            variables = tuple(seen)
        self.variables: tuple[str, ...] = tuple(variables)
        self._topo: tuple[int, ...] | None = None
        self._minimized: Circuit | None = None  # set by minimize.minimize

    # -- structural queries ---------------------------------------------------

    def topo_order(self) -> tuple[int, ...]:
        """Gate ids in topological order (arguments first); raises on cycles."""
        if self._topo is None:
            self._topo = tuple(topo_sort({gid: g.args for gid, g in self.gates.items()}))
        return self._topo

    def consumers(self) -> dict[int, list[tuple[int, int]]]:
        """Map gate id -> list of (consumer id, argument position)."""
        out: dict[int, list[tuple[int, int]]] = {gid: [] for gid in self.gates}
        for g in self.gates.values():
            for idx, (a, _w) in enumerate(g.args):
                out[a].append((g.gid, idx))
        return out


def topo_sort(args: Mapping[int, Sequence[Sequence]]) -> list[int]:
    """Nodes in topological order, arguments first: depth-first postorder on
    an explicit stack, roots and arguments in their given order.  ``args``
    maps each node to its arguments, each a sequence whose first item is
    the argument's id (a gate's ``(id, weight)`` pairs); raises
    :class:`CyclicCircuit`.

    When every node's arguments come before it in the mapping, the order
    :func:`render_circuit` writes and :class:`CircuitBuilder` allocates,
    the walk reaches each root with its arguments already placed, so its
    postorder is the mapping's order; :func:`validate` and
    :func:`parse_circuit` note that case as they check each gate and take
    the mapping's order without a walk."""
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


def validate(circuit: Circuit) -> Circuit:
    """Check all structural invariants; returns the circuit unchanged.

    The outputs first, then every gate on its own (:func:`_check_gates`),
    then the wiring (:func:`_check_wiring`).  When every gate's arguments
    come before it, that order is the topological order and no walk is
    taken.  Raises :class:`BadArity`, :class:`CyclicCircuit`,
    :class:`UnreachableGate` or :class:`DuplicateVariable`.
    """
    _check_outputs(circuit)
    if _check_gates(circuit):
        circuit._topo = tuple(circuit.gates)  # the walk's postorder, see topo_sort
    _check_wiring(circuit, {g.name for g in circuit.gates.values() if g.kind == VAR})
    return circuit


def _check_outputs(circuit: Circuit) -> None:
    if not circuit.outputs:
        raise CircuitError("circuit needs at least one output")
    for o in circuit.outputs:
        if o not in circuit.gates:
            raise CircuitError(f"output {o} is not a gate")
    if len(set(circuit.outputs)) != len(circuit.outputs):
        raise CircuitError("duplicate output gate")


def _check_gates(circuit: Circuit) -> bool:
    """The per-gate part of :func:`validate`: arity, a variable's name, a
    constant's value, and arguments that are gates.  Returns whether every
    argument is a gate that comes before its reader in ``circuit.gates``."""
    gates = circuit.gates
    seen: set[int] = set()
    in_order = True
    for gid, g in gates.items():
        if g.is_input and g.args:
            raise BadArity(f"input gate {g.gid} has arguments")
        if g.kind in COMPUTATION and len(g.args) != 2:
            raise BadArity(f"gate {g.gid} needs exactly 2 arguments")
        if g.kind == VAR and not g.name:
            raise CircuitError(f"variable gate {g.gid} has no name")
        if g.kind == CONST and g.value is None:
            raise CircuitError(f"constant gate {g.gid} has no value")
        for a, _w in g.args:
            if a not in gates:
                raise CircuitError(f"gate {g.gid} references missing gate {a}")
            in_order = in_order and a in seen
        seen.add(gid)
    return in_order


def _check_wiring(circuit: Circuit, names: set[str]) -> None:
    """The wiring part of :func:`validate`: the declared variables, which
    must hold ``names``, the names of the variable gates; then one reverse
    pass over the topological order (it raises :class:`CyclicCircuit`)
    marks the outputs, then the arguments of every marked gate, and every
    gate must be marked."""
    if len(set(circuit.variables)) != len(circuit.variables):
        raise DuplicateVariable(f"variable list {circuit.variables} has duplicates")
    if not names <= set(circuit.variables):
        raise DuplicateVariable(f"undeclared variables {names - set(circuit.variables)}")
    gates = circuit.gates
    live = set(circuit.outputs)
    for gid in reversed(circuit.topo_order()):
        if gid in live:
            for a, _w in gates[gid].args:
                live.add(a)
    if len(live) != len(gates):
        dead = set(gates) - live
        raise UnreachableGate(f"gates {sorted(dead)} unreachable from any output")


def reachable_from(circuit: Circuit, roots: Iterable[int]) -> set[int]:
    seen = set()
    stack = list(roots)
    while stack:
        gid = stack.pop()
        if gid in seen:
            continue
        seen.add(gid)
        stack.extend(a for a, _ in circuit.gates[gid].args)
    return seen


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WsClassification:
    is_formula: bool
    is_weakly_skew: bool
    #: multiplication gate id -> its owned argument, for every multiplication
    #: that owns one (all of them when the circuit is weakly skew)
    owned: dict[int, int]
    reusable: frozenset[int]


def is_formula(circuit: Circuit) -> bool:
    """Whether a validated circuit is a formula: one output, which nothing
    reads, and every other gate read exactly once.  One count of readers
    settles it: in a validated circuit of one output every other gate is
    live, so read at least once, and nothing reads the output, so it is a
    formula exactly when no gate is read twice."""
    if len(circuit.outputs) != 1:
        return False
    read: set[int] = set()
    for g in circuit.gates.values():
        for a, _w in g.args:
            if a in read:
                return False
            read.add(a)
    return True


def classify(circuit: Circuit) -> WsClassification:
    """Classify a validated circuit as formula / weakly skew / general.

    A multiplication owns its argument b when the sub-circuit of b (b and
    every gate it reaches through arguments) holds no output and no arrow
    leaves it but the one from b into the multiplication; when both
    arguments qualify the left one is owned.  The circuit is weakly skew when
    every multiplication owns an argument, and a gate is reusable when no
    owned argument's sub-circuit contains it.

    One pass in topological order keeps the gates built so far in a
    union-find whose roots are the latest gate of their component; a root
    holds the number of arrows leaving its component, an output's value
    counting as one.  A gate heads a closed sub-circuit exactly when that
    count is 1 as it is built: a joined gate outside its sub-circuit reaches
    an output along a path that avoids it, and that path adds a leaving
    arrow, as does a second arrow into the same consumer.
    """
    topo = circuit.topo_order()
    cons = circuit.consumers()
    outputs = set(circuit.outputs)
    parent: dict[int, int] = {}
    leaving: dict[int, int] = {}  # component root -> arrows leaving it
    closed: set[int] = set()
    owned: dict[int, int] = {}

    def find(gid: int) -> int:
        while parent[gid] != gid:
            parent[gid] = parent[parent[gid]]  # path halving
            gid = parent[gid]
        return gid

    for gid in topo:
        g = circuit.gates[gid]
        parent[gid] = gid
        count = len(cons[gid]) + (gid in outputs)
        if g.args:
            # join the arguments' components; the two arrows into g stay inside
            (a, _), (b, _) = g.args
            ra, rb = find(a), find(b)
            count += leaving.pop(ra) - 2
            parent[ra] = gid
            if rb != ra:
                count += leaving.pop(rb)
                parent[rb] = gid
            if g.kind == MUL and (a in closed or b in closed):
                owned[gid] = a if a in closed else b
        leaving[gid] = count
        if count == 1:
            closed.add(gid)

    reusable = set(outputs)
    for gid in reversed(topo):
        if gid in reusable:
            reusable.update(a for a, _w in circuit.gates[gid].args if a != owned.get(gid))

    return WsClassification(
        is_formula=is_formula(circuit),
        is_weakly_skew=all(
            gid in owned for gid, g in circuit.gates.items() if g.kind == MUL
        ),
        owned=owned,
        reusable=frozenset(reusable),
    )


# ---------------------------------------------------------------------------
# size measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeReport:
    skinny: int       # computation gates
    fat: int          # all gates
    var_inputs: int   # inputs labelled by a variable
    green: int        # computation gates after weight-pushing minimization


def measure(circuit: Circuit) -> SizeReport:
    skinny = sum(1 for g in circuit.gates.values() if g.kind in COMPUTATION)
    fat = len(circuit.gates)
    var_inputs = sum(1 for g in circuit.gates.values() if g.kind == VAR)
    from .minimize import ConstantCircuit, green_form  # deferred import

    try:
        form = green_form(circuit)
    except ConstantCircuit:
        # multiple-output circuit with a constant output: minimization
        # does not apply, report the unreduced count
        green = skinny
    else:
        green = sum(1 for g in form.gates.values() if g.kind in COMPUTATION)
    return SizeReport(skinny=skinny, fat=fat, var_inputs=var_inputs, green=green)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(
    circuit: Circuit,
    assignment: Mapping[str, FieldElement],
    spec: FieldSpec | None = None,
) -> list[FieldElement]:
    """Value of each output under weighted-circuit semantics.

    An arrow of weight c from gate a delivers ``c * value(a)``.  Constants
    and weights are embedded into ``spec`` (default: the circuit's field).
    """
    if spec is None:
        spec = circuit.spec
    vals: dict[int, FieldElement] = {}
    for gid in circuit.topo_order():
        g = circuit.gates[gid]
        if g.kind == VAR:
            if g.name not in assignment:
                raise MissingAssignment(f"no value for variable {g.name!r}")
            v = assignment[g.name]
            if v.spec != spec:
                raise MixedFields(f"assignment for {g.name!r} lives in {v.spec}, not {spec}")
            vals[gid] = v
        elif g.kind == CONST:
            vals[gid] = embed(g.value, spec)
        else:
            (a, wa), (b, wb) = g.args
            xa = embed(wa, spec) * vals[a]
            xb = embed(wb, spec) * vals[b]
            vals[gid] = xa + xb if g.kind == ADD else xa * xb
    return [vals[o] for o in circuit.outputs]


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


class CircuitBuilder:
    """Convenience constructor; gate ids are allocated in topological order."""

    def __init__(self, spec: FieldSpec = RATIONAL):
        self.spec = spec
        self._gates: dict[int, Gate] = {}

    def _weight(self, w) -> FieldElement:
        if isinstance(w, FieldElement):
            if w.spec != self.spec:
                raise MixedFields(f"weight in {w.spec}, builder over {self.spec}")
            return w
        return self.spec.from_fraction(Fraction(w))

    def var(self, name: str) -> int:
        if not is_variable_name(name):
            raise CircuitError(f"bad variable name {name!r}")
        gid = len(self._gates)
        self._gates[gid] = Gate(gid, VAR, name=name)
        return gid

    def const(self, value) -> int:
        gid = len(self._gates)
        self._gates[gid] = Gate(gid, CONST, value=self._weight(value))
        return gid

    def _comp(self, kind: str, a: int, b: int, wa, wb) -> int:
        gid = len(self._gates)
        self._gates[gid] = Gate(
            gid, kind, args=((a, self._weight(wa)), (b, self._weight(wb)))
        )
        return gid

    def add(self, a: int, b: int, wa=1, wb=1) -> int:
        return self._comp(ADD, a, b, wa, wb)

    def mul(self, a: int, b: int, wa=1, wb=1) -> int:
        return self._comp(MUL, a, b, wa, wb)

    def build(self, outputs: Sequence[int]) -> Circuit:
        return validate(Circuit(self._gates, outputs, spec=self.spec))


# ---------------------------------------------------------------------------
# random generation (property-test substrate)
# ---------------------------------------------------------------------------


def random_circuit(
    profile: str,
    size_budget: int,
    n_vars: int,
    rng: random.Random,
    spec: FieldSpec = RATIONAL,
    constant_pool: Sequence = (1, -1, Fraction(1, 2)),
    const_prob: float = 0.15,
    weighted: bool = False,
    weight_pool: Sequence = (1, 1, 1, 2, -1, 3, Fraction(1, 2)),
) -> Circuit:
    """Deterministic pseudo-random circuit of the requested class.

    ``profile`` is ``"formula"`` (budget counts computation gates) or
    ``"weakly-skew"`` (budget counts total gates, the fat size).  Weakly skew
    multiplications are created by grafting a freshly generated closed
    sub-circuit as one argument.
    """
    names = [f"x{i + 1}" for i in range(max(1, n_vars))]
    b = CircuitBuilder(spec)

    def leaf() -> int:
        if constant_pool and rng.random() < const_prob:
            return b.const(rng.choice(list(constant_pool)))
        return b.var(rng.choice(names))

    def w() -> FieldElement:
        if not weighted:
            return spec.one()
        return b._weight(rng.choice(list(weight_pool)))

    if profile == "formula":

        def gen(budget: int) -> int:
            if budget == 0:
                return leaf()
            left = rng.randint(0, budget - 1)
            x = gen(left)
            y = gen(budget - 1 - left)
            op = b.add if rng.random() < 0.5 else b.mul
            return op(x, y, w(), w())

        root = gen(size_budget)
        return b.build([root])

    if profile != "weakly-skew":
        raise ValueError(f"unknown profile {profile!r}")

    def gen_ws(budget: int) -> int:
        """Grow a weakly skew circuit of fat size exactly ``budget``.

        The invariant budget >= len(sinks) - 1 keeps enough budget to merge
        all currently unconsumed gates into a single root, so nothing has to
        be pruned afterwards.
        """
        pool: list[int] = []
        sinks: list[int] = []

        def fresh(gid: int) -> None:
            pool.append(gid)
            sinks.append(gid)

        def pick(prefer_sink: bool) -> int:
            if prefer_sink and sinks and rng.random() < 0.8:
                return rng.choice(sinks)
            return rng.choice(pool)

        def consume(gid: int) -> None:
            if gid in sinks:
                sinks.remove(gid)

        fresh(leaf())
        budget -= 1
        while budget > 0:
            if len(sinks) >= 2 and budget <= len(sinks) - 1:
                x = sinks[rng.randrange(len(sinks))]
                consume(x)
                y = sinks[rng.randrange(len(sinks))]
                consume(y)
                fresh(b.add(x, y, w(), w()))
                budget -= 1
                continue
            r = rng.random()
            if r < 0.2 and budget >= len(sinks) + 1:
                fresh(leaf())
                budget -= 1
            elif r < 0.65 or budget - len(sinks) < 3:
                x, y = pick(True), pick(False)
                used = (x in sinks) + (y in sinks and y != x)
                if budget < len(sinks) - used + 1:
                    continue
                consume(x)
                consume(y)
                fresh(b.add(x, y, w(), w()))
                budget -= 1
            else:
                sub_budget = rng.randint(1, min(budget - len(sinks) - 1, 7))
                closed_root = gen_ws(sub_budget)
                y = pick(True)
                consume(y)
                if rng.random() < 0.5:
                    gid = b.mul(closed_root, y, w(), w())
                else:
                    gid = b.mul(y, closed_root, w(), w())
                fresh(gid)
                budget -= 1 + sub_budget
        assert len(sinks) == 1, "budget invariant violated"
        return sinks[0]

    root = gen_ws(size_budget)
    return validate(Circuit(b._gates, [root], spec=spec))


# ---------------------------------------------------------------------------
# line-oriented text format
# ---------------------------------------------------------------------------


def render_circuit(circuit: Circuit) -> str:
    """Canonical text form with stable topological gate ids."""
    order = [gid for gid in circuit.topo_order()]
    renum = {gid: i for i, gid in enumerate(order)}
    lines = []
    if circuit.variables:
        lines.append("vars " + " ".join(circuit.variables))

    def ref(a: int, w: FieldElement) -> str:
        return f"g{renum[a]}" if w.is_one() else f"g{renum[a]}*{w.render()}"

    for gid in order:
        g = circuit.gates[gid]
        if g.kind == VAR:
            rhs = f"input {g.name}"
        elif g.kind == CONST:
            rhs = f"const {g.value.render()}"
        else:
            (a, wa), (bb, wb) = g.args
            rhs = f"{g.kind} {ref(a, wa)} {ref(bb, wb)}"
        lines.append(f"g{renum[gid]} = {rhs}")
    lines.append("output " + " ".join(f"g{renum[o]}" for o in circuit.outputs))
    return "\n".join(lines) + "\n"


def is_variable_name(name: str) -> bool:
    """A variable name reads back as a variable when a matrix entry renders
    it bare: it is non-empty, starts with neither a digit nor a sign, and
    holds no ``*``, which a matrix entry reads as scaling."""
    return bool(name) and not name[0].isdigit() and name[0] not in "+-" and "*" not in name


# A gate line in one of its three well-formed shapes, matched on the raw
# line, surrounding whitespace and a trailing comment included: the gate id,
# then the kind, the two argument ids and their weight tokens of a
# computation, or the name of a variable, or the token of a constant.  ``\s``
# is the whitespace of ``str.split``, ``\d`` the digits of ``str.isdecimal``: it
# takes every gate line the per-line checks pass; they only name a fault.
_GATE_LINE = re.compile(
    r"\s*g(\d+)\s*=\s*(?:"
    r"(add|mul)\s+g(\d+)(?:\*([^\s#]+))?\s+g(\d+)(?:\*([^\s#]+))?"
    r"|input\s+([^\s#]+)|const\s+([^\s#]+))\s*(?:#.*)?")


def parse_circuit(text: str, spec: FieldSpec = RATIONAL) -> Circuit:
    """Parse the circuit file format produced by :func:`render_circuit`.

    One pass reads and checks every line: a gate line gives its gate a
    kind, an arity, a name or a value by its form.  Every gate line is
    read by one pattern match of its three shapes ``g<n> = add|mul
    g<a>[*w] g<b>[*w]``, ``g<n> = input <name>`` and ``g<n> = const <c>``;
    any other line but ``vars`` and ``output`` goes through the per-line
    checks, which only name its first fault.  When every argument names a
    gate of an earlier line, the order :func:`render_circuit` writes, the
    file order is the topological order, and only the wiring is left to
    check (outputs, declared variables, liveness); any other order goes
    through :func:`validate`'s walk."""
    gates: dict[int, Gate] = {}
    outputs: list[int] | None = None
    variables: list[str] | None = None
    names: set[str] = set()  # of the variable gates
    in_order = True  # every argument so far names a gate already read
    # weights and constants repeat across a file, so parse each token once
    elements: dict[str, FieldElement] = {}
    one = spec.one()  # the weight of every unweighted arrow
    match_gate = _GATE_LINE.fullmatch

    def element(token: str) -> FieldElement:
        w = elements.get(token)
        if w is None:
            w = elements[token] = parse_element(token, spec)
        return w

    def not_a_reference(token: str) -> ValueError:
        return ValueError(f"expected gate reference, got {token!r}")

    for raw in text.splitlines():
        m = match_gate(raw)
        if m is not None:
            gid, kind, a, wa, b, wb, name, const = m.groups()
            gid = int(gid)
            if gid in gates:
                raise CircuitError(f"gate g{gid} defined again in line {raw!r}")
            try:  # a malformed weight or constant raises ValueError naming it
                if kind is not None:
                    a, b = int(a), int(b)
                    wa = one if wa is None else element(wa)
                    wb = one if wb is None else element(wb)
                    in_order = in_order and a in gates and b in gates
                    gates[gid] = Gate(gid, kind, None, None, ((a, wa), (b, wb)))
                elif name is not None:
                    if name not in names:  # each name is checked once
                        if not is_variable_name(name):
                            raise CircuitError(f"bad variable name {name!r} in line {raw!r}")
                        names.add(name)
                    gates[gid] = Gate(gid, VAR, name)
                else:
                    gates[gid] = Gate(gid, CONST, None, element(const))
            except ValueError as exc:
                raise CircuitError(f"{exc} in line {raw!r}") from None
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars "):
            if variables is not None:
                raise CircuitError(f"second vars line {raw!r}")
            variables = line.split()[1:]
            continue
        # a malformed constant or gate reference raises ValueError naming it
        try:
            if line.startswith("output"):
                if outputs is not None:
                    raise CircuitError(f"second output line {raw!r}")
                outputs = []
                for tok in line.split()[1:]:
                    if not (tok[:1] == "g" and tok[1:].isdecimal()):
                        raise not_a_reference(tok)
                    outputs.append(int(tok[1:]))
                continue
            # a gate line _GATE_LINE refused: name the first check it fails
            lhs, eq, rhs = line.partition("=")
            toks = rhs.split()
            kind = toks[0] if toks else None
            if eq and len(toks) == (2 if kind in (VAR, CONST) else 3):
                lhs = lhs.strip()
                if not (lhs[:1] == "g" and lhs[1:].isdecimal()):
                    raise not_a_reference(lhs)
                if int(lhs[1:]) in gates:
                    raise CircuitError(f"gate g{int(lhs[1:])} defined again in line {raw!r}")
                if kind not in COMPUTATION:  # an input or const line this far matched
                    raise CircuitError(f"unknown gate kind {kind!r} in line {raw!r}")
                for tok in toks[1:]:
                    tok, star, wtok = tok.partition("*")
                    if not (tok[:1] == "g" and tok[1:].isdecimal()):
                        raise not_a_reference(tok)
                    if star:
                        element(wtok)  # an empty weight, which the pattern refuses
            raise CircuitError(f"malformed gate line {raw!r}")
        except ValueError as exc:
            raise CircuitError(f"{exc} in line {raw!r}") from None
    circuit = Circuit(gates, outputs or [], spec=spec, variables=variables)
    if not in_order:
        return validate(circuit)
    circuit._topo = tuple(gates)
    _check_outputs(circuit)
    _check_wiring(circuit, names)
    return circuit


# ---------------------------------------------------------------------------
# infix expressions
# ---------------------------------------------------------------------------


class SyntaxErrorAt(CircuitError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "/"):
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise SyntaxErrorAt(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


MAX_NESTING = 200  # nested parentheses; the descent takes 3 frames a level


def parse_expression(text: str, spec: FieldSpec = RATIONAL) -> Circuit:
    """Formula circuit for ``expr := term (('+'|'-') term)*`` with
    ``term := factor ('*' factor)*`` and parenthesized sub-expressions.

    Subtraction becomes an arrow weight -1 and constant multiplications ride
    on arrow weights (green semantics): ``2*(x+y)`` costs one addition gate.
    """
    tokens = _tokenize(text)
    pos = 0
    depth = 0  # parentheses open around the current factor
    b = CircuitBuilder(spec)

    def peek():
        return tokens[pos]

    def shown(tok) -> str:
        return "end of expression" if tok[0] == "end" else f"token {tok[1]!r}"

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind and tok[0] != kind:
            raise SyntaxErrorAt(f"expected {kind}, got {shown(tok)}", tok[2])
        pos += 1
        return tok

    # lowered form: (gate id or None, scalar); value = scalar * gate (or scalar)
    def parse_expr():
        sign = spec.one()
        if peek()[0] == "-":
            take()
            sign = -spec.one()
        arms = [(sign, parse_term())]
        while peek()[0] in ("+", "-"):
            op = take()[0]
            s = spec.one() if op == "+" else -spec.one()
            arms.append((s, parse_term()))
        return lower_sum(arms)

    def parse_term():
        factors = [parse_factor()]
        while peek()[0] == "*":
            take()
            factors.append(parse_factor())
        return lower_product(factors)

    def parse_factor():
        nonlocal depth
        kind, value, at = peek()
        if kind == "num":
            take()
            try:
                return (None, parse_element(value, spec))
            except ValueError as exc:
                raise SyntaxErrorAt(str(exc), at) from None
        if kind == "name":
            take()
            return (b.var(value), spec.one())
        if kind == "(":
            if depth == MAX_NESTING:
                raise SyntaxErrorAt("expression nested too deeply", at)
            take()
            depth += 1
            inner = parse_expr()
            take(")")
            depth -= 1
            return inner
        raise SyntaxErrorAt(f"unexpected {shown(peek())}", at)

    def lower_product(factors):
        scalar = spec.one()
        gates = []
        for g, s in factors:
            scalar = scalar * s
            if g is not None:
                gates.append(g)
        if not gates:
            return (None, scalar)
        acc = gates[0]
        for i, g in enumerate(gates[1:]):
            acc = b.mul(acc, g, scalar if i == 0 else spec.one(), spec.one())
            scalar = spec.one()
        return (acc, scalar)

    def lower_sum(arms):
        # each arm: (sign, (gate|None, scalar)); constants become 1-inputs
        parts = []
        for sign, (g, s) in arms:
            if g is None:
                if not s.is_zero():
                    parts.append((b.const(1), sign * s))
            else:
                parts.append((g, sign * s))
        if not parts:
            return (None, spec.zero())
        if len(parts) == 1:
            return parts[0]
        (g1, s1), (g2, s2) = parts[0], parts[1]
        acc = b.add(g1, g2, s1, s2)
        for g, s in parts[2:]:
            acc = b.add(acc, g, spec.one(), s)
        return (acc, spec.one())

    g, scalar = parse_expr()
    take("end")
    if g is None:
        g = b.const(scalar)
    elif not scalar.is_one():
        gate = b._gates[g]
        if gate.kind == CONST:
            b._gates[g] = Gate(g, CONST, value=scalar * gate.value)
        elif gate.kind == ADD:
            # push the leftover scalar into the gate's arrow weights
            (a, wa), (bb, wb) = gate.args
            b._gates[g] = Gate(g, ADD, args=((a, wa * scalar), (bb, wb * scalar)))
        elif gate.kind == MUL:
            (a, wa), arg_b = gate.args
            b._gates[g] = Gate(g, MUL, args=((a, wa * scalar), arg_b))
        else:
            g = b.add(g, b.const(1), scalar, 0)
    return b.build([g])
