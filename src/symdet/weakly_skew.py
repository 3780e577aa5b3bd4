"""Lowering weakly skew circuits to determinantal representations.

The symmetric construction builds one undirected gadget graph for the whole
(possibly multiple-output) circuit by peeling sink gates, popped from a heap
of ready gates, so depth costs no recursion: an input or addition gate
contributes a two-vertex gadget hanging off the distinguished vertex s or
off the argument t-vertices; a multiplication merges the graph of its
closed sub-circuit into the t-vertex of its reusable argument.  For
every reusable gate a the graph holds a vertex t_a and a scalar c_a with

    c_a * sum over acceptable s-t_a-paths of (-1)^((|P|-1)/2) w(P) = f_a,

|G| odd, all cycles even, all s-t_a-paths odd, and a unique weight-1
perfect-matching completion for every acceptable path.  Closing the output
t-vertex back to s with weight c_out/2 * (-1)^((|G|-1)/2) gives a symmetric
matrix of dimension at most 2m+1 (fat mode) or 2(e+i)+1 (green mode, after
minimization, with constant addition arguments absorbed into edge weights).

The non-symmetric lowering drives the same peeling into a layered-free ABP:
one vertex per gate (multiplications share their closed argument's vertex),
arcs deliver path sums, and the ABP closes into a matrix of dimension at
most m (fat) or e+i (green) by merging source and output and putting unit
loops elsewhere; arc signs absorb the path-parity bookkeeping.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from .circuits import (
    ADD,
    CONST,
    MUL,
    VAR,
    Circuit,
    CircuitError,
    classify,
)
from .fields import FieldElement, half
from .graphs import (
    SymbolicMatrix,
    Weight,
    WeightedDigraph,
    WeightedGraph,
    adjacency,
    close_abp,
)
from .minimize import minimize


class NotWeaklySkew(CircuitError):
    pass


@dataclass
class WsCertificate:
    graph: WeightedGraph | WeightedDigraph  # gadget graph, or the ABP digraph
    s: int
    t_of: dict[int, int]            # reusable gate id -> t vertex (ABP: its vertex)
    c_of: dict[int, FieldElement]   # reusable gate id -> scalar
    source: Circuit
    mode: str


def _input_weight(gate) -> Weight:
    if gate.kind == VAR:
        return Weight.var(gate.name)
    return Weight.const(gate.value)


def _lower(
    circuit: Circuit,
    mode: str,
    node: Callable[[list[tuple[int, Weight]]], int],
    source: int,
) -> tuple[Circuit, dict[int, int], dict[int, FieldElement]]:
    """Peel a weakly skew circuit one gate at a time, sinks first.

    Each part is peeled from a heap of ready sinks, largest gate first.  The
    closed argument of a multiplication starts a part of its own, sourced at
    the vertex of the reusable argument; a constant argument that green mode
    folds into an addition's edge weight belongs to no part.  Gadgets are
    emitted in reverse peel order, a multiplication right after its closed
    part: it costs no node, aliasing its closed argument's vertex.

    ``node(arms)`` receives the ``(vertex, Weight)`` arms that feed a gate and
    returns the vertex later gadgets attach to; an input or a folded constant
    is an arm from the part's source.  Returns the working circuit (minimized
    in green mode), the vertex of every gate a and its scalar c_a: c_a times
    the path sum into the vertex of a is f_a.
    """
    if mode == "green":
        work = minimize(circuit)
    elif mode == "fat":
        work = circuit
    else:
        raise ValueError(f"unknown mode {mode!r}")
    cl = classify(work)
    if not cl.is_weakly_skew:
        raise NotWeaklySkew("circuit is not weakly skew")
    gates = work.gates
    waiting = {gid: len(users) for gid, users in work.consumers().items()}
    one = work.spec.one()
    vertex: dict[int, int] = {}
    c_of: dict[int, FieldElement] = {}

    def folded(gate) -> int | None:
        """The one constant argument of a green addition, else None."""
        consts = [x for x, _ in gate.args if gates[x].kind == CONST]
        return consts[0] if mode == "green" and gate.kind == ADD and len(consts) == 1 else None

    def peel(ready: list[int]) -> list[int]:
        """The gates of the part whose first sinks are ``ready``, in peel order."""
        heap = [-gid for gid in ready]
        heapq.heapify(heap)
        order = []
        while heap:
            gid = -heapq.heappop(heap)
            order.append(gid)
            gate = gates[gid]
            other = cl.owned[gid] if gate.kind == MUL else folded(gate)
            for x, _ in gate.args:
                if x != other:
                    waiting[x] -= 1
                    if not waiting[x]:
                        heapq.heappush(heap, -x)
        return order

    def arms(gate, s: int) -> list[tuple[int, Weight]]:
        """The arms feeding the node of an input or addition; two arrows
        from one vertex make one arm."""
        if gate.is_input:
            return [(s, _input_weight(gate))]
        beta, total = folded(gate), {}
        for x, w in gate.args:
            u, c = (s, gates[x].value) if x == beta else (vertex[x], c_of[x])
            total[u] = total[u] + w * c if u in total else w * c
        return [(u, Weight.const(c)) for u, c in total.items()]

    jobs = [(gid, source) for gid in peel([gid for gid, n in waiting.items() if not n])]
    while jobs:
        gid, s = jobs.pop()
        gate = gates[gid]
        if gate.kind == MUL:
            (a, wa), (b, wb) = gate.args
            beta = cl.owned[gid]
            if beta in vertex:
                vertex[gid] = vertex[beta]
                c_of[gid] = wa * wb * c_of[a] * c_of[b]
            else:  # emit the closed part first, then come back to alias
                gamma = b if beta == a else a
                jobs.append((gid, s))
                jobs += [(x, vertex[gamma]) for x in peel([beta])]
            continue
        vertex[gid] = node(arms(gate, s))
        c_of[gid] = one
    return work, vertex, c_of


def build_ws_graph(circuit: Circuit, mode: str = "fat") -> WsCertificate:
    """Gadget graph for a multiple-output weakly skew circuit.

    In fat mode every gate gets its own gadget; in green mode the circuit is
    minimized first and constant addition arguments are folded into edge
    weights, so only computation gates and variable inputs cost vertices.
    """
    g = WeightedGraph(circuit.spec)
    minus_one = Weight.const(-circuit.spec.one())

    def node(arms) -> int:
        v, t = g.add_vertex(), g.add_vertex()
        for u, w in arms:
            g.add_edge(u, v, w)
        g.add_edge(v, t, minus_one)
        return t

    s = g.add_vertex()
    g.roles["s"] = s
    work, t_of, c_of = _lower(circuit, mode, node, s)
    return WsCertificate(g, s, t_of, c_of, work, mode)


def _constant_fallback(circuit: Circuit) -> SymbolicMatrix | None:
    """Variable-free circuits have green size and input count 0; their
    representation is the 1x1 matrix of the computed constant."""
    from .circuits import evaluate

    if any(g.kind == VAR for g in circuit.gates.values()):
        return None
    value = evaluate(circuit, {})[0]
    return SymbolicMatrix([[Weight.const(value)]], spec=circuit.spec, symmetric=True)


def ws_sym_matrix(circuit: Circuit, mode: str = "fat") -> SymbolicMatrix:
    """Symmetric determinantal representation of a single-output weakly skew
    circuit; dimension <= 2m+1 (fat) or 2(e+i)+1 (green)."""
    return ws_sym_lowering(circuit, mode)[0]


def ws_sym_lowering(
    circuit: Circuit, mode: str = "fat"
) -> tuple[SymbolicMatrix, WsCertificate | None]:
    """:func:`ws_sym_matrix` together with the certificate it closes, which
    is None for the 1x1 matrix of a variable-free circuit in green mode.  The
    closing edge goes on a copy, so the certificate's graph is unchanged."""
    if len(circuit.outputs) != 1:
        raise CircuitError("symmetric lowering needs a single-output circuit")
    if mode == "green":
        fallback = _constant_fallback(circuit)
        if fallback is not None:
            return fallback, None
    cert = build_ws_graph(circuit, mode)
    g = cert.graph.copy()
    spec = g.spec
    out = cert.source.outputs[0]
    t = cert.t_of[out]
    sign = spec.one() if ((g.n - 1) // 2) % 2 == 0 else -spec.one()
    w_ts = cert.c_of[out] * half(spec) * sign
    g.add_edge(t, cert.s, Weight.const(w_ts))
    g.roles["t"] = t
    return adjacency(g), cert


def check_ws_certificate(cert: WsCertificate, max_vertices: int = 14) -> None:
    """Exhaustive audit of the certificate invariants.

    Checks: odd vertex count, even cycles, odd s-t_a paths, unique weight-1
    matching completion of every acceptable path and of G minus {s}, and the
    acceptable-path-sum identity for every reusable gate.  Exponential;
    intended for instances with at most ``max_vertices`` vertices.
    """
    from .oracles import (
        all_cycles_even,
        complement_vertices,
        enumerate_st_paths,
        is_acceptable,
        path_weight,
        unique_cover_is_weight1_matching,
    )
    from .polynomials import DensePolynomial, expand_gate_values

    g = cert.graph
    if g.n > max_vertices:
        raise ValueError(f"certificate audit capped at {max_vertices} vertices")
    assert g.n % 2 == 1, "graph must have an odd number of vertices"
    assert all_cycles_even(g), "odd cycle in gadget graph"
    rest = complement_vertices(g, [cert.s])
    assert unique_cover_is_weight1_matching(g, rest), (
        "G minus {s} must have a unique weight-1 matching cover"
    )
    spec = g.spec
    circuit = cert.source
    values = expand_gate_values(circuit)
    reusable = classify(circuit).reusable
    for gid, t in sorted(cert.t_of.items()):
        if gid not in reusable:
            continue
        total = DensePolynomial.zero(spec, circuit.variables)
        for path in enumerate_st_paths(g, cert.s, t):
            assert len(path) % 2 == 1, "even s-t_a path"
            if not is_acceptable(g, path):
                continue
            comp = complement_vertices(g, path)
            assert unique_cover_is_weight1_matching(g, comp), (
                "acceptable path complement must be a unique weight-1 matching"
            )
            w = path_weight(g, path, circuit.variables, spec)
            if ((len(path) - 1) // 2) % 2 == 1:
                w = -w
            total = total + w
        total = total.scale(cert.c_of[gid])
        assert total == values[gid], f"path-sum identity failed at gate {gid}"


# ---------------------------------------------------------------------------
# non-symmetric (ABP) lowering
# ---------------------------------------------------------------------------


def build_ws_abp(circuit: Circuit, mode: str = "fat") -> WsCertificate:
    """Path-sum ABP: for every reusable gate a, sum over s-to-vertex(a) paths
    of w(P) equals f_a / c_a.  One vertex per gate, none for multiplications
    (they alias their closed argument's vertex) or absorbed constants.  The
    certificate's graph is the digraph and ``t_of`` maps each gate to its
    vertex."""
    dg = WeightedDigraph(circuit.spec)

    def node(arms) -> int:
        v = dg.add_vertex()
        for u, w in arms:
            dg.add_arc(u, v, w)
        return v

    s = dg.add_vertex()
    dg.roles["s"] = s
    work, vert, c_of = _lower(circuit, mode, node, s)
    return WsCertificate(dg, s, vert, c_of, work, mode)


def ws_nonsym_matrix(
    circuit: Circuit, mode: str = "fat", signed: bool = True
) -> SymbolicMatrix:
    """Non-symmetric determinantal representation via the path-sum ABP.

    Dimension is at most m (fat size) or e+i (green mode).  With
    ``signed=False`` the arc negations are skipped and the matrix satisfies
    permanent = polynomial instead (the two coincide in characteristic 2).
    """
    return ws_nonsym_lowering(circuit, mode, signed)[0]


def ws_nonsym_lowering(
    circuit: Circuit, mode: str = "fat", signed: bool = True
) -> tuple[SymbolicMatrix, WsCertificate | None]:
    """:func:`ws_nonsym_matrix` together with the ABP it closes, which is None
    for the 1x1 matrix of a variable-free circuit in green mode."""
    if len(circuit.outputs) != 1:
        raise CircuitError("non-symmetric lowering needs a single-output circuit")
    if mode == "green":
        fallback = _constant_fallback(circuit)
        if fallback is not None:
            return fallback, None
    cert = build_ws_abp(circuit, mode)
    dg, out = cert.graph, cert.source.outputs[0]
    t = cert.t_of[out]
    minus_one = -dg.spec.one()

    def weight(u: int, v: int, w: Weight) -> Weight:
        if v == t:
            return w.scale(cert.c_of[out])  # each s-t path crosses exactly one in-arc of t
        # (-1)^|P| bookkeeping, spread over the arcs
        return w.scale(minus_one) if signed else w

    unit = Weight.const(dg.spec.one())
    return adjacency(close_abp(dg, cert.s, t, weight, loop=lambda v: unit)), cert
