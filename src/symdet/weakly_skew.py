"""Lowering weakly skew circuits to determinantal representations.

Both lowerings start from one path-sum ABP of the whole (possibly
multiple-output) circuit, built by peeling sink gates popped from a heap of
ready gates, so depth costs no recursion.  An input or addition gets one
vertex, fed by arcs from its argument vertices (or from the part's source);
a multiplication adds the ABP of its closed sub-circuit, sourced at the
vertex of its reusable argument, and takes the closed argument's vertex.
For every reusable gate a, c_a times the sum of w(P) over the
s-to-vertex(a) paths is f_a.

The symmetric construction is the vertex split of that ABP
(:func:`~symdet.graphs.split_vertices`): every vertex but s becomes an
in/out pair joined by an edge of weight -1, and t_a is the out copy of the
vertex of a.  The split graph has |G| odd, all cycles even, all
s-t_a-paths odd, a unique weight-1 perfect-matching completion for every
acceptable path, and

    c_a * sum over acceptable s-t_a-paths of (-1)^((|P|-1)/2) w(P) = f_a.

Closing the output t-vertex back to s
(:func:`~symdet.graphs.close_symmetric`) gives a symmetric matrix of
determinant f and dimension at most 2m+1 (fat mode) or 2(e+i)+1 (green
mode, after minimization, with constant addition arguments absorbed into
arc weights).

The non-symmetric lowering closes the ABP itself, c_t * sum_P w(P) = f
over the s-t paths P of the output t, by the one closing rule of
:func:`~symdet.graphs.close_abp`: the arcs into t carry c_t, every other
arc is negated (or, for the permanent, kept), t merges into s and every
other vertex gets a unit loop.  That gives a matrix of dimension at most m
(fat) or e+i (green); the closing then eliminates every vertex that only
relays a constant, so the dimension is usually well below the bound.

The tests audit the ABP and its split with the oracles'
:func:`~symdet.oracles.check_abp_certificate` and
:func:`~symdet.oracles.check_symmetric_certificate`.
"""

from __future__ import annotations

import heapq

from .circuits import (
    ADD,
    CONST,
    MUL,
    VAR,
    Circuit,
    CircuitError,
    classify,
    evaluate,
)
from .fields import FieldElement
from .graphs import (
    PathSumCertificate,
    SymbolicMatrix,
    Weight,
    WeightedDigraph,
    close_abp,
    close_symmetric,
    input_weight,
    split_vertices,
)
from .minimize import minimize


class NotWeaklySkew(CircuitError):
    pass


def build_ws_abp(circuit: Circuit, mode: str = "fat") -> PathSumCertificate:
    """Path-sum ABP of a weakly skew circuit, peeled one gate at a time,
    sinks first: for every reusable gate a, c_a times the sum over
    s-to-vertex(a) paths of w(P) is f_a.  The certificate's graph is the
    digraph and ``targets`` maps each gate to its vertex.

    Each part is peeled from a heap of ready sinks, largest gate first.  The
    closed argument of a multiplication starts a part of its own, sourced at
    the vertex of the reusable argument; a constant argument that green mode
    folds into an addition's arc weight belongs to no part.  Vertices are
    added in reverse peel order, a multiplication right after its closed
    part: it costs no vertex, aliasing its closed argument's vertex.  An
    input or addition gets one vertex, fed by one arc per argument vertex
    (two arrows from one vertex make one arc); an input or a folded constant
    is an arc from the part's source.  In green mode the circuit is
    minimized first, so only computation gates and variable inputs cost
    vertices.
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
    dg = WeightedDigraph(work.spec)
    source = dg.add_vertex()
    dg.roles["s"] = source
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
        """The arcs feeding the vertex of an input or addition."""
        if gate.is_input:
            return [(s, input_weight(gate))]
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
            else:  # add the closed part first, then come back to alias
                gamma = b if beta == a else a
                jobs.append((gid, s))
                jobs += [(x, vertex[gamma]) for x in peel([beta])]
            continue
        v = dg.add_vertex()
        for u, w in arms(gate, s):
            dg.add_arc(u, v, w)
        vertex[gid] = v
        c_of[gid] = one
    return PathSumCertificate(dg, source, vertex, c_of, work)


def build_ws_graph(circuit: Circuit, mode: str = "fat") -> PathSumCertificate:
    """Gadget graph for a multiple-output weakly skew circuit: the vertex
    split of :func:`build_ws_abp` with s left whole, and the out copy of
    its ABP vertex as each gate's t-vertex."""
    abp = build_ws_abp(circuit, mode)
    g, copies = split_vertices(abp.graph, [abp.s])
    targets = {gid: copies[v][1] for gid, v in abp.targets.items()}
    return PathSumCertificate(g, abp.s, targets, abp.scalars, abp.source)


def _constant_fallback(circuit: Circuit, mode: str) -> SymbolicMatrix | None:
    """The preamble of both single-output lowerings: refuse several outputs,
    and in green mode represent a variable-free circuit (green size and input
    count 0) by the 1x1 matrix of the computed constant."""
    if len(circuit.outputs) != 1:
        raise CircuitError("weakly skew lowering needs a single-output circuit")
    if mode != "green" or any(g.kind == VAR for g in circuit.gates.values()):
        return None
    value = evaluate(circuit, {})[0]
    return SymbolicMatrix([[Weight.const(value)]], spec=circuit.spec, symmetric=True)


def ws_sym_matrix(circuit: Circuit, mode: str = "fat") -> SymbolicMatrix:
    """Symmetric determinantal representation of a single-output weakly skew
    circuit; dimension <= 2m+1 (fat) or 2(e+i)+1 (green)."""
    return ws_sym_lowering(circuit, mode)[0]


def ws_sym_lowering(
    circuit: Circuit, mode: str = "fat"
) -> tuple[SymbolicMatrix, PathSumCertificate | None]:
    """:func:`ws_sym_matrix` together with the certificate it closes, which
    is None for the 1x1 matrix of a variable-free circuit in green mode."""
    fallback = _constant_fallback(circuit, mode)
    if fallback is not None:
        return fallback, None
    cert = build_ws_graph(circuit, mode)
    return close_symmetric(cert.graph, cert.s, *cert.output()), cert


# ---------------------------------------------------------------------------
# non-symmetric (ABP) lowering
# ---------------------------------------------------------------------------


def ws_nonsym_matrix(
    circuit: Circuit, mode: str = "fat", signed: bool = True
) -> SymbolicMatrix:
    """Non-symmetric determinantal representation via the path-sum ABP.

    Dimension is at most m (fat size) or e+i (green mode).  With
    ``signed=False`` the ABP is closed with ``sign=1``: the arc negations
    are skipped, the closing eliminates pivots with the sign that keeps the
    permanent, and the matrix satisfies permanent = polynomial instead (the
    two coincide in characteristic 2).
    """
    return ws_nonsym_lowering(circuit, mode, signed)[0]


def ws_nonsym_lowering(
    circuit: Circuit, mode: str = "fat", signed: bool = True
) -> tuple[SymbolicMatrix, PathSumCertificate | None]:
    """:func:`ws_nonsym_matrix` together with the ABP it closes, which is None
    for the 1x1 matrix of a variable-free circuit in green mode."""
    fallback = _constant_fallback(circuit, mode)
    if fallback is not None:
        return fallback, None
    cert = build_ws_abp(circuit, mode)
    return close_abp(cert.graph, cert.s, *cert.output(), sign=-1 if signed else 1), cert
