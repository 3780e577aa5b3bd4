"""Lowering formulas to determinantal representations.

Two constructions, both driven by path sums in a gadget (di)graph placed
straight on the formula's gates by one walk over an explicit stack (so depth
costs no recursion), each construction handing the walk only its gadget step:

* the corrected digraph construction (non-symmetric): a branching program
  G, vertices s and t and a scalar c0 with  c0 * sum_P w(P) = f  over all
  s-t-paths P, closed by :func:`~symdet.graphs.close_abp` into a matrix of
  dimension at most (green size + 1) when the formula has an addition;

* the symmetric gadget construction: a graph G whose s-t-path sum satisfies
  c0 * sum_P (-1)^(|P|/2+1) w(P) = f, with every cycle even, every path even
  and a unique weight-1 perfect-matching completion, closed by one extra
  vertex into a symmetric matrix of dimension at most 2e+3 (e = skinny or
  green size, by mode).

Constant multiplications are free: they ride on c0 and on gadget edge
weights; the c0 of a product is the product of its arguments' scalars in
both constructions.  Certificates retain the gadget graph, which the tests
audit with :func:`~symdet.graphs.check_abp_certificate` and the one
symmetric audit, :func:`~symdet.graphs.check_symmetric_certificate` (with
``path_len`` 2); neither is on a build's path, and no fast path imports
the oracles they enumerate with.
"""

from __future__ import annotations

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
from .fields import FieldElement
from .graphs import (
    PathSumCertificate,
    SymbolicMatrix,
    Weight,
    WeightedDigraph,
    WeightedGraph,
    close_abp,
    close_symmetric,
)
from .minimize import green_form
from .weakly_skew import _input_weight


class NotAFormula(CircuitError):
    pass


def _walk(f: Circuit, s: int, t: int, step: Callable) -> None:
    """Place the gadgets of formula ``f`` between vertices ``s`` and ``t``.

    Jobs ``(gate, arrow weight, a, b)`` come off an explicit stack, so depth
    costs no recursion.  ``step(*job)`` places one gadget and returns its
    children's jobs, left first; a callable among them runs once the jobs
    before it are done.  The left subtree is placed before the right one,
    which fixes the vertex numbering.
    """
    if not classify(f).is_formula:
        raise NotAFormula("circuit is not a formula")
    stack: list = [(f.outputs[0], f.spec.one(), s, t)]
    while stack:
        job = stack.pop()
        if callable(job):
            job()
        else:
            stack += reversed(step(*job))


def _lemma_c0(op: str, cl: FieldElement, cr: FieldElement) -> FieldElement:
    """The scalar the path-sum lemma associates with a sub-formula ``op``
    whose arguments' scalars, times their arrow weights, are ``cl``, ``cr``:
    their product for a product, the first nonzero one for a sum.

    Zero exactly when the sub-formula vanishes because of zero weights, in
    which case the branch is dropped from the construction.
    """
    if op == MUL:
        return cl * cr
    return cl if not cl.is_zero() else cr


def _lemma_c0s(f: Circuit) -> dict[int, FieldElement]:
    """The lemma scalar of every gate of formula ``f`` (an input's is 1), in
    one pass over the topological order, so each gate is combined once."""
    c0: dict[int, FieldElement] = {}
    for gid in f.topo_order():
        gate = f.gates[gid]
        if gate.is_input:
            c0[gid] = f.spec.one()
        else:
            (l, wl), (r, wr) = gate.args
            c0[gid] = _lemma_c0(gate.kind, wl * c0[l], wr * c0[r])
    return c0


def _addition(gate, c0s: dict[int, FieldElement], a: int, b: int):
    """The jobs of an addition whose branches of lemma scalar zero are
    dropped, or None when both branches survive and need the gadget."""
    live = [(x, w, a, b) for x, w in gate.args if not (w * c0s[x]).is_zero()]
    return live if len(live) < 2 else None


# ---------------------------------------------------------------------------
# non-symmetric construction
# ---------------------------------------------------------------------------


def build_valiant_digraph(f: Circuit) -> PathSumCertificate:
    """Branching program with at most gsize(f)+2 vertices and a scalar c0
    with c0 * sum_P w(P) = f over its s-t paths P (unsigned)."""
    work = green_form(f)
    c0s = _lemma_c0s(work)
    dg = WeightedDigraph(work.spec)
    s, t = dg.add_vertex(), dg.add_vertex()

    def step(gid: int, _w: FieldElement, a: int, b: int):
        gate = work.gates[gid]
        if gate.is_input:
            dg.add_arc(a, b, _input_weight(gate))
            return ()
        (l, wl), (r, wr) = gate.args
        if gate.kind == MUL:
            mid = dg.add_vertex()
            return (l, wl, a, mid), (r, wr, mid, b)
        jobs = _addition(gate, c0s, a, b)
        if jobs is not None:
            return jobs
        t2 = dg.add_vertex()
        dg.add_arc(t2, b, Weight.const((wr * c0s[r]) / (wl * c0s[l])))
        return (l, wl, a, b), (r, wr, a, t2)

    _walk(work, s, t, step)
    dg.roles.update(s=s, t=t)
    out = work.outputs[0]
    return PathSumCertificate(dg, s, {out: t}, {out: c0s[out]}, work)


def _product_fallback(f: Circuit) -> SymbolicMatrix:
    """Diagonal matrix for a formula with no addition: c * x_1 * ... * x_n."""
    names: list[str] = []
    const = f.spec.one()
    stack = [(f.outputs[0], const)]
    while stack:  # left factor first
        gid, w = stack.pop()
        gate = f.gates[gid]
        const = const * w
        if gate.kind == VAR:
            names.append(gate.name)
        elif gate.kind == CONST:
            const = const * gate.value
        stack += reversed(gate.args)
    diag = [Weight.var(x) for x in names]
    if not const.is_one() or not diag:
        diag.append(Weight.const(const))
    return SymbolicMatrix([{i: w} for i, w in enumerate(diag)], spec=f.spec, symmetric=True)


def valiant_matrix(f: Circuit) -> SymbolicMatrix:
    """Non-symmetric determinantal representation, dimension <= gsize(f)+1.

    Formulas without additions take the diagonal fallback of dimension n+1
    (n variables plus one constant slot, dropped when the constant is 1).
    """
    return valiant_lowering(f)[0]


def valiant_lowering(f: Circuit) -> tuple[SymbolicMatrix, PathSumCertificate]:
    """:func:`valiant_matrix` together with the certificate it closes."""
    cert = build_valiant_digraph(f)
    if not any(g.kind == ADD for g in cert.source.gates.values()):
        return _product_fallback(cert.source), cert
    t, c0 = cert.output()
    if c0.is_zero() or not any(v == t for _, v in cert.graph.arcs):
        return SymbolicMatrix([[Weight.const(f.spec.zero())]], spec=f.spec), cert
    return close_abp(cert.graph, cert.s, t, c0), cert


# ---------------------------------------------------------------------------
# symmetric construction
# ---------------------------------------------------------------------------


def build_sym_graph(f: Circuit, mode: str = "skinny") -> PathSumCertificate:
    """Gadget graph meeting the symmetric path-sum conditions.

    ``skinny`` follows the weightless construction (an arrow weight becomes
    a product with a constant leaf); ``green`` minimizes first and carries
    constants in c0, giving at most 2*gsize+2 vertices.
    """
    if mode == "green":
        work = green_form(f)
        c0s = _lemma_c0s(work)
    elif mode == "skinny":
        work = f
    else:
        raise ValueError(f"unknown mode {mode!r}")
    spec = work.spec
    one, minus_one = Weight.const(spec.one()), Weight.const(-spec.one())
    g = WeightedGraph(spec)
    s, t = g.add_vertex(), g.add_vertex()

    def place_edge(u: int, v: int, w: Weight) -> None:
        """Add a gadget edge; on collision the resident edge is rerouted
        through two fresh vertices (weights x, 1, -1), keeping parities."""
        if w.is_zero():
            return
        if g.has_edge(u, v):
            old = g.remove_edge(u, v)
            p, q = g.add_vertex(), g.add_vertex()
            g.add_edge(u, p, old)
            g.add_edge(p, q, one)
            g.add_edge(q, v, minus_one)
        g.add_edge(u, v, w)

    def step(gid: int, w: FieldElement, a: int, b: int):
        if mode == "skinny" and not w.is_one():
            m1, m2 = g.add_vertex(), g.add_vertex()
            g.add_edge(m1, m2, minus_one)
            place_edge(a, m1, Weight.const(w))
            return [(gid, spec.one(), m2, b)]
        gate = work.gates[gid]
        if gate.is_input:
            place_edge(a, b, _input_weight(gate))
            return ()
        (l, wl), (r, wr) = gate.args
        if gate.kind == MUL:
            m1, m2 = g.add_vertex(), g.add_vertex()
            g.add_edge(m1, m2, minus_one)
            return (l, wl, a, m1), (r, wr, m2, b)
        if mode == "skinny":
            return (l, wl, a, b), (r, wr, a, b)
        jobs = _addition(gate, c0s, a, b)
        if jobs is not None:
            return jobs
        t2 = g.add_vertex()

        def close() -> None:
            u = g.add_vertex()
            g.add_edge(t2, u, one)
            g.add_edge(u, b, Weight.const(-(wr * c0s[r]) / (wl * c0s[l])))

        return (l, wl, a, b), (r, wr, a, t2), close

    _walk(work, s, t, step)
    g.roles.update(s=s, t=t)
    out = work.outputs[0]
    c0 = c0s[out] if mode == "green" else spec.one()
    return PathSumCertificate(g, s, {out: t}, {out: c0}, work)


def sym_matrix(f: Circuit, mode: str = "skinny") -> SymbolicMatrix:
    """Symmetric determinantal representation of a formula.

    Dimension is at most 2e+3 with e the skinny size (mode ``skinny``) or
    the green size (mode ``green``).  Raises CharTwoHalf over GF(2^k).
    """
    return sym_lowering(f, mode)[0]


def sym_lowering(
    f: Circuit, mode: str = "skinny"
) -> tuple[SymbolicMatrix, PathSumCertificate]:
    """:func:`sym_matrix` together with the certificate it closes, whose
    graph the closing leaves unchanged."""
    cert = build_sym_graph(f, mode)
    # the path sum counts (-1)^(|P|/2+1) w(P): paths of 2 vertices positively
    return close_symmetric(cert.graph, cert.s, *cert.output(), 2), cert
