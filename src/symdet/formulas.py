"""Lowering formulas to determinantal representations.

Both constructions start from one branching program (ABP) of the formula,
placed straight on its gates by one walk over an explicit stack (so depth
costs no recursion): vertices s and t and a scalar c0 with
c0 * sum_P w(P) = f over all s-t paths P (:func:`build_valiant_digraph`).
A product puts its factors in series through a fresh vertex; a sum puts
its arms in parallel.  The program comes in two modes:

* ``green`` minimizes first and carries constants in c0 and on the arc
  that closes a sum's right arm, giving at most gsize+2 vertices;

* ``skinny`` follows the weightless construction on the formula itself: a
  non-unit arrow weight is an arc of that constant into a fresh vertex, a
  sum's arms share both ends, and c0 = 1.

The non-symmetric lowering closes the program by
:func:`~symdet.graphs.close_abp` into a matrix of dimension at most
(green size + 1) when the formula has an addition.  The symmetric lowering
closes its vertex split (:func:`~symdet.graphs.split_vertices`, s and t
whole, so |G| is even) by :func:`~symdet.graphs.close_symmetric` into a
symmetric matrix of determinant c0 * sum_P w(P) = f and dimension at most
2e+3 (e = skinny or green size, by mode).

Constant multiplications are free: they ride on c0 and on arc weights; the
c0 of a product is the product of its arguments' scalars.  Certificates
retain the program or its split, which the tests audit with the
oracles' :func:`~symdet.oracles.check_abp_certificate` and the one
symmetric audit, :func:`~symdet.oracles.check_symmetric_certificate`;
neither is on a build's path, and this module imports neither the oracles
nor the symbolic polynomials.
"""

from __future__ import annotations

from .circuits import (
    ADD,
    CONST,
    MUL,
    VAR,
    Circuit,
    CircuitError,
    is_formula,
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
from .minimize import green_form


class NotAFormula(CircuitError):
    pass


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


def _lemma_c0s(
    f: Circuit,
) -> tuple[dict[int, FieldElement], dict[int, tuple[FieldElement, FieldElement]]]:
    """The lemma scalar of every gate of formula ``f`` (an input's is 1), and
    of every computation gate the scalars of its two arms, each argument's
    scalar times its arrow weight, in one pass over the topological order,
    so each gate is combined once."""
    c0: dict[int, FieldElement] = {}
    arms: dict[int, tuple[FieldElement, FieldElement]] = {}
    for gid in f.topo_order():
        gate = f.gates[gid]
        if gate.is_input:
            c0[gid] = f.spec.one()
        else:
            (l, wl), (r, wr) = gate.args
            arms[gid] = cl, cr = wl * c0[l], wr * c0[r]
            c0[gid] = _lemma_c0(gate.kind, cl, cr)
    return c0, arms


# ---------------------------------------------------------------------------
# the branching program and the non-symmetric construction
# ---------------------------------------------------------------------------


def build_valiant_digraph(f: Circuit, mode: str = "green") -> PathSumCertificate:
    """Branching program of formula ``f`` and a scalar c0 with
    c0 * sum_P w(P) = f over its s-t paths P (unsigned).

    ``green`` minimizes first, drops the arms of lemma scalar zero and
    carries constants in c0, giving at most gsize(f)+2 vertices; a sum's
    right arm ends in a fresh vertex whose arc into the sum's end carries
    the ratio of the arms' scalars.  ``skinny`` keeps ``f`` and c0 = 1: a
    non-unit arrow weight is an arc of that constant into a fresh vertex,
    and both arms of a sum run between the same two vertices, so an arc
    that finds its place taken moves the resident arc onto a fresh vertex
    p (u->p keeps its weight, p->v has weight 1).
    """
    if mode == "green":
        work = green_form(f)
        c0s, arms = _lemma_c0s(work)
    elif mode == "skinny":
        work = f
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not is_formula(work):
        raise NotAFormula("circuit is not a formula")
    one = work.spec.one()
    dg = WeightedDigraph(work.spec)
    s, t = dg.add_vertex(), dg.add_vertex()
    # jobs (gate, arrow weight, a, b) place the gate's program from a to b;
    # the left subtree is placed first, which fixes the vertex numbering
    stack = [(work.outputs[0], one, s, t)]
    while stack:
        gid, w, a, b = stack.pop()
        if mode == "skinny" and not w.is_one():
            m = dg.add_vertex()
            dg.add_arc(a, m, Weight.const(w))
            stack.append((gid, one, m, b))
            continue
        gate = work.gates[gid]
        if gate.is_input:
            arc = input_weight(gate)
            if (a, b) in dg.arcs and not arc.is_zero():
                p = dg.add_vertex()
                dg.add_arc(a, p, dg.arcs.pop((a, b)))
                dg.add_arc(p, b, Weight.const(one))
            dg.add_arc(a, b, arc)
            continue
        (l, wl), (r, wr) = gate.args
        if gate.kind == MUL:
            mid = dg.add_vertex()
            jobs = [(l, wl, a, mid), (r, wr, mid, b)]
        elif mode == "skinny":
            jobs = [(l, wl, a, b), (r, wr, a, b)]
        else:
            jobs = [(x, wx, a, b) for (x, wx), c in zip(gate.args, arms[gid]) if not c.is_zero()]
            if len(jobs) == 2:
                cl, cr = arms[gid]
                t2 = dg.add_vertex()
                dg.add_arc(t2, b, Weight.const(cr / cl))
                jobs[1] = (r, wr, a, t2)
        stack += reversed(jobs)
    dg.roles.update(s=s, t=t)
    out = work.outputs[0]
    c0 = c0s[out] if mode == "green" else one
    return PathSumCertificate(dg, s, {out: t}, {out: c0}, work)


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
    """The vertex split of :func:`build_valiant_digraph` in ``mode``, with
    s and t left whole: every cycle and every s-t path is even, and
    c0 * sum_P (-1)^(|P|/2+1) w(P) = f over its s-t paths P."""
    abp = build_valiant_digraph(f, mode)
    g, copies = split_vertices(abp.graph, [abp.s, *abp.targets.values()])
    targets = {gid: copies[v][0] for gid, v in abp.targets.items()}
    return PathSumCertificate(g, copies[abp.s][0], targets, abp.scalars, abp.source)


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
    return close_symmetric(cert.graph, cert.s, *cert.output()), cert
