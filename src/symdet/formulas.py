"""Lowering formulas to determinantal representations.

Two constructions, both driven by path sums in a gadget (di)graph built over
the formula tree:

* the corrected digraph construction (non-symmetric): a digraph G, vertices
  s and t and a scalar c0 with  c0 * sum_P (-1)^|P| w(P) = f  over all
  s-t-paths P, closed into a matrix of dimension at most (green size + 1)
  when the formula has an addition;

* the symmetric gadget construction: a graph G whose s-t-path sum satisfies
  c0 * sum_P (-1)^(|P|/2+1) w(P) = f, with every cycle even, every path even
  and a unique weight-1 perfect-matching completion, closed by one extra
  vertex into a symmetric matrix of dimension at most 2e+3 (e = skinny or
  green size, by mode).

Constant multiplications are free: they ride on c0 and on gadget edge
weights.  Certificates retain the gadget graph so tests can audit the
path-sum identity and the structural conditions directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import (
    ADD,
    CONST,
    MUL,
    VAR,
    Circuit,
    CircuitError,
    classify,
)
from .fields import FieldElement, FieldSpec, half
from .graphs import (
    CONSTW,
    SymbolicMatrix,
    Weight,
    WeightedDigraph,
    WeightedGraph,
    adjacency,
    close_abp,
)
from .minimize import green_form


class NotAFormula(CircuitError):
    pass


# -- formula trees -----------------------------------------------------------

Leaf = tuple  # ("var", name) | ("const", FieldElement)
Node = tuple  # (op, (child, weight), (child, weight))


def formula_tree(circuit: Circuit) -> Node:
    """Tree view of a single-output formula circuit."""
    cl = classify(circuit)
    if not cl.is_formula:
        raise NotAFormula("circuit is not a formula")
    gates = circuit.gates

    def walk(gid: int) -> Node:
        g = gates[gid]
        if g.kind == VAR:
            return (VAR, g.name)
        if g.kind == CONST:
            return (CONST, g.value)
        (a, wa), (b, wb) = g.args
        return (g.kind, (walk(a), wa), (walk(b), wb))

    return walk(circuit.outputs[0])


def _deweight(node: Node, spec: FieldSpec) -> Node:
    """Push arrow weights into explicit constant-factor products.

    Classical (skinny-size) constructions assume weightless formulas, so a
    weight c on an arrow becomes a multiplication by the constant c.
    """
    if node[0] in (VAR, CONST):
        return node
    op, (l, wl), (r, wr) = node
    one = spec.one()
    l, r = _deweight(l, spec), _deweight(r, spec)
    if not wl.is_one():
        l = (MUL, ((CONST, wl), one), (l, one))
    if not wr.is_one():
        r = (MUL, ((CONST, wr), one), (r, one))
    return (op, (l, one), (r, one))


def _lemma_c0(op: str, cl: FieldElement, cr: FieldElement, mul_sign: int) -> FieldElement:
    """The scalar the path-sum lemma associates with a sub-formula ``op``
    whose arguments' scalars, times their arrow weights, are ``cl``, ``cr``.

    Zero exactly when the sub-formula vanishes because of zero weights, in
    which case the branch is dropped from the construction.  ``mul_sign`` is
    -1 for the digraph construction: merging the gadget endpoints there makes
    every product flip the vertex-count parity of the through paths, so the
    scalar absorbs one -1 per multiplication.  The symmetric construction
    keeps its endpoints apart and carries the -1 on the connecting edge.
    """
    if op == MUL:
        prod = cl * cr
        return -prod if mul_sign < 0 else prod
    return cl if not cl.is_zero() else cr


def _lemma_c0s(tree: Node, spec: FieldSpec, mul_sign: int) -> dict[int, FieldElement]:
    """The lemma scalar of every sub-formula of ``tree``, keyed by the id of
    its node (a leaf's is 1), from one bottom-up pass over an explicit stack,
    so each node is combined once and no recursion is added."""
    c0: dict[int, FieldElement] = {}
    stack = [tree]
    while stack:
        node = stack[-1]
        if node[0] in (VAR, CONST):
            c0[id(node)] = spec.one()
            stack.pop()
            continue
        op, (l, wl), (r, wr) = node
        todo = [x for x in (l, r) if id(x) not in c0]
        if todo:
            stack += todo
            continue
        stack.pop()
        c0[id(node)] = _lemma_c0(op, wl * c0[id(l)], wr * c0[id(r)], mul_sign)
    return c0


# -- certificates -------------------------------------------------------------

PARITY_NONSYM = "(-1)^|P|"
PARITY_SYM = "(-1)^(|P|/2+1)"


@dataclass
class PathSumCertificate:
    graph: WeightedDigraph | WeightedGraph
    s: int
    t: int
    c0: FieldElement
    parity: str
    source: Circuit
    tree: Node      # the formula tree of ``source`` the gadget was built over


# ---------------------------------------------------------------------------
# non-symmetric construction
# ---------------------------------------------------------------------------


def build_valiant_digraph(f: Circuit) -> PathSumCertificate:
    """Digraph with at most gsize(f)+2 vertices realizing the signed path sum."""
    spec = f.spec
    work = green_form(f)
    tree = formula_tree(work)
    c0s = _lemma_c0s(tree, spec, mul_sign=-1)
    dg = WeightedDigraph(spec)
    s, t = dg.add_vertex(), dg.add_vertex()

    def build(node: Node, a: int, b: int) -> FieldElement:
        if node[0] == VAR:
            dg.add_arc(a, b, Weight.var(node[1]))
            return spec.one()
        if node[0] == CONST:
            dg.add_arc(a, b, Weight.const(node[1]))
            return spec.one()
        op, (l, wl), (r, wr) = node
        if op == MUL:
            mid = dg.add_vertex()
            ca = build(l, a, mid)
            cb = build(r, mid, b)
            return -(wl * wr * ca * cb)
        cl, cr = wl * c0s[id(l)], wr * c0s[id(r)]
        if cl.is_zero() and cr.is_zero():
            return spec.zero()
        if cl.is_zero():
            return wr * build(r, a, b)
        if cr.is_zero():
            return wl * build(l, a, b)
        t2 = dg.add_vertex()
        ca = build(l, a, b)
        cb = build(r, a, t2)
        dg.add_arc(t2, b, Weight.const(-(wr * cb) / (wl * ca)))
        return wl * ca

    c0 = build(tree, s, t)
    dg.roles.update(s=s, t=t)
    return PathSumCertificate(dg, s, t, c0, PARITY_NONSYM, work, tree)


def _product_fallback(tree: Node, spec: FieldSpec) -> SymbolicMatrix:
    """Diagonal matrix for a formula with no addition: c * x_1 * ... * x_n."""
    names: list[str] = []
    const = spec.one()

    def walk(node: Node, w: FieldElement) -> None:
        nonlocal const
        const = const * w
        if node[0] == VAR:
            names.append(node[1])
        elif node[0] == CONST:
            const = const * node[1]
        else:
            _, (l, wl), (r, wr) = node
            walk(l, wl)
            walk(r, wr)

    walk(tree, spec.one())
    diag = [Weight.var(x) for x in names]
    if not const.is_one() or not diag:
        diag.append(Weight.const(const))
    return SymbolicMatrix([{i: w} for i, w in enumerate(diag)], spec=spec, symmetric=True)


def valiant_matrix(f: Circuit) -> SymbolicMatrix:
    """Non-symmetric determinantal representation, dimension <= gsize(f)+1.

    Formulas without additions take the diagonal fallback of dimension n+1
    (n variables plus one constant slot, dropped when the constant is 1).
    """
    return valiant_lowering(f)[0]


def valiant_lowering(f: Circuit) -> tuple[SymbolicMatrix, PathSumCertificate]:
    """:func:`valiant_matrix` together with the certificate it closes."""
    cert = build_valiant_digraph(f)
    spec = f.spec
    if not any(g.kind == ADD for g in cert.source.gates.values()):
        return _product_fallback(cert.tree, spec), cert
    dg, s, t, c0 = cert.graph, cert.s, cert.t, cert.c0
    if not any(v == t for _, v in dg.arcs):
        return SymbolicMatrix([[Weight.const(spec.zero())]], spec=spec), cert

    # c0 goes on the first vertex with a single constant out-arc (the free
    # endpoint of some addition gadget); if every addition was pruned away,
    # it goes on a fresh isolated loop, i.e. a 1x1 diagonal block
    only_arc: dict[int, Weight | None] = {}
    for (u, _), w in dg.arcs.items():
        only_arc[u] = None if u in only_arc else w
    host = min(
        (u for u, w in only_arc.items()
         if u not in (s, t) and w is not None and w.kind == CONSTW),
        default=None,
    )
    merged = close_abp(
        dg, s, t,
        weight=lambda u, v, w: w.scale(c0) if u == host else w,
        loop=lambda v: Weight.const(c0 if v == host else spec.one()),
    )
    if host is None and not c0.is_one():
        v = merged.add_vertex()
        merged.add_arc(v, v, Weight.const(c0))
    return adjacency(merged), cert


# ---------------------------------------------------------------------------
# symmetric construction
# ---------------------------------------------------------------------------


def build_sym_graph(f: Circuit, mode: str = "skinny") -> PathSumCertificate:
    """Gadget graph meeting the symmetric path-sum conditions.

    ``skinny`` follows the weightless construction (arrow weights are first
    expanded into constant products); ``green`` minimizes first and carries
    constants in c0, giving at most 2*gsize+2 vertices.
    """
    spec = f.spec
    if mode == "green":
        work = green_form(f)
        tree = formula_tree(work)
    elif mode == "skinny":
        work = f
        tree = _deweight(formula_tree(f), spec)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    c0s = _lemma_c0s(tree, spec, mul_sign=1) if mode == "green" else {}
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
            g.add_edge(p, q, Weight.const(spec.one()))
            g.add_edge(q, v, Weight.const(-spec.one()))
        g.add_edge(u, v, w)

    def build(node: Node, a: int, b: int) -> FieldElement:
        if node[0] == VAR:
            place_edge(a, b, Weight.var(node[1]))
            return spec.one()
        if node[0] == CONST:
            place_edge(a, b, Weight.const(node[1]))
            return spec.one()
        op, (l, wl), (r, wr) = node
        if op == MUL:
            m1, m2 = g.add_vertex(), g.add_vertex()
            ca = build(l, a, m1)
            cb = build(r, m2, b)
            g.add_edge(m1, m2, Weight.const(-spec.one()))
            return wl * wr * ca * cb
        if mode == "skinny":
            # weightless tree: both lemma scalars are 1
            build(l, a, b)
            build(r, a, b)
            return spec.one()
        cl, cr = wl * c0s[id(l)], wr * c0s[id(r)]
        if cl.is_zero() and cr.is_zero():
            return spec.zero()
        if cl.is_zero():
            return wr * build(r, a, b)
        if cr.is_zero():
            return wl * build(l, a, b)
        t2 = g.add_vertex()
        ca = build(l, a, b)
        cb = build(r, a, t2)
        u = g.add_vertex()
        g.add_edge(t2, u, Weight.const(spec.one()))
        g.add_edge(u, b, Weight.const(-(wr * cb) / (wl * ca)))
        return wl * ca

    c0 = build(tree, s, t)
    g.roles.update(s=s, t=t)
    return PathSumCertificate(g, s, t, c0, PARITY_SYM, work, tree)


def sym_matrix(f: Circuit, mode: str = "skinny") -> SymbolicMatrix:
    """Symmetric determinantal representation of a formula.

    Dimension is at most 2e+3 with e the skinny size (mode ``skinny``) or
    the green size (mode ``green``).  Raises CharTwoHalf over GF(2^k).
    """
    return sym_lowering(f, mode)[0]


def sym_lowering(
    f: Circuit, mode: str = "skinny"
) -> tuple[SymbolicMatrix, PathSumCertificate]:
    """:func:`sym_matrix` together with the certificate it closes; the
    closing vertex goes on a copy, so the certificate's graph is unchanged."""
    cert = build_sym_graph(f, mode)
    g = cert.graph.copy()
    spec = g.spec
    size_g = g.n  # vertex count before the closing vertex
    c = g.add_vertex()
    g.add_edge(cert.t, c, Weight.const(cert.c0 * half(spec)))
    # closing weight (-1)^(|G|/2 - 1)
    sign = spec.one() if (size_g // 2 - 1) % 2 == 0 else -spec.one()
    g.add_edge(c, cert.s, Weight.const(sign))
    g.roles["c"] = c
    return adjacency(g), cert


def check_sym_certificate(cert: PathSumCertificate, max_vertices: int = 14) -> None:
    """Audit the three symmetric path-sum conditions by enumeration.

    Asserts even vertex count, even cycles, even s-t paths, the unique
    weight-1 perfect-matching completions, and the scaled path-sum identity
    against the expanded source polynomial.  Exponential; intended for test
    builds up to ``max_vertices``.
    """
    from .oracles import (
        all_cycles_even,
        complement_vertices,
        enumerate_st_paths,
        path_weight,
        unique_cover_is_weight1_matching,
    )
    from .polynomials import DensePolynomial, expand_circuit

    g: WeightedGraph = cert.graph
    assert isinstance(g, WeightedGraph), "symmetric certificate needs a graph"
    if g.n > max_vertices:
        raise ValueError(f"certificate audit capped at {max_vertices} vertices")
    assert g.n % 2 == 0, "graph must have an even number of vertices"
    assert all_cycles_even(g), "odd cycle in gadget graph"
    inner = complement_vertices(g, [cert.s, cert.t])
    assert unique_cover_is_weight1_matching(g, inner), (
        "G minus {s, t} must have a unique weight-1 matching cover"
    )
    spec = g.spec
    variables = cert.source.variables
    total = DensePolynomial.zero(spec, variables)
    for path in enumerate_st_paths(g, cert.s, cert.t):
        assert len(path) % 2 == 0, "odd s-t path"
        rest = complement_vertices(g, path)
        assert unique_cover_is_weight1_matching(g, rest), (
            "path complement must have a unique weight-1 matching cover"
        )
        w = path_weight(g, path, variables, spec)
        if (len(path) // 2 + 1) % 2 == 1:
            w = -w
        total = total + w
    total = total.scale(cert.c0)
    expected = expand_circuit(cert.source)[0]
    assert total == expected, "path-sum identity failed"


def check_valiant_certificate(cert: PathSumCertificate) -> None:
    """Audit the digraph path-sum identity c0 * sum (-1)^|P| w(P) = f."""
    from .oracles import enumerate_st_paths, path_weight
    from .polynomials import DensePolynomial, expand_circuit

    dg: WeightedDigraph = cert.graph
    spec = dg.spec
    variables = cert.source.variables
    total = DensePolynomial.zero(spec, variables)
    for path in enumerate_st_paths(dg, cert.s, cert.t):
        w = path_weight(dg, path, variables, spec)
        total = total + (w if len(path) % 2 == 0 else -w)
    total = total.scale(cert.c0)
    expected = expand_circuit(cert.source)[0]
    assert total == expected, "digraph path-sum identity failed"


def to_permanent_matrix(m: SymbolicMatrix) -> SymbolicMatrix:
    """Replace every -1 entry by 1; the permanent then computes the formula."""
    spec = m.spec
    minus_one = -spec.one()
    one = Weight.const(spec.one())
    rows = [
        {j: one if (w.kind == CONSTW and w.coeff == minus_one) else w for j, w in row.items()}
        for row in m.rows
    ]
    return SymbolicMatrix(rows, spec=spec, symmetric=m.symmetric)
