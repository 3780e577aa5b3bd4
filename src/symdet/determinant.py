"""Direct symmetric determinantal representation of the n x n determinant.

A layered branching program computes the determinant polynomial as a signed
sum over closed-walk sequences with strictly increasing heads; sequences
that are not permutation cycle covers cancel in pairs, so the path sums of
the program satisfy

    DET_n = sum over s-to-plus-sink paths of w(P)
          - sum over s-to-minus-sink paths of w(P).

States track the open walk (head, position) and the parity of walks closed
so far; a closing arc lands in a state remembering only the closed head, so
every transition consumes exactly one matrix entry and arcs between a given
state pair are unique.  Sign-merging arcs of weight +-1 join the sinks into
a single sink t.  The symmetric matrix is the one every construction
builds (:mod:`symdet.graphs`): the program's vertex split, every vertex but
s and t becoming an in/out pair joined by a unit edge, closed from t to s
through one extra vertex (edge weights 1/2 and (-1)^n), of dimension at
most 4n^3 + 7 and with determinant DET_n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldSpec, RATIONAL
from .graphs import SymbolicMatrix, Weight, WeightedDigraph, close_symmetric, split_vertices


def det_variable(i: int, j: int) -> str:
    return f"x{i}_{j}"


@dataclass
class LayeredAbp:
    """Branching program for DET_n with the merged sink appended.

    Every arc goes from one layer to the next; every path from s into layer
    n has n+1 vertices.  ``plus_sinks`` and ``minus_sinks`` are the layer-n
    vertices whose path sums carry positive resp. negative sign (several per
    sign: one generic sink plus one per closing diagonal entry, since a
    single sink would need parallel arcs).
    """

    digraph: WeightedDigraph
    layers: dict[int, int]
    s: int
    plus_sinks: list[int]
    minus_sinks: list[int]
    t: int
    n: int


def _sign_of(n: int, closed_parity: int) -> int:
    """Sign (-1)^(n + k) of a finished sequence with k = closed_parity mod 2."""
    return 1 if (n + closed_parity) % 2 == 0 else -1


def build_det_abp(n: int, spec: FieldSpec = RATIONAL) -> LayeredAbp:
    """Layered ABP whose signed path sum is the determinant of (x_ij).

    State vocabulary (all at explicit layers 1..n-1):
      ("W", l, h, u, p): open walk with head h at position u > h, p walks
                         closed so far (mod 2), l entries consumed;
      ("F", l, g, p):    between walks, last closed head g, parity p.
    Arc weights are single matrix entries; opening a walk is fused into the
    arc that consumes its first entry.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    one = spec.one()
    S, T = ("s",), ("t",)
    arcs: dict[tuple, Weight] = {}

    def emit(src: tuple, dst: tuple, i: int, j: int) -> None:
        key = (src, dst)
        assert key not in arcs, f"parallel arc {key}"
        arcs[key] = Weight.var(det_variable(i, j))

    def final_dst(p: int, h: int | None) -> tuple:
        sign = _sign_of(n, (p + 1) % 2)
        return ("T", sign) if h is None else ("TD", sign, h)

    if n == 1:
        arcs[(S, ("T", 1))] = Weight.var(det_variable(1, 1))
    else:
        for h in range(1, n + 1):
            for v in range(h + 1, n + 1):
                emit(S, ("W", 1, h, v, 0), h, v)
            arcs[(S, ("F", 1, h, 1))] = Weight.var(det_variable(h, h))

        for layer in range(1, n - 1):
            for h in range(1, n + 1):
                for p in (0, 1):
                    for u in range(h + 1, n + 1):
                        src = ("W", layer, h, u, p)
                        for v in range(h + 1, n + 1):
                            emit(src, ("W", layer + 1, h, v, p), u, v)
                        emit(src, ("F", layer + 1, h, (p + 1) % 2), u, h)
                    src = ("F", layer, h, p)
                    for h2 in range(h + 1, n + 1):
                        for v in range(h2 + 1, n + 1):
                            emit(src, ("W", layer + 1, h2, v, p), h2, v)
                        emit(src, ("F", layer + 1, h2, (p + 1) % 2), h2, h2)

        # layer n-1 -> layer n: the last entry must close the open walk
        for h in range(1, n + 1):
            for p in (0, 1):
                for u in range(h + 1, n + 1):
                    emit(("W", n - 1, h, u, p), final_dst(p, None), u, h)
                src = ("F", n - 1, h, p)
                for h2 in range(h + 1, n + 1):
                    emit(src, final_dst(p, h2), h2, h2)

    # keep only states on an s -> sink path
    succ: dict[tuple, list[tuple]] = {}
    pred: dict[tuple, list[tuple]] = {}
    for (src, dst) in arcs:
        succ.setdefault(src, []).append(dst)
        pred.setdefault(dst, []).append(src)
    sinks = [st for st in pred if st[0] in ("T", "TD")]
    forward = {S}
    stack = [S]
    while stack:
        u = stack.pop()
        for v in succ.get(u, []):
            if v not in forward:
                forward.add(v)
                stack.append(v)
    backward = set(sinks)
    stack = list(sinks)
    while stack:
        u = stack.pop()
        for v in pred.get(u, []):
            if v not in backward:
                backward.add(v)
                stack.append(v)
    live = (forward & backward) | {S} | (set(sinks) & forward)

    def layer_of(st: tuple) -> int:
        if st == S:
            return 0
        if st[0] in ("T", "TD"):
            return n
        return st[1]

    dg = WeightedDigraph(spec)
    ordered = sorted(live, key=lambda st: (layer_of(st), repr(st)))
    index = {st: dg.add_vertex() for st in ordered}
    for (src, dst), w in arcs.items():
        if src in index and dst in index:
            dg.add_arc(index[src], index[dst], w)
    layers = {index[st]: layer_of(st) for st in ordered}

    plus_sinks = [index[st] for st in ordered if st[0] in ("T", "TD") and st[1] == 1]
    minus_sinks = [index[st] for st in ordered if st[0] in ("T", "TD") and st[1] == -1]

    t = dg.add_vertex()
    layers[t] = n + 1
    for v in plus_sinks:
        dg.add_arc(v, t, Weight.const(one))
    for v in minus_sinks:
        dg.add_arc(v, t, Weight.const(-one))
    for (u, v) in dg.arcs:
        assert layers[v] == layers[u] + 1, f"arc {u}->{v} skips a layer"
    dg.roles.update({"s": index[S], "t": t})
    return LayeredAbp(dg, layers, index[S], plus_sinks, minus_sinks, t, n)


def det_sym_matrix(n: int, spec: FieldSpec = RATIONAL) -> SymbolicMatrix:
    """Symmetric matrix of dimension <= 4n^3+7 with determinant DET_n.

    Entries are the matrix indeterminates x<i>_<j> and constants from
    {0, 1, -1, 1/2}.  Requires characteristic != 2.
    """
    abp = build_det_abp(n, spec)
    g, copies = split_vertices(abp.digraph, spec.one(), [abp.s, abp.t])
    # every s-t path has 2n+2 vertices; the matching completing a cover
    # contributes sign (-1)^((|G|-2n-2)/2), which the closing edge must
    # match ((-1)^n at the unpruned size 4n^3+6)
    exponent = (g.n - 2 * n - 2) // 2
    sign = spec.one() if exponent % 2 == 0 else -spec.one()
    return close_symmetric(g, copies[abp.s][0], copies[abp.t][0], spec.one(), sign)
