"""Direct symmetric determinantal representation of the n x n determinant.

A layered branching program computes the determinant polynomial as a signed
sum over closed-walk sequences with strictly increasing heads; sequences
that are not permutation cycle covers cancel in pairs, so the path sums of
the program satisfy

    DET_n = sum over s-to-plus-sink paths of w(P)
          - sum over s-to-minus-sink paths of w(P).

States track the open walk (head, position) and the parity of walks closed
so far; a closing arc lands in a state remembering only the closed head.
One transition rule gives every arc, each consuming exactly one matrix
entry, and the states are generated from s forward, so only the ones s
reaches exist; those that reach no sink are then dropped.  Sign-merging
arcs of weight +-1 join the sinks into a single sink t.  The symmetric
matrix is the one every construction builds (:mod:`symdet.graphs`): the
program's vertex split, every vertex but s and t becoming an in/out pair
joined by an edge of weight -1, closed from t to s through one extra
vertex, of dimension at most 4n^3 + 7 and with determinant DET_n;
:func:`det_sym_lowering` returns it with the program it closes.
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
    """Layered ABP whose s-t path sum, unsigned like every branching
    program's, is the determinant of (x_ij); the signs ride on the arcs
    into t.

    States at layer l (l entries consumed):
      ("F", l, g, p):    between walks, last closed head g, p walks closed
                         so far (mod 2); s is ("F", 0, 0, 0);
      ("W", l, h, u, p): open walk with head h at position u > h.
    One rule, ``moves``, gives every arc: a walk with head h at position u
    (a fresh walk from an F state opens at u = h, for each h > g) consumes
    x_uv to move on to v > h, or x_uh to close.  At the n-th entry only
    closings remain: a walk closing goes to the sink ("T", sign), a
    diagonal closing x_hh to ("TD", sign, h), so no two arcs are parallel.
    States are generated forward from s, and those no sink is reached from
    are dropped.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    one = spec.one()

    def moves(state: tuple):
        """(next state, i, j) for each entry x_ij that ``state`` may consume."""
        if state[0] == "W":
            _, l, h, u, p = state
            walks = [(h, u)]
        else:
            _, l, g, p = state
            walks = [(h, h) for h in range(g + 1, n + 1)]
        for h, u in walks:
            if l + 1 == n:
                sign = _sign_of(n, 1 - p)
                yield (("TD", sign, h) if u == h else ("T", sign)), u, h
                continue
            for v in range(h + 1, n + 1):
                yield ("W", l + 1, h, v, p), u, v
            yield ("F", l + 1, h, 1 - p), u, h

    S = ("F", 0, 0, 0)
    layer_of = {S: 0}
    arcs: dict[tuple, Weight] = {}
    frontier = [S]
    for layer in range(1, n + 1):
        reached: dict[tuple, None] = {}
        for src in frontier:
            for dst, i, j in moves(src):
                assert (src, dst) not in arcs, f"parallel arc {(src, dst)}"
                arcs[(src, dst)] = Weight.var(det_variable(i, j))
                reached[dst] = None
        frontier = list(reached)
        layer_of.update(dict.fromkeys(frontier, layer))

    # the last layer holds only sinks; keep the states a sink is reached from
    # (arcs were made layer by layer, so one sweep back finds them all)
    live = set(frontier)
    for src, dst in reversed(arcs):
        if dst in live:
            live.add(src)

    dg = WeightedDigraph(spec)
    ordered = sorted(live, key=lambda st: (layer_of[st], repr(st)))
    index = {st: dg.add_vertex() for st in ordered}
    for (src, dst), w in arcs.items():
        if src in live and dst in live:
            dg.add_arc(index[src], index[dst], w)
    layers = {index[st]: layer_of[st] for st in ordered}

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
    return det_sym_lowering(n, spec)[0]


def det_sym_lowering(n: int, spec: FieldSpec = RATIONAL) -> tuple[SymbolicMatrix, LayeredAbp]:
    """:func:`det_sym_matrix` together with the branching program it closes."""
    abp = build_det_abp(n, spec)
    g, copies = split_vertices(abp.digraph, [abp.s, abp.t])
    return close_symmetric(g, copies[abp.s][0], copies[abp.t][0], spec.one()), abp
