"""Brute-force symbolic oracles: cycle covers, determinants, permanents, paths.

Everything here is deliberately independent of the constructions it checks.
Cycle-cover sums enumerate vertex permutations directly (with backtracking on
the arcs, so a graph's covers are those of its symmetric digraph); the
symbolic determinant is a cofactor expansion over column subsets; the
permanent uses inclusion-exclusion, and the characteristic-2 referee sums
squared permanents of square submatrices.
All of them return :class:`DensePolynomial` values and are capped at small
dimensions.  The two certificate audits enumerate too, so they are test
references and live here: :func:`check_abp_certificate` for a branching
program and :func:`check_symmetric_certificate` for a symmetric graph.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterable, Sequence

from .circuits import classify
from .fields import FieldSpec, embed
from .graphs import (
    CONSTW,
    SCALEDW,
    PathSumCertificate,
    SymbolicMatrix,
    Weight,
    WeightedDigraph,
    WeightedGraph,
    adjacency,
)
from .polynomials import DensePolynomial, TooLarge, expand_gate_values


def _variables_of(weights: Iterable[Weight]) -> tuple[str, ...]:
    seen = {w.name for w in weights if w.kind != CONSTW}
    return tuple(sorted(seen))


def _one(spec: FieldSpec, variables) -> DensePolynomial:
    return DensePolynomial.constant(spec.one(), variables)


def _poly(w: Weight, variables, spec: FieldSpec) -> DensePolynomial:
    """An arc weight as a polynomial in ``variables`` over ``spec``."""
    if w.kind == CONSTW:
        return DensePolynomial.constant(embed(w.coeff, spec), variables)
    p = DensePolynomial.variable(w.name, variables, spec)
    return p.scale(embed(w.coeff, spec)) if w.kind == SCALEDW else p


# ---------------------------------------------------------------------------
# cycle covers
# ---------------------------------------------------------------------------


def enumerate_cycle_covers(
    g: WeightedDigraph, vertices: Sequence[int] | None = None
) -> list[dict[int, int]]:
    """All cycle covers of the sub(di)graph induced on ``vertices``.

    A cover is returned as the successor map of the underlying permutation;
    reversing a cycle of a graph yields a distinct cover, as it must.
    """
    verts = list(range(g.n)) if vertices is None else sorted(vertices)
    vset = set(verts)
    succ_options = {
        u: [v for (a, v) in g.arcs if a == u and v in vset] for u in verts
    }
    covers: list[dict[int, int]] = []
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(i: int) -> None:
        if i == len(verts):
            covers.append(dict(assignment))
            return
        u = verts[i]
        for v in succ_options[u]:
            if v in used:
                continue
            assignment[u] = v
            used.add(v)
            backtrack(i + 1)
            used.discard(v)
        assignment.pop(u, None)

    backtrack(0)
    return covers


def cover_cycles(cover: dict[int, int]) -> list[list[int]]:
    seen: set[int] = set()
    cycles = []
    for start in sorted(cover):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        v = cover[start]
        while v != start:
            cyc.append(v)
            seen.add(v)
            v = cover[v]
        cycles.append(cyc)
    return cycles


def cover_sign(cover: dict[int, int]) -> int:
    """(-1)^(number of even cycles)."""
    n_even = sum(1 for cyc in cover_cycles(cover) if len(cyc) % 2 == 0)
    return -1 if n_even % 2 else 1


def cover_weight(
    g: WeightedDigraph, cover: dict[int, int], variables, spec: FieldSpec
) -> DensePolynomial:
    w = _one(spec, variables)
    for u, v in cover.items():
        w = w * _poly(g.arcs[(u, v)], variables, spec)
    return w


def cycle_cover_sum(
    g: WeightedDigraph, signed: bool, variables: Sequence[str] | None = None
) -> DensePolynomial:
    """Sum of (signed) weights of all cycle covers.

    Equals the permanent (unsigned) or determinant (signed) of the adjacency
    matrix; computed here by direct enumeration as an independent oracle.
    """
    if g.n > 12:
        raise TooLarge(f"cycle cover enumeration capped at 12 vertices, got {g.n}")
    variables = tuple(variables) if variables is not None else _variables_of(g.arcs.values())
    spec = g.spec
    total = DensePolynomial.zero(spec, variables)
    for cover in enumerate_cycle_covers(g):
        term = cover_weight(g, cover, variables, spec)
        if signed and cover_sign(cover) < 0:
            term = -term
        total = total + term
    return total


def cycle_cover_sum_short(
    g: WeightedGraph, variables: Sequence[str] | None = None
) -> DensePolynomial:
    """Sum of weights of cycle covers using only loops and 2-cycles.

    The weight of a 2-cycle is the square of its edge weight.  Over a field
    of characteristic 2 this equals the determinant of the adjacency matrix.
    """
    if g.n > 16:
        raise TooLarge(f"short-cycle cover enumeration capped at 16 vertices, got {g.n}")
    variables = tuple(variables) if variables is not None else _variables_of(g.arcs.values())
    spec = g.spec
    loops = {u: w for (u, v), w in g.arcs.items() if u == v}
    adj: dict[int, list[tuple[int, Weight]]] = {u: [] for u in range(g.n)}
    for (u, v), w in g.arcs.items():
        if u != v:
            adj[u].append((v, w))

    total = DensePolynomial.zero(spec, variables)

    def rec(mask_free: list[int], acc: DensePolynomial) -> None:
        nonlocal total
        if not mask_free:
            total = total + acc
            return
        u = mask_free[0]
        rest = mask_free[1:]
        if u in loops:
            rec(rest, acc * _poly(loops[u], variables, spec))
        for v, w in adj[u]:
            if v in rest:
                wp = _poly(w, variables, spec)
                rec([x for x in rest if x != v], acc * wp * wp)

    rec(list(range(g.n)), _one(spec, variables))
    return total


# ---------------------------------------------------------------------------
# determinant and permanent oracles
# ---------------------------------------------------------------------------


def symbolic_det(
    m: SymbolicMatrix,
    variables: Sequence[str] | None = None,
    limit: int = 16,
) -> DensePolynomial:
    """Exact determinant by cofactor expansion over column subsets.

    The default guard suits dense matrices; sparse gadget matrices stay
    cheap well beyond it, so callers may raise ``limit`` explicitly.
    """
    n = m.dim
    if n > limit:
        raise TooLarge(f"symbolic determinant capped at {limit}x{limit}, got {n}")
    variables = tuple(variables) if variables is not None else m.variables()
    spec = m.spec
    entry_polys = [
        [_poly(m.entry(i, j), variables, spec) for j in range(n)]
        for i in range(n)
    ]
    zeros = [[m.entry(i, j).is_zero() for j in range(n)] for i in range(n)]
    # mask determines the row (n - popcount), so the mask alone keys the memo
    memo: dict[int, DensePolynomial] = {}

    def det(row: int, mask: int) -> DensePolynomial:
        if row == n:
            return _one(spec, variables)
        key = mask
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = DensePolynomial.zero(spec, variables)
        sign = 1
        for j in range(n):
            if not (mask >> j) & 1:
                continue
            if not zeros[row][j]:
                sub = det(row + 1, mask & ~(1 << j))
                term = entry_polys[row][j] * sub
                total = total + (term if sign > 0 else -term)
            sign = -sign
        memo[key] = total
        return total

    return det(0, (1 << n) - 1)


def ryser_permanent(
    m: SymbolicMatrix, variables: Sequence[str] | None = None
) -> DensePolynomial:
    """Permanent via Ryser's inclusion-exclusion over excluded column sets."""
    n = m.dim
    if n > 12:
        raise TooLarge(f"permanent oracle capped at 12x12, got {n}")
    variables = tuple(variables) if variables is not None else m.variables()
    spec = m.spec
    entry_polys = [
        [_poly(m.entry(i, j), variables, spec) for j in range(n)]
        for i in range(n)
    ]
    total = DensePolynomial.zero(spec, variables)
    for excluded in range(1 << n):
        row_sums = []
        for i in range(n):
            s = DensePolynomial.zero(spec, variables)
            for j in range(n):
                if not (excluded >> j) & 1:
                    s = s + entry_polys[i][j]
            row_sums.append(s)
        prod = _one(spec, variables)
        for s in row_sums:
            prod = prod * s
            if prod.is_zero():
                break
        if bin(excluded).count("1") % 2:
            prod = -prod
        total = total + prod
    return total


def referee_submatrix_sum(b: SymbolicMatrix) -> DensePolynomial:
    """Sum of per(M)^2 over all square submatrices M of B (empty one gives 1),
    which equals det(A + I_2n) in characteristic 2."""
    n = b.dim
    if n > 4:
        raise TooLarge("referee cross-check capped at 4x4")
    spec = b.spec
    variables = b.variables()
    total = _one(spec, variables)
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = SymbolicMatrix([[b.entry(i, j) for j in cols] for i in rows],
                                     spec=spec)
                p = ryser_permanent(sub, variables=variables)
                total = total + p * p
    return total


# ---------------------------------------------------------------------------
# paths and the certificate audits
# ---------------------------------------------------------------------------


def enumerate_st_paths(g: WeightedDigraph, s: int, t: int) -> list[list[int]]:
    """All simple s-t paths, as vertex lists (s and t included)."""
    succ: dict[int, list[int]] = {u: [] for u in range(g.n)}
    for (u, v) in g.arcs:
        if u != v:
            succ[u].append(v)
    for u in succ:
        succ[u].sort()
    paths: list[list[int]] = []
    path = [s]
    on_path = {s}

    def dfs(u: int) -> None:
        if u == t:
            paths.append(list(path))
            return
        for v in succ[u]:
            if v in on_path:
                continue
            path.append(v)
            on_path.add(v)
            dfs(v)
            path.pop()
            on_path.discard(v)

    dfs(s)  # [[s]] when s == t
    return paths


def path_weight(
    g: WeightedDigraph, path: Sequence[int], variables, spec: FieldSpec
) -> DensePolynomial:
    w = _one(spec, variables)
    for u, v in zip(path, path[1:]):
        w = w * _poly(g.arcs[(u, v)], variables, spec)
    return w


def path_sum(
    g: WeightedDigraph, paths: Iterable[Sequence[int]], variables
) -> DensePolynomial:
    """The unsigned sum of w(P) over ``paths`` of g."""
    total = DensePolynomial.zero(g.spec, variables)
    for path in paths:
        total = total + path_weight(g, path, variables, g.spec)
    return total


def complement_vertices(g, path: Sequence[int]) -> list[int]:
    drop = set(path)
    return [v for v in range(g.n) if v not in drop]


def unique_cover_is_weight1_matching(g: WeightedGraph, vertices: Sequence[int]) -> bool:
    """True iff the induced subgraph has exactly one cycle cover and that
    cover is a perfect matching (2-cycles only) of weight 1."""
    return _is_weight1_matching(g, enumerate_cycle_covers(g, vertices))


def _is_weight1_matching(g: WeightedGraph, covers: list[dict[int, int]]) -> bool:
    """True iff ``covers`` is one cover, a perfect matching of weight 1."""
    if len(covers) != 1:
        return False
    cover = covers[0]
    if any(len(c) != 2 for c in cover_cycles(cover)):
        return False
    variables = _variables_of(g.arcs.values())
    return cover_weight(g, cover, variables, g.spec) == _one(g.spec, variables)


def all_cycles_even(g: WeightedGraph) -> bool:
    """Every cycle has even length, i.e. the graph is bipartite (a loop is not)."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.arcs:
        adj[u].append(v)
    color: dict[int, int] = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in color:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def check_abp_certificate(cert: PathSumCertificate) -> None:
    """Audit a branching program by enumerating its paths: for every
    reusable gate a of ``targets``, scalars[a] * sum_P w(P) = f_a over the
    s-targets[a] paths P.  Exponential; intended for test builds."""
    g, source = cert.graph, cert.source
    values = expand_gate_values(source)
    reusable = classify(source).reusable
    for gid, t in sorted(cert.targets.items()):
        if gid in reusable:
            total = path_sum(g, enumerate_st_paths(g, cert.s, t), source.variables)
            assert total.scale(cert.scalars[gid]) == values[gid], (
                f"ABP path-sum identity failed at gate {gid}")


def check_symmetric_certificate(cert: PathSumCertificate, max_vertices: int = 14) -> int:
    """Audit a symmetric gadget graph by enumerating its paths, with the
    sign of :func:`~symdet.graphs.close_symmetric`, which u = 2 - |G| mod 2
    whole vertices per path fix: every cycle is even; G minus {s} (|G| odd)
    or minus {s, t} (|G| even) has a unique weight-1 matching; and for every
    reusable gate a of ``targets``, every s-targets[a] path P has the parity
    of u, every acceptable one (its complement has a cycle cover) leaves a
    unique weight-1 matching, and scalars[a] * sum (-1)^((|P| - u)/2) w(P)
    = f_a over the acceptable P.  Enumerates the cycle covers of each vertex
    set once.  Returns the number of unacceptable paths skipped, none on a
    formula split.  Exponential; intended for test builds up to
    ``max_vertices``."""
    g, source = cert.graph, cert.source
    assert adjacency(g).symmetric, "symmetric certificate needs a graph"
    if g.n > max_vertices:
        raise ValueError(f"certificate audit capped at {max_vertices} vertices")
    assert all_cycles_even(g), "odd cycle in gadget graph"

    @cache  # two paths, or a path and the base, may leave the same vertex set
    def covers_left_by(on: frozenset[int]) -> list[dict[int, int]]:
        return enumerate_cycle_covers(g, complement_vertices(g, on))

    whole = 2 - g.n % 2  # s, and t when |G| is even: on every s-t path
    base = [cert.s, cert.output()[0]][:whole]
    assert _is_weight1_matching(g, covers_left_by(frozenset(base))), (
        f"G minus {base} must have a unique weight-1 matching cover")
    values = expand_gate_values(source)
    reusable = classify(source).reusable
    skipped = 0
    for gid, t in sorted(cert.targets.items()):
        if gid not in reusable:
            continue
        total = DensePolynomial.zero(g.spec, source.variables)
        for path in enumerate_st_paths(g, cert.s, t):
            assert (len(path) - whole) % 2 == 0, (
                f"s-t path of {len(path)} vertices at gate {gid}, {whole} of them whole")
            left = covers_left_by(frozenset(path))
            if not left:
                skipped += 1
                continue
            assert _is_weight1_matching(g, left), (
                f"path complement at gate {gid} must have a unique weight-1 matching cover")
            w = path_weight(g, path, source.variables, g.spec)
            total = total + (-w if (len(path) - whole) // 2 % 2 else w)
        assert total.scale(cert.scalars[gid]) == values[gid], (
            f"symmetric path-sum identity failed at gate {gid}")
    return skipped
