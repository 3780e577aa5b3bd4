"""Characteristic-2 constructions.

The symmetric closing trick needs 1/2, so over GF(2^k) only the square of a
weakly-skew-computable polynomial gets a symmetric determinantal
representation: take the non-symmetric path-sum matrix M (in characteristic
2 its permanent and determinant agree and equal the polynomial), view it as
a digraph and split each vertex into a source/target pair.  Cycle covers of
the digraph then correspond to perfect matchings of the bipartite double,
each counted twice (once per orientation), so the determinant of the
doubled symmetric matrix

    A = [[0, M], [M^T, 0]]

is the square of the polynomial.  The same mechanism gives the partial
permanent identity det(A + I) = per*(B)^2 for a bipartite biadjacency
matrix B: covers by loops and 2-cycles are exactly partial matchings.
"""

from __future__ import annotations

from dataclasses import dataclass

import random

from .circuits import Circuit
from .fields import FieldElement, FieldSpec, GF2_16, sample_random
from .graphs import SymbolicMatrix, Weight, WeightedGraph
from .polynomials import DensePolynomial, TooLarge
from .weakly_skew import ws_nonsym_matrix
from .verify import CompiledMatrix


class NotCharTwo(Exception):
    """Construction only makes sense over a field of characteristic 2."""


@dataclass
class BipartiteDoubling:
    source: SymbolicMatrix          # non-symmetric matrix M
    graph: WeightedGraph            # bipartite double, vertices v_s then v_t
    matrix: SymbolicMatrix          # symmetric adjacency [[0, M], [M^T, 0]]


def double_matrix(m: SymbolicMatrix) -> BipartiteDoubling:
    """Bipartite doubling of the digraph represented by a square matrix."""
    spec = m.spec
    r = m.dim
    zero = Weight.const(spec.zero())
    rows = [[zero] * (2 * r) for _ in range(2 * r)]
    g = WeightedGraph(spec)
    for _ in range(2 * r):
        g.add_vertex()
    for i in range(r):
        for j in range(r):
            w = m.entry(i, j)
            if w.is_zero():
                continue
            rows[i][r + j] = w
            rows[r + j][i] = w
            g.add_edge(i, r + j, w)
    doubled = SymbolicMatrix(rows, spec=spec, symmetric=True, allow_linear=m.allow_linear)
    return BipartiteDoubling(source=m, graph=g, matrix=doubled)


def square_matrix_char2(circuit: Circuit) -> SymbolicMatrix:
    """Symmetric matrix of dimension <= 2m+2 with det = (circuit value)^2
    over any field of characteristic 2."""
    if circuit.spec.characteristic != 2:
        raise NotCharTwo(f"circuit lives in {circuit.spec}")
    m = ws_nonsym_matrix(circuit, mode="fat")
    return double_matrix(m).matrix


# ---------------------------------------------------------------------------
# partial permanent
# ---------------------------------------------------------------------------


def partial_permanent(b) -> DensePolynomial | FieldElement:
    """per*(B): sum over injective partial maps of the products of chosen
    entries, the empty map contributing 1.

    Accepts a :class:`SymbolicMatrix` (symbolic result, n <= 8) or a square
    list of :class:`FieldElement` rows (evaluated result).
    """
    if isinstance(b, SymbolicMatrix):
        n = b.dim
        if n > 8:
            raise TooLarge(f"symbolic partial permanent capped at 8x8, got {n}")
        spec = b.spec
        variables = b.variables()
        entries = [
            [b.entry(i, j).as_polynomial(variables, spec) for j in range(n)]
            for i in range(n)
        ]
        acc = {0: DensePolynomial.constant(spec.one(), variables)}
    else:
        rows = list(b)
        n = len(rows)
        spec = rows[0][0].spec if n else None
        if n and len(rows[0]) != n:
            raise ValueError("partial permanent needs a square matrix")
        entries = rows
        acc = {0: spec.one()} if n else {}
    if n == 0:
        raise ValueError("empty matrix")
    # row-by-row DP over the set of used columns
    for i in range(n):
        nxt: dict[int, object] = {}
        for mask, val in acc.items():
            cur = nxt.get(mask)
            nxt[mask] = val if cur is None else cur + val  # skip row i
            for j in range(n):
                if (mask >> j) & 1:
                    continue
                term = val * entries[i][j]
                key = mask | (1 << j)
                cur = nxt.get(key)
                nxt[key] = term if cur is None else cur + term
        acc = nxt
    total = None
    for val in acc.values():
        total = val if total is None else total + val
    return total


def plus_identity(a: SymbolicMatrix) -> SymbolicMatrix:
    """A + I, entrywise on the diagonal."""
    spec = a.spec
    one = Weight.const(spec.one())
    rows = [list(r) for r in a.entries]
    for i in range(a.dim):
        w = rows[i][i]
        if not w.is_zero():
            raise ValueError("diagonal already occupied")
        rows[i][i] = one
    return SymbolicMatrix(rows, spec=spec, symmetric=a.symmetric,
                          allow_linear=a.allow_linear)


@dataclass
class PartialPermVerdict:
    ok: bool
    method: str             # "symbolic" | "random"
    lhs: str                # det(A + I)
    rhs: str                # per*(B)^2
    trials: int = 0


def partial_perm_identity(
    b: SymbolicMatrix,
    trials: int = 20,
    seed: int = 0,
    spec: FieldSpec = GF2_16,
) -> PartialPermVerdict:
    """Check det(A + I_2n) = per*(B)^2 in characteristic 2, with
    A = [[0, B], [B^T, 0]]; symbolic for n <= 4, by evaluation otherwise:
    det(A + I) at every trial point from one lockstep elimination, per*(B)
    point by point, the first mismatch reported."""
    if spec.characteristic != 2:
        raise NotCharTwo(f"{spec} does not have characteristic 2")
    if trials < 1:
        raise ValueError(f"identity testing needs at least one trial, not {trials}")
    n = b.dim
    doubled = double_matrix(b)
    api = plus_identity(doubled.matrix)
    if n <= 4:
        from .oracles import symbolic_det

        variables = api.variables()
        lhs = symbolic_det(api, variables=variables)
        pstar = partial_permanent(b)
        rhs = pstar.with_variables(variables) * pstar.with_variables(variables)
        return PartialPermVerdict(
            ok=lhs == rhs, method="symbolic", lhs=lhs.render(), rhs=rhs.render()
        )
    rng = random.Random(seed)
    variables = sorted(set(api.variables()) | set(b.variables()))
    points = [{v: sample_random(spec, rng) for v in variables} for _ in range(trials)]
    lhs_lanes = CompiledMatrix(api, spec).det(points)
    b_rows = CompiledMatrix(b, spec).rows(points)
    zero = spec.zero()
    for t, x in enumerate(lhs_lanes):
        p = partial_permanent([
            [FieldElement(spec, row[j][t]) if j in row else zero for j in range(n)]
            for row in b_rows
        ])
        lhs = FieldElement(spec, x)
        rhs = p * p
        if lhs != rhs:
            return PartialPermVerdict(
                ok=False, method="random", lhs=lhs.render(), rhs=rhs.render(),
                trials=trials,
            )
    return PartialPermVerdict(ok=True, method="random", lhs="", rhs="", trials=trials)


def referee_submatrix_sum(b: SymbolicMatrix) -> DensePolynomial:
    """Sum of per(M)^2 over all square submatrices M of B (empty one gives 1),
    which equals det(A + I_2n) in characteristic 2."""
    from itertools import combinations

    from .oracles import ryser_permanent

    n = b.dim
    if n > 4:
        raise TooLarge("referee cross-check capped at 4x4")
    spec = b.spec
    variables = b.variables()
    total = DensePolynomial.constant(spec.one(), variables)
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = SymbolicMatrix(
                    [[b.entry(i, j) for j in cols] for i in rows],
                    spec=spec,
                    allow_linear=True,
                )
                p = ryser_permanent(sub, variables=variables)
                total = total + p * p
    return total
