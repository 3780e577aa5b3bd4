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

per*(B) comes from one row-by-row DP over the set of used columns, written
once and run on three kinds of value.  Each step of the DP is one
multiply-add, a mask's value times an entry added into the value of the
mask with that entry's column set, and the last row is folded straight into
the total, so no map is built for it and no sum over 2^n masks is taken at
the end.  The symbolic per*(B) runs it on plain ``{monomial: coefficient}``
maps whose monomials are ints packing one exponent per byte, so a variable
entry is one addition per term, a unit coefficient skips the multiplication
and a multiply-add is one pass over the mask's map.  The packing is
big-endian in the variable order, so :func:`render_partial_permanent` (what
``symdet pperm`` prints) formats the map with
:func:`~symdet.polynomials.render_packed` without unpacking a monomial, and
:func:`partial_permanent` builds a :class:`DensePolynomial` from it for
library callers.  The identity check runs it on lanes, lists of plain ints
with one int per trial point (see :mod:`symdet.verify`), its multiply-add
the lane kernel ``IntArith.addmul``, so every trial comes from one pass, as
det(A + I) comes from one lockstep elimination, and
:func:`~symdet.verify.compare_lanes` makes the randomized verdict for every
n.  A matrix of field elements runs it on the elements themselves.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

from .circuits import Circuit
from .fields import FieldElement, FieldError, FieldSpec, GF2_16, MixedFields, embed
from .graphs import CONSTW, VARW, SymbolicMatrix, Weight, WeightedGraph, adjacency
from .polynomials import DensePolynomial, TooLarge, render_packed
from .weakly_skew import ws_nonsym_matrix
from .verify import CompiledMatrix, Verdict, compare_lanes


class NotCharTwo(FieldError):
    """Construction only makes sense over a field of characteristic 2."""


@dataclass
class BipartiteDoubling:
    graph: WeightedGraph            # bipartite double, vertices v_s then v_t
    matrix: SymbolicMatrix          # symmetric adjacency [[0, M], [M^T, 0]]


def double_matrix(m: SymbolicMatrix) -> BipartiteDoubling:
    """Bipartite doubling of the digraph represented by a square matrix."""
    r = m.dim
    g = WeightedGraph(m.spec)
    g.n = 2 * r
    for i, row in enumerate(m.rows):
        for j, w in row.items():
            g.add_edge(i, r + j, w)  # drops zero weights
    return BipartiteDoubling(graph=g, matrix=adjacency(g))


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


def _per_star(rows: list[dict], one, add, mul, addmul):
    """per* by a row-by-row DP over the set of used columns.

    ``rows[i]`` maps column j to entry (i, j), zero entries left out; ``one``
    is the empty map's value, and the result for no rows.  ``add(x, y)`` and
    ``addmul(x, v, e)``, which is x + v * e, may reuse ``x``; ``mul(v, e)``
    returns a fresh value.  Every value in the DP is a distinct object and
    is read only while its own mask is expanded, so reuse is safe.  The last
    row is folded straight into the total: a mask's value is added once,
    for the row left unmatched, and once times each entry in a free column.
    """
    if not rows:
        return one
    acc = {0: one}
    for row in rows[:-1]:
        nxt: dict[int, object] = {}
        get = nxt.get
        for mask, val in acc.items():
            cur = get(mask)
            nxt[mask] = val if cur is None else add(cur, val)  # row unmatched
            for j, e in row.items():
                bit = 1 << j
                if mask & bit:
                    continue
                cur = get(mask | bit)
                nxt[mask | bit] = mul(val, e) if cur is None else addmul(cur, val, e)
        acc = nxt
    last, total = rows[-1], None
    for mask, val in acc.items():
        for j, e in last.items():
            if not mask >> j & 1:
                total = mul(val, e) if total is None else addmul(total, val, e)
        total = val if total is None else add(total, val)
    return total


def _merge(dst: dict, src: dict) -> dict:
    """Add the monomial map ``src`` into ``dst``, dropping cancelled terms."""
    sums = {mono: dst[mono] + src[mono] for mono in dst.keys() & src.keys()}
    dst.update(src)
    for mono, c in sums.items():
        if c:
            dst[mono] = c
        else:
            del dst[mono]
    return dst


def _times(val: dict, entry: tuple[int, FieldElement | None]) -> dict:
    """A monomial map times an entry ``(shift, coefficient)``: the shift
    bumps one packed exponent (0 for a constant), a unit coefficient is None."""
    shift, c = entry
    if c is None:
        return {mono + shift: x for mono, x in val.items()}
    return {mono + shift: x * c for mono, x in val.items()}


def _addmul(dst: dict, src: dict, entry: tuple[int, FieldElement | None]) -> dict:
    """``dst + src * entry`` into ``dst`` (see :func:`_times`), in one pass
    over ``src``, dropping cancelled terms."""
    shift, c = entry
    get = dst.get
    for mono, x in src.items():
        if c is not None:
            x = x * c
        mono += shift
        y = get(mono)
        if y is not None:
            x = y + x
            if not x:
                del dst[mono]
                continue
        dst[mono] = x
    return dst


def _expand(b: SymbolicMatrix) -> tuple[tuple[str, ...], dict[int, FieldElement]]:
    """The variables of ``b`` and its symbolic per*, n <= 8, as a map from
    packed monomials to nonzero coefficients.

    A monomial is an int packing one exponent per byte, big-endian, so
    ``variables[0]`` has the most significant byte and int order is
    exponent-tuple order (see :func:`~symdet.polynomials.pack`).  An exponent
    is at most n <= 8 (one factor per row), so it never carries into the next
    byte and a variable entry is one addition.
    """
    if b.dim > 8:
        raise TooLarge(f"symbolic partial permanent capped at 8x8, got {b.dim}")
    if b.dim == 0:
        raise ValueError("empty matrix")
    spec, variables = b.spec, b.variables()
    shift = {v: 8 * k for k, v in enumerate(reversed(variables))}
    packed = []
    for row in b.rows:
        r = {}
        for j, w in row.items():
            c = None if w.kind == VARW else embed(w.coeff, spec)
            if c is not None and c.is_zero():
                continue
            r[j] = (0 if w.kind == CONSTW else 1 << shift[w.name],
                    None if c is None or c.is_one() else c)
        packed.append(r)
    return variables, _per_star(packed, {0: spec.one()}, _merge, _times, _addmul)


def render_partial_permanent(b: SymbolicMatrix) -> str:
    """The text form of the symbolic per*(B), ``partial_permanent(b).render()``,
    formatted straight from the packed monomials."""
    return render_packed(*_expand(b))


def partial_permanent(b) -> DensePolynomial | FieldElement:
    """per*(B): sum over injective partial maps of the products of chosen
    entries, the empty map contributing 1.

    Accepts a :class:`SymbolicMatrix` (symbolic result, n <= 8) or a square
    list of :class:`FieldElement` rows (evaluated result).
    """
    if isinstance(b, SymbolicMatrix):
        variables, total = _expand(b)
        nv = len(variables)
        return DensePolynomial(
            b.spec, variables, {tuple(m.to_bytes(nv, "big")): c for m, c in total.items()})
    rows = [list(row) for row in b]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("partial permanent needs a square matrix")
    if not rows:
        raise ValueError("empty matrix")
    spec = rows[0][0].spec
    if any(x.spec != spec for row in rows for x in row):
        raise MixedFields("partial permanent of entries from several fields")
    rows = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in rows]
    return _per_star(rows, spec.one(), operator.add, operator.mul,
                     lambda x, v, e: x + v * e)


def per_star_lanes(compiled: CompiledMatrix, lanes: Mapping[str, list[int]], t: int) -> list[int]:
    """per*(B), for B compiled into a finite field, at ``t`` points given as
    the lane of each variable, from one DP pass on lanes of one int per point;
    a constant entry of B, a scalar in the compiled rows, is widened into a
    lane once, here."""
    arith = compiled.arith
    rows = [{j: e if type(e) is list else [e] * t for j, e in row.items()}
            for row in compiled.lane_rows(lanes, t)]
    return _per_star(rows, [1] * t, arith.add, arith.mul, arith.addmul)


def plus_identity(a: SymbolicMatrix) -> SymbolicMatrix:
    """A + I, entrywise on the diagonal."""
    spec = a.spec
    one = Weight.const(spec.one())
    rows = [dict(r) for r in a.rows]
    for i, row in enumerate(rows):
        w = row.get(i)
        if w is not None and not w.is_zero():
            raise ValueError("diagonal already occupied")
        row[i] = one
    return SymbolicMatrix(rows, spec=spec, symmetric=a.symmetric)


def partial_perm_identity(
    b: SymbolicMatrix,
    trials: int = 20,
    seed: int = 0,
    spec: FieldSpec = GF2_16,
) -> Verdict:
    """Check det(A + I_2n) = per*(B)^2 in characteristic 2, with
    A = [[0, B], [B^T, 0]], in ``spec``: compiling both sides embeds B's
    constants (:class:`MixedFields` when one has no image).  Both sides have
    degree at most 2n; :func:`~symdet.verify.compare_lanes` compares them at
    ``trials`` random points, det(A + I) from one lockstep elimination and
    per*(B) from one DP pass on lanes."""
    if spec.characteristic != 2:
        raise NotCharTwo(f"{spec} does not have characteristic 2")
    n = b.dim
    api = CompiledMatrix(plus_identity(double_matrix(b).matrix), spec)
    per = CompiledMatrix(b, spec)
    # double_matrix drops a scaled entry with coefficient 0, B's slots keep it
    variables = tuple(sorted(set(api.variables) | set(per.variables)))

    def sides(lanes, t):
        pstar = per_star_lanes(per, lanes, t)
        return api.lane_det(lanes, t), api.arith.mul(pstar, pstar)

    return compare_lanes(sides, variables, spec, trials=trials, seed=seed,
                         dimension=2 * n, degree_bound=2 * n)
