"""Weighted graphs, digraphs and symbolic matrices.

The gadget graphs of all constructions carry edge weights that are either a
variable, a field constant, or (in intermediate digraphs only) a scaled
variable.  Vertices are dense 0-based integers; distinguished vertices are
recorded by role name so constructions are reproducible.  A
:class:`WeightedDigraph` is its arc map ``arcs``, the nonzeros of its
adjacency matrix, with no parallel arcs.  An undirected graph, with loops
allowed, is the :class:`WeightedDigraph` subclass :class:`WeightedGraph`
whose arc map is symmetric: each edge is two opposite arcs of one weight,
so its cycle covers are those of that symmetric digraph, and its adjacency
matrix is symmetric by construction.

Every construction ends in one of two closings of an s-t path-sum graph,
recorded with its scalars in a :class:`PathSumCertificate`.  Every
branching program (ABP) is an unsigned path sum, c * sum_P w(P) = f over
its s-t paths P, and :func:`close_abp` is its one closing rule: scale the
arcs into t by c, negate every other arc, merge t into s and give every
other vertex a unit loop, so the cycle covers are the s-t paths, each of
sign +1; then eliminate the unit-loop vertices that only relay a constant
(:func:`eliminate_pivots`).  Without the negation (``sign=1``) the
permanent is the path sum.  The one symmetrization is the vertex split
(:func:`split_vertices`): every vertex but s (and t, when |G| is even)
becomes an in/out pair joined by a link of weight -1, so a program path
through k split vertices gains the sign (-1)^k.  :func:`close_symmetric`
joins t back to s of such a split with the sign that |G| fixes, which
cancels it, so its determinant is again c * sum_P w(P) over the program's
s-t paths.  The tests audit each certificate by enumeration, with the
oracles' :func:`~symdet.oracles.check_abp_certificate` and
:func:`~symdet.oracles.check_symmetric_certificate`; this module imports
neither the oracles nor the symbolic polynomials.

:class:`SymbolicMatrix` is the target language: a square matrix whose
entries are :class:`Weight` values, stored as its nonzeros only, one
``{column: weight}`` dict per row (the row-compressed storage of Gustavson,
"Two fast algorithms for sparse matrices", 1978).  Gadget matrices of
dimension n have O(n) nonzeros, so building, rendering, parsing and
compiling read and write the nonzeros; the dense grid is a view for the
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .circuits import VAR, Circuit, is_variable_name
from .fields import RATIONAL, FieldElement, FieldSpec, embed, half, parse_element


VARW = "var"
CONSTW = "const"
SCALEDW = "scaled"


class Weight:
    """Edge weight: a variable, a constant, or a constant multiple of a variable.

    An immutable value, slotted like :class:`~symdet.circuits.Gate`:
    ``__init__`` writes each slot through its descriptor, past the
    ``__setattr__`` guard that makes assignment raise, and equality and
    hashing are by value."""

    __slots__ = __match_args__ = ("kind", "name", "coeff")

    def __init__(self, kind: str, name: str | None = None, coeff: FieldElement | None = None):
        _set_kind(self, kind)
        _set_name(self, name)
        _set_coeff(self, coeff)

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    def __delattr__(self, name):
        raise AttributeError("Weight is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.name, self.coeff) == (other.kind, other.name, other.coeff)

    def __hash__(self) -> int:
        return hash((self.kind, self.name, self.coeff))

    def __reduce__(self):
        return Weight, (self.kind, self.name, self.coeff)

    @staticmethod
    def var(name: str) -> "Weight":
        return Weight(VARW, name=name)

    @staticmethod
    def const(c: FieldElement) -> "Weight":
        return Weight(CONSTW, coeff=c)

    @staticmethod
    def scaled(name: str, c: FieldElement) -> "Weight":
        if c.is_one():
            return Weight(VARW, name=name)
        return Weight(SCALEDW, name=name, coeff=c)

    def is_zero(self) -> bool:
        return self.kind != VARW and self.coeff.is_zero()

    def scale(self, c: FieldElement) -> "Weight":
        if self.kind == VARW:
            return Weight.scaled(self.name, c)
        if self.kind == CONSTW:
            return Weight.const(self.coeff * c)
        return Weight.scaled(self.name, self.coeff * c)

    def eval(self, assignment: Mapping[str, FieldElement], spec: FieldSpec) -> FieldElement:
        if self.kind == CONSTW:
            return embed(self.coeff, spec)
        x = assignment[self.name]
        if self.kind == SCALEDW:
            x = embed(self.coeff, spec) * x
        return x

    def render(self) -> str:
        if self.kind == VARW:
            return self.name
        if self.kind == CONSTW:
            return self.coeff.render()
        return f"{self.coeff.render()}*{self.name}"

    def __repr__(self) -> str:
        return f"Weight({self.render()})"


_set_kind, _set_name, _set_coeff = (Weight.__dict__[slot].__set__ for slot in Weight.__slots__)


def input_weight(gate) -> Weight:
    """The arc weight an input gate puts on a branching program."""
    return Weight.var(gate.name) if gate.kind == VAR else Weight.const(gate.value)


def parse_weight(token: str, spec: FieldSpec) -> Weight:
    """A variable ``x``, a constant ``c`` or a scaled variable ``c*x``; the
    variable name must pass :func:`~symdet.circuits.is_variable_name`."""
    token = token.strip()
    try:
        if "*" in token:
            ctext, name = token.split("*", 1)
            name = name.strip()
            coeff = parse_element(ctext, spec)
        else:
            head = token.lstrip("-")
            if head[:1].isdigit() or head[:2] in ("0x", "0X"):
                return Weight.const(parse_element(token, spec))
            name, coeff = token, None
    except ValueError as exc:  # a malformed constant
        raise ValueError(f"malformed matrix entry {token!r}: {exc}") from None
    if not is_variable_name(name):
        raise ValueError(f"malformed matrix entry {token!r}: bad variable name {name!r}")
    return Weight.var(name) if coeff is None else Weight.scaled(name, coeff)


class WeightedDigraph:
    """Arc-weighted digraph; zero-weight arcs are omitted, no parallel arcs."""

    def __init__(self, spec: FieldSpec = RATIONAL):
        self.spec = spec
        self.n = 0
        self.arcs: dict[tuple[int, int], Weight] = {}
        self.roles: dict[str, int] = {}

    def add_vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def add_arc(self, u: int, v: int, w: Weight) -> None:
        if w.is_zero():
            return
        if (u, v) in self.arcs:
            raise ValueError(f"parallel arc {u}->{v}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"arc {u}->{v} outside vertex range")
        self.arcs[(u, v)] = w

    def copy(self) -> "WeightedDigraph":
        g = type(self)(self.spec)
        g.n, g.arcs, g.roles = self.n, dict(self.arcs), dict(self.roles)
        return g

    def __repr__(self) -> str:
        return f"<digraph n={self.n} arcs={len(self.arcs)}>"


class WeightedGraph(WeightedDigraph):
    """Edge-weighted undirected graph with loops and no parallel edges,
    stored as its symmetric digraph: an edge u-v is the two arcs u->v and
    v->u of the same weight, a loop is one arc."""

    def add_edge(self, u: int, v: int, w: Weight) -> None:
        self.add_arc(u, v, w)
        if u != v:
            self.add_arc(v, u, w)

    @property
    def edges(self) -> dict[tuple[int, int], Weight]:
        """Each edge once, keyed (u, v) with u <= v."""
        return {(u, v): w for (u, v), w in self.arcs.items() if u <= v}

    def __repr__(self) -> str:
        return f"<graph n={self.n} edges={len(self.edges)}>"


def _stored(w: Weight) -> bool:
    """Whether a matrix keeps ``w``: everything but a constant zero.  A
    scaled zero ``0*x`` stays, so its variable still counts."""
    return w.kind != CONSTW or not w.coeff.is_zero()


class SymbolicMatrix:
    """Square matrix whose entries are variables or field constants.

    ``rows[i]`` maps column j to entry (i, j) for the stored entries, in
    column order; a constant zero is never stored.  Built from such rows or
    from a dense list of lists.  ``entries`` and ``entry`` read the dense
    view, with ``Weight.const(spec.zero())`` in the cells left out.
    """

    def __init__(
        self,
        rows: Sequence[dict[int, Weight] | Sequence[Weight]],
        spec: FieldSpec = RATIONAL,
        symmetric: bool = False,
    ):
        n = len(rows)
        self._store(tuple(_sparse_row(row, n) for row in rows), spec, symmetric)

    @classmethod
    def _of_stored_rows(cls, rows: list[dict[int, Weight]], spec: FieldSpec,
                        symmetric: bool) -> "SymbolicMatrix":
        """The matrix of rows that :func:`parse_matrix` and
        :func:`adjacency` build in stored form, in column order, in range
        and without a constant zero, unchecked but for the symmetry."""
        m = cls.__new__(cls)
        m._store(tuple(rows), spec, symmetric)
        return m

    def _store(self, rows: tuple[dict[int, Weight], ...], spec: FieldSpec,
               symmetric: bool) -> None:
        self.dim = len(rows)
        self.rows = rows
        self.spec = spec
        self.symmetric = symmetric
        self._zero = Weight.const(spec.zero())
        if symmetric:
            # the first broken pair of a dense scan: smallest i, then j < i;
            # parse_matrix and adjacency give both halves one Weight, so
            # identity settles almost every pair before ==
            broken = [
                (max(i, j), min(i, j))
                for i, row in enumerate(rows)
                for j, w in row.items()
                if (x := rows[j].get(i)) is not w and x != w
            ]
            if broken:
                raise ValueError("symmetry broken at ({},{})".format(*min(broken)))

    @property
    def entries(self) -> tuple[tuple[Weight, ...], ...]:
        """The dense grid, built on each access."""
        return tuple(tuple(row.get(j, self._zero) for j in range(self.dim))
                     for row in self.rows)

    def entry(self, i: int, j: int) -> Weight:
        return self.rows[i].get(j, self._zero)

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({w.name for row in self.rows for w in row.values()
                             if w.kind != CONSTW}))

    def with_entry(self, i: int, j: int, w: Weight) -> "SymbolicMatrix":
        """Copy with one entry replaced (symmetry flag dropped)."""
        rows = [dict(r) for r in self.rows]
        rows[i][j] = w
        return SymbolicMatrix(rows, spec=self.spec, symmetric=False)

    def _dense_text(self) -> list[list[str]]:
        """Each row's rendered cells: one zero token, then the nonzeros."""
        zero = self._zero.render()
        out = []
        for row in self.rows:
            cells = [zero] * self.dim
            for j, w in row.items():
                cells[j] = w.render()
            out.append(cells)
        return out

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "symmetric": self.symmetric,
            "entries": self._dense_text(),
        }

    def __repr__(self) -> str:
        return f"<{'symmetric ' if self.symmetric else ''}matrix dim={self.dim}>"


def _sparse_row(row: dict[int, Weight] | Sequence[Weight], n: int) -> dict[int, Weight]:
    """The stored entries of one row in column order, the order a dense scan
    visits them, so compiling and eliminating work as on the dense grid."""
    if isinstance(row, dict):
        if any(not 0 <= j < n for j in row):
            raise ValueError("matrix entry outside the square")
        return {j: row[j] for j in sorted(row) if _stored(row[j])}
    if len(row) != n:
        raise ValueError("matrix is not square")
    return {j: w for j, w in enumerate(row) if _stored(w)}


def adjacency(g: WeightedDigraph) -> SymbolicMatrix:
    """Adjacency matrix, symmetric exactly when ``g`` is a graph.  The arcs
    are bucketed by column, then the buckets filled into the rows column by
    column, so every row is stored in column order as it is built; the
    range of every arc is :meth:`WeightedDigraph.add_arc`'s check."""
    cols: list[list[tuple[int, Weight]]] = [[] for _ in range(g.n)]
    for (u, v), w in g.arcs.items():
        if _stored(w):
            cols[v].append((u, w))
    rows: list[dict[int, Weight]] = [{} for _ in range(g.n)]
    for v, col in enumerate(cols):
        for u, w in col:
            rows[u][v] = w
    return SymbolicMatrix._of_stored_rows(rows, g.spec, isinstance(g, WeightedGraph))


@dataclass
class PathSumCertificate:
    """A gadget graph and the path sums it realizes: for every gate a of
    ``targets``, ``scalars[a]`` times the sum of w(P) over the paths P from
    s to ``targets[a]`` is the value f_a of gate a of ``source``.  The sum
    is unsigned for a branching program
    (:func:`~symdet.oracles.check_abp_certificate`); a symmetric gadget
    graph counts each path P with the sign (-1)^((|P| - u)/2) of its
    closing, u = 2 - |G| mod 2
    (:func:`~symdet.oracles.check_symmetric_certificate`)."""

    graph: WeightedDigraph
    s: int
    targets: dict[int, int]
    scalars: dict[int, FieldElement]
    source: Circuit

    def output(self) -> tuple[int, FieldElement]:
        """The target vertex and scalar of the source's first output."""
        out = self.source.outputs[0]
        return self.targets[out], self.scalars[out]


def close_abp(
    dg: WeightedDigraph, s: int, t: int, c: FieldElement, sign: int = -1
) -> SymbolicMatrix:
    """The matrix whose determinant, or with ``sign=1`` permanent, is
    c * sum_P w(P) over the s-t paths P of an acyclic branching program.

    Every s-t path crosses exactly one arc into t, and those arcs are
    scaled by c; with ``sign=-1`` every other arc is negated.  t merges
    into s and every other vertex gets a unit loop, so a cycle cover is one
    s-t path closed through s, a cycle on |P| - 1 vertices, completed by
    loops: its sign (-1)^|P| cancels against the |P| - 2 negated arcs.
    Then every singleton pivot is eliminated (:func:`eliminate_pivots`,
    with ``sign``), which keeps the determinant (permanent); the rows are
    the kept program vertices in order, with t and the eliminated vertices
    removed.  ``dg`` is left unchanged."""
    keep = [v for v in range(dg.n) if v != t]
    renum = {v: i for i, v in enumerate(keep)}
    renum[t] = renum[s]
    merged = WeightedDigraph(dg.spec)
    merged.n = len(keep)
    flip = dg.spec.from_int(sign)
    for (u, v), w in dg.arcs.items():
        merged.add_arc(renum[u], renum[v], w.scale(c if v == t else flip))
    unit = Weight.const(dg.spec.one())
    for v in keep:
        if v != s:
            merged.add_arc(renum[v], renum[v], unit)
    return adjacency(eliminate_pivots(merged, sign))


def eliminate_pivots(dg: WeightedDigraph, sign: int = -1) -> WeightedDigraph:
    """The digraph of the adjacency matrix M with every singleton pivot
    eliminated, in one worklist pass over the vertices in order.

    A singleton pivot is a vertex k whose loop is the constant 1 and whose
    column (row) holds one other nonzero, a constant a = M_ik (b = M_kj).
    Adding ``sign`` * a times row k to row i (b times column k to column j)
    clears that entry and leaves k's column (row) a unit vector, so k's row
    and column go.  With ``sign=-1`` the determinant stays, with ``sign=1``
    the permanent (by multilinearity); in characteristic 2 both agree.  A
    pivot is taken only when every updated cell stays one term, that is
    empty or a constant meeting a constant (a sum of 0 drops the arc), and
    when k's line is no longer than the line it moves into, so an entry only
    ever moves into a line at least as long and the pass stays near-linear.
    Kept vertices keep their order; ``dg`` is left unchanged."""
    n = dg.n
    # off-diagonal arcs indexed both ways, the loops apart
    out: list[dict[int, Weight]] = [{} for _ in range(n)]
    inn: list[dict[int, Weight]] = [{} for _ in range(n)]
    diag: list[Weight | None] = [None] * n
    for (u, v), w in dg.arcs.items():
        if u == v:
            diag[u] = w
        else:
            out[u][v] = w
            inn[v][u] = w

    def is_unit(w: Weight | None) -> bool:
        return w is not None and w.kind == CONSTW and w.coeff.is_one()

    # a stack of the vertices to try, vertex 0 on top; a vertex goes back on
    # whenever one of its lines changes
    work = [k for k in range(n - 1, -1, -1)
            if is_unit(diag[k]) and (len(inn[k]) == 1 or len(out[k]) == 1)]
    queued = [False] * n
    for k in work:
        queued[k] = True
    alive = [True] * n

    def push(v: int) -> None:
        if not queued[v]:
            queued[v] = True
            work.append(v)

    def pivot(k: int, fwd: list[dict[int, Weight]], back: list[dict[int, Weight]]) -> bool:
        """Move k's ``fwd`` line into that of the one entry i of its ``back``
        line, if that keeps every cell one term."""
        ((i, a),) = back[k].items()
        moved, target = fwd[k], fwd[i]
        if a.kind != CONSTW or len(moved) > len(target):
            return False
        for j, b in moved.items():  # check every cell before any arithmetic
            cur = diag[i] if j == i else target.get(j)
            if cur is not None and (cur.kind != CONSTW or b.kind != CONSTW):
                return False
        f = a.coeff if sign > 0 else -a.coeff
        del target[k], back[k][i]
        for j, b in moved.items():
            del back[j][k]
            w = b.scale(f)
            cur = diag[i] if j == i else target.get(j)
            if cur is not None:
                w = Weight.const(cur.coeff + w.coeff)
            if j == i:
                diag[i] = None if w.is_zero() else w
            elif w.is_zero():
                del target[j], back[j][i]
            else:
                target[j] = back[j][i] = w
            push(j)
        moved.clear()
        alive[k] = False
        push(i)
        return True

    while work:
        k = work.pop()
        queued[k] = False
        if not is_unit(diag[k]):
            continue
        if len(inn[k]) == 1 and pivot(k, out, inn):
            continue
        if len(out[k]) == 1:
            pivot(k, inn, out)
    renum = list(accumulate(alive, initial=0))  # new index of each kept vertex
    reduced = WeightedDigraph(dg.spec)
    reduced.n = renum[-1]
    for u in range(n):
        if alive[u]:
            if diag[u] is not None:
                reduced.arcs[renum[u], renum[u]] = diag[u]
            for v, w in out[u].items():
                reduced.arcs[renum[u], renum[v]] = w
    return reduced


def split_vertices(
    dg: WeightedDigraph, single: Iterable[int]
) -> tuple[WeightedGraph, list[tuple[int, int]]]:
    """Undirected vertex split of a digraph: every vertex not in ``single``
    becomes an in copy and an out copy joined by a link of weight -1, and
    arc (u, v) becomes the edge from the out copy of u to the in copy of v.
    Vertices keep their order, in copy first; an unsplit vertex is its own
    in and out copy and keeps its roles.  Returns the graph and the (in,
    out) copies of every vertex."""
    g = WeightedGraph(dg.spec)
    single = set(single)
    copies = []
    for v in range(dg.n):
        v_in = g.add_vertex()
        copies.append((v_in, v_in if v in single else g.add_vertex()))
    link = Weight.const(-dg.spec.one())
    for v_in, v_out in copies:
        if v_in != v_out:
            g.add_edge(v_in, v_out, link)
    for (u, v), w in dg.arcs.items():
        g.add_edge(copies[u][1], copies[v][0], w)
    g.roles = {role: copies[v][0] for role, v in dg.roles.items() if v in single}
    return g, copies


def close_symmetric(g: WeightedGraph, s: int, t: int, c: FieldElement) -> SymbolicMatrix:
    """The symmetric matrix closing the s-t paths of ``g``, the vertex split
    of a branching program (:func:`split_vertices`), back into s, of
    determinant c * sum_P w(P) over the program's s-t paths P: the edge t-s
    of weight sign*c/2 when |G| is odd, else one more vertex v with edges
    t-v of weight c/2 and v-s of weight sign.  A program path through k
    split vertices is a path of 2k + u vertices of G, u = 2 - |G| mod 2 of
    them whole, whose links give it the sign (-1)^k.  A cycle cover runs it
    through the closing and completes it by the unique matching of the
    rest, of sign (-1)^((|G| - 2k - u)/2), which sign = (-1)^((|G| - u)/2)
    turns into (-1)^k; c/2 counts each path once for its two directions.
    ``g`` is left unchanged."""
    whole = 2 - g.n % 2  # s, and t when |G| is even: on every s-t path
    sign = g.spec.from_int((-1) ** ((g.n - whole) // 2 % 2))
    g = g.copy()
    if g.n % 2:
        g.add_edge(t, s, Weight.const(sign * c * half(g.spec)))
    else:
        v = g.add_vertex()
        g.add_edge(t, v, Weight.const(c * half(g.spec)))
        g.add_edge(v, s, Weight.const(sign))
    return adjacency(g)


def render_matrix(m: SymbolicMatrix) -> str:
    """Matrix text format: header ``t [symmetric]``, then t rows of entries."""
    head = f"{m.dim} symmetric" if m.symmetric else f"{m.dim}"
    return "\n".join([head] + [" ".join(cells) for cells in m._dense_text()]) + "\n"


def parse_matrix(text: str, spec: FieldSpec = RATIONAL) -> SymbolicMatrix:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if not (head[0].isdecimal() and head[1:] in ([], ["symmetric"])):
        raise ValueError(f"malformed matrix header '{lines[0]}'")
    dim = int(head[0])
    symmetric = len(head) == 2
    if len(lines) - 1 != dim:
        raise ValueError(f"matrix header gives dimension {dim} but {len(lines) - 1} rows follow")
    # gadget matrices repeat a handful of tokens, so parse each one once;
    # only the tokens of stored entries are kept
    weights: dict[str, Weight] = {}
    zeros: set[str] = set()
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        tokens = ln.split()
        if len(tokens) != dim:
            raise ValueError(f"matrix row {i} has {len(tokens)} entries, header gives dimension {dim}")
        # unseen tokens in reading order, so the first malformed one raises
        for tok in sorted(set(tokens).difference(weights, zeros), key=tokens.index):
            w = parse_weight(tok, spec)
            if _stored(w):
                weights[tok] = w
            else:
                zeros.add(tok)
        rows.append({j: weights[tok] for j, tok in enumerate(tokens) if tok not in zeros})
    return SymbolicMatrix._of_stored_rows(rows, spec, symmetric)


def export_dot(g: WeightedDigraph) -> str:
    """Graphviz rendering, each edge of a graph once; distinguished vertices
    keep their role names and are double-circled."""
    directed = not isinstance(g, WeightedGraph)
    name_of = {v: role for role, v in sorted(g.roles.items())}

    def node(v: int) -> str:
        return name_of.get(v, f"v{v}")

    lines = ["digraph G {" if directed else "graph G {"]
    for v in range(g.n):
        shape = " [shape=doublecircle]" if v in name_of else ""
        lines.append(f"  {node(v)}{shape};")
    link = "->" if directed else "--"
    for (u, v), w in sorted((g.arcs if directed else g.edges).items()):
        lines.append(f'  {node(u)} {link} {node(v)} [label="{w.render()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def entries_alphabet_ok(
    m: SymbolicMatrix, extra_allowed: Iterable[FieldElement] = ()
) -> bool:
    """True iff every entry is a variable or in {0, 1, -1, 1/2} + extras."""
    spec = m.spec
    allowed = {
        spec.zero(),
        spec.one(),
        -spec.one(),
    }
    if spec.characteristic != 2:
        allowed.add(spec.from_fraction("1/2"))
    allowed.update(extra_allowed)
    for row in m.rows:
        for w in row.values():
            if w.kind == SCALEDW:
                return False
            if w.kind == CONSTW and w.coeff not in allowed:
                return False
    return True
