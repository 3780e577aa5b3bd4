"""Weighted graphs, digraphs and symbolic matrices.

The gadget graphs of all constructions carry edge weights that are either a
variable, a field constant, or (in intermediate digraphs only) a scaled
variable.  Vertices are dense 0-based integers; distinguished vertices are
recorded by role name so constructions are reproducible.  Graphs are
undirected with loops allowed and no parallel edges; a graph's adjacency
matrix is symmetric by construction.

:class:`SymbolicMatrix` is the target language: a dense square grid whose
entries are :class:`Weight` values.  In strict mode (the default) scaled
variables are rejected in final matrices; the comparison mode used for
accounting against fixed-dimension constructions may allow them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .fields import RATIONAL, FieldElement, FieldSpec, embed, parse_element
from .polynomials import DensePolynomial


VARW = "var"
CONSTW = "const"
SCALEDW = "scaled"


@dataclass(frozen=True)
class Weight:
    """Edge weight: a variable, a constant, or a constant multiple of a variable."""

    kind: str
    name: str | None = None
    coeff: FieldElement | None = None

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

    def as_polynomial(self, variables, spec: FieldSpec) -> DensePolynomial:
        if self.kind == CONSTW:
            return DensePolynomial.constant(embed(self.coeff, spec), variables)
        p = DensePolynomial.variable(self.name, variables, spec)
        if self.kind == SCALEDW:
            p = p.scale(embed(self.coeff, spec))
        return p

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


def parse_weight(token: str, spec: FieldSpec) -> Weight:
    token = token.strip()
    if "*" in token:
        ctext, name = token.split("*", 1)
        return Weight.scaled(name.strip(), parse_element(ctext, spec))
    head = token.lstrip("-")
    if head[:1].isdigit() or head[:2] in ("0x", "0X"):
        return Weight.const(parse_element(token, spec))
    return Weight.var(token)


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

    def __repr__(self) -> str:
        return f"<digraph n={self.n} arcs={len(self.arcs)}>"


class WeightedGraph:
    """Edge-weighted undirected graph with loops, no parallel edges."""

    def __init__(self, spec: FieldSpec = RATIONAL):
        self.spec = spec
        self.n = 0
        self.edges: dict[tuple[int, int], Weight] = {}  # keys (u, v) with u <= v
        self.roles: dict[str, int] = {}

    def add_vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int, w: Weight) -> None:
        if w.is_zero():
            return
        key = (min(u, v), max(u, v))
        if key in self.edges:
            raise ValueError(f"parallel edge {key}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge {u}-{v} outside vertex range")
        self.edges[key] = w

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def remove_edge(self, u: int, v: int) -> Weight:
        return self.edges.pop((min(u, v), max(u, v)))

    def copy(self) -> "WeightedGraph":
        g = WeightedGraph(self.spec)
        g.n, g.edges, g.roles = self.n, dict(self.edges), dict(self.roles)
        return g

    def neighbors(self, u: int) -> list[tuple[int, Weight]]:
        out = []
        for (a, b), w in self.edges.items():
            if a == u:
                out.append((b, w))
            elif b == u:
                out.append((a, w))
        return out

    def __repr__(self) -> str:
        return f"<graph n={self.n} edges={len(self.edges)}>"


class SymbolicMatrix:
    """Dense square matrix whose entries are variables or field constants."""

    def __init__(
        self,
        entries: list[list[Weight]],
        spec: FieldSpec = RATIONAL,
        symmetric: bool = False,
        allow_linear: bool = False,
    ):
        self.dim = len(entries)
        for row in entries:
            if len(row) != self.dim:
                raise ValueError("matrix is not square")
        self.entries = tuple(tuple(row) for row in entries)
        self.spec = spec
        self.symmetric = symmetric
        self.allow_linear = allow_linear
        if symmetric:
            for i in range(self.dim):
                for j in range(i):
                    if self.entries[i][j] != self.entries[j][i]:
                        raise ValueError(f"symmetry broken at ({i},{j})")
        if not allow_linear:
            for row in self.entries:
                for w in row:
                    if w.kind == SCALEDW:
                        raise ValueError(
                            "scaled-variable entry in strict-mode matrix; "
                            "pass allow_linear=True for comparison mode"
                        )

    def entry(self, i: int, j: int) -> Weight:
        return self.entries[i][j]

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for row in self.entries:
            for w in row:
                if w.kind != CONSTW:
                    seen.setdefault(w.name, None)
        return tuple(sorted(seen))

    def with_entry(self, i: int, j: int, w: Weight) -> "SymbolicMatrix":
        """Copy with one entry replaced (symmetry flag dropped)."""
        rows = [list(r) for r in self.entries]
        rows[i][j] = w
        return SymbolicMatrix(rows, spec=self.spec, symmetric=False,
                              allow_linear=self.allow_linear)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "symmetric": self.symmetric,
            "entries": [[w.render() for w in row] for row in self.entries],
        }

    def __repr__(self) -> str:
        return f"<{'symmetric ' if self.symmetric else ''}matrix dim={self.dim}>"


def adjacency(g: WeightedGraph | WeightedDigraph) -> SymbolicMatrix:
    """Adjacency matrix; graphs expand to symmetric digraphs."""
    zero = Weight.const(g.spec.zero())
    rows = [[zero] * g.n for _ in range(g.n)]
    if isinstance(g, WeightedDigraph):
        for (u, v), w in g.arcs.items():
            rows[u][v] = w
        return SymbolicMatrix(rows, spec=g.spec, symmetric=False, allow_linear=True)
    for (u, v), w in g.edges.items():
        rows[u][v] = w
        rows[v][u] = w
    return SymbolicMatrix(rows, spec=g.spec, symmetric=True, allow_linear=True)


def close_abp(
    dg: WeightedDigraph,
    s: int,
    t: int,
    weight: Callable[[int, int, Weight], Weight],
    loop: Callable[[int], Weight],
) -> WeightedDigraph:
    """Close an acyclic s-t branching program into a digraph whose cycle
    covers are its s-t paths, each closed through s and completed by loops:
    t merges into s, arc (u, v) gets weight ``weight(u, v, w)`` and every
    vertex except s gets a loop of weight ``loop(v)``.  Vertices keep their
    order with t removed; ``dg`` is left unchanged."""
    keep = [v for v in range(dg.n) if v != t]
    renum = {v: i for i, v in enumerate(keep)}
    renum[t] = renum[s]
    merged = WeightedDigraph(dg.spec)
    merged.n = len(keep)
    for (u, v), w in dg.arcs.items():
        merged.add_arc(renum[u], renum[v], weight(u, v, w))
    for v in keep:
        if v != s:
            merged.add_arc(renum[v], renum[v], loop(v))
    merged.roles["s"] = renum[s]
    return merged


def render_matrix(m: SymbolicMatrix) -> str:
    """Matrix text format: header ``t [symmetric]``, then t rows of entries."""
    head = f"{m.dim} symmetric" if m.symmetric else f"{m.dim}"
    lines = [head]
    for row in m.entries:
        lines.append(" ".join(w.render() for w in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, spec: FieldSpec = RATIONAL) -> SymbolicMatrix:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    dim = int(head[0])
    symmetric = len(head) > 1 and head[1] == "symmetric"
    if len(lines) - 1 != dim:
        raise ValueError(f"matrix header gives dimension {dim} but {len(lines) - 1} rows follow")
    # gadget matrices repeat a handful of tokens, so parse each one once
    weights: dict[str, Weight] = {}
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        tokens = ln.split()
        if len(tokens) != dim:
            raise ValueError(f"matrix row {i} has {len(tokens)} entries, header gives dimension {dim}")
        for tok in tokens:
            if tok not in weights:
                weights[tok] = parse_weight(tok, spec)
        rows.append([weights[tok] for tok in tokens])
    return SymbolicMatrix(rows, spec=spec, symmetric=symmetric, allow_linear=True)


def export_dot(g: WeightedGraph | WeightedDigraph) -> str:
    """Graphviz rendering; distinguished vertices keep their role names and
    are double-circled."""
    directed = isinstance(g, WeightedDigraph)
    name_of = {v: role for role, v in sorted(g.roles.items())}

    def node(v: int) -> str:
        return name_of.get(v, f"v{v}")

    lines = ["digraph G {" if directed else "graph G {"]
    for v in range(g.n):
        shape = " [shape=doublecircle]" if v in name_of else ""
        lines.append(f"  {node(v)}{shape};")
    link = "->" if directed else "--"
    items = g.arcs.items() if directed else g.edges.items()
    for (u, v), w in sorted(items):
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
    for row in m.entries:
        for w in row:
            if w.kind == SCALEDW:
                return False
            if w.kind == CONSTW and w.coeff not in allowed:
                return False
    return True
