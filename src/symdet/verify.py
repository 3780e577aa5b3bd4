"""End-to-end certification of emitted matrices against source circuits.

Randomized identity testing evaluates both sides at uniform points of a
large finite field; by the Schwartz-Zippel bound the probability that a
wrong matrix survives t trials is at most (deg / |field|)^t, negligible at
the default of 20 trials over Z_p with p = 2^61 - 1 (40 trials over the
smaller GF(2^16)).  Small instances are upgraded to exact symbolic
comparison.  Failures carry a reproducible witness (seed and point).

Determinants over a finite field take one path.  A :class:`CompiledMatrix`
embeds every nonzero constant of a :class:`SymbolicMatrix` into a plain int
once (a Z_p residue or a GF(2^k) bit mask) and keeps the variable entries
as slots; each trial fills the slots in and eliminates the sparse integer
rows with Markowitz-style pivoting (fewest-entry column, shortest row), so
the cost follows the nonzeros and fill-in rather than n^3 boxed field
operations.  ``identity_test`` compiles once per call.  Over Q,
:func:`det_eval` keeps dense elimination on exact field elements; it is the
reference the tests check the compiled path against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from heapq import heapify, heappop, heappush
from typing import Mapping

from .circuits import COMPUTATION, Circuit, MissingAssignment, evaluate
from .fields import (
    FieldElement,
    FieldSpec,
    MixedFields,
    PRIME_DEFAULT,
    UnsupportedField,
    _gf2_inverse,
    _gf2_mulmod,
    _gf2_tables,
    embed,
    sample_random,
)
from .graphs import CONSTW, VARW, SymbolicMatrix
from .oracles import cover_sign, symbolic_det
from .polynomials import expand_circuit


class FieldTooSmall(Exception):
    """Identity testing needs at least 2^16 field elements."""


VERIFIED_EXACT = "verified-exact"
VERIFIED_RANDOM = "verified-random"
FAILED = "FAILED"


@dataclass
class Verdict:
    status: str
    trials: int = 0
    field: str = ""
    dimension: int = 0
    seed: int | None = None
    witness_point: dict[str, str] = dc_field(default_factory=dict)
    lhs: str | None = None
    rhs: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in (VERIFIED_EXACT, VERIFIED_RANDOM)

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "trials": self.trials,
            "field": self.field,
            "dimension": self.dimension,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.status == FAILED:
            out["witness"] = {
                "point": self.witness_point,
                "lhs": self.lhs,
                "rhs": self.rhs,
            }
        return out


# ---------------------------------------------------------------------------
# determinant evaluation
# ---------------------------------------------------------------------------


class _IntArith:
    """Arithmetic of one finite field on plain ints: Z_p residues, or GF(2^k)
    bit masks with log/exp tables for k <= 16 and shift-and-add above."""

    def __init__(self, spec: FieldSpec):
        self.binary = spec.kind == "binary"
        self.p = p = spec.p
        if not self.binary:
            def mul(a, b):
                return a * b % p

            def inv(a):
                return pow(a, -1, p)

            def neg_scale(f, items):
                f = p - f
                return [(c, f * v % p) for c, v in items]
        elif spec.k <= 16:
            exp, log = _gf2_tables(spec)
            order = (1 << spec.k) - 1

            def mul(a, b):
                return exp[log[a] + log[b]] if a and b else 0

            def inv(a):
                return exp[order - log[a]]

            def neg_scale(f, items):
                f = log[f]
                return [(c, exp[f + log[v]]) for c, v in items]
        else:
            mod = spec.modulus

            def mul(a, b):
                return _gf2_mulmod(a, b, mod)

            def inv(a):
                return _gf2_inverse(a, mod)

            def neg_scale(f, items):
                return [(c, _gf2_mulmod(f, v, mod)) for c, v in items]
        self.mul = mul
        self.inv = inv
        # -(f * v) for each (column, v) of a pivot row
        self.neg_scale = neg_scale

    def det(self, rows: list[dict[int, int]]) -> int:
        """Determinant of the square matrix whose nonzero entries are
        ``rows[i] = {j: value}``, by sparse elimination; consumes ``rows``.

        Each step pivots on the remaining column with the fewest entries, at
        its shortest row (Markowitz 1957), which keeps fill-in low on gadget
        matrices.  The sign is the parity of the row -> column pivot map.
        """
        n = len(rows)
        mul, inv, neg_scale, binary, p = (
            self.mul, self.inv, self.neg_scale, self.binary, self.p)
        col_rows: list[set[int]] = [set() for _ in range(n)]
        for i, row in enumerate(rows):
            if not row:
                return 0
            for j in row:
                col_rows[j].add(i)
        # (entry count, column), pushed again whenever a count changes; an
        # entry is stale once its count or its column's pivot has moved on
        counts = [(len(s), c) for c, s in enumerate(col_rows)]
        heapify(counts)
        done = [False] * n
        pivot_col = [0] * n
        det = 1
        for _ in range(n):
            k, pc = heappop(counts)
            while done[pc] or k != len(col_rows[pc]):
                k, pc = heappop(counts)
            below = col_rows[pc]
            if not below:
                return 0
            pr = min(below, key=lambda r: len(rows[r]))
            prow = rows[pr]
            pv = prow.pop(pc)
            det = mul(det, pv)
            pivot_col[pr] = pc
            done[pc] = True
            below.discard(pr)
            for c in prow:
                col_rows[c].discard(pr)
                heappush(counts, (len(col_rows[c]), c))
            if not below:
                continue
            items = list(prow.items())
            pinv = inv(pv)
            for r in below:
                row = rows[r]
                for c, y in neg_scale(mul(row.pop(pc), pinv), items):
                    x = row.get(c)
                    if x is None:
                        row[c] = y
                        col_rows[c].add(r)
                        heappush(counts, (len(col_rows[c]), c))
                        continue
                    x = x ^ y if binary else (x + y) % p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        col_rows[c].discard(r)
                        heappush(counts, (len(col_rows[c]), c))
                if not row:
                    return 0
        if not binary and cover_sign(dict(enumerate(pivot_col))) < 0:
            det = (p - det) % p
        return det


class CompiledMatrix:
    """A :class:`SymbolicMatrix` embedded once into a finite field.

    Every nonzero constant becomes a plain int (a Z_p residue or a GF(2^k)
    bit mask) in per-row dicts; every variable entry becomes a slot
    ``(i, j, variable, coefficient)``.  Evaluating at a point copies the
    constant rows and fills in the slots, so nothing is re-embedded per trial.
    """

    def __init__(self, m: SymbolicMatrix, spec: FieldSpec):
        if spec.size is None:
            raise UnsupportedField(f"compiled evaluation needs a finite field, not {spec}")
        self.spec = spec
        self.arith = _IntArith(spec)
        self.const_rows: list[dict[int, int]] = [{} for _ in range(m.dim)]
        self.slots: list[tuple[int, int, str, int]] = []
        for i, row in enumerate(m.entries):
            for j, w in enumerate(row):
                if w.kind == CONSTW:
                    # most cells are zero; test before embedding
                    if w.coeff.value:
                        v = embed(w.coeff, spec).value
                        if v:
                            self.const_rows[i][j] = v
                elif w.kind == VARW:
                    self.slots.append((i, j, w.name, 1))
                else:
                    self.slots.append((i, j, w.name, embed(w.coeff, spec).value))
        self.variables = tuple(sorted({s[2] for s in self.slots}))

    def rows(self, assignment: Mapping[str, FieldElement]) -> list[dict[int, int]]:
        """Fresh sparse rows ``{column: value}`` of the matrix at a point."""
        spec = self.spec
        values = {}
        for name in self.variables:
            if name not in assignment:
                raise MissingAssignment(f"no value for variable {name!r}")
            x = assignment[name]
            if x.spec != spec:
                raise MixedFields(f"assignment for {name!r} lives in {x.spec}, not {spec}")
            values[name] = x.value
        mul = self.arith.mul
        rows = [dict(r) for r in self.const_rows]
        for i, j, name, c in self.slots:
            v = mul(values[name], c)
            if v:
                rows[i][j] = v
        return rows


def _dense_det(vals: list[list[FieldElement]], spec: FieldSpec) -> FieldElement:
    """Dense Gaussian elimination on field elements (the Q reference)."""
    n = len(vals)
    det = spec.one()
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not vals[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return spec.zero()
        if pivot != col:
            vals[col], vals[pivot] = vals[pivot], vals[col]
            det = -det
        pv = vals[col][col]
        det = det * pv
        inv = pv.inverse()
        prow = vals[col]
        for r in range(col + 1, n):
            f = vals[r][col]
            if not f.is_zero():
                f = f * inv
                vals[r] = [a - f * b for a, b in zip(vals[r], prow)]
    return det


def det_eval(
    m: SymbolicMatrix | CompiledMatrix,
    assignment: Mapping[str, FieldElement],
    spec: FieldSpec | None = None,
) -> FieldElement:
    """Exact determinant of the matrix at a point.

    Over a finite field the matrix is compiled (once, if a
    :class:`CompiledMatrix` is passed) and eliminated sparsely on ints; over
    Q it is eliminated densely on field elements.
    """
    spec = spec or m.spec
    if isinstance(m, CompiledMatrix):
        if spec != m.spec:
            raise MixedFields(f"matrix compiled for {m.spec}, evaluated in {spec}")
    elif spec.size is not None:
        m = CompiledMatrix(m, spec)
    else:
        missing = set(m.variables()) - set(assignment)
        if missing:
            raise MissingAssignment(f"no value for variable {min(missing)!r}")
        vals = [[w.eval(assignment, spec) for w in row] for row in m.entries]
        return _dense_det(vals, spec)
    return FieldElement(spec, m.arith.det(m.rows(assignment)))


# ---------------------------------------------------------------------------
# identity testing
# ---------------------------------------------------------------------------


def _exact_upgrade(circuit: Circuit, m: SymbolicMatrix) -> bool | None:
    """Symbolic comparison for small instances; None when too large."""
    skinny = sum(1 for g in circuit.gates.values() if g.kind in COMPUTATION)
    if m.dim > 8 or skinny > 8:
        return None
    variables = tuple(sorted(set(circuit.variables) | set(m.variables())))
    lhs = expand_circuit(circuit, variables=variables)[0]
    rhs = symbolic_det(m, variables=variables)
    return lhs == rhs


def identity_test(
    circuit: Circuit,
    m: SymbolicMatrix,
    trials: int | None = None,
    spec: FieldSpec = PRIME_DEFAULT,
    seed: int = 0,
    power: int = 1,
    exact_upgrade: bool = True,
) -> Verdict:
    """Schwartz-Zippel test of det(m) == circuit polynomial (to the given
    power); exact symbolic comparison when both sides are small enough."""
    if len(circuit.outputs) != 1:
        raise ValueError("identity testing needs a single-output circuit")
    if spec.size is None or spec.size < (1 << 16):
        raise FieldTooSmall(f"{spec} has fewer than 2^16 elements")
    if trials is None:
        trials = 20 if spec.size >= (1 << 32) else 40

    exact = None
    if exact_upgrade and power == 1:
        exact = _exact_upgrade(circuit, m)
        if exact:
            return Verdict(VERIFIED_EXACT, field=str(spec), dimension=m.dim)
        # exact is False: keep going to attach a concrete witness point
    variables = tuple(sorted(set(circuit.variables) | set(m.variables())))
    compiled = CompiledMatrix(m, spec)
    rng = random.Random(seed)
    for _ in range(trials):
        point = {v: sample_random(spec, rng) for v in variables}
        lhs = evaluate(circuit, point, spec)[0] ** power
        rhs = det_eval(compiled, point, spec)
        if lhs != rhs:
            return Verdict(
                FAILED,
                trials=trials,
                field=str(spec),
                dimension=m.dim,
                seed=seed,
                witness_point={v: x.render() for v, x in point.items()},
                lhs=lhs.render(),
                rhs=rhs.render(),
            )
    if exact is False:
        return Verdict(
            FAILED,
            trials=trials,
            field=str(spec),
            dimension=m.dim,
            seed=seed,
            lhs="symbolic mismatch",
            rhs="symbolic mismatch",
        )
    return Verdict(
        VERIFIED_RANDOM, trials=trials, field=str(spec), dimension=m.dim, seed=seed
    )
