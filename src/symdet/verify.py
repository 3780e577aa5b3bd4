"""End-to-end certification of emitted matrices against source circuits.

Randomized identity testing evaluates both sides at uniform points of a
large finite field; by the Schwartz-Zippel bound the probability that a
wrong matrix survives t trials is at most (D / |field|)^t, where D bounds
the degree of both sides: the number of rows, or of columns, of the matrix
that hold a variable entry (whichever is smaller), and the formal degree of
the circuit times the power tested.  That is negligible at the default of 20
trials over Z_p with p = 2^61 - 1 (40 trials over the smaller GF(2^16)), and
every randomized verdict states it; fields below 2^16 elements are refused.
:func:`identity_test` upgrades small instances to exact symbolic comparison.
Failures carry a reproducible witness (seed and point).

Both sides are compiled once per field and evaluated at all trial points
in lockstep, by the field's one plain-int kernel ``spec.arith``
(:class:`~symdet.fields.IntArith`), to which this module adds only the
elimination, :func:`_lockstep_det`.  A value that differs from point to
point is a lane, a list with one int per point.
A :class:`CompiledCircuit` is the circuit as a topologically ordered
program with its constants and arrow weights embedded once, evaluated on
lanes; it looks each weight object up once, keyed by identity, since
:func:`~symdet.circuits.parse_circuit` gives every arrow of one weight
token one object.  A :class:`CompiledMatrix` reads the stored nonzeros of a
:class:`SymbolicMatrix` (never its dense view) and holds their embedded
constants plus slots for its variable entries, so compiling costs
O(nonzeros); it classifies each :class:`~symdet.graphs.Weight` object
once, keyed by identity, since :func:`~symdet.graphs.parse_matrix` gives
every cell of one token one object.  Both embed each distinct constant
once per compile, through one memo (:func:`_embedder`), since gadget
matrices and weighted circuits repeat a handful of values.  All
determinants of a compiled matrix come from one sparse elimination with
Markowitz-style pivoting (fewest-entry column, then a constant pivot,
then the shortest row whose entry is nonzero in every lane), so the pivot
search and the fill-in bookkeeping are paid once for all points.  A matrix
constant is the same at every point, so the elimination keeps it a scalar,
one int, and so is every value computed from scalars alone: gadget
matrices are mostly constants, and a constant pivot then costs one scalar
inversion, not one per point.  Most pivots of gadget matrices are unit
loops and vertex-split links, 1 and -1, which are their own inverses:
they cost no inversion, and under -1 a lane factor is added, not negated.
Only a variable entry, and what it touches, is a lane.
:func:`det_eval` is the one wrapper that boxes: it checks a
``{variable: FieldElement}`` point and runs it as one lane.  Over Q it keeps
dense elimination on exact field elements; that is the reference the tests
check the lockstep path against.

Every randomized verdict, :func:`identity_test`'s and the partial permanent
identity's of :mod:`symdet.char2`, comes from :func:`compare_lanes`, and
nothing is boxed from the random draw to the verdict.  The trial points are
drawn straight into the lane of each variable by
:func:`~symdet.fields.sample_lanes`, which makes the draws of a
trial-by-trial ``sample_random`` loop in the same order; the verdict
compares plain ints, and only the first failing point and its two values
become field elements, as the witness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field, replace
from heapq import heapify, heappop, heappush
from typing import Callable, Mapping, Sequence

from .circuits import ADD, COMPUTATION, CONST, VAR, Circuit, MissingAssignment
from .fields import (
    FieldElement,
    FieldError,
    FieldSpec,
    IntArith,
    MixedFields,
    PRIME_DEFAULT,
    embed,
    sample_lanes,
)
from .graphs import CONSTW, VARW, SymbolicMatrix
from .oracles import symbolic_det
from .polynomials import expand_circuit


class FieldTooSmall(FieldError):
    """Identity testing needs a finite field of at least 2^16 elements."""


def testable(spec: FieldSpec) -> bool:
    """Whether identity testing may run in ``spec``: at least 2^16 elements."""
    return spec.size is not None and spec.size >= 1 << 16


def _trial_count(spec: FieldSpec, trials: int | None) -> int:
    """The checked number of trials in ``spec``, by default 20 from 2^32
    elements up and 40 below."""
    if not testable(spec):
        raise FieldTooSmall(f"{spec} has fewer than 2^16 elements" if spec.size else
                            f"identity testing samples from a finite field, not {spec}")
    if trials is None:
        trials = 20 if spec.size >= (1 << 32) else 40
    if trials < 1:
        raise ValueError(f"identity testing needs at least one trial, not {trials}")
    return trials


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
    # Schwartz-Zippel: a randomized verdict passes a wrong matrix with
    # probability at most (degree_bound / |field|)^trials = 2^error_bound_log2
    degree_bound: int | None = None
    error_bound_log2: float | None = None

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
        if self.degree_bound is not None:
            out["degree_bound"] = self.degree_bound
            out["error_bound_log2"] = self.error_bound_log2
        if self.status == FAILED:
            out["witness"] = {
                "point": self.witness_point,
                "lhs": self.lhs,
                "rhs": self.rhs,
            }
        return out


# ---------------------------------------------------------------------------
# lockstep elimination
# ---------------------------------------------------------------------------


def _cycle_count(perm: list[int]) -> int:
    """The number of cycles of the permutation i -> perm[i] of n points, whose
    sign is (-1)^(n - cycles)."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def _lockstep_det(arith: IntArith, rows: list[dict[int, int | list[int]]], t: int) -> list[int]:
    """Determinants of ``t`` square matrices that share one sparsity pattern,
    ``rows[i] = {j: entry}``, in the plain ints of ``arith``.  An entry is a
    lane, where lane l holds entry (i, j) of matrix l and not every int is
    zero, or a nonzero scalar, the entry of every matrix.  Consumes ``rows``.

    One elimination serves every lane.  Each step pivots on the remaining
    column with the fewest entries, at a row whose entry is nonzero in
    every lane: a scalar entry if there is one, since its inverse is one
    scalar inversion, and otherwise the shortest row (Markowitz 1957),
    which keeps fill-in low on gadget matrices.  The sign is the parity
    of the row -> column pivot map, n minus its number of cycles,
    computed once.  An update stays a scalar while every operand is one,
    and becomes a lane where it meets a lane.  The scalar pivots multiply
    into one scalar and the lane pivots into their own lane, so a scalar
    pivot costs one multiplication, whatever came before it; the two
    products meet once, at the end.
    An entry that cancels in every lane is dropped.  When no row of the
    pivot column is nonzero in every lane, every lane is eliminated alone
    from the original matrix, with its entries as scalars; gadget
    matrices pivot on constants, and one lane never needs this.
    """
    n = len(rows)
    neg1, mul1, inv1, submul1, times, add, mul, scale, inv, submul = (
        arith.neg1, arith.mul1, arith.inv1, arith.submul1, arith.times, arith.add, arith.mul,
        arith.scale, arith.inv, arith.submul)
    zeros = [0] * t
    minus_one = neg1(1)

    original = [dict(row) for row in rows] if t > 1 else None
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        if not row:
            return zeros
        for j in row:
            col_rows[j].add(i)
    # (entry count, column) with each remaining column's count at most its
    # current one: pushed when a count drops, pushed back when popped after
    # it grew, stale once its column is done or its count dropped below it
    counts = [(len(s), c) for c, s in enumerate(col_rows)]
    heapify(counts)
    done = [False] * n
    pivot_col = [0] * n
    det, lane_det = 1, None  # the products of the scalar and of the lane pivots
    for _ in range(n):
        k, pc = heappop(counts)
        while done[pc] or k != len(col_rows[pc]):
            if not done[pc] and k < len(col_rows[pc]):
                heappush(counts, (len(col_rows[pc]), pc))
            k, pc = heappop(counts)
        below = col_rows[pc]
        if not below:
            return zeros
        # a scalar pivot first, then the shortest row: a lane's key is
        # offset by n, the most entries a row can hold
        pr, best = None, 2 * n + 1
        for r in below:
            x = rows[r][pc]
            key = len(rows[r]) if type(x) is int else n + len(rows[r]) if all(x) else best
            if key < best:
                pr, best = r, key
        if pr is None:
            return [_lockstep_det(arith, [{c: x if type(x) is int else x[lane]
                                          for c, x in row.items() if type(x) is int or x[lane]}
                                         for row in original], 1)[0]
                    for lane in range(t)]
        prow = rows[pr]
        pv = prow.pop(pc)
        if type(pv) is int:
            det = mul1(det, pv)
        else:
            lane_det = pv if lane_det is None else mul(lane_det, pv)
        pivot_col[pr] = pc
        done[pc] = True
        below.discard(pr)
        for c in prow:
            col = col_rows[c]
            col.discard(pr)
            heappush(counts, (len(col), c))
        if not below:
            continue
        items = list(prow.items())
        # a pivot of 1 or -1 (a unit loop, a split link) is its own inverse:
        # a scalar factor is at most negated, and a lane factor f under -1
        # adds f * v, so no lane is negated
        one = pv == 1
        unit = one or pv == minus_one
        pinv = None if unit else inv1(pv) if type(pv) is int else inv(pv)
        for r in below:
            row = rows[r]
            f = row.pop(pc)
            plus = unit and not one and type(f) is list  # y = x + f * v
            fs = f if one or plus else neg1(f) if unit else times(f, pinv)
            scalar = type(fs) is int
            for c, v in items:
                x = row.get(c)
                if scalar and type(v) is int and type(x) is not list:
                    y = submul1(x or 0, fs, v)
                    kept = y != 0
                elif plus and type(v) is list:  # two lanes under -1
                    y = mul(fs, v)
                    if x is not None:
                        y = add(x if type(x) is list else [x] * t, y)
                    kept = any(y)
                else:  # a lane meets the update
                    if plus:  # x + f * v = x - f * (-v)
                        v = neg1(v)
                    if x is None and (scalar or type(v) is int):
                        y = scale(neg1(fs), v) if scalar else scale(neg1(v), fs)
                    else:  # widen the scalars
                        y = submul(zeros if x is None else x if type(x) is list else [x] * t,
                                   [fs] * t if scalar else fs,
                                   v if type(v) is list else [v] * t)
                    kept = any(y)
                if kept:
                    if x is None:
                        col_rows[c].add(r)
                    row[c] = y
                elif x is not None:
                    del row[c]
                    col = col_rows[c]
                    col.discard(r)
                    heappush(counts, (len(col), c))
            if not row:
                return zeros
    if arith.p != 2 and (n - _cycle_count(pivot_col)) % 2:  # -1 = 1 if p = 2
        det = neg1(det)
    return [det] * t if lane_det is None else arith.scale(det, lane_det)


def _embedder(spec: FieldSpec) -> Callable[[FieldElement], int]:
    """The plain-int image in ``spec`` of a constant, by
    :func:`~symdet.fields.embed` once per distinct constant: circuits and
    gadget matrices repeat a handful of values.  The memo is keyed by the
    constant's field object and value, not its value alone, so a constant
    of another field is still refused (:class:`MixedFields`) even when an
    equal value of the right field came first.  The value enters the key as
    its numerator and denominator, ints that hash in C where a proper
    fraction of Q would hash through ``Fraction.__hash__``."""
    memo: dict[tuple[int, int, int], int] = {}

    def embedded(x: FieldElement) -> int:
        q = x.value
        key = (id(x.spec), q.numerator, q.denominator)
        v = memo.get(key)
        if v is None:
            v = memo[key] = embed(x, spec).value
        return v

    return embedded


class CompiledCircuit:
    """A :class:`Circuit` compiled once into a finite field.

    The program lists the computation gates in topological order with their
    arrow weights embedded as plain ints, each weight object looked up once
    by identity (:func:`~symdet.circuits.parse_circuit` gives each token
    one element) and each distinct constant embedded once
    (:func:`_embedder`), and every constant gate holds its embedded value,
    so evaluating at many points embeds nothing again; a weight-1 arrow
    skips its multiplication.  ``degrees`` holds the formal degree of each
    output: 1 at a variable, 0 at a constant, the maximum at an addition
    and the sum at a multiplication.
    """

    def __init__(self, circuit: Circuit, spec: FieldSpec):
        self.arith = spec.arith
        self.outputs = circuit.outputs
        self.inputs: list[tuple[int, str]] = []
        self.consts: list[tuple[int, int]] = []
        self.program: list[tuple[int, str, int, int, int, int]] = []
        embed_value = _embedder(spec)
        by_id: dict[int, int] = {}  # id of a weight or constant -> its image

        def embedded(x: FieldElement) -> int:
            v = by_id.get(id(x))
            if v is None:
                v = by_id[id(x)] = embed_value(x)
            return v

        degree: dict[int, int] = {}
        for gid in circuit.topo_order():
            g = circuit.gates[gid]
            if g.kind == VAR:
                self.inputs.append((gid, g.name))
                degree[gid] = 1
            elif g.kind == CONST:
                self.consts.append((gid, embedded(g.value)))
                degree[gid] = 0
            else:
                (a, wa), (b, wb) = g.args
                wa, wb = embedded(wa), embedded(wb)
                if g.kind != ADD:  # one constant scales the product
                    wa, wb = self.arith.mul1(wa, wb), 1
                self.program.append((gid, g.kind, a, wa, b, wb))
                da, db = degree[a], degree[b]
                degree[gid] = max(da, db) if g.kind == ADD else da + db
        self.degrees = tuple(degree[o] for o in circuit.outputs)

    def lane_evaluate(self, lanes: Mapping[str, list[int]], t: int) -> list[list[int]]:
        """The lane of each output at ``t`` points given as the lane of each
        variable."""
        add, mul, scale = self.arith.add, self.arith.mul, self.arith.scale
        vals = {gid: lanes[name] for gid, name in self.inputs}
        for gid, c in self.consts:
            vals[gid] = [c] * t
        for gid, kind, a, wa, b, wb in self.program:
            xa, xb = vals[a], vals[b]
            if kind == ADD:
                vals[gid] = add(xa if wa == 1 else scale(wa, xa),
                                xb if wb == 1 else scale(wb, xb))
            else:
                x = mul(xa, xb)
                vals[gid] = x if wa == 1 else scale(wa, x)
        return [vals[o] for o in self.outputs]


class CompiledMatrix:
    """A :class:`SymbolicMatrix` embedded once into a finite field.

    Built from the matrix's stored entries, each Weight object classified
    once: every constant becomes a plain int (a Z_p residue or a GF(2^k)
    bit mask), each distinct constant embedded once (:func:`_embedder`),
    in per-row dicts, dropped when it vanishes in the field, and every
    variable entry becomes a slot
    ``(i, j, variable, coefficient)``.  Evaluating at points fills lanes
    from the slots only: a constant is the same at every point and stays
    one scalar int, so nothing is re-embedded or copied per point.

    ``degree`` bounds the degree of the determinant: each of its terms takes
    one entry from every row and every column, and only a slot has degree
    1, so it is the smaller of the number of rows and the number of columns
    that hold a slot.
    """

    def __init__(self, m: SymbolicMatrix, spec: FieldSpec):
        self.arith = spec.arith
        self.const_rows: list[dict[int, int]] = [{} for _ in range(m.dim)]
        self.slots: list[tuple[int, int, str, int]] = []
        embedded = _embedder(spec)
        # each Weight object once: (None, its embedded value) for a
        # constant, (variable, coefficient) for a slot
        classified: dict[int, tuple[str | None, int]] = {}
        for i, row in enumerate(m.rows):
            const_row = self.const_rows[i]
            for j, w in row.items():
                entry = classified.get(id(w))
                if entry is None:
                    entry = classified[id(w)] = (
                        (None, embedded(w.coeff)) if w.kind == CONSTW else
                        (w.name, 1) if w.kind == VARW else (w.name, embedded(w.coeff)))
                name, v = entry
                if name is not None:
                    self.slots.append((i, j, name, v))
                elif v:  # a rational constant may vanish mod p
                    const_row[j] = v
        self.variables = tuple(sorted({s[2] for s in self.slots}))
        self.degree = min(len({s[0] for s in self.slots}), len({s[1] for s in self.slots}))

    def lane_rows(self, lanes: Mapping[str, list[int]], t: int) -> list[dict[int, int | list[int]]]:
        """Fresh sparse rows ``{column: entry}`` of the matrix at ``t`` points
        given as the lane of each variable: a constant is its scalar int, a
        variable entry its lane.  An entry that is zero at every point is
        left out."""
        scale = self.arith.scale
        rows = [dict(r) for r in self.const_rows]
        for i, j, name, c in self.slots:
            x = lanes[name] if c == 1 else scale(c, lanes[name])
            if any(x):
                rows[i][j] = x
        return rows

    def lane_det(self, lanes: Mapping[str, list[int]], t: int) -> list[int]:
        """The determinant at each of ``t`` points given as lanes, from one
        lockstep elimination."""
        return _lockstep_det(self.arith, self.lane_rows(lanes, t), t)


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
    m: SymbolicMatrix, assignment: Mapping[str, FieldElement], spec: FieldSpec | None = None
) -> FieldElement:
    """Exact determinant of the matrix at a point, boxed.

    Raises :class:`MissingAssignment` naming the smallest unassigned variable,
    or :class:`MixedFields` for a value from another field.  Over a finite
    field the matrix is compiled and eliminated sparsely as one lane; over Q
    it is eliminated densely on field elements.
    """
    spec = spec or m.spec
    variables = m.variables()
    missing = set(variables) - set(assignment)
    if missing:
        raise MissingAssignment(f"no value for variable {min(missing)!r}")
    for name in variables:
        if assignment[name].spec != spec:
            raise MixedFields(f"assignment for {name!r} lives in {assignment[name].spec}, "
                              f"not {spec}")
    if spec.size is None:
        zero = spec.zero()
        vals = [[zero] * m.dim for _ in range(m.dim)]
        for i, row in enumerate(m.rows):
            for j, w in row.items():
                vals[i][j] = w.eval(assignment, spec)
        return _dense_det(vals, spec)
    lanes = {name: [assignment[name].value] for name in variables}
    return FieldElement(spec, CompiledMatrix(m, spec).lane_det(lanes, 1)[0])


# ---------------------------------------------------------------------------
# identity testing
# ---------------------------------------------------------------------------


def _exact_upgrade(circuit: Circuit, m: SymbolicMatrix) -> bool | None:
    """Symbolic comparison for small instances, over the matrix's own field
    (not the test field); None when too large, or when the circuit lives in
    another field, since then the two sides meet only in the test field."""
    skinny = sum(1 for g in circuit.gates.values() if g.kind in COMPUTATION)
    if m.dim > 8 or skinny > 8 or circuit.spec != m.spec:
        return None
    variables = tuple(sorted(set(circuit.variables) | set(m.variables())))
    lhs = expand_circuit(circuit, variables=variables)[0]
    rhs = symbolic_det(m, variables=variables)
    return lhs == rhs


def compare_lanes(sides: Callable[..., tuple[list[int], list[int]]], variables: Sequence[str],
                  spec: FieldSpec, *, trials: int | None, seed: int, dimension: int,
                  degree_bound: int) -> Verdict:
    """The randomized verdict on two polynomials in ``variables`` of degree
    at most ``degree_bound``: ``sides(lanes, t)`` evaluates both at ``t``
    points given as lanes.  The first point where they differ is boxed as
    the witness; the verdict states the bound (degree_bound / |F|)^trials."""
    trials = _trial_count(spec, trials)
    lanes = sample_lanes(spec, random.Random(seed), variables, trials)
    lhs_lanes, rhs_lanes = sides(lanes, trials)
    common = dict(trials=trials, field=str(spec), dimension=dimension, seed=seed,
                  degree_bound=degree_bound,
                  error_bound_log2=trials * (math.log2(degree_bound) - math.log2(spec.size)))
    for trial, (x, y) in enumerate(zip(lhs_lanes, rhs_lanes)):
        if x != y:
            return Verdict(
                FAILED,
                witness_point={v: FieldElement(spec, lane[trial]).render()
                               for v, lane in lanes.items()},
                lhs=FieldElement(spec, x).render(),
                rhs=FieldElement(spec, y).render(),
                **common,
            )
    return Verdict(VERIFIED_RANDOM, **common)


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
    power); exact symbolic comparison when both sides are small enough.

    Both sides are compiled once and handed to :func:`compare_lanes`, the
    circuit side raised to ``power`` lane by lane.
    """
    if len(circuit.outputs) != 1:
        raise ValueError("identity testing needs a single-output circuit")
    trials = _trial_count(spec, trials)
    if power < 0:
        raise ValueError(f"identity testing compares polynomials, not power {power}")

    # compiled first: a constant that does not embed is refused on both paths
    compiled = CompiledMatrix(m, spec)
    program = CompiledCircuit(circuit, spec)
    exact = None
    if exact_upgrade and power == 1:
        exact = _exact_upgrade(circuit, m)
        if exact:  # the verdict names the field the comparison ran in
            return Verdict(VERIFIED_EXACT, field=str(m.spec), dimension=m.dim)
        # exact is False: keep going to attach a concrete witness point

    def sides(lanes, t):
        circuit_side = program.arith.power(program.lane_evaluate(lanes, t)[0], power)
        return circuit_side, compiled.lane_det(lanes, t)

    variables = tuple(sorted(set(circuit.variables) | set(compiled.variables)))
    verdict = compare_lanes(sides, variables, spec, trials=trials, seed=seed, dimension=m.dim,
                            degree_bound=max(compiled.degree, power * program.degrees[0], 1))
    if exact is False and verdict.ok:
        return replace(
            verdict, status=FAILED, lhs="symbolic mismatch", rhs="symbolic mismatch")
    return verdict
