"""Dense multivariate polynomials and the constructions built on them.

:class:`DensePolynomial` is an explicit monomial -> coefficient map over one
of the exact fields; it backs every symbolic oracle in the package.  The
module also provides

* :func:`expand_circuit` -- exact expansion of a circuit into polynomials,
* :func:`poly_to_formula` -- dense polynomial to weighted formula via the
  homogenized split-off-the-last-variable recursion,
* :func:`monomial_sum_circuit` -- the skew circuit summing all monomials of
  degree at most d in n variables,
* :func:`bounds_report` -- the exact binomial bound values used to compare
  formula-derived symmetric representations against fixed-dimension ones.

Every polynomial is printed by one term formatter, :func:`render_packed`,
which reads monomials packed into ints by :func:`pack`, a fixed number of
big-endian bytes per exponent, so that int order is the printed order;
:meth:`DensePolynomial.render` packs its exponent tuples and calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .circuits import ADD, CONST, VAR, Circuit, CircuitBuilder
from .fields import RATIONAL, FieldElement, FieldSpec, MixedFields, embed, parse_element


class TooLarge(ValueError):
    """Brute-force oracle invoked beyond its intended size."""


class ZeroPolynomial(Exception):
    """Formula construction needs a nonzero polynomial."""


Monomial = tuple[int, ...]


class DensePolynomial:
    """Multivariate polynomial with exact field coefficients.

    Zero coefficients are never stored; two polynomials compare equal iff
    they have the same variable tuple and identical coefficient maps.
    """

    __slots__ = ("spec", "variables", "coeffs")

    def __init__(
        self,
        spec: FieldSpec,
        variables: Sequence[str],
        coeffs: Mapping[Monomial, FieldElement] | None = None,
    ):
        self.spec = spec
        self.variables = tuple(variables)
        clean: dict[Monomial, FieldElement] = {}
        if coeffs:
            n = len(self.variables)
            for mono, c in coeffs.items():
                if len(mono) != n:
                    raise ValueError(f"monomial {mono} does not match {self.variables}")
                if not c.is_zero():
                    clean[tuple(mono)] = c
        self.coeffs = clean

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(spec: FieldSpec, variables: Sequence[str]) -> "DensePolynomial":
        return DensePolynomial(spec, variables)

    @staticmethod
    def constant(c: FieldElement, variables: Sequence[str]) -> "DensePolynomial":
        zero_mono = (0,) * len(tuple(variables))
        return DensePolynomial(c.spec, variables, {zero_mono: c})

    @staticmethod
    def variable(
        name: str, variables: Sequence[str], spec: FieldSpec = RATIONAL
    ) -> "DensePolynomial":
        variables = tuple(variables)
        mono = tuple(1 if v == name else 0 for v in variables)
        if sum(mono) != 1:
            raise ValueError(f"{name!r} not in {variables}")
        return DensePolynomial(spec, variables, {mono: spec.one()})

    def with_variables(self, variables: Sequence[str]) -> "DensePolynomial":
        """Reindex onto a superset of the current variables."""
        variables = tuple(variables)
        pos = {v: i for i, v in enumerate(variables)}
        missing = [v for v in self.variables if v not in pos]
        if missing:
            raise ValueError(f"target variables lack {missing}")
        coeffs = {}
        for mono, c in self.coeffs.items():
            new = [0] * len(variables)
            for v, e in zip(self.variables, mono):
                new[pos[v]] = e
            coeffs[tuple(new)] = c
        return DensePolynomial(self.spec, variables, coeffs)

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "DensePolynomial") -> None:
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")
        if self.spec != other.spec:
            raise MixedFields(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "DensePolynomial") -> "DensePolynomial":
        self._check(other)
        coeffs = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            s = coeffs.get(mono)
            coeffs[mono] = c if s is None else s + c
        return DensePolynomial(self.spec, self.variables, coeffs)

    def __neg__(self) -> "DensePolynomial":
        return DensePolynomial(
            self.spec, self.variables, {m: -c for m, c in self.coeffs.items()}
        )

    def __sub__(self, other: "DensePolynomial") -> "DensePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "DensePolynomial":
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        coeffs: dict[Monomial, FieldElement] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                s = coeffs.get(mono)
                coeffs[mono] = c if s is None else s + c
        return DensePolynomial(self.spec, self.variables, coeffs)

    def scale(self, c: FieldElement) -> "DensePolynomial":
        if c.is_zero():
            return DensePolynomial.zero(self.spec, self.variables)
        return DensePolynomial(
            self.spec, self.variables, {m: c * v for m, v in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.variables == other.variables
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.variables, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    def evaluate(self, assignment: Mapping[str, FieldElement], spec: FieldSpec | None = None) -> FieldElement:
        spec = spec or self.spec
        total = spec.zero()
        points = [assignment[v] for v in self.variables]
        for mono, c in self.coeffs.items():
            term = embed(c, spec)
            for x, e in zip(points, mono):
                for _ in range(e):
                    term = term * x
            total = total + term
        return total

    # -- text form ----------------------------------------------------------------

    def render(self) -> str:
        """Terms in increasing exponent-tuple order, ``c * x y^2`` each (see
        :func:`render_packed`)."""
        coeffs = self.coeffs
        try:  # every exponent below 256, one byte each
            packed, width = {int.from_bytes(bytes(m), "big"): c for m, c in coeffs.items()}, 1
        except ValueError:
            width = (max(map(max, coeffs)).bit_length() + 7) // 8
            packed = {pack(m, width): c for m, c in coeffs.items()}
        return render_packed(self.variables, packed, width)

    def __repr__(self) -> str:
        return f"<poly {self.render()}>"


def pack(mono: Monomial, width: int) -> int:
    """A monomial as one int, ``width`` bytes per exponent, big-endian: the
    first variable's exponent is most significant, so for exponents below
    ``256 ** width`` int order is exponent-tuple order."""
    return int.from_bytes(b"".join(e.to_bytes(width, "big") for e in mono), "big")


class _Factors(dict):
    """The factor text ``x y^2`` of each packed run of exponents of ``names``,
    formatted once on first use."""

    def __init__(self, names: Sequence[str], width: int):
        super().__init__()
        self.names = names
        self.width = width

    def __missing__(self, packed: int) -> str:
        w = self.width
        raw = packed.to_bytes(len(self.names) * w, "big")
        exps = raw if w == 1 else [int.from_bytes(raw[k:k + w], "big")
                                   for k in range(0, len(raw), w)]
        text = self[packed] = " ".join([name if e == 1 else f"{name}^{e}"
                                        for name, e in zip(self.names, exps) if e])
        return text


def render_packed(names: Sequence[str], coeffs: Mapping[int, FieldElement],
                  width: int = 1) -> str:
    """The text form of a polynomial in ``names`` given as packed monomials
    (see :func:`pack`) with nonzero coefficients of one field: terms in
    increasing monomial order joined by `` + ``, each ``c * x y^2``, or ``c``
    for the constant monomial, and ``0`` for no terms.

    Each monomial splits into the exponents of the first and of the last
    ``len(names) // 2`` variables; each distinct half and each distinct
    coefficient is formatted once.
    """
    if not coeffs:
        return "0"
    names = tuple(names)
    low = len(names) // 2
    shift = 8 * width * low
    mask = (1 << shift) - 1
    high_text = _Factors(names[:len(names) - low], width)
    low_text = _Factors(names[len(names) - low:], width)
    coeff_text: dict = {}
    parts = []
    for mono in sorted(coeffs):
        c = coeffs[mono]
        ctext = coeff_text.get(c.value)
        if ctext is None:
            ctext = coeff_text[c.value] = c.render()
        hi, lo = high_text[mono >> shift], low_text[mono & mask]
        factors = f"{hi} {lo}" if hi and lo else hi or lo
        parts.append(f"{ctext} * {factors}" if factors else ctext)
    return " + ".join(parts)


def parse_polynomial(
    text: str, variables: Sequence[str], spec: FieldSpec = RATIONAL
) -> DensePolynomial:
    """Parse the ``coef * x1^e1 x2^e2 [+ ...]`` polynomial format."""
    variables = tuple(variables)
    pos = {v: i for i, v in enumerate(variables)}
    coeffs: dict[Monomial, FieldElement] = {}
    text = text.strip()
    if text in ("", "0"):
        return DensePolynomial.zero(spec, variables)
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if "*" in chunk:
            ctext, mtext = chunk.split("*", 1)
            c = parse_element(ctext, spec)
            mono = [0] * len(variables)
            for f in mtext.split():
                if "^" in f:
                    v, e = f.split("^")
                    mono[pos[v]] += int(e)
                else:
                    mono[pos[f]] += 1
        else:
            c = parse_element(chunk, spec)
            mono = [0] * len(variables)
        key = tuple(mono)
        coeffs[key] = coeffs.get(key, spec.zero()) + c
    return DensePolynomial(spec, variables, coeffs)


# ---------------------------------------------------------------------------
# circuit expansion (symbolic oracle for evaluate)
# ---------------------------------------------------------------------------


def expand_gate_values(
    circuit: Circuit,
    spec: FieldSpec | None = None,
    variables: Sequence[str] | None = None,
) -> dict[int, DensePolynomial]:
    """Exact polynomial computed by every gate, by bottom-up expansion."""
    spec = spec or circuit.spec
    variables = tuple(variables) if variables is not None else circuit.variables
    vals: dict[int, DensePolynomial] = {}
    for gid in circuit.topo_order():
        g = circuit.gates[gid]
        if g.kind == VAR:
            vals[gid] = DensePolynomial.variable(g.name, variables, spec)
        elif g.kind == CONST:
            vals[gid] = DensePolynomial.constant(embed(g.value, spec), variables)
        else:
            (a, wa), (b, wb) = g.args
            xa = vals[a].scale(embed(wa, spec))
            xb = vals[b].scale(embed(wb, spec))
            vals[gid] = xa + xb if g.kind == ADD else xa * xb
    return vals


def expand_circuit(
    circuit: Circuit,
    spec: FieldSpec | None = None,
    variables: Sequence[str] | None = None,
) -> list[DensePolynomial]:
    """Exact polynomial of every output, by gate-by-gate expansion."""
    vals = expand_gate_values(circuit, spec, variables)
    return [vals[o] for o in circuit.outputs]


# ---------------------------------------------------------------------------
# dense polynomial -> weighted formula
# ---------------------------------------------------------------------------


def poly_to_formula(p: DensePolynomial) -> Circuit:
    """Weighted formula for a dense polynomial.

    Uses the degree-homogenized recursion that splits off the last variable,
    P(n, d) = x_n * P(n, d-1) + P(n-1, d), with linear base cases; the
    homogenization variable is replaced by the constant 1 at the end, and all
    constants ride on arrow weights, so the skinny size of the result is at
    most C(n+d+1, n+1) - C(n+d-1, n+1) - 2 for n, d >= 1 (checked in tests).
    Zero sub-polynomials are pruned.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot build a formula for the zero polynomial")
    spec = p.spec
    n = len(p.variables)
    d = p.total_degree()
    b = CircuitBuilder(spec)

    if d == 0:
        gid = b.const(p.coeffs[(0,) * n])
        return b.build([gid])

    # homogenize: monomial key (e0, e1, ..., en) with e0 the slack exponent
    homog: dict[Monomial, FieldElement] = {
        (d - sum(m), *m): c for m, c in p.coeffs.items()
    }

    def split(poly: dict, k: int) -> tuple[dict, dict]:
        """Separate monomials by occurrence of x_k; quotient out one x_k."""
        with_k: dict[Monomial, FieldElement] = {}
        without: dict[Monomial, FieldElement] = {}
        for m, c in poly.items():
            if m[k] > 0:
                with_k[m[:k] + (m[k] - 1,) + m[k + 1:]] = c
            else:
                without[m] = c
        return with_k, without

    def linear_comb(terms: list[tuple[int, FieldElement]]) -> tuple[int, FieldElement]:
        """Left-associated weighted sum of (gate, coefficient) pairs."""
        if len(terms) == 1:
            return terms[0]
        acc, w = terms[0]
        acc = b.add(acc, terms[1][0], w, terms[1][1])
        for g, c in terms[2:]:
            acc = b.add(acc, g, 1, c)
        return acc, spec.one()

    def build(poly: dict, k: int, delta: int) -> tuple[int, FieldElement] | None:
        """Formula for a homogeneous-in-(x0..xk) polynomial of degree delta.

        Returns (gate id, scale) with value = scale * gate, or None if zero.
        """
        if not poly:
            return None
        if k == 0:
            (mono, c), = poly.items()
            return b.const(1), c  # x0^delta becomes 1
        if delta == 1:
            terms = []
            for m, c in sorted(poly.items()):
                idx = next(i for i, e in enumerate(m) if e)
                g = b.const(1) if idx == 0 else b.var(p.variables[idx - 1])
                terms.append((g, c))
            return linear_comb(terms)
        with_k, without = split(poly, k)
        ra = build(with_k, k, delta - 1)
        rb = build(without, k - 1, delta)  # one of them is nonzero, as poly is
        if ra is None:
            return rb
        xk = b.var(p.variables[k - 1])
        prod = b.mul(xk, ra[0], 1, ra[1])
        if rb is None:
            return prod, spec.one()
        return b.add(prod, rb[0], 1, rb[1]), spec.one()

    res = build(homog, n, d)
    gid, scale = res
    if not scale.is_one():
        gid = b.add(gid, b.const(1), scale, 0)
    return b.build([gid])


# ---------------------------------------------------------------------------
# all-monomials skew circuit
# ---------------------------------------------------------------------------


def monomial_sum_circuit(n: int, d: int, spec: FieldSpec = RATIONAL) -> Circuit:
    """Skew circuit computing the sum of all monomials of degree <= d in n variables.

    The homogenization inputs are materialized as constant-1 inputs; the
    circuit has exactly 2nd - n + d - 1 computation gates and (n+1)d input
    gates, and every multiplication takes a fresh input as its closed
    argument, so the circuit is skew (hence weakly skew).
    """
    if n < 1 or d < 1:
        raise ValueError("need n, d >= 1")
    b = CircuitBuilder(spec)

    def fresh_inputs() -> list[int]:
        return [b.const(1)] + [b.var(f"x{j}") for j in range(1, n + 1)]

    # degree 1: prefix sums of 1, x1, ..., xn
    level = []
    inputs = fresh_inputs()
    acc = inputs[0]
    level.append(acc)
    for j in range(1, n + 1):
        acc = b.add(acc, inputs[j])
        level.append(acc)

    for _ in range(2, d + 1):
        inputs = fresh_inputs()
        prods = [b.mul(inputs[j], level[j]) for j in range(n + 1)]
        nxt = [prods[0]]
        acc = prods[0]
        for j in range(1, n + 1):
            acc = b.add(acc, prods[j])
            nxt.append(acc)
        level = nxt

    return b.build([level[n]])


# ---------------------------------------------------------------------------
# bound calculators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    n: int
    d: int
    formula_bound: int          # skinny-size bound for the dense construction
    sym_dimension_bound: int    # symmetric matrix dimension bound
    quarez_dimension: int       # fixed-dimension construction, for comparison
    monomial_formula_size: int  # naive sum-of-monomials formula size


def bounds_report(n: int, d: int) -> BoundsReport:
    """Exact big-integer bound values for a degree-d polynomial in n variables.

    The comparison dimension is 2*C(n + ceil(d/2), n), stated in the source
    comparison for polynomials of even degree 2d as 2*C(n+d, n).
    """
    if n < 1 or d < 1:
        raise ValueError("need n, d >= 1")
    C = math.comb
    F = C(n + d + 1, n + 1) - C(n + d - 1, n + 1) - 2
    S = 4 * C(n + d - 1, n) - 2
    quarez = 2 * C(n + (d + 1) // 2, n)
    monomial = n * C(n + d, n + 1)
    return BoundsReport(
        n=n,
        d=d,
        formula_bound=F,
        sym_dimension_bound=S,
        quarez_dimension=quarez,
        monomial_formula_size=monomial,
    )


def random_dense_polynomial(
    n: int,
    d: int,
    rng,
    spec: FieldSpec = RATIONAL,
    density: float = 0.4,
    coeff_range: tuple[int, int] = (-9, 9),
) -> DensePolynomial:
    """Random polynomial of degree <= d in n variables (test substrate)."""
    variables = [f"x{i}" for i in range(1, n + 1)]
    coeffs: dict[Monomial, FieldElement] = {}

    def monos(k: int, deg: int):
        if k == 0:
            yield ()
            return
        for e in range(deg + 1):
            for rest in monos(k - 1, deg - e):
                yield (e, *rest)

    for mono in monos(n, d):
        if rng.random() < density:
            c = 0
            while c == 0:
                c = rng.randint(*coeff_range)
            coeffs[mono] = spec.from_int(c)
    if not coeffs:
        coeffs[(0,) * n] = spec.one()
    return DensePolynomial(spec, variables, coeffs)
