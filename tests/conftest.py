"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from itertools import compress

import pytest

from symdet.circuits import Circuit, CircuitBuilder
from symdet.fields import RATIONAL
from symdet.polynomials import DensePolynomial, expand_circuit


def poly_equal(p: DensePolynomial, q: DensePolynomial) -> bool:
    """Equality after aligning onto the union of the variable tuples."""
    allvars = tuple(sorted(set(p.variables) | set(q.variables)))
    return p.with_variables(allvars) == q.with_variables(allvars)


def per_term_render(p: DensePolynomial) -> str:
    """The text form of ``p`` by the per-term formatter that
    :func:`~symdet.polynomials.render_packed` replaced: sort the exponent
    tuples and format each term on its own, scanning every position."""
    if not p.coeffs:
        return "0"
    names = p.variables
    positions = range(len(names))
    try:  # as bytes, equal-length tuples of exponents < 256 sort the same
        order = sorted(p.coeffs, key=bytes)
    except ValueError:
        order = sorted(p.coeffs)
    parts = []
    for mono in order:
        c = p.coeffs[mono].render()
        factors = " ".join([f"{names[k]}^{mono[k]}" if mono[k] > 1 else names[k]
                            for k in compress(positions, mono)])
        parts.append(f"{c} * {factors}" if factors else c)
    return " + ".join(parts)


def lanes_of(points) -> dict:
    """The lane of each variable over ``{variable: FieldElement}`` points."""
    return {v: [p[v].value for p in points] for v in points[0]}


def circuit_matches(matrix_poly: DensePolynomial, circuit: Circuit) -> bool:
    return poly_equal(matrix_poly, expand_circuit(circuit)[0])


def leibniz_det(entries: list[list[DensePolynomial]]) -> DensePolynomial:
    """Reference determinant by direct permutation expansion."""
    n = len(entries)
    spec = entries[0][0].spec
    variables = entries[0][0].variables
    total = DensePolynomial.zero(spec, variables)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = DensePolynomial.constant(spec.one(), variables)
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def addition_chain(depth: int):
    """((x0 + 2 x1) + 2 x2) + ... with ``depth`` weighted additions."""
    b = CircuitBuilder()
    acc = b.var("x0")
    for k in range(1, depth + 1):
        acc = b.add(acc, b.var(f"x{k % 7}"), 1, 2)
    return b.build([acc])


def entry_matters(m, i, j, rng) -> bool:
    """One-point probe that the (i, j) cofactor is nonzero, i.e. that a
    mutation there changes the determinant at all.  A mutation with an
    identically zero cofactor leaves the polynomial unchanged and is not an
    error any verifier could flag."""
    from symdet.fields import PRIME_DEFAULT, sample_random
    from symdet.graphs import SymbolicMatrix
    from symdet.verify import det_eval

    minor_rows = [
        [m.entry(r, c) for c in range(m.dim) if c != j]
        for r in range(m.dim)
        if r != i
    ]
    minor = SymbolicMatrix(minor_rows, spec=m.spec)
    point = {v: sample_random(PRIME_DEFAULT, rng) for v in m.variables()}
    return not det_eval(minor, point, PRIME_DEFAULT).is_zero()


def mutate_matrix(m, rng):
    """A single-entry mutation with nonzero determinant sensitivity."""
    from symdet.graphs import Weight

    nonzero = [
        (i, j)
        for i in range(m.dim)
        for j in range(m.dim)
        if not m.entry(i, j).is_zero()
    ]
    while True:
        i, j = nonzero[rng.randrange(len(nonzero))]
        if not entry_matters(m, i, j, rng):
            continue
        w = m.entry(i, j)
        if w.kind == "const":
            new = Weight.const(w.coeff + RATIONAL.one())
        else:
            new = Weight.const(RATIONAL.from_int(2))
        return m.with_entry(i, j, new)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def fig1_formula() -> Circuit:
    """Formula computing (x+y)^2 + 2yz."""
    b = CircuitBuilder(RATIONAL)
    a1 = b.add(b.var("x"), b.var("y"))
    a2 = b.add(b.var("x"), b.var("y"))
    m1 = b.mul(a1, a2)
    m2 = b.mul(b.var("y"), b.var("z"))
    return b.build([b.add(m1, m2, 1, 2)])


@pytest.fixture
def fig1_weakly_skew() -> Circuit:
    """Weakly skew circuit computing (x+y)^2 + 2yz.

    One closed sub-circuit recomputes x+y for the squaring, the other
    computes 2z as z+z (the reused z sits inside it, so it is not reusable).
    """
    b = CircuitBuilder(RATIONAL)
    x, y = b.var("x"), b.var("y")
    shared = b.add(x, y)
    x2, y2 = b.var("x"), b.var("y")
    closed_sum = b.add(x2, y2)
    square = b.mul(closed_sum, shared)
    z = b.var("z")
    double_z = b.add(z, z)
    prod = b.mul(double_z, y)
    return b.build([b.add(square, prod)])
