import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdet.circuits import classify, evaluate, measure
from symdet.fields import GF2_16, PRIME_DEFAULT, RATIONAL, FieldSpec, MixedFields
from symdet.polynomials import (
    DensePolynomial,
    ZeroPolynomial,
    bounds_report,
    expand_circuit,
    monomial_sum_circuit,
    pack,
    parse_polynomial,
    poly_to_formula,
    random_dense_polynomial,
    render_packed,
)
from tests.conftest import per_term_render


def num(n):
    return RATIONAL.from_int(n)


XYZ = ("x", "y", "z")


def P(text, variables=XYZ):
    return parse_polynomial(text, variables)


def test_product_of_sum_and_difference():
    x_plus_y = P("1 * x + 1 * y")
    x_minus_y = P("1 * x + -1 * y")
    assert x_plus_y * x_minus_y == P("1 * x^2 + -1 * y^2")


def test_eval_2xyz():
    p = P("2 * x y z")
    point = {"x": num(1), "y": num(2), "z": num(3)}
    assert p.evaluate(point) == num(12)


def test_self_subtraction_is_zero():
    p = P("3 * x^2 + 1 * y")
    assert (p - p).is_zero()
    assert not (p - p).coeffs


def test_render_parse_round_trip(rng):
    for _ in range(25):
        p = random_dense_polynomial(3, 3, rng)
        assert parse_polynomial(p.render(), p.variables) == p


def test_mixed_variable_universes_rejected():
    with pytest.raises(ValueError):
        P("1 * x") + parse_polynomial("1 * u", ("u",))


def test_poly_to_formula_2xyz():
    p = P("2 * x y z")
    f = poly_to_formula(p)
    assert classify(f).is_formula
    point = {"x": num(1), "y": num(2), "z": num(3)}
    assert evaluate(f, point)[0] == num(12)


def test_poly_to_formula_round_trip_small(rng):
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            p = random_dense_polynomial(n, d, rng)
            f = poly_to_formula(p)
            got = expand_circuit(f, variables=p.variables)[0]
            assert got == p, (n, d, p.render(), got.render())


def test_poly_to_formula_linear_size():
    # degree-1 polynomial in n variables uses at most n additions
    p = parse_polynomial("3 * x1 + 2 * x2 + -1 * x3 + 7",
                         ("x1", "x2", "x3"))
    f = poly_to_formula(p)
    assert measure(f).skinny <= 3


def test_poly_to_formula_size_bound(rng):
    for _ in range(50):
        n = rng.randint(1, 5)
        d = rng.randint(1, 5)
        p = random_dense_polynomial(n, d, rng)
        f = poly_to_formula(p)
        bound = bounds_report(n, max(d, 1)).formula_bound
        assert measure(f).skinny <= bound, (n, d, measure(f).skinny, bound)


def test_poly_to_formula_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        poly_to_formula(DensePolynomial.zero(RATIONAL, XYZ))


def test_monomial_sum_size_formula():
    for n in range(1, 9):
        for d in range(1, 9):
            c = monomial_sum_circuit(n, d)
            rep = measure(c)
            assert rep.skinny == 2 * n * d - n + d - 1, (n, d, rep.skinny)
            n_inputs = rep.fat - rep.skinny
            assert n_inputs == (n + 1) * d


def test_monomial_sum_is_weakly_skew():
    for n, d in ((1, 1), (2, 3), (3, 2)):
        assert classify(monomial_sum_circuit(n, d)).is_weakly_skew


def test_monomial_sum_counts_monomials():
    for n, d in ((1, 1), (2, 2), (3, 4), (4, 3)):
        c = monomial_sum_circuit(n, d)
        ones = {v: num(1) for v in c.variables}
        assert evaluate(c, ones)[0] == num(math.comb(n + d, d))


def test_monomial_sum_n1_d1_polynomial():
    c = monomial_sum_circuit(1, 1)
    assert expand_circuit(c)[0] == parse_polynomial("1 + 1 * x1", ("x1",))


def test_bounds_hand_checked():
    r = bounds_report(1, 1)
    assert r.formula_bound == 1          # C(3,2) - C(1,2) - 2
    assert r.sym_dimension_bound == 2    # 4*C(1,1) - 2
    r = bounds_report(2, 2)
    assert r.formula_bound == math.comb(5, 3) - math.comb(3, 3) - 2 == 7
    assert r.sym_dimension_bound == 4 * math.comb(3, 2) - 2 == 10
    assert r.quarez_dimension == 2 * math.comb(3, 2) == 6
    assert r.monomial_formula_size == 2 * math.comb(4, 3) == 8
    r = bounds_report(3, 3)
    assert r.formula_bound == math.comb(7, 4) - math.comb(5, 4) - 2 == 28
    assert r.sym_dimension_bound == 4 * math.comb(5, 3) - 2 == 38


def test_bounds_match_binomials_table():
    for n in range(1, 11):
        for d in range(1, 11):
            r = bounds_report(n, d)
            assert r.sym_dimension_bound == 4 * math.comb(n + d - 1, n) - 2


def test_pascal_recurrence_of_bound_table():
    # G(N, d) = F(N-d-1, d) + 2 satisfies Pascal's inequality
    def G(N, d):
        n = N - d - 1
        if n < 1:
            return None
        return bounds_report(n, d).formula_bound + 2

    for N in range(4, 14):
        for d in range(2, N - 2):
            g = G(N, d)
            left = G(N - 1, d)
            right = G(N - 1, d - 1)
            if g is None or left is None or right is None:
                continue
            assert g <= left + right


def test_expand_circuit_matches_evaluate(fig1_formula):
    p = expand_circuit(fig1_formula)[0]
    point = {"x": num(1), "y": num(2), "z": num(3)}
    assert p.evaluate(point) == num(21)


from hypothesis import given as _given, settings as _settings
from hypothesis import strategies as _st


def _poly_strategy():
    mono = _st.tuples(_st.integers(0, 3), _st.integers(0, 3))
    coeff = _st.integers(-9, 9).map(RATIONAL.from_int)
    return _st.dictionaries(mono, coeff, max_size=6).map(
        lambda c: DensePolynomial(RATIONAL, ("x", "y"), c)
    )


@_settings(max_examples=60)
@_given(_poly_strategy(), _poly_strategy(), _poly_strategy())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert (p - p).is_zero()


@_settings(max_examples=40)
@_given(_poly_strategy())
def test_poly_render_round_trip(p):
    assert parse_polynomial(p.render(), p.variables) == p


def reference_render(p: DensePolynomial) -> str:
    """Terms in increasing exponent-tuple order, each ``c * x y^2``."""
    if not p.coeffs:
        return "0"
    parts = []
    for mono in sorted(p.coeffs):
        factors = " ".join(f"{v}^{e}" if e > 1 else v
                           for v, e in zip(p.variables, mono) if e)
        c = p.coeffs[mono].render()
        parts.append(f"{c} * {factors}" if factors else c)
    return " + ".join(parts)


@settings(max_examples=100, deadline=None)
@given(nv=st.integers(0, 5), data=st.data())
def test_render_matches_reference(nv, data):
    variables = tuple(f"v{k}" for k in range(nv))
    # exponents up to 300 so that some monomials do not fit in bytes
    exponent = st.one_of(st.integers(0, 3), st.integers(0, 300))
    terms = data.draw(st.dictionaries(
        st.tuples(*[exponent] * nv), st.integers(-5, 5).map(num), max_size=12))
    p = DensePolynomial(RATIONAL, variables, terms)
    assert p.render() == reference_render(p)


@pytest.mark.parametrize("variables, terms, want", [
    (("x", "y"), {}, "0"),
    ((), {(): 3}, "3"),
    (("x",), {(2,): -1, (0,): 2, (1,): 1}, "2 + 1 * x + -1 * x^2"),
    (("x",), {(256,): 1, (255,): 2}, "2 * x^255 + 1 * x^256"),
    (("x", "y", "z"), {(0, 300, 1): 1, (1, 0, 0): 5, (0, 70000, 0): 7},
     "1 * y^300 z + 7 * y^70000 + 5 * x"),
], ids=["zero", "no variables", "one variable", "exponent 256", "wide exponents"])
def test_render_packed_on_edge_cases(variables, terms, want):
    p = DensePolynomial(RATIONAL, variables, {m: num(c) for m, c in terms.items()})
    width = max(1, (max((e for m in terms for e in m), default=0).bit_length() + 7) // 8)
    packed = {pack(m, width): c for m, c in p.coeffs.items()}
    assert render_packed(variables, packed, width) == p.render() == per_term_render(p) == want


@settings(max_examples=100, deadline=None)
@given(nv=st.integers(0, 5), spec=st.sampled_from([RATIONAL, PRIME_DEFAULT, GF2_16]),
       data=st.data())
def test_render_packed_matches_per_term_formatter(nv, spec, data):
    variables = tuple(f"v{k}" for k in range(nv))
    # some exponents need two or three bytes each
    exponent = st.one_of(st.integers(0, 3), st.integers(250, 260), st.integers(0, 70000))
    coeff = (st.integers(0, 9).map(spec.from_bits) if spec.kind == "binary"
             else st.integers(-4, 4).map(spec.from_int))
    terms = data.draw(st.dictionaries(st.tuples(*[exponent] * nv), coeff, max_size=12))
    p = DensePolynomial(spec, variables, terms)
    top = max((e for m in p.coeffs for e in m), default=0)
    for width in range(max(1, (top.bit_length() + 7) // 8), 4):
        packed = {pack(m, width): c for m, c in p.coeffs.items()}
        assert render_packed(variables, packed, width) == per_term_render(p)
    assert p.render() == per_term_render(p)


@settings(max_examples=150, deadline=None)
@given(nv=st.integers(1, 6), data=st.data(),
       spec=st.sampled_from([RATIONAL, FieldSpec.prime(101), FieldSpec.binary(8), GF2_16]))
def test_render_packed_formats_shared_halves_as_the_per_term_formatter(nv, spec, data):
    """Every pairing of a few high halves with a few low halves, so each
    half's text is shared by several terms; two coefficients; the all-zero
    half (an empty high or low factor text, and with both the constant
    term) drawn often; exponents of 2 and 3, read straight from the bytes
    at width 1, and with one of 300 two bytes per exponent."""
    variables = tuple(f"v{k}" for k in range(nv))
    low = nv // 2
    exponent = st.sampled_from([0, 0, 1, 2, 3])
    half = [st.lists(st.tuples(*[exponent] * k), min_size=1, max_size=4, unique=True)
            for k in (nv - low, low)]
    highs, lows = data.draw(half[0]), data.draw(half[1])
    for halves, k in ((highs, nv - low), (lows, low)):
        if data.draw(st.booleans()) and (0,) * k not in halves:
            halves.append((0,) * k)
    pool = [spec.from_int(c) for c in (1, 2, 3, 5) if spec.from_int(c)]
    if spec.kind == "binary":
        pool = [spec.from_bits(c) for c in (1, 2, 0x1F)]
    coeffs = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2))
    terms = {h + lo: data.draw(st.sampled_from(coeffs)) for h in highs for lo in lows}
    if data.draw(st.booleans()):
        mono = data.draw(st.sampled_from(sorted(terms)))
        k = data.draw(st.integers(0, nv - 1))
        terms[mono[:k] + (300,) + mono[k + 1:]] = coeffs[0]
    p = DensePolynomial(spec, variables, terms)
    want = per_term_render(p)
    top = max(e for m in p.coeffs for e in m)
    for width in range(1 if top < 256 else 2, 3):
        packed = {pack(m, width): c for m, c in p.coeffs.items()}
        assert render_packed(variables, packed, width) == want
    assert p.render() == want


def test_dense_polynomial_refuses_a_mismatched_shape_or_field():
    xy = ("x", "y")
    with pytest.raises(ValueError, match=r"monomial \(1,\) does not match \('x', 'y'\)"):
        DensePolynomial(RATIONAL, xy, {(1,): RATIONAL.one()})
    with pytest.raises(ValueError, match="'z' not in"):
        DensePolynomial.variable("z", xy)
    x = DensePolynomial.variable("x", xy)
    with pytest.raises(ValueError, match=r"target variables lack \['y'\]"):
        x.with_variables(("x",))
    with pytest.raises(ValueError, match="variable mismatch"):
        x + DensePolynomial.variable("x", ("x",))
    with pytest.raises(MixedFields, match=f"{RATIONAL} vs {PRIME_DEFAULT}"):
        x + DensePolynomial.variable("x", xy, PRIME_DEFAULT)


@pytest.mark.parametrize("call", [lambda: monomial_sum_circuit(0, 1),
                                  lambda: bounds_report(1, 0)])
def test_monomial_sum_and_bounds_need_n_and_d_at_least_1(call):
    with pytest.raises(ValueError, match=r"need n, d >= 1"):
        call()
