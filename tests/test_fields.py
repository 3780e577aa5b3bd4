import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdet.fields import (
    CharTwoHalf,
    DEFAULT_PRIME,
    DivisionByZero,
    FieldElement,
    FieldSpec,
    GF2,
    GF2_16,
    IntArith,
    MixedFields,
    PRIME_DEFAULT,
    RATIONAL,
    UnsupportedField,
    _gf2_tables,
    embed,
    gf2_irreducible,
    half,
    is_prime,
    parse_element,
    sample_lanes,
    sample_random,
)

Z7 = FieldSpec.prime(7)


def test_default_prime_is_mersenne_61():
    assert DEFAULT_PRIME == 2**61 - 1
    assert is_prime(DEFAULT_PRIME)
    assert PRIME_DEFAULT.characteristic == DEFAULT_PRIME


def test_inverse_in_z7():
    assert Z7.from_int(2).inverse() == Z7.from_int(4)


def test_half():
    assert half(RATIONAL).value == Fraction(1, 2)
    assert half(Z7) == Z7.from_int(4)  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(CharTwoHalf):
        half(GF2_16)
    with pytest.raises(CharTwoHalf):
        half(GF2)


def test_characteristic_reporting():
    assert RATIONAL.characteristic == 0
    assert Z7.characteristic == 7
    assert GF2.characteristic == 2
    assert GF2_16.characteristic == 2


def test_char2_addition_cancels():
    a = GF2_16.from_bits(0xBEEF)
    assert (a + a).is_zero()


def test_gf2_16_modulus_is_irreducible():
    assert gf2_irreducible(GF2_16.modulus)


def test_gf2_itself_is_a_binary_field():
    """x + 1 is irreducible, though x^2 reduces to 1, not to x, modulo it."""
    assert gf2_irreducible(0b11)
    assert FieldSpec.binary(1) == GF2


# the hand-written table the default moduli were once read from
OLD_DEFAULT_MODULI = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011, 8: 0x11B,
                      16: 0x1002B, 24: 0x100001B, 32: 0x10000008D}


@pytest.mark.parametrize("k", sorted(OLD_DEFAULT_MODULI))
def test_default_modulus_is_the_smallest_irreducible(k):
    assert FieldSpec.binary(k).modulus == OLD_DEFAULT_MODULI[k]
    assert not any(gf2_irreducible(m) for m in range(1 << k, OLD_DEFAULT_MODULI[k]))


def mulmod_tables(k, modulus):
    """The log/exp tables of GF(2^k) by one carry-less product per power of
    the smallest generator, found as the smallest g whose powers take all
    2^k - 1 nonzero values."""
    order = (1 << k) - 1
    for g in range(2, order + 1):
        exp, x = [], 1
        while not exp or x != 1:
            exp.append(x)
            x = clmul_mod(x, g, modulus)
        if len(exp) == order:
            break
    log = [0] * (order + 1)
    for i, x in enumerate(exp):
        log[x] = i
    return exp + exp, log


# 0x1008D (x^16 + x^7 + x^3 + x^2 + 1), whose smallest generator is x^2 + x,
# and 0x17B, whose smallest generator is x^3 + 1; the default moduli's are
# x, x + 1 or x^2 + x + 1
TABLE_MODULI = [(k, FieldSpec.binary(k).modulus) for k in range(2, 17)] + [
    (16, 0x1008D), (8, 0x17B)]


@pytest.mark.parametrize("k, modulus", TABLE_MODULI, ids=lambda v: hex(v))
def test_gf2_tables_are_the_powers_of_the_smallest_generator(k, modulus):
    assert _gf2_tables(k, modulus) == mulmod_tables(k, modulus)


def test_default_moduli_stop_at_degree_64():
    assert gf2_irreducible(FieldSpec.binary(64).modulus)
    with pytest.raises(ValueError, match="pass one"):
        FieldSpec.binary(65)
    assert FieldSpec.binary(65, modulus=(1 << 65) | (1 << 18) | 1).k == 65


def test_binary_modulus_validation():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 is reducible
    with pytest.raises(ValueError):
        FieldSpec.binary(4, modulus=0b10101)


def test_rational_lowest_terms():
    q = RATIONAL.from_fraction(Fraction(6, -4))
    assert q.value == Fraction(-3, 2)
    assert q.value.denominator > 0


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        Z7.from_int(1) + RATIONAL.from_int(1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Z7.zero().inverse()
    with pytest.raises(DivisionByZero):
        GF2_16.zero().inverse()


def test_gf2k_kernel_above_the_tables_inverts_by_euclid_and_rejects_zero():
    """Above k = 16 the GF(2^k) kernel inverts by extended Euclid, which
    raises on zero itself, one value or a lane alike."""
    arith = FieldSpec.binary(17).arith
    assert arith.mul1(0x1234, arith.inv1(0x1234)) == 1
    for invert in (lambda: arith.inv1(0), lambda: arith.inv([1, 0])):
        with pytest.raises(DivisionByZero, match=r"inverse of zero in GF\(2\^k\)"):
            invert()


@given(st.integers(min_value=0, max_value=2**16 - 1),
       st.integers(min_value=0, max_value=2**16 - 1))
def test_frobenius_in_gf2_16(a, b):
    x, y = GF2_16.from_bits(a), GF2_16.from_bits(b)
    assert (x + y) * (x + y) == x * x + y * y


@given(st.integers(min_value=1, max_value=2**16 - 1))
def test_gf2_16_inverse(a):
    x = GF2_16.from_bits(a)
    assert (x * x.inverse()).is_one()


@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6))
def test_rational_render_round_trip(q):
    x = RATIONAL.from_fraction(q)
    assert parse_element(x.render(), RATIONAL) == x


@settings(max_examples=60)
@given(st.integers(min_value=-(10**12), max_value=10**12),
       st.integers(min_value=-(10**12), max_value=10**12))
def test_field_axioms_prime(a, b):
    x, y = PRIME_DEFAULT.from_int(a), PRIME_DEFAULT.from_int(b)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + PRIME_DEFAULT.one()) == x * y + x
    if not x.is_zero():
        assert (x * x.inverse()).is_one()


def test_render_round_trip_gf2k():
    x = GF2_16.from_bits(0x1F3A)
    assert x.render() == "0x1f3a"
    assert parse_element(x.render(), GF2_16) == x


# one constant syntax in every field: an optional minus, a decimal integer
# or fraction a/b, and 0x hex in binary fields only; None marks a malformed
# constant.  Columns: Q, Z_7, GF(2^16).
CONSTANT_TABLE = [
    ("5", Fraction(5), 5, 1),
    ("-5", Fraction(-5), 2, 1),
    ("12/9", Fraction(4, 3), 6, 0),
    ("-1/3", Fraction(-1, 3), 2, 1),
    ("007", Fraction(7), 0, 1),
    (" 3 ", Fraction(3), 3, 1),
    ("0x1f", None, None, 0x1F),
    ("-0x1f", None, None, 0x1F),
    ("0X1F", None, None, 0x1F),
    ("1e5", None, None, None),
    ("1.5", None, None, None),
    ("0b101", None, None, None),
    ("0o7", None, None, None),
    ("1_000", None, None, None),
    ("+5", None, None, None),
    ("--5", None, None, None),
    ("1/-2", None, None, None),
    ("0x", None, None, None),
    ("0x1/3", None, None, None),
    ("\u0665", None, None, None),  # an Arabic-Indic five, a digit to str.isdigit
    ("", None, None, None),
]


@pytest.mark.parametrize("text, q, z7, gf", CONSTANT_TABLE,
                         ids=[repr(row[0]) for row in CONSTANT_TABLE])
def test_parse_element_has_one_syntax_in_every_field(text, q, z7, gf):
    for spec, want in ((RATIONAL, q), (Z7, z7), (GF2_16, gf)):
        if want is None:
            with pytest.raises(ValueError, match="malformed constant"):
                parse_element(text, spec)
        else:
            assert parse_element(text, spec) == FieldElement(spec, want)


@pytest.mark.parametrize("spec", [RATIONAL, Z7, GF2_16], ids=str)
def test_parse_element_zero_denominator(spec):
    with pytest.raises(DivisionByZero):
        parse_element("1/0", spec)


def test_sampling_deterministic():
    a = [sample_random(PRIME_DEFAULT, random.Random(9)) for _ in range(5)]
    b = [sample_random(PRIME_DEFAULT, random.Random(9)) for _ in range(5)]
    assert a == b


def test_sampling_gf2_in_range():
    rng = random.Random(1)
    for _ in range(20):
        assert sample_random(GF2, rng).value in (0, 1)


def test_sampling_rational_unsupported():
    with pytest.raises(UnsupportedField):
        sample_random(RATIONAL, random.Random(0))


LANE_DRAW_FIELDS = [Z7, PRIME_DEFAULT, FieldSpec.binary(8), GF2_16, FieldSpec.binary(24)]


@pytest.mark.parametrize("spec", LANE_DRAW_FIELDS, ids=[str(f) for f in LANE_DRAW_FIELDS])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.sampled_from([0, 1, 2, 11]),
       t=st.sampled_from([1, 2, 7]))
def test_sample_lanes_draws_what_sample_random_draws(spec, seed, n, t):
    """The lane draw is the boxed trial-major draw, value for value, and
    leaves the generator where the boxed draw leaves it."""
    names = tuple(sorted(f"x{k}" for k in range(n)))
    fast, slow = random.Random(seed), random.Random(seed)
    lanes = sample_lanes(spec, fast, names, t)
    points = [{v: sample_random(spec, slow) for v in names} for _ in range(t)]
    assert list(lanes) == list(names)
    assert lanes == {v: [p[v].value for p in points] for v in names}
    assert fast.random() == slow.random()


def test_sample_lanes_rational_unsupported():
    with pytest.raises(UnsupportedField):
        sample_lanes(RATIONAL, random.Random(0), ("x",), 1)


def test_sampling_z7_uniform_chi_square():
    rng = random.Random(42)
    n = 100_000
    counts = [0] * 7
    for _ in range(n):
        counts[sample_random(Z7, rng).value] += 1
    expected = n / 7
    for c in counts:
        assert abs(c - expected) / expected < 0.05


def test_embed_rational_to_prime_and_binary():
    q = RATIONAL.from_fraction("3/5")
    e = embed(q, Z7)
    assert e == Z7.from_int(3) / Z7.from_int(5)
    assert embed(RATIONAL.from_fraction("-3/5"), Z7) == -e
    with pytest.raises(MixedFields):
        embed(RATIONAL.from_fraction("2/7"), Z7)
    assert embed(RATIONAL.from_fraction("1/3"), GF2) == GF2.one()  # 1/odd -> parity
    with pytest.raises(MixedFields):
        embed(RATIONAL.from_fraction("1/2"), GF2_16)


@pytest.mark.parametrize("source", [GF2, FieldSpec.binary(8)], ids=str)
@pytest.mark.parametrize("target", [GF2_16, FieldSpec.binary(24)], ids=str)
def test_embed_prime_subfield_of_binary_fields(source, target):
    """0 and 1 of any GF(2^k) are GF(2), which every GF(2^m) contains."""
    assert embed(source.zero(), target) == target.zero()
    assert embed(source.one(), target) == target.one()
    if source.k > 1:
        with pytest.raises(MixedFields):
            embed(source.from_bits(0x3), target)
    with pytest.raises(MixedFields):
        embed(source.one(), PRIME_DEFAULT)


def test_pow_and_neg():
    x = Z7.from_int(3)
    assert x**6 == Z7.one()
    assert -x == Z7.from_int(4)
    assert x ** -1 == x.inverse()


def test_gf2_32_carryless_path():
    # k > 16 bypasses the log/exp tables; exercise mul, inverse, Frobenius
    F = FieldSpec.binary(32)
    a = F.from_bits(0xDEADBEEF)
    b = F.from_bits(0x12345678)
    assert (a * a.inverse()).is_one()
    assert (a + b) * (a + b) == a * a + b * b
    assert parse_element((a * b).render(), F) == a * b


def test_prime_spec_rejects_composite():
    with pytest.raises(ValueError):
        FieldSpec.prime(91)


def test_embed_carries_gf2_between_z2_and_binary_fields():
    """Z_2 is GF(2): its 0 and 1 embed into every GF(2^k), and back."""
    z2 = FieldSpec.prime(2)
    for target in (GF2, GF2_16, FieldSpec.binary(8)):
        assert embed(z2.one(), target) == target.one()
        assert embed(z2.zero(), target) == target.zero()
        assert embed(target.one(), z2) == z2.one()
    with pytest.raises(MixedFields):
        embed(GF2_16.from_bits(0x2), z2)
    with pytest.raises(MixedFields):
        embed(z2.one(), Z7)


# -- the plain-int kernel against arithmetic it does not use -------------------


def clmul_mod(a, b, m):
    """a * b in GF(2)[x] modulo m: a carry-less product, then long division."""
    r = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            r ^= a << i
    k = m.bit_length() - 1
    for i in range(r.bit_length() - 1, k - 1, -1):
        if r >> i & 1:
            r ^= m << (i - k)
    return r


@pytest.mark.parametrize("k", range(1, 9))
def test_gf2_kernel_exhaustively_against_carryless_products(k):
    spec = FieldSpec.binary(k)
    arith, m = IntArith(spec), spec.modulus
    for x in range(1 << k):
        assert arith.add1(x, 1) == x ^ 1 and arith.neg1(x) == x
        assert [arith.mul1(x, y) for y in range(1 << k)] == [
            clmul_mod(x, y, m) for y in range(1 << k)]
        if x:
            assert clmul_mod(x, arith.inv1(x), m) == 1


BIG_BINARY = [FieldSpec.binary(k) for k in (12, 16, 24, 32, 64)]


@pytest.mark.parametrize("spec", BIG_BINARY, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gf2_kernel_by_sampling_against_carryless_products(spec, data):
    x, y = (data.draw(st.integers(1, (1 << spec.k) - 1)) for _ in range(2))
    arith, m = IntArith(spec), spec.modulus
    assert arith.mul1(x, y) == clmul_mod(x, y, m)
    assert arith.mul1(x, 0) == arith.mul1(0, y) == 0
    assert clmul_mod(x, arith.inv1(x), m) == 1


PRIMES = [2, 3, 7, 101, 65537, DEFAULT_PRIME]


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_prime_kernel_against_integer_arithmetic(p, data):
    x, y, f = (data.draw(st.integers(0, p - 1)) for _ in range(3))
    arith = IntArith(FieldSpec.prime(p))
    assert arith.add1(x, y) == (x + y) % p
    assert arith.neg1(x) == (p - x) % p
    assert arith.mul1(x, y) == x * y % p
    assert arith.submul1(x, f, y) == (x - f * y) % p
    if x:
        assert arith.inv1(x) == pow(x, p - 2, p)
    q = Fraction(data.draw(st.integers(-10**30, 10**30)), data.draw(st.integers(1, 10**30)))
    if q.denominator % p:
        assert arith.fraction1(q) * q.denominator % p == q.numerator % p
    with pytest.raises(DivisionByZero):
        arith.fraction1(Fraction(1, p))


KERNEL_FIELDS = [FieldSpec.prime(2), Z7, PRIME_DEFAULT, GF2, FieldSpec.binary(8), GF2_16,
                 FieldSpec.binary(24)]


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), t=st.integers(1, 6))
def test_kernel_lane_forms_match_scalar_forms(spec, data, t):
    arith = IntArith(spec)
    value = st.integers(0, spec.size - 1)
    xs, ys, fs = ([data.draw(value) for _ in range(t)] for _ in range(3))
    c = data.draw(value)
    assert arith.add(xs, ys) == list(map(arith.add1, xs, ys))
    assert arith.mul(xs, ys) == list(map(arith.mul1, xs, ys))
    assert arith.scale(c, xs) == [arith.mul1(c, x) for x in xs]
    assert arith.submul(xs, fs, ys) == list(map(arith.submul1, xs, fs, ys))
    nonzero = [x or 1 for x in xs]
    assert arith.inv(nonzero) == list(map(arith.inv1, nonzero))
    assert arith.times(c, xs) == arith.times(xs, c) == arith.scale(c, xs)
    assert arith.times(xs, ys) == arith.mul(xs, ys) and arith.times(c, c) == arith.mul1(c, c)
    assert arith.power(xs, 3) == [arith.mul1(arith.mul1(x, x), x) for x in xs]


ADDMUL_FIELDS = [FieldSpec.prime(2), Z7, FieldSpec.prime(101), PRIME_DEFAULT, GF2,
                 FieldSpec.binary(8), GF2_16, FieldSpec.binary(17), FieldSpec.binary(24),
                 FieldSpec.binary(64)]


@pytest.mark.parametrize("spec", ADDMUL_FIELDS, ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), t=st.integers(1, 6))
def test_kernel_addmul_is_add_of_mul(spec, data, t):
    """``addmul`` is x + f * v lane by lane, in Z_p, in GF(2^k) on the
    log/exp tables (k <= 16) and on carry-less products (k > 16)."""
    arith = IntArith(spec)
    value = st.one_of(st.integers(0, min(2, spec.size - 1)), st.integers(0, spec.size - 1))
    xs, fs, vs = ([data.draw(value) for _ in range(t)] for _ in range(3))
    before = (xs[:], fs[:], vs[:])
    assert arith.addmul(xs, fs, vs) == arith.add(xs, arith.mul(fs, vs))
    assert (xs, fs, vs) == before


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_kernel_scale_by_zero_one_and_minus_one(spec):
    """The scalars 1 and -1 take a path without a multiplication."""
    arith = IntArith(spec)
    xs = [0, 1, spec.size - 1, 0, spec.size // 2, 0]
    for c in (0, 1, arith.neg1(1)):
        got = arith.scale(c, xs)
        assert got == [arith.mul1(c, x) for x in xs]
        assert got is not xs
    assert xs == [0, 1, spec.size - 1, 0, spec.size // 2, 0]


def test_kernel_is_kept_once_per_spec_value():
    assert FieldSpec.binary(16).arith is GF2_16.arith
    with pytest.raises(UnsupportedField):
        IntArith(RATIONAL)


# -- the canonical form of Q: a plain int when integral, else a Fraction ------

RATIONALS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-(10**3), max_value=10**3, max_denominator=50),
)


def assert_rational(x: FieldElement, want: Fraction) -> None:
    """``x`` is the rational ``want``, stored as an int exactly when integral."""
    want = Fraction(want)
    assert x.spec is RATIONAL and x.value == want
    assert type(x.value) is (int if want.denominator == 1 else Fraction)


@settings(max_examples=200, deadline=None)
@given(a=RATIONALS, b=RATIONALS, e=st.integers(-4, 4))
def test_every_rational_route_is_canonical_and_exact(a, b, e):
    """Every constructor and operator of Q agrees with ``Fraction`` and
    stores an integer as a plain int, a proper fraction as a Fraction."""
    a, b = Fraction(a), Fraction(b)
    x = RATIONAL.from_fraction(a)
    y = RATIONAL.from_fraction(b)
    assert_rational(x, a)
    assert_rational(parse_element(str(a), RATIONAL), a)
    if a.denominator == 1:
        assert_rational(RATIONAL.from_int(a.numerator), a)
    assert_rational(x + y, a + b)
    assert_rational(x - y, a - b)
    assert_rational(x * y, a * b)
    assert_rational(-x, -a)
    assert_rational(x + 1, a + 1)
    assert_rational(2 * x, 2 * a)
    if b:
        assert_rational(x / y, a / b)
    if a:
        assert_rational(x.inverse(), 1 / a)
    if a or e >= 0:
        assert_rational(x**e, a**e)


def test_rational_inverse_of_an_integer_is_exact():
    got = RATIONAL.from_int(3).inverse().value
    assert got == Fraction(1, 3) and not isinstance(got, float)


def test_equal_rationals_are_one_key_however_built(monkeypatch):
    """2, 4/2 and (1/2)^-1 are one element: equal, hashed alike, one dict key
    and one entry of the verifier's embedding memo."""
    import symdet.verify as verify

    two = [RATIONAL.from_int(2), RATIONAL.from_fraction("4/2"), half(RATIONAL).inverse()]
    assert all(x == two[0] and hash(x) == hash(two[0]) for x in two)
    assert all(type(x.value) is int for x in two)
    assert len({x: None for x in two}) == 1
    calls = []

    def counting(x, spec):
        calls.append(x)
        return embed(x, spec)

    monkeypatch.setattr(verify, "embed", counting)
    embedded = verify._embedder(PRIME_DEFAULT)
    assert [embedded(x) for x in two] == [2, 2, 2]
    assert len(calls) == 1


def test_from_bits_refuses_a_field_other_than_gf2k():
    with pytest.raises(UnsupportedField, match="bit masks only describe GF"):
        FieldSpec.prime(101).from_bits(0x3)
