import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdet.fields import (
    CharTwoHalf,
    DEFAULT_PRIME,
    DivisionByZero,
    FieldSpec,
    GF2,
    GF2_16,
    MixedFields,
    PRIME_DEFAULT,
    RATIONAL,
    UnsupportedField,
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
