"""Exact field arithmetic over Q, prime fields Z_p and binary fields GF(2^k).

Every value is an immutable :class:`FieldElement` tagged with its
:class:`FieldSpec`; all operations are pure, so elements can be shared freely
between threads.  Three kinds of field are supported:

* ``rational``  -- arbitrary-precision Q (``fractions.Fraction`` underneath),
* ``prime(p)``  -- residues mod a prime p,
* ``binary(k)`` -- GF(2^k) as polynomials over GF(2) modulo a fixed
  irreducible, stored as bit masks.

The default identity-testing field is Z_p with the Mersenne prime
p = 2^61 - 1; the default binary field is GF(2^16) with modulus
x^16 + x^5 + x^3 + x + 1.  For k <= 16 multiplication uses lazily built
log/exp tables, which matters for randomized identity testing over GF(2^16).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union


class FieldError(Exception):
    """Base class for field arithmetic errors."""


class DivisionByZero(FieldError):
    """Inverse or division requested for the zero element."""


class CharTwoHalf(FieldError):
    """The constant 1/2 was requested in a field of characteristic 2."""


class MixedFields(FieldError):
    """Operands belong to different field specs."""


class UnsupportedField(FieldError):
    """Operation is not defined for this field kind (e.g. sampling from Q)."""


# ---------------------------------------------------------------------------
# primality / GF(2)[x] helpers
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gf2_degree(a: int) -> int:
    return a.bit_length() - 1


def _gf2_mod(a: int, m: int) -> int:
    dm = _gf2_degree(m)
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _gf2_mulmod(a: int, b: int, m: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a.bit_length() == m.bit_length():
            a ^= m
    return r


def _gf2_poly_gcd(a: int, b: int) -> int:
    while b:
        if _gf2_degree(a) < _gf2_degree(b):
            a, b = b, a
            continue
        a = _gf2_mod(a, b)
        a, b = b, a
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def gf2_irreducible(m: int) -> bool:
    """Rabin irreducibility test for a GF(2)[x] polynomial given as a bit mask."""
    k = _gf2_degree(m)
    if k < 1 or not (m & 1):
        return False
    if _gf2_pow(2, 1 << k, m) != 2:  # x^(2^k) == x (mod m)
        return False
    for q in _prime_factors(k):
        h = _gf2_pow(2, 1 << (k // q), m) ^ 2
        if _gf2_poly_gcd(m, h) != 1:
            return False
    return True


def _gf2_inverse(a: int, m: int) -> int:
    """Extended Euclid over GF(2)[x]."""
    if a == 0:
        raise DivisionByZero("inverse of zero in GF(2^k)")
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1:
        dr = _gf2_degree(r0) - _gf2_degree(r1)
        if dr < 0:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        r0 ^= r1 << dr
        s0 ^= s1 << dr
        if r0 == 0 or _gf2_degree(r0) < _gf2_degree(r1):
            r0, r1, s0, s1 = r1, r0, s1, s0
    return _gf2_mod(s0, m)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

#: Mersenne prime 2^61 - 1, default field for randomized identity testing.
DEFAULT_PRIME = (1 << 61) - 1

#: x^16 + x^5 + x^3 + x + 1, irreducible over GF(2).
DEFAULT_GF2_16_MODULUS = (1 << 16) | (1 << 5) | (1 << 3) | 2 | 1


@dataclass(frozen=True)
class FieldSpec:
    """Description of a supported field: Q, Z_p or GF(2^k)."""

    kind: str  # "rational" | "prime" | "binary"
    p: int = 0
    k: int = 0
    modulus: int = 0

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return FieldSpec("prime", p=p)

    @staticmethod
    def binary(k: int, modulus: int | None = None) -> "FieldSpec":
        if k < 1:
            raise ValueError("binary field degree must be >= 1")
        if modulus is None:
            modulus = _DEFAULT_MODULI.get(k)
            if modulus is None:
                raise ValueError(f"no default modulus for GF(2^{k}); pass one")
        if _gf2_degree(modulus) != k or not gf2_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is not irreducible of degree {k}")
        return FieldSpec("binary", k=k, modulus=modulus)

    @property
    def characteristic(self) -> int:
        if self.kind == "rational":
            return 0
        if self.kind == "prime":
            return self.p
        return 2

    @property
    def size(self) -> int | None:
        """Field cardinality, or None for Q."""
        if self.kind == "rational":
            return None
        if self.kind == "prime":
            return self.p
        return 1 << self.k

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElement":
        if self.kind == "rational":
            return FieldElement(self, Fraction(n))
        if self.kind == "prime":
            return FieldElement(self, n % self.p)
        return FieldElement(self, n % 2)

    def from_fraction(self, q: Union[Fraction, int, str]) -> "FieldElement":
        q = Fraction(q)
        if self.kind == "rational":
            return FieldElement(self, q)
        return self.from_int(q.numerator) / self.from_int(q.denominator)

    def from_bits(self, mask: int) -> "FieldElement":
        if self.kind != "binary":
            raise UnsupportedField("bit masks only describe GF(2^k) elements")
        return FieldElement(self, _gf2_mod(mask, self.modulus) if mask.bit_length() > self.k else mask)

    def __str__(self) -> str:
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return f"Z_{self.p}"
        return f"GF(2^{self.k})"


_DEFAULT_MODULI = {
    1: 0b11,                      # x + 1
    2: 0b111,                     # x^2 + x + 1
    3: 0b1011,
    4: 0b10011,
    8: 0x11B,                     # AES polynomial
    16: DEFAULT_GF2_16_MODULUS,
    24: 0x100001B,                # x^24 + x^4 + x^3 + x + 1
    32: 0x10000008D,              # x^32 + x^7 + x^3 + x^2 + 1
}

RATIONAL = FieldSpec("rational")
PRIME_DEFAULT = FieldSpec("prime", p=DEFAULT_PRIME)
GF2 = FieldSpec("binary", k=1, modulus=0b11)
GF2_16 = FieldSpec("binary", k=16, modulus=DEFAULT_GF2_16_MODULUS)


# log/exp tables for small binary fields, keyed by (k, modulus)
_GF2_TABLES: dict[tuple[int, int], tuple[list[int], list[int]]] = {}


def _gf2_tables(spec: FieldSpec) -> tuple[list[int], list[int]]:
    key = (spec.k, spec.modulus)
    tables = _GF2_TABLES.get(key)
    if tables is not None:
        return tables
    size = 1 << spec.k
    order = size - 1
    factors = _prime_factors(order)
    g = 2
    while True:
        if all(_gf2_pow(g, order // q, spec.modulus) != 1 for q in factors):
            break
        g += 1
    exp = [0] * (2 * order)
    log = [0] * size
    x = 1
    for i in range(order):
        exp[i] = x
        log[x] = i
        x = _gf2_mulmod(x, g, spec.modulus)
    for i in range(order, 2 * order):
        exp[i] = exp[i - order]
    _GF2_TABLES[key] = (exp, log)
    return exp, log


def _gf2_pow(a: int, e: int, m: int) -> int:
    """a^e mod m over GF(2)[x]; x is ``a = 2``."""
    r = 1
    while e:
        if e & 1:
            r = _gf2_mulmod(r, a, m)
        a = _gf2_mulmod(a, a, m)
        e >>= 1
    return r


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class FieldElement:
    """Immutable element of Q, Z_p or GF(2^k)."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise MixedFields(f"{self.spec} vs {other.spec}")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        if isinstance(other, Fraction):
            return self.spec.from_fraction(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "FieldElement":
        other = self._coerce(other)
        spec = self.spec
        if spec.kind == "rational":
            return FieldElement(spec, self.value + other.value)
        if spec.kind == "prime":
            return FieldElement(spec, (self.value + other.value) % spec.p)
        return FieldElement(spec, self.value ^ other.value)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        spec = self.spec
        if spec.kind == "rational":
            return FieldElement(spec, -self.value)
        if spec.kind == "prime":
            return FieldElement(spec, (-self.value) % spec.p)
        return self

    def __sub__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other) -> "FieldElement":
        return (-self) + other

    def __mul__(self, other) -> "FieldElement":
        other = self._coerce(other)
        spec = self.spec
        if spec.kind == "rational":
            return FieldElement(spec, self.value * other.value)
        if spec.kind == "prime":
            return FieldElement(spec, self.value * other.value % spec.p)
        a, b = self.value, other.value
        if a == 0 or b == 0:
            return FieldElement(spec, 0)
        if spec.k <= 16:
            exp, log = _gf2_tables(spec)
            return FieldElement(spec, exp[log[a] + log[b]])
        return FieldElement(spec, _gf2_mulmod(a, b, spec.modulus))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        spec = self.spec
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {spec}")
        if spec.kind == "rational":
            return FieldElement(spec, 1 / self.value)
        if spec.kind == "prime":
            return FieldElement(spec, pow(self.value, -1, spec.p))
        if spec.k <= 16:
            exp, log = _gf2_tables(spec)
            order = (1 << spec.k) - 1
            return FieldElement(spec, exp[(order - log[self.value]) % order])
        return FieldElement(spec, _gf2_inverse(self.value, spec.modulus))

    def __truediv__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.spec.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return not self.value

    def is_one(self) -> bool:
        return self.value == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.spec.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.spec, self.value))

    def render(self) -> str:
        """Canonical text form; ``parse_element`` round-trips it bit-exactly."""
        if self.spec.kind == "binary":
            return hex(self.value)
        return str(self.value)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{self.render()} in {self.spec}>"


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse a decimal integer, ``a/b`` fraction, or hex bit string."""
    text = text.strip()
    try:
        if spec.kind == "binary" and text.startswith(("0x", "0X", "-0x")):
            return spec.from_bits(int(text.lstrip("-"), 16))
        if "/" in text or spec.kind != "prime":
            return spec.from_fraction(Fraction(text))
        return spec.from_int(int(text, 0))
    except ZeroDivisionError:
        raise DivisionByZero(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed constant {text!r}") from None


def half(spec: FieldSpec) -> FieldElement:
    """The constant 1/2.  Raises :class:`CharTwoHalf` in characteristic 2."""
    if spec.characteristic == 2:
        raise CharTwoHalf(f"1/2 does not exist in {spec}")
    return spec.from_int(2).inverse()


def _sample_bound(spec: FieldSpec) -> int:
    """The ``rng.randrange`` bound whose draws are the field's elements: the
    residues below p, or the GF(2^k) bit masks below 2^k."""
    if spec.size is None:
        raise UnsupportedField("cannot sample uniformly from Q")
    return spec.size


def sample_random(spec: FieldSpec, rng: random.Random) -> FieldElement:
    """Uniform element of a finite field; deterministic for a seeded rng."""
    return FieldElement(spec, rng.randrange(_sample_bound(spec)))


def sample_lanes(
    spec: FieldSpec, rng: random.Random, names: Sequence[str], t: int
) -> dict[str, list[int]]:
    """``t`` uniform points as lanes: the plain-int value of each of the
    distinct ``names`` at every point, one int per point.

    The draws are those of ``[{v: sample_random(spec, rng) for v in names}
    for _ in range(t)]``, in the same order, so the lanes hold the values of
    those points without boxing any of them.
    """
    bound = _sample_bound(spec)
    lanes: dict[str, list[int]] = {v: [] for v in names}
    appends = [lanes[v].append for v in names]
    draw = rng.randrange
    for _ in range(t):
        for append in appends:
            append(draw(bound))
    return lanes


def embed(x: FieldElement, spec: FieldSpec) -> FieldElement:
    """Carry an element into ``spec``.

    Rationals embed into Z_p (denominator inverted mod p) and into GF(2^k)
    when the denominator is odd; 0 and 1 of any GF(2^k), its prime subfield
    GF(2), embed into any other GF(2^m); same-spec elements pass through;
    anything else raises :class:`MixedFields`.
    """
    if x.spec == spec:
        return x
    if x.spec.kind == spec.kind == "binary" and x.value in (0, 1):
        return FieldElement(spec, x.value)
    if x.spec.kind == "rational":
        q: Fraction = x.value
        if spec.kind == "prime":
            if q.denominator % spec.p == 0:
                raise MixedFields(f"denominator of {q} vanishes in {spec}")
            p = spec.p
            return FieldElement(spec, q.numerator * pow(q.denominator, -1, p) % p)
        if spec.kind == "binary":
            if q.denominator % 2 == 0:
                raise MixedFields(f"{q} has even denominator, not embeddable in {spec}")
            return spec.from_int(q.numerator % 2)
    raise MixedFields(f"cannot embed {x.spec} element into {spec}")
