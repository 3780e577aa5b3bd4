"""Exact field arithmetic over Q, prime fields Z_p and binary fields GF(2^k).

Every value is an immutable :class:`FieldElement` tagged with its
:class:`FieldSpec`; all operations are pure, so elements can be shared freely
between threads.  Three kinds of field are supported:

* ``rational``  -- arbitrary-precision Q, each value in one canonical form:
  a plain ``int`` when it is an integer, else a ``fractions.Fraction``,
* ``prime(p)``  -- residues mod a prime p,
* ``binary(k)`` -- GF(2^k) as polynomials over GF(2) modulo a fixed
  irreducible, stored as bit masks.

The arithmetic of a finite field on plain ints is written once, in
:class:`IntArith` (``spec.arith``): :class:`FieldElement` boxes its scalar
forms, only the proper fractions of Q going through ``Fraction``, and
:mod:`symdet.verify` runs its lane forms.  The default identity-testing
field is Z_p with the Mersenne prime p = 2^61 - 1; the default binary field
is GF(2^16) with modulus x^16 + x^5 + x^3 + x + 1, the smallest irreducible
of degree 16, as every default modulus of GF(2^k), k <= 64, is the smallest
of its degree.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
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
        a = _gf2_mod(a, b)  # a itself when deg a < deg b: the swap orders them
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
    if _gf2_pow(2, 1 << k, m) != _gf2_mod(2, m):  # x^(2^k) == x (mod m)
        return False
    for q in _prime_factors(k):
        h = _gf2_pow(2, 1 << (k // q), m) ^ 2
        if _gf2_poly_gcd(m, h) != 1:
            return False
    return True


def _gf2_inverse(a: int, m: int) -> int:
    """Extended Euclid over GF(2)[x] for an element ``a`` reduced modulo
    ``m``, so deg a < deg m; each step keeps deg r0 >= deg r1."""
    if a == 0:
        raise DivisionByZero("inverse of zero in GF(2^k)")
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1:
        dr = _gf2_degree(r0) - _gf2_degree(r1)
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
            modulus = _default_modulus(k)
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
            return FieldElement(self, n)
        return FieldElement(self, n % self.arith.p)

    def from_fraction(self, q: Union[Fraction, int, str]) -> "FieldElement":
        q = Fraction(q)
        if self.kind == "rational":
            return FieldElement(self, _canonical(q))
        return FieldElement(self, self.arith.fraction1(q))

    def from_bits(self, mask: int) -> "FieldElement":
        if self.kind != "binary":
            raise UnsupportedField("bit masks only describe GF(2^k) elements")
        return FieldElement(self, _gf2_mod(mask, self.modulus) if mask.bit_length() > self.k else mask)

    @cached_property
    def arith(self) -> "IntArith":
        """The plain-int arithmetic of a finite field, one per spec value."""
        return _arith(self)

    def __str__(self) -> str:
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return f"Z_{self.p}"
        return f"GF(2^{self.k})"


@cache
def _default_modulus(k: int) -> int:
    """The smallest irreducible of degree ``k <= 64``, as a bit mask: the
    AES polynomial at k = 8, ``DEFAULT_GF2_16_MODULUS`` at k = 16."""
    if k > 64:
        raise ValueError(f"no default modulus for GF(2^{k}); pass one")
    m = (1 << k) | 1
    while not gf2_irreducible(m):
        m += 2
    return m


RATIONAL = FieldSpec("rational")
PRIME_DEFAULT = FieldSpec("prime", p=DEFAULT_PRIME)
GF2 = FieldSpec("binary", k=1, modulus=0b11)
GF2_16 = FieldSpec("binary", k=16, modulus=DEFAULT_GF2_16_MODULUS)


@cache
def _gf2_tables(k: int, modulus: int) -> tuple[list[int], list[int]]:
    """log/exp tables of GF(2^k), built once per (k, modulus): ``exp`` lists
    the powers of the smallest generator g twice over, each power the last
    one times g by shifts and xors, and ``log`` inverts its first half."""
    size = 1 << k
    order = size - 1
    factors = _prime_factors(order)
    g = 2  # the smallest generator of the multiplicative group
    while not all(_gf2_pow(g, order // q, modulus) != 1 for q in factors):
        g += 1
    exp = [0] * (2 * order)
    log = [0] * size
    x = 1
    # x times g is the xor of x shifted by each bit of g, the bits above k
    # folded back through a table of their residues
    shifts = [s for s in range(g.bit_length()) if g >> s & 1]
    top = shifts.pop()
    fold = [_gf2_mod(h << k, modulus) for h in range(1 << top)]
    for i in range(order):
        exp[i] = exp[i + order] = x
        log[x] = i
        y = x << top
        for s in shifts:
            y ^= x << s
        x = y & order ^ fold[y >> k]
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
# elements: plain ints, and boxed
# ---------------------------------------------------------------------------


class IntArith:
    """The arithmetic of one finite field on plain ints: Z_p residues, or
    GF(2^k) bit masks by log/exp tables for k <= 16 and shift-and-add above.

    A value is a scalar, one int that is the same at every trial point, or a
    lane, a list with one int per trial point.  ``p`` is the characteristic,
    an integer n is n % p, and :meth:`fraction1` maps Q into the field.  The
    other scalar forms end in 1: ``neg1`` negates, and ``add1``, ``mul1``,
    ``inv1`` and ``submul1`` (x - f * v) have the lane forms ``add``,
    ``mul``, ``inv`` and ``submul``, and ``addmul`` is the lane form of
    x + f * v; ``scale`` multiplies a lane by a scalar into a fresh list
    (copying for 1 and negating for -1, without a multiplication),
    :meth:`times` any mix of the two."""

    def __init__(self, spec: FieldSpec):
        if spec.size is None:
            raise UnsupportedField(f"plain-int arithmetic needs a finite field, not {spec}")
        self.spec = spec
        self.p = p = spec.characteristic
        if spec.kind == "prime":
            def add1(x, y):
                return (x + y) % p

            def neg1(x):
                return -x % p

            def mul1(x, y):
                return x * y % p

            def inv1(x):
                return pow(x, -1, p)

            def submul1(x, f, v):
                return (x - f * v) % p

            def add(xs, ys):
                return [(x + y) % p for x, y in zip(xs, ys)]

            def mul(xs, ys):
                return [x * y % p for x, y in zip(xs, ys)]

            def scale(c, xs):
                if c == 1:
                    return xs[:]
                if c == p - 1:
                    return [p - x if x else 0 for x in xs]
                return [c * x % p for x in xs]

            def inv(xs):
                # Montgomery's trick: one modular inversion for all lanes
                prefix = list(accumulate(xs, lambda a, b: a * b % p))
                r = pow(prefix[-1], -1, p)
                out = xs[:]
                for i in range(len(xs) - 1, 0, -1):
                    out[i] = r * prefix[i - 1] % p
                    r = r * xs[i] % p
                out[0] = r
                return out

            def submul(xs, fs, vs):
                return [(x - f * v) % p for x, f, v in zip(xs, fs, vs)]

            def addmul(xs, fs, vs):
                return [(x + f * v) % p for x, f, v in zip(xs, fs, vs)]
        else:
            def add1(x, y):
                return x ^ y

            def neg1(x):
                return x

            def add(xs, ys):
                return [x ^ y for x, y in zip(xs, ys)]

            if spec.k <= 16:
                exp, log = _gf2_tables(spec.k, spec.modulus)
                order = (1 << spec.k) - 1

                def mul1(x, y):
                    return exp[log[x] + log[y]] if x and y else 0

                def inv1(x):
                    return exp[order - log[x]]

                def submul1(x, f, v):
                    return x ^ exp[log[f] + log[v]] if f and v else x

                def mul(xs, ys):
                    return [exp[log[x] + log[y]] if x and y else 0 for x, y in zip(xs, ys)]

                def scale(c, xs):
                    if c == 1:
                        return xs[:]
                    if not c:
                        return [0] * len(xs)
                    c = log[c]
                    return [exp[c + log[x]] if x else 0 for x in xs]

                def inv(xs):
                    return [exp[order - log[x]] for x in xs]

                def submul(xs, fs, vs):
                    return [x ^ exp[log[f] + log[v]] if f and v else x
                            for x, f, v in zip(xs, fs, vs)]
            else:
                mod = spec.modulus

                def mul1(x, y):
                    return _gf2_mulmod(x, y, mod)

                def inv1(x):
                    return _gf2_inverse(x, mod)

                def submul1(x, f, v):
                    return x ^ _gf2_mulmod(f, v, mod)

                def mul(xs, ys):
                    return [_gf2_mulmod(x, y, mod) for x, y in zip(xs, ys)]

                def scale(c, xs):
                    if c == 1:
                        return xs[:]
                    return [_gf2_mulmod(c, x, mod) for x in xs]

                def inv(xs):
                    return [_gf2_inverse(x, mod) for x in xs]

                def submul(xs, fs, vs):
                    return [x ^ _gf2_mulmod(f, v, mod) for x, f, v in zip(xs, fs, vs)]
            addmul = submul  # x + f * v is x - f * v in characteristic 2
        self.add1 = add1
        self.neg1 = neg1
        self.mul1 = mul1
        self.inv1 = inv1  # x must be nonzero
        self.submul1 = submul1  # x - f * v
        self.add = add
        self.mul = mul
        self.scale = scale  # a scalar times each lane
        self.inv = inv  # lanes must be nonzero
        self.submul = submul  # xs - fs * vs, lane by lane
        self.addmul = addmul  # xs + fs * vs, lane by lane

    def fraction1(self, q: Fraction) -> int:
        """The image of ``q``; :class:`DivisionByZero` if its denominator vanishes."""
        n, d = q.numerator % self.p, q.denominator % self.p
        if d == 1:  # every integer, and every q in characteristic 2 that has an image
            return n
        if not d:
            raise DivisionByZero(f"inverse of zero in {self.spec}")
        return self.mul1(n, self.inv1(d))

    def times(self, x: int | list[int], y: int | list[int]) -> int | list[int]:
        """The product of two values, each a scalar or a lane: a scalar when
        both are, else a fresh lane."""
        if type(x) is int:
            return self.mul1(x, y) if type(y) is int else self.scale(x, y)
        return self.scale(y, x) if type(y) is int else self.mul(x, y)

    def power(self, xs: list[int], e: int) -> list[int]:
        """Each lane to the power ``e >= 0``, by square and multiply."""
        out = None
        while True:
            if e & 1:
                out = xs if out is None else self.mul(out, xs)
            e >>= 1
            if not e:
                return [1] * len(xs) if out is None else out
            xs = self.mul(xs, xs)


_arith = cache(IntArith)  # one kernel per spec value


def _canonical(q: int | Fraction) -> int | Fraction:
    """The stored form of a rational: the plain int when it is an integer."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


class FieldElement:
    """Immutable element of Q, Z_p or GF(2^k).

    ``value`` is a plain int, except for a proper fraction of Q, which is a
    ``Fraction``; the constructors and operators keep that form, so elements
    are built only in this module (and by :mod:`symdet.verify`, from the ints
    of a finite field).

    A slotted class whose ``__init__`` writes each slot through its
    descriptor, past the ``__setattr__`` guard that makes assignment
    raise."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        _set_spec(self, spec)
        _set_value(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        return FieldElement, (self.spec, self.value)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
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
            return FieldElement(spec, _canonical(self.value + other.value))
        return FieldElement(spec, spec.arith.add1(self.value, other.value))

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        spec = self.spec
        if spec.kind == "rational":
            return FieldElement(spec, -self.value)
        return FieldElement(spec, spec.arith.neg1(self.value))

    def __sub__(self, other) -> "FieldElement":
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other) -> "FieldElement":
        return (-self) + other

    def __mul__(self, other) -> "FieldElement":
        other = self._coerce(other)
        spec = self.spec
        if spec.kind == "rational":
            return FieldElement(spec, _canonical(self.value * other.value))
        return FieldElement(spec, spec.arith.mul1(self.value, other.value))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        spec = self.spec
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {spec}")
        if spec.kind == "rational":
            return FieldElement(spec, _canonical(Fraction(1, self.value)))
        return FieldElement(spec, spec.arith.inv1(self.value))

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


_set_spec, _set_value = (FieldElement.__dict__[slot].__set__ for slot in FieldElement.__slots__)


# an optional minus, then hex digits or a decimal integer or fraction
_CONSTANT = re.compile(r"(-?)(?:0[xX]([0-9a-fA-F]+)|([0-9]+)(?:/([0-9]+))?)")


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse a constant, one syntax in every field: an optional leading
    minus, then a decimal integer, a fraction ``a/b`` of decimal integers
    or, in a binary field only, a ``0x`` hex bit string.  Any other form
    raises ``ValueError`` naming the constant."""
    text = text.strip()
    m = _CONSTANT.fullmatch(text)
    if m is None or (m[2] is not None and spec.kind != "binary"):
        raise ValueError(f"malformed constant {text!r}")
    minus, bits, num, den = m.groups()
    if bits is not None:
        return spec.from_bits(int(bits, 16))  # -x = x in characteristic 2
    n = -int(num) if minus else int(num)
    if den is None:
        return spec.from_int(n)
    if not int(den):
        raise DivisionByZero(f"zero denominator in {text!r}")
    return spec.from_fraction(Fraction(n, int(den)))


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
    those points without boxing any of them: each draw runs the rejection
    loop of ``random.Random.randrange(bound)`` itself, ``getrandbits`` of
    the bound's bit length until the draw is below the bound.
    """
    bound = _sample_bound(spec)
    k = bound.bit_length()
    lanes: dict[str, list[int]] = {v: [] for v in names}
    appends = [lanes[v].append for v in names]
    getrandbits = rng.getrandbits
    for _ in range(t):
        for append in appends:
            r = getrandbits(k)
            while r >= bound:
                r = getrandbits(k)
            append(r)
    return lanes


def embed(x: FieldElement, spec: FieldSpec) -> FieldElement:
    """Carry an element into ``spec``.

    Rationals embed into Z_p (denominator inverted mod p) and into GF(2^k)
    when the denominator is odd; 0 and 1 of any field of characteristic 2
    (Z_2 or a GF(2^k)), its prime subfield GF(2), embed into any other;
    same-spec elements pass through; anything else raises
    :class:`MixedFields`.
    """
    if x.spec == spec:
        return x
    if x.spec.kind == "rational" and spec.kind != "rational":
        q: Fraction = x.value
        try:
            return FieldElement(spec, spec.arith.fraction1(q))
        except DivisionByZero:
            raise MixedFields(f"denominator of {q} vanishes in {spec}" if spec.kind == "prime"
                              else f"{q} has even denominator, not embeddable in {spec}") from None
    if x.spec.characteristic == spec.characteristic == 2 and x.value in (0, 1):
        return FieldElement(spec, x.value)
    raise MixedFields(f"cannot embed {x.spec} element into {spec}")
