"""Exact coefficient domains: rationals, prime fields, sparse polynomial rings.

Values are immutable and canonical, so equal values have identical
representations, ``==`` is exact structural equality, and printing is
deterministic. Nothing here ever rounds.

A polynomial stores each coefficient as an ``int`` when it is integral and
as a ``Fraction`` only otherwise, and keys each monomial by one int that
packs its exponents into a 32-bit field per variable. The top bit of each
field is a guard bit: an exponent that reaches 2^31 raises ``ValueError``
rather than carrying into the next variable's field.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Domain",
    "Rationals",
    "PrimeField",
    "PolynomialRing",
    "FpElement",
    "Polynomial",
    "RATIONALS",
    "domain_from_json",
    "is_prime",
]


_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with the prime witnesses 2 through 41.

    Exact for n below _PRIME_BOUND, about 3.3e24 (Sorenson and Webster,
    Math. Comp. 86, 2017); at or above it, True means only "probable prime".
    """
    if n < 2:
        return False
    for w in _MILLER_RABIN_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")
_INTEGER_RE = re.compile(r"[+-]?\d+")
_VARIABLE_RE = re.compile(r"a(\d+)(?:\^(\d+))?")


class FpElement:
    """Residue modulo a prime, kept canonical in [0, p).

    Arithmetic only combines residues with the same modulus; anything else
    is rejected rather than silently coerced.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        return None

    def __add__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return FpElement(self.value + rhs.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return FpElement(self.value - rhs.value, self.p)

    def __mul__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return FpElement(self.value * rhs.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return FpElement(pow(self.value, exponent, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((FpElement, self.p, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"


_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_EXPONENT_LIMIT = 1 << (_FIELD_BITS - 1)


@lru_cache(maxsize=16)
def _guard_mask(num_vars: int) -> int:
    """The top (guard) bit of each of the num_vars exponent fields."""
    ones = ((1 << (_FIELD_BITS * num_vars)) - 1) // _FIELD_MASK
    return ones << (_FIELD_BITS - 1)


def _unpack(key: int) -> tuple[int, ...]:
    """The exponent vector of a packed key, without trailing zeros."""
    fields = (key.bit_length() + _FIELD_BITS - 1) // _FIELD_BITS
    # "<I" is a little-endian 32-bit unsigned field, one per variable
    return struct.unpack(f"<{fields}I", key.to_bytes(4 * fields, "little"))


def _rational(q):
    """``q`` as an int when it is integral, else as a Fraction."""
    return q.numerator if q.denominator == 1 else q


class Polynomial:
    """Sparse multivariate polynomial over the rationals.

    ``terms`` maps packed exponent keys to nonzero coefficients; the zero
    polynomial has no terms. A key holds the exponent of variable a_{i+1}
    in bits 32*i .. 32*i + 31, so multiplying two monomials adds their
    keys. Every exponent stays below 2^31: the top bit of each field is a
    guard bit that a product sets instead of carrying into the next
    field, and a set guard bit raises ``ValueError``. A coefficient is an
    ``int`` when it is integral and a ``Fraction`` otherwise, so equal
    values have identical representations. The mapping is never mutated
    after construction.

    The constructor takes exponent tuples (trailing zeros allowed) as
    keys; packed keys stay internal.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=None):
        if num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        canon: dict[int, int | Fraction] = {}
        for exps, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative integers")
            if any(exps[num_vars:]):
                raise ValueError("exponent vector longer than num_vars")
            if any(e >= _EXPONENT_LIMIT for e in exps):
                raise ValueError("exponent too large")
            key = sum(e << (_FIELD_BITS * i) for i, e in enumerate(exps))
            total = _rational(canon.get(key, 0) + coeff)
            if total:
                canon[key] = total
            else:
                canon.pop(key, None)
        self.num_vars = num_vars
        self.terms = canon

    @classmethod
    def _raw(cls, num_vars: int, terms: dict) -> "Polynomial":
        # trusted constructor: terms must already be canonical
        poly = object.__new__(cls)
        poly.num_vars = num_vars
        poly.terms = terms
        return poly

    def _lift(self, other):
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise ValueError("mixed polynomial rings")
            return other
        return None

    def __add__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        big, small = self.terms, rhs.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        get = out.get
        for key, coeff in small.items():
            total = get(key, 0) + coeff
            if total.__class__ is not int:
                total = _rational(total)
            if total:
                out[key] = total
            else:
                del out[key]
        return Polynomial._raw(self.num_vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __neg__(self):
        return Polynomial._raw(
            self.num_vars, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        out: dict[int, int | Fraction] = {}
        get = out.get
        rhs_terms = rhs.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in rhs_terms:
                key = e1 + e2
                out[key] = get(key, 0) + c1 * c2
        guard = _guard_mask(self.num_vars)
        terms = {}
        for key, coeff in out.items():
            if coeff:
                if key & guard:
                    raise ValueError("exponent too large")
                if coeff.__class__ is not int:
                    coeff = _rational(coeff)
                terms[key] = coeff
        return Polynomial._raw(self.num_vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if exponent == 0:
            return Polynomial._raw(self.num_vars, {0: 1})
        if len(self.terms) == 1:
            ((key, coeff),) = self.terms.items()
            if max(_unpack(key), default=0) * exponent >= _EXPONENT_LIMIT:
                raise ValueError("exponent too large")
            return Polynomial._raw(
                self.num_vars, {key * exponent: coeff ** exponent}
            )
        base = self
        result = None
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.num_vars == other.num_vars and self.terms == other.terms
        return NotImplemented

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(_unpack(key)) for key in self.terms), default=0)

    def degree_in(self, index: int) -> int:
        """Highest power of variable ``index`` (1-based) in any term."""
        if not 1 <= index <= self.num_vars:
            raise ValueError(f"variable index {index} outside 1..{self.num_vars}")
        shift = _FIELD_BITS * (index - 1)
        return max(
            ((key >> shift) & _FIELD_MASK for key in self.terms), default=0
        )

    def _ordered_terms(self):
        # (exponent tuple, coefficient) pairs in graded-lex order, highest
        # first; tuples without trailing zeros compare as padded ones would
        items = [(_unpack(key), c) for key, c in self.terms.items()]
        return sorted(
            items, key=lambda item: (sum(item[0]), item[0]), reverse=True
        )

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self._ordered_terms():
            mono = "*".join(
                f"a{i + 1}" if e == 1 else f"a{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            mag = -coeff if coeff < 0 else coeff
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.num_vars}, {self})"


def _signed_chunks(text: str) -> list[tuple[int, str]]:
    out = []
    for i, plus_part in enumerate(text.split(" + ")):
        for j, piece in enumerate(plus_part.split(" - ")):
            sign = -1 if j > 0 else 1
            piece = piece.strip()
            if i == 0 and j == 0 and piece.startswith("-"):
                sign = -1
                piece = piece[1:].strip()
            if not piece:
                raise ValueError("empty term in polynomial literal")
            out.append((sign, piece))
    return out


def _parse_polynomial(text: str, num_vars: int) -> Polynomial:
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial literal")
    if s == "0":
        return Polynomial._raw(num_vars, {})
    terms: dict[tuple[int, ...], Fraction] = {}
    for sign, chunk in _signed_chunks(s):
        coeff = Fraction(sign)
        exps = [0] * num_vars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if _RATIONAL_RE.fullmatch(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r}") from None
                continue
            m = _VARIABLE_RE.fullmatch(factor)
            if m is None:
                raise ValueError(f"bad polynomial factor {factor!r}")
            index = int(m.group(1))
            if not 1 <= index <= num_vars:
                raise ValueError(f"variable a{index} outside a1..a{num_vars}")
            exps[index - 1] += int(m.group(2) or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(num_vars, terms)


class Domain:
    """A coefficient domain: element checks, constants and conversions.

    Arithmetic is the elements' own exact operators. Subclasses fix the
    element type and canonical form. The instance doubles as the domain
    descriptor (value equality, JSON round-trip).
    """

    kind = "abstract"
    is_field = False

    def contains(self, x) -> bool:
        raise NotImplementedError

    def check(self, x) -> None:
        if not self.contains(x):
            raise ValueError(f"{x!r} is not an element of {self}")

    def inv(self, a):
        raise ValueError("not a field")

    def from_int(self, m: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, x) -> str:
        self.check(x)
        return str(x)

    def to_json(self):
        raise NotImplementedError


class Rationals(Domain):
    """Arbitrary-precision rational numbers (``fractions.Fraction``)."""

    kind = "rational"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def contains(self, x) -> bool:
        return isinstance(x, Fraction)

    def inv(self, a):
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def from_int(self, m: int):
        return Fraction(m)

    def from_fraction(self, q: Fraction):
        return Fraction(q)

    def parse(self, text: str):
        if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text.strip()):
            raise ValueError(f"bad rational literal {text!r}")
        try:
            return Fraction(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    def to_json(self):
        return "rational"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(Rationals)

    def __repr__(self):
        return "Rationals()"


RATIONALS = Rationals()


class PrimeField(Domain):
    """Integers modulo a prime p, residues kept in [0, p)."""

    kind = "prime_field"
    is_field = True

    def __init__(self, p: int):
        if p >= _PRIME_BOUND:
            raise ValueError(
                f"modulus {p} is too large: primality is exact only below "
                f"{_PRIME_BOUND}"
            )
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def contains(self, x) -> bool:
        return isinstance(x, FpElement) and x.p == self.p

    def inv(self, a):
        self.check(a)
        if a.value == 0:
            raise ZeroDivisionError("inverse of zero")
        return FpElement(pow(a.value, -1, self.p), self.p)

    def from_int(self, m: int):
        return FpElement(m, self.p)

    def from_fraction(self, q: Fraction):
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise ValueError(
                f"denominator {q.denominator} not invertible modulo {self.p}"
            )
        return FpElement(
            q.numerator * pow(q.denominator, -1, self.p), self.p
        )

    def parse(self, text: str):
        if not isinstance(text, str) or not _INTEGER_RE.fullmatch(text.strip()):
            raise ValueError(f"bad integer literal {text!r}")
        return FpElement(int(text), self.p)

    def to_json(self):
        return {"prime": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((PrimeField, self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class PolynomialRing(Domain):
    """Polynomials over the rationals in variables a1..a{num_vars}."""

    kind = "polynomial_ring"
    is_field = False

    def __init__(self, num_vars: int):
        if num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        self.num_vars = num_vars
        self.zero = Polynomial._raw(num_vars, {})
        self.one = Polynomial._raw(num_vars, {0: 1})

    def contains(self, x) -> bool:
        return isinstance(x, Polynomial) and x.num_vars == self.num_vars

    def variable(self, index: int) -> Polynomial:
        """The generator a_index, 1-based."""
        if not 1 <= index <= self.num_vars:
            raise ValueError(
                f"variable index {index} outside 1..{self.num_vars}"
            )
        return Polynomial._raw(
            self.num_vars, {1 << (_FIELD_BITS * (index - 1)): 1}
        )

    def from_int(self, m: int):
        return Polynomial(self.num_vars, {(): m})

    def from_fraction(self, q: Fraction):
        return Polynomial(self.num_vars, {(): q})

    def parse(self, text: str):
        if not isinstance(text, str):
            raise ValueError("polynomial literal must be a string")
        return _parse_polynomial(text, self.num_vars)

    def substitute(self, p: Polynomial, values, target: Domain | None = None):
        """Evaluate p at ``values`` (one per variable) in the target domain.

        The target is inferred from the assignment when not given; plain
        ints are promoted to rationals first.
        """
        self.check(p)
        values = [Fraction(v) if isinstance(v, int) else v for v in values]
        if len(values) != self.num_vars:
            raise ValueError(
                f"assignment length {len(values)} != num_vars {self.num_vars}"
            )
        if target is None:
            target = _infer_domain(values)
        for v in values:
            target.check(v)
        result = target.zero
        for key, coeff in p.terms.items():
            term = target.from_fraction(coeff)
            for i, e in enumerate(_unpack(key)):
                if e:
                    term = term * values[i] ** e
            result = result + term
        return result

    def to_json(self):
        return {"symbolic": self.num_vars}

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.num_vars == self.num_vars
        )

    def __hash__(self):
        return hash((PolynomialRing, self.num_vars))

    def __repr__(self):
        return f"PolynomialRing({self.num_vars})"


def _infer_domain(values) -> Domain:
    first = values[0]
    if isinstance(first, Fraction):
        return RATIONALS
    if isinstance(first, FpElement):
        return PrimeField(first.p)
    if isinstance(first, Polynomial):
        return PolynomialRing(first.num_vars)
    raise ValueError(f"cannot infer a domain from {first!r}")


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a bool or any other type raises."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def domain_from_json(obj) -> Domain:
    """Inverse of Domain.to_json for the three supported domains."""
    if obj == "rational":
        return RATIONALS
    if isinstance(obj, dict):
        if set(obj) == {"prime"}:
            return PrimeField(json_int(obj["prime"], "prime"))
        if set(obj) == {"symbolic"}:
            return PolynomialRing(json_int(obj["symbolic"], "symbolic"))
    raise ValueError(f"bad domain descriptor {obj!r}")
