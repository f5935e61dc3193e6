"""Exact coefficient domains: rationals, prime fields, sparse polynomial rings.

Values are immutable, ``==`` is exact equality, and printing is
deterministic. Nothing here ever rounds. Each domain has two kernels beside
the elements' operators, and neither calls the other, so that the routes
and the oracle they are checked against run on different code:

- ``Domain.horner``, the oracle's composition: Horner's rule, each step
  forming only the entries that still reach order m, because the inner
  series has a zero constant term; over Q, int numerators over one
  denominator, the fixed operand scaled to integers once per call; over
  Q[a1..aK], one gathered sum per entry; over Z/p, plain residues, and for
  primes with m*(p-1)^2 < 2^64 one integer product per step, the fixed
  operand packed once per call;
- ``Domain.combine``, the routes' sum of products x_0*y_0 + x_1*y_1 + ...
  up to the end of the shorter sequence: one integer sum over one common
  denominator, reduced once, over Q; one gathered sum of every pair's term
  products over Q[a1..aK]; one integer sum and one reduction over Z/p.

A third kernel prepares ``combine`` for one matrix applied to many vectors,
as ``coeff_recursive`` applies the power table to each row:
``Domain.linear_map(rows)`` returns xs -> [combine(xs, row) for row in
rows], one ``combine`` per row over Q and Q[a1..aK]; over Z/p, when
w*(p-1)^2 < 2^64 for w the longest row's length, the rows are packed once
as columns of 8-byte slots, and each application is one integer sum of
products, one unpack and a reduction per slot.

A rational is an ``int`` or a ``Fraction``, and every rational the package
makes is an ``int`` or a ``QFraction``: a slotted subclass of ``Fraction``
whose ``+ - * ** ==`` read their operands' slots and build the result
without ``Fraction.__new__``, an ``int`` exactly when it is integral.
Stdlib ``Fraction``'s operators run in pure Python through its generic
operand dispatch, and they took most of a rational sweep's time. The
constructors, both kernels and QFraction's ``+ - * **`` and negation on
rational operands give canonical values. The operators it inherits
(``/``, ``abs``, ...) and arithmetic on stdlib Fractions passed in (as
tests build them) and ints stay stdlib, and can give an integral
``Fraction`` (``Fraction(1, 2) * 2``); the package's one division,
``Rationals.inv``, canonicalises its result. Equal rationals of any of
these types compare equal, hash alike and print alike; they need not have
identical representations. Prime-field residues and polynomials are
canonical, so for them they do.

A polynomial stores each coefficient as an ``int`` when it is integral and
as a ``QFraction`` only otherwise, and keys each monomial by one int that
packs its exponents into a 32-bit field per variable. The top bit of each
field is a guard bit: an exponent that reaches 2^31 raises ``ValueError``
rather than carrying into the next variable's field.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

__all__ = [
    "Domain",
    "Rationals",
    "PrimeField",
    "PolynomialRing",
    "FpElement",
    "Polynomial",
    "QFraction",
    "RATIONALS",
    "domain_from_json",
    "is_prime",
]


_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981
# the least strong pseudoprime to the witnesses 2, 3, 5 and 7 together
_FOUR_WITNESS_BOUND = 3215031751


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with prime witnesses, after trial
    division by each of them.

    Below _FOUR_WITNESS_BOUND, about 3.2e9, the witnesses 2, 3, 5 and 7
    alone are exact (Jaeschke, Math. Comp. 61, 1993); above it the test
    takes all of 2 through 41, exact for n below _PRIME_BOUND, about 3.3e24
    (Sorenson and Webster, Math. Comp. 86, 2017). At or above that bound,
    True means only "probable prime".
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
    witnesses = _MILLER_RABIN_WITNESSES
    if n < _FOUR_WITNESS_BOUND:
        witnesses = witnesses[:4]
    for a in witnesses:
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


# re.ASCII: \d would otherwise match every Unicode decimal digit
_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?", re.ASCII)
_INTEGER_RE = re.compile(r"[+-]?\d+", re.ASCII)
_VARIABLE_RE = re.compile(r"a(\d+)(?:\^(\d+))?", re.ASCII)


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


_gcd = math.gcd
_new = object.__new__


def _residue(v: int, p: int) -> FpElement:
    """The element of Z/p holding v, already in [0, p), built without
    ``FpElement.__init__``'s reduction."""
    e = _new(FpElement)
    e.value = v
    e.p = p
    return e


@lru_cache(maxsize=256)
def _slots(n: int) -> struct.Struct:
    """The compiled layout of n little-endian 64-bit unsigned slots, "<nQ"."""
    return struct.Struct(f"<{n}Q")


def _from_coprime(n: int, d: int):
    """The rational n/d of coprime ints n and d > 0: n itself when d = 1,
    else a QFraction holding them, built without ``Fraction.__new__`` and
    without a further gcd."""
    if d == 1:
        return n
    q = _new(QFraction)
    q._numerator = n
    q._denominator = d
    return q


def _reduced(n: int, d: int):
    """The rational n/d for ints n and d > 0, reduced by one gcd."""
    g = _gcd(n, d)
    return _from_coprime(n // g, d // g)


def _sum(na, da, nb, db):
    # na/da + nb/db in lowest terms by CPython's steps: g = gcd(da, db),
    # then one gcd of the numerator with g (Knuth, TAOCP vol. 2, 4.5.1)
    g = _gcd(da, db)
    if g == 1:
        return _from_coprime(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = _gcd(t, g)
    if g2 == 1:
        return _from_coprime(t, s * db)
    return _from_coprime(t // g2, s * (db // g2))


def _product(na, da, nb, db):
    # na/da * nb/db in lowest terms: each numerator cancelled against the
    # other factor's denominator
    g1 = _gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = _gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _from_coprime(na * nb, da * db)


class QFraction(Fraction):
    """A ``Fraction`` whose ``+ - * ** ==`` take integer fast paths.

    An operand of exact class ``int``, ``Fraction`` or ``QFraction`` is read
    through its slots, and the result is built by ``_from_coprime``: an
    ``int`` when it is integral, else a QFraction. Any other operand (a
    ``bool``, a ``float``, ...), a negative or non-int exponent, and every
    operator not listed here take the inherited ``Fraction`` method, so they
    behave as for a ``Fraction``. The reflected methods are overridden too,
    so Python tries them first on ``int`` and ``Fraction`` left operands.
    """

    __slots__ = ()

    def __add__(a, b):
        cls = b.__class__
        if cls is int:
            # gcd(na + b*da, da) = gcd(na, da) = 1
            return _from_coprime(a._numerator + b * a._denominator, a._denominator)
        if cls is QFraction or cls is Fraction:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__add__(a, b)

    def __radd__(a, b):
        cls = b.__class__
        if cls is int:
            return _from_coprime(a._numerator + b * a._denominator, a._denominator)
        if cls is Fraction:
            return _sum(b._numerator, b._denominator, a._numerator, a._denominator)
        return Fraction.__radd__(a, b)

    def __sub__(a, b):
        cls = b.__class__
        if cls is int:
            return _from_coprime(a._numerator - b * a._denominator, a._denominator)
        if cls is QFraction or cls is Fraction:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        cls = b.__class__
        if cls is int:
            return _from_coprime(b * a._denominator - a._numerator, a._denominator)
        if cls is Fraction:
            return _sum(b._numerator, b._denominator, -a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        cls = b.__class__
        if cls is int:
            g = _gcd(b, a._denominator)
            return _from_coprime(a._numerator * (b // g), a._denominator // g)
        if cls is QFraction or cls is Fraction:
            return _product(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__mul__(a, b)

    def __rmul__(a, b):
        cls = b.__class__
        if cls is int:
            g = _gcd(b, a._denominator)
            return _from_coprime((b // g) * a._numerator, a._denominator // g)
        if cls is Fraction:
            return _product(b._numerator, b._denominator, a._numerator, a._denominator)
        return Fraction.__rmul__(a, b)

    def __neg__(a):
        return _from_coprime(-a._numerator, a._denominator)

    def __pow__(a, b):
        if b.__class__ is int and b >= 0:
            return _from_coprime(a._numerator ** b, a._denominator ** b)
        return Fraction.__pow__(a, b)

    def __eq__(a, b):
        cls = b.__class__
        if cls is int:
            return a._denominator == 1 and a._numerator == b
        if cls is QFraction or cls is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        return Fraction.__eq__(a, b)

    __hash__ = Fraction.__hash__

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"


def _rational(q):
    """``q``, a Fraction, as an int when it is integral, else as a QFraction."""
    return _from_coprime(q._numerator, q._denominator)


class Polynomial:
    """Sparse multivariate polynomial over the rationals.

    ``terms`` maps packed exponent keys to nonzero coefficients; the zero
    polynomial has no terms. A key holds the exponent of variable a_{i+1}
    in bits 32*i .. 32*i + 31, so multiplying two monomials adds their
    keys. Every exponent stays below 2^31: the top bit of each field is a
    guard bit that a product sets instead of carrying into the next
    field, and a set guard bit raises ``ValueError``. A coefficient is an
    ``int`` when it is integral and a ``QFraction`` otherwise, so equal
    values have identical representations. The mapping is never mutated
    after construction.

    The constructor takes exponent tuples (trailing zeros allowed) as
    keys; packed keys stay internal. It checks and packs every tuple, a
    zero coefficient's too, sums each key's coefficients as ints and
    QFractions, and hands the sums to ``_from_sums``, which drops the
    zeros.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=None):
        if num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        sums: dict[int, int | Fraction] = {}
        for exps, coeff in (terms or {}).items():
            coeff = _rational(Fraction(coeff))
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative integers")
            if any(exps[num_vars:]):
                raise ValueError("exponent vector longer than num_vars")
            if any(e >= _EXPONENT_LIMIT for e in exps):
                raise ValueError("exponent too large")
            key = sum(e << (_FIELD_BITS * i) for i, e in enumerate(exps))
            sums[key] = sums.get(key, 0) + coeff
        self.num_vars = num_vars
        self.terms = Polynomial._from_sums(num_vars, sums).terms

    @classmethod
    def _raw(cls, num_vars: int, terms: dict) -> "Polynomial":
        # trusted constructor: terms must already be canonical
        poly = object.__new__(cls)
        poly.num_vars = num_vars
        poly.terms = terms
        return poly

    @classmethod
    def _from_sums(cls, num_vars: int, sums: dict) -> "Polynomial":
        """The polynomial of the per-key sums ``sums`` (packed key to
        coefficient), with zeros dropped: of the constructor's terms, or of
        a product's or a kernel's term products. Each sum is an int or a
        QFraction already, as every sum and product of them is.

        Every key is checked for a guard bit, even one whose sum cancelled
        to zero: a product of nonzero polynomials also holds its
        lexicographically largest key, which never cancels, so this raises
        exactly where one of the summed products alone would."""
        guard = _guard_mask(num_vars)
        terms = {}
        for key, coeff in sums.items():
            if key & guard:
                raise ValueError("exponent too large")
            if coeff:
                terms[key] = coeff
        return cls._raw(num_vars, terms)

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
        # not via _from_sums, which re-walks the larger operand: 1.13-1.37x
        # slower; canonical coefficients have canonical sums (see QFraction)
        big, small = self.terms, rhs.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        get = out.get
        for key, coeff in small.items():
            total = get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                del out[key]
        return Polynomial._raw(self.num_vars, out)

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
        return Polynomial._from_sums(self.num_vars, out)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if exponent == 0:
            return Polynomial._raw(self.num_vars, {0: 1})
        # the routes' powers are all monomials'; this path saves their sweeps 4-7%
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
    terms: dict[tuple[int, ...], Fraction] = {}
    for sign, chunk in _signed_chunks(s):
        coeff = Fraction(sign)
        exps = [0] * num_vars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if _RATIONAL_RE.fullmatch(factor):
                coeff *= RATIONALS.parse(factor)
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

    Arithmetic is the elements' own exact operators, plus two kernels that
    each subclass implements and this class does not: ``horner``, the
    oracle's composition, and ``combine``, the routes' sum of products.
    Neither calls the other. ``linear_map``, ``combine`` prepared for one
    matrix, is defined here from ``combine``; ``PrimeField`` packs it.
    Subclasses fix the element types and their form. The instance doubles
    as the domain descriptor: two domains are equal when their ``to_json``
    descriptors are, and ``domain_from_json`` inverts ``to_json``.
    """

    is_field = False

    def contains(self, x) -> bool:
        raise NotImplementedError

    def check(self, x) -> None:
        if not self.contains(x):
            raise ValueError(f"{x!r} is not an element of {self}")

    def inv(self, a):
        raise ValueError("not a field")

    def horner(self, coeffs, ys):
        """The coefficients of f(g(x)) to order m, for f = a_1 x + ... +
        a_m x^m with ``coeffs`` a_1..a_m and g with ``ys`` g_1..g_m, by
        Horner's rule: acc = (a_j + acc)*g for j = m, ..., 1 from acc = 0,
        truncated. g has a zero constant term, so each later step's product
        by g raises every order by at least one; the acc of step j meets g
        j - 1 more times, and only its entries up to x^(m-j+1) reach x^m.
        Step j forms just those m - j + 1 entries: with x the list a_j,
        acc_1, ..., acc_(m-j), entry s is x_0*g_(s+1) + x_1*g_s + ... +
        x_s*g_1, the same sum as in the full-length product (Brent and
        Kung, J. ACM 25, 1978)."""
        raise NotImplementedError

    def combine(self, xs, ys):
        """x_0*y_0 + x_1*y_1 + ..., summed up to the end of the shorter
        sequence: the sum of products that the power table, ``coeff_closed``
        and ``linear_map``, so ``coeff_recursive``, form; ``zero`` when
        either sequence is empty."""
        raise NotImplementedError

    def linear_map(self, rows):
        """The map xs -> [combine(xs, row) for row in rows], prepared once
        for a matrix applied to many vectors, as ``coeff_recursive`` applies
        the power table to each row; here one ``combine`` per row."""
        combine = self.combine
        return lambda xs: list(map(combine, repeat(xs), rows))

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

    def __eq__(self, other):
        return isinstance(other, Domain) and self.to_json() == other.to_json()

    def __hash__(self):
        # the repr maps one to one to the descriptor
        return hash(repr(self))


class Rationals(Domain):
    """Arbitrary-precision rational numbers, each an ``int`` or a
    ``fractions.Fraction``; ``bool`` and ``float`` are refused.

    Operations on ints stay ints, so integral values skip the gcd and the
    object that each Fraction operation pays for. Constructors and both
    kernels return an ``int`` for an integral value and a ``QFraction``
    otherwise, and so does QFraction arithmetic (see the module docstring).
    Each kernel sums in ints over one common denominator and reduces each
    result once, where the operator fold would pay a gcd and an object per
    operation (Knuth, TAOCP vol. 2, 4.5.1).
    """

    is_field = True
    zero = 0
    one = 1

    def contains(self, x) -> bool:
        cls = x.__class__
        return cls is int or cls is QFraction or isinstance(x, Fraction)

    def inv(self, a):
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        # the only true division in the package: 1 / a on an int is a float
        return _rational(1 / Fraction(a))

    def horner(self, coeffs, ys):
        """Domain.horner on integers: ``ys`` is scaled to integers once, by
        dy, the lcm of its denominators, and acc is carried as int
        numerators over one common denominator. Step j takes a_j in, its
        numerators rescaled when the denominator must grow, forms the
        m - j + 1 entries that reach x^m as int sums of int products over
        that denominator times dy, and divides out one gcd of the
        denominator and every entry. The rationals are built once, at the
        end, each an int exactly when it is integral. An int has a
        numerator and a denominator too. The inputs must be rationals;
        nothing checks them (as for ``combine``)."""
        m = len(ys)
        dy = math.lcm(*[y.denominator for y in ys])
        g = [y.numerator * (dy // y.denominator) for y in ys]
        acc, den = [], 1
        for j in range(m, 0, -1):
            a = coeffs[j - 1]
            common = math.lcm(den, a.denominator)
            if common != den:
                acc = [v * (common // den) for v in acc]
            x = [a.numerator * (common // a.denominator), *acc]
            acc = [sum(map(operator.mul, x[: s + 1], g[s::-1])) for s in range(len(x))]
            d = math.gcd(common * dy, *acc)
            acc = [v // d for v in acc]
            den = common * dy // d
        return [_reduced(v, den) for v in acc]

    def combine(self, xs, ys):
        """Domain.combine as one int sum over one common denominator, each
        pair's numerator and denominator products read from the slots. The
        denominator grows to the lcm of the products' denominators so far
        only when the next one does not divide it, and the sum is reduced
        once, an int exactly when it is integral. The inputs must be
        rationals; nothing checks them (as for ``horner``)."""
        total, common = 0, 1
        for x, y in zip(xs, ys):
            if x.__class__ is int:
                n, d = x, 1
            else:
                n, d = x._numerator, x._denominator
            if y.__class__ is int:
                n *= y
            else:
                n *= y._numerator
                d *= y._denominator
            if d == 1:
                total += n * common
            elif common % d == 0:
                total += n * (common // d)
            else:
                g = _gcd(common, d)
                total = total * (d // g) + n * (common // g)
                common = common // g * d
        return _reduced(total, common)

    def from_int(self, m: int):
        return int(m)

    def from_fraction(self, q: Fraction):
        return _rational(Fraction(q))

    def parse(self, text: str):
        """The rational ``text`` denotes, ``n`` or ``n/d`` with an optional
        sign and blanks around it: the value ``Fraction(text)`` has, read
        from the digits the pattern checked, without ``Fraction``'s own
        parser."""
        if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(stripped := text.strip()):
            raise ValueError(f"bad rational literal {text!r}")
        num, _, den = stripped.partition("/")
        if not den:
            return int(num)
        d = int(den)
        if not d:
            raise ValueError(f"zero denominator in {text!r}")
        return _reduced(int(num), d)

    def to_json(self):
        return "rational"

    def __repr__(self):
        return "Rationals()"


RATIONALS = Rationals()


class PrimeField(Domain):
    """Integers modulo a prime p, residues kept in [0, p)."""

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

    def horner(self, coeffs, ys):
        """Domain.horner on plain residues, each entry of each step reduced
        mod p, so that its products stay at most m*(p-1)^2; the elements
        are built once, at the end. When m*(p-1)^2 < 2^64, ``ys`` is packed
        once, a residue per 8-byte slot, and step j is one pack of a_j and
        acc, one integer product with the low m - j + 1 slots of ``ys`` and
        one unpack of the product's low m - j + 1 slots; the higher slots
        never reach x^m (see ``Domain.horner``), the low slots of a product
        depend only on its factors' low slots, and no slot carries. Wider
        primes sum each entry's int products in turn. Each slot count's
        layout is compiled once per process (``_slots``), and the elements
        are built on their residues (``_residue``). The inputs must be
        elements of this field; nothing checks them."""
        p, m = self.p, len(ys)
        if m * (p - 1) ** 2 >= 1 << 64:
            g, acc = [y.value for y in ys], []
            for j in range(m, 0, -1):
                x = [coeffs[j - 1].value, *acc]
                acc = [sum(map(operator.mul, x[: s + 1], g[s::-1])) % p for s in range(len(x))]
            return [_residue(v, p) for v in acc]
        g = int.from_bytes(_slots(m).pack(*[y.value for y in ys]), "little")
        acc = []
        for j in range(m, 0, -1):
            n = m - j + 1
            low = (1 << 64 * n) - 1
            slots = _slots(n)
            x = int.from_bytes(slots.pack(coeffs[j - 1].value, *acc), "little")
            z = (x * (g & low) & low).to_bytes(8 * n, "little")
            acc = [v % p for v in slots.unpack(z)]
        return [_residue(v, p) for v in acc]

    def combine(self, xs, ys):
        """Domain.combine as one integer sum of the residues' products in a
        plain loop, reduced once and set on a new element. The inputs must
        be elements of this field; nothing checks them (as for
        ``horner``)."""
        total = 0
        for x, y in zip(xs, ys):
            total += x.value * y.value
        p = self.p
        # _residue inlined: a call per entry is 5-10% of a short sum
        e = _new(FpElement)
        e.value = total % p
        e.p = p
        return e

    def linear_map(self, rows):
        """Domain.linear_map with the rows packed once when w*(p-1)^2 <
        2^64, w the longest row's length: column j, entry j of each row or
        0 past a shorter row's end, is one int of len(rows) 8-byte slots,
        and an apply is one integer sum of x_j times column j, one unpack
        and v % p per slot. A slot sums at most w products of residues, so
        none carries, and the sum stops at the end of xs or of the
        columns, as ``combine`` stops at the shorter sequence. Wider primes
        take the base map. The inputs must be elements of this field;
        nothing checks them."""
        p, width = self.p, max(map(len, rows), default=0)
        if width * (p - 1) ** 2 >= 1 << 64:
            return super().linear_map(rows)
        slots, size = _slots(len(rows)), 8 * len(rows)
        cols = []
        for j in range(width):
            column = [row[j].value if j < len(row) else 0 for row in rows]
            cols.append(int.from_bytes(slots.pack(*column), "little"))

        def apply(xs):
            total = sum(map(operator.mul, [x.value for x in xs], cols))
            out = []
            for v in slots.unpack(total.to_bytes(size, "little")):
                # _residue inlined, as in combine
                e = _new(FpElement)
                e.value = v % p
                e.p = p
                out.append(e)
            return out

        return apply

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
        return _residue(int(text) % self.p, self.p)

    def to_json(self):
        return {"prime": self.p}

    def __repr__(self):
        return f"PrimeField({self.p})"


class PolynomialRing(Domain):
    """Polynomials over the rationals in variables a1..a{num_vars}."""

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

    def horner(self, coeffs, ys):
        """Domain.horner with every term product of an entry's sum gathered
        in one mapping, made canonical once per entry and step. A guard bit
        set by any product raises, even where the sums cancel, so this
        raises exactly where one of the products it sums would. The inputs
        must be elements of this ring; nothing checks them (as for
        ``combine``)."""
        acc = []
        for j in range(len(ys), 0, -1):
            x = [coeffs[j - 1], *acc]
            acc = []
            for s in range(len(x)):
                sums: dict[int, int | Fraction] = {}
                get = sums.get
                for a, y in zip(x[: s + 1], ys[s::-1]):
                    y_terms = y.terms.items()
                    for e1, c1 in a.terms.items():
                        for e2, c2 in y_terms:
                            key = e1 + e2
                            sums[key] = get(key, 0) + c1 * c2
                acc.append(Polynomial._from_sums(self.num_vars, sums))
        return acc

    def combine(self, xs, ys):
        """Domain.combine with every term product of every pair gathered in
        one mapping, made canonical once per call. A guard bit set by any
        product raises, even where the sums cancel, so this raises exactly
        where the operator fold would. The inputs must be elements of this
        ring; nothing checks them (as for ``horner``)."""
        sums: dict[int, int | Fraction] = {}
        get = sums.get
        for x, y in zip(xs, ys):
            y_terms = y.terms.items()
            for e1, c1 in x.terms.items():
                for e2, c2 in y_terms:
                    key = e1 + e2
                    sums[key] = get(key, 0) + c1 * c2
        return Polynomial._from_sums(self.num_vars, sums)

    def from_fraction(self, q: Fraction):
        return Polynomial(self.num_vars, {(): q})

    from_int = from_fraction

    def parse(self, text: str):
        if not isinstance(text, str):
            raise ValueError("polynomial literal must be a string")
        return _parse_polynomial(text, self.num_vars)

    def substitute(self, p: Polynomial, values, target: Domain):
        """Evaluate p at ``values`` (one per variable) in ``target``.

        Every value must be an element of the target, so over the rationals
        a ``bool`` or a ``float`` raises ``ValueError``.
        """
        self.check(p)
        if len(values) != self.num_vars:
            raise ValueError(
                f"assignment length {len(values)} != num_vars {self.num_vars}"
            )
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

    def __repr__(self):
        return f"PolynomialRing({self.num_vars})"


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a bool or any other type raises."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def refuse_unknown_keys(obj: dict, known: frozenset, what: str) -> None:
    """Raise on the first key of ``obj`` outside ``known``, in sorted order."""
    # a misspelt key would otherwise fall back to its default without notice
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")


# Largest {"symbolic": K} accepted from JSON; every parsed term allocates K
# exponents, so an absurd K would exhaust memory before any check ran.
_MAX_SYMBOLIC_VARS = 1024


def domain_from_json(obj) -> Domain:
    """Inverse of Domain.to_json for the three supported domains."""
    if obj == "rational":
        return RATIONALS
    if isinstance(obj, dict):
        if set(obj) == {"prime"}:
            return PrimeField(json_int(obj["prime"], "prime"))
        if set(obj) == {"symbolic"}:
            num_vars = json_int(obj["symbolic"], "symbolic")
            if num_vars > _MAX_SYMBOLIC_VARS:
                raise ValueError(
                    f"symbolic ring of {num_vars} variables is above the "
                    f"limit {_MAX_SYMBOLIC_VARS}"
                )
            return PolynomialRing(num_vars)
    raise ValueError(f"bad domain descriptor {obj!r}")
