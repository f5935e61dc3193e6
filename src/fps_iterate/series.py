"""Truncated formal power series with zero constant term.

A series is the coefficient vector a_1..a_K of f(x) = a_1 x + ... + a_K x^K.
Multiplication, composition, and iteration are exact in the coefficient
domain and stay at the same truncation order: a product is the literal sum
of the elements' products, a composition one ``Domain.horner``. Composition
and iteration are deliberately naive so they can serve as the ground-truth
oracle for every shortcut formula.
"""

from __future__ import annotations

from .domains import Domain, domain_from_json, json_int, refuse_unknown_keys


_SERIES_KEYS = frozenset(("domain", "order", "coeffs"))


class TruncatedSeries:
    """Immutable truncated series over an exact coefficient domain.

    The constructor checks the order and every coefficient it is given, so
    a caller's series holds elements of its domain. ``from_json`` and
    ``compose`` build theirs through ``_trusted``, which checks nothing:
    their coefficients come from ``Domain.parse`` and ``Domain.horner``,
    which return elements. ``Domain.format`` still checks each coefficient
    that ``to_json`` writes.
    """

    __slots__ = ("domain", "order", "coeffs")

    def __init__(self, domain: Domain, order: int, coeffs):
        if not isinstance(order, int) or order < 1:
            raise ValueError("truncation order must be a positive integer")
        coeffs = tuple(coeffs)
        if len(coeffs) != order:
            raise ValueError(
                f"expected {order} coefficients, got {len(coeffs)}"
            )
        for c in coeffs:
            domain.check(c)
        self.domain = domain
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def _trusted(cls, domain: Domain, coeffs) -> "TruncatedSeries":
        # coeffs: elements of domain that the package made, order len(coeffs)
        f = object.__new__(cls)
        f.domain = domain
        f.coeffs = tuple(coeffs)
        f.order = len(f.coeffs)
        return f

    @classmethod
    def from_coefficients(cls, domain, coeffs, order=None) -> "TruncatedSeries":
        """Build from leading coefficients, zero-padded up to ``order``."""
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs)
        if order < len(coeffs):
            raise ValueError(
                "order smaller than the coefficient list; slice it first"
            )
        coeffs.extend([domain.zero] * (order - len(coeffs)))
        return cls(domain, order, coeffs)

    def coefficient(self, k: int):
        """The coefficient of x^k, 1-based."""
        if not 1 <= k <= self.order:
            raise ValueError(f"coefficient index {k} outside 1..{self.order}")
        return self.coeffs[k - 1]

    def _like(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise ValueError("expected a TruncatedSeries")
        if other.domain != self.domain:
            raise ValueError("domain mismatch")
        if other.order != self.order:
            raise ValueError("order mismatch")

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated at the common order.

        Both factors have zero constant term, so the product coefficient at
        x^m is a_1*b_(m-1) + ... + a_(m-1)*b_1, summed with the elements'
        operators; it calls no kernel.
        """
        self._like(other)
        dom, a, b = self.domain, self.coeffs, other.coeffs
        out = [
            sum([a[j - 1] * b[m - j - 1] for j in range(1, m)], dom.zero)
            for m in range(1, self.order + 1)
        ]
        return TruncatedSeries(dom, self.order, out)

    def compose(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """self(other(x)) to the common truncation order by Horner's rule:
        acc = (a_m + acc)*other for m = K, ..., 1 from acc = 0, one
        ``Domain.horner``. other has a zero constant term, so the acc of
        step m is multiplied by it m - 1 more times and reaches x^K only
        through its entries up to x^(K-m+1); the kernel forms just those."""
        self._like(other)
        return TruncatedSeries._trusted(
            self.domain, self.domain.horner(self.coeffs, other.coeffs)
        )

    def iterate(self, n: int) -> "TruncatedSeries":
        """The n-fold self-composition, folding f^(n) = f^(n-1) o f."""
        if not isinstance(n, int) or n < 1:
            raise ValueError("iteration count n must be >= 1")
        result = self
        for _ in range(n - 1):
            result = result.compose(self)
        return result

    def to_json(self) -> dict:
        return {
            "domain": self.domain.to_json(),
            "order": self.order,
            "coeffs": [self.domain.format(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj) -> "TruncatedSeries":
        if not isinstance(obj, dict):
            raise ValueError("series JSON must be an object")
        refuse_unknown_keys(obj, _SERIES_KEYS, "series")
        raw = obj.get("coeffs")
        if not isinstance(raw, list) or not raw:
            raise ValueError("'coeffs' must be a nonempty array of strings")
        domain = domain_from_json(obj.get("domain", "rational"))
        coeffs = [domain.parse(s) for s in raw]
        order = json_int(obj.get("order", len(coeffs)), "'order'")
        if order != len(coeffs):
            raise ValueError(
                f"'order' {order} does not match {len(coeffs)} coefficients"
            )
        return cls._trusted(domain, coeffs)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return (
                self.domain == other.domain
                and self.order == other.order
                and self.coeffs == other.coeffs
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(self.domain.format(c) for c in self.coeffs)
        return f"TruncatedSeries({self.domain!r}, order={self.order}, [{shown}])"
