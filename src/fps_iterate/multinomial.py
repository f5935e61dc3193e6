"""The x^k coefficient of (f(x))^i by the explicit multinomial sum.

This route enumerates exponent patterns instead of multiplying series, so it
cross-checks series powering and feeds the coefficient formulas without
touching the brute-force oracle.
"""

from __future__ import annotations

import math

from .series import TruncatedSeries

__all__ = [
    "enumerate_partitions",
    "multinomial_coeff",
    "variable_support_bound",
    "PowerCoefficientTable",
]


def enumerate_partitions(k: int, i: int) -> list[tuple[int, ...]]:
    """All nonnegative (r_1..r_k) with r_1+..+r_k = i and sum of j*r_j = k.

    Recursive descent from r_k down to r_2 prunes on both constraints; r_1
    is then forced. Results come back in lexicographic order of (r_1..r_k).
    """
    if k < 1 or i < 1:
        raise ValueError("k and i must be >= 1")
    found: list[tuple[int, ...]] = []
    r = [0] * k

    def descend(j: int, count_left: int, weight_left: int) -> None:
        if j == 1:
            if count_left == weight_left:
                r[0] = count_left
                found.append(tuple(r))
                r[0] = 0
            return
        top = min(count_left, weight_left // j)
        for rj in range(top + 1):
            r[j - 1] = rj
            descend(j - 1, count_left - rj, weight_left - j * rj)
        r[j - 1] = 0

    descend(k, i, k)
    found.sort()
    return found


def multinomial_coeff(f: TruncatedSeries, k: int, i: int):
    """a_k^[i]: the x^k coefficient of f^i as a multinomial sum.

    Each exponent pattern contributes i!/(r_1!..r_k!) times the matching
    product of series coefficients; the factor is an exact integer mapped
    into the domain.
    """
    if i < 1:
        raise ValueError("power i must be >= 1")
    if k < 1:
        raise ValueError("index k must be >= 1")
    if k > f.order:
        raise ValueError(
            f"insufficient truncation: k={k} exceeds order {f.order}"
        )
    dom = f.domain
    total = dom.zero
    for parts in enumerate_partitions(k, i):
        weight = math.factorial(i)
        for rj in parts:
            if rj > 1:
                weight //= math.factorial(rj)
        term = dom.from_int(weight)
        for j, rj in enumerate(parts, start=1):
            if rj:
                term = term * f.coefficient(j) ** rj
        total = total + term
    return total


def variable_support_bound(k: int, i: int) -> int:
    """Largest coefficient index that can appear in a_k^[i]: k - i + 1."""
    if i < 1:
        raise ValueError("power i must be >= 1")
    if k < i:
        raise ValueError("bound defined only for k >= i")
    return k - i + 1


class PowerCoefficientTable:
    """Memoized a_k^[i] values bound to one series.

    k < i short-circuits to zero.
    """

    def __init__(self, series: TruncatedSeries):
        self.series = series
        self._memo: dict[tuple[int, int], object] = {}

    def get(self, k: int, i: int):
        if i >= 1 and 1 <= k < i:
            return self.series.domain.zero
        key = (k, i)
        value = self._memo.get(key)
        if value is None:
            value = multinomial_coeff(self.series, k, i)
            self._memo[key] = value
        return value
