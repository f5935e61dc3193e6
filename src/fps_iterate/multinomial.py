"""The x^k coefficient of (f(x))^i by the explicit multinomial sum.

This route enumerates exponent patterns instead of multiplying series, so it
cross-checks series powering and feeds the coefficient formulas without
touching the brute-force oracle.

One walk over the partitions of k fills a_k^[i] for every i at once: a
partition with multiplicities r_1..r_k adds i!/(r_1!..r_k!) * a_1^r_1 ..
a_k^r_k to a_k^[i], i = r_1 + .. + r_k, so a_k^[i] is the partial Bell
polynomial B_(k,i) in the coefficients j! a_j, divided by k!/i! (Comtet,
Advanced Combinatorics, 1974, sec. 3.3).
"""

from __future__ import annotations

import math

from .series import TruncatedSeries

__all__ = ["multinomial_coeff", "PowerCoefficientTable"]


def _check_power_index(f: TruncatedSeries, k: int, i: int) -> None:
    if i < 1:
        raise ValueError("power i must be >= 1")
    if k < 1:
        raise ValueError("index k must be >= 1")
    if k > f.order:
        raise ValueError(
            f"insufficient truncation: k={k} exceeds order {f.order}"
        )


def _power_row(f: TruncatedSeries, k: int) -> list:
    """[0, a_k^[1], ..., a_k^[k]] from one walk over the partitions of k.

    The walk picks parts from the largest down, each with multiplicity
    r >= 1, and carries the multinomial weight and the coefficient product
    of the parts chosen so far; every node closes one partition by filling
    the rest with ones. The weight grows by C(count + r, r) per part, an
    exact integer mapped into the domain once per partition.
    """
    dom = f.domain
    coeffs = f.coeffs
    a1_powers = [dom.one]
    for _ in range(k):
        a1_powers.append(a1_powers[-1] * coeffs[0])
    row = [dom.zero] * (k + 1)

    def walk(top: int, left: int, count: int, weight: int, product) -> None:
        i = count + left
        term = product * a1_powers[left] if left else product
        row[i] = row[i] + dom.from_int(weight * math.comb(i, left)) * term
        for j in range(min(top, left), 1, -1):
            step = coeffs[j - 1]
            part_product, part_count, part_weight = product, count, weight
            for r in range(1, left // j + 1):
                part_product = part_product * step
                part_count += 1
                part_weight = part_weight * part_count // r
                walk(j - 1, left - r * j, part_count, part_weight, part_product)

    walk(k, k, 0, 1, dom.one)
    return row


def multinomial_coeff(f: TruncatedSeries, k: int, i: int):
    """a_k^[i]: the x^k coefficient of f^i as a multinomial sum.

    Each exponent pattern contributes i!/(r_1!..r_k!) times the matching
    product of series coefficients; the factor is an exact integer mapped
    into the domain. Read from a fresh ``PowerCoefficientTable``, so the
    one lookup path checks the indices and takes the zero shortcut.
    """
    return PowerCoefficientTable(f).get(k, i)


class PowerCoefficientTable:
    """Memoized a_k^[i] values bound to one series.

    The first lookup at k fills the whole row a_k^[1..k] from one walk over
    the partitions of k (Comtet, sec. 3.3); k < i short-circuits to zero
    when k is within the truncation order.
    """

    def __init__(self, series: TruncatedSeries):
        self.series = series
        self._rows: dict[int, list] = {}

    def get(self, k: int, i: int):
        if k < i and 1 <= k <= self.series.order:
            return self.series.domain.zero
        row = self._rows.get(k)
        if row is None or i < 1:
            _check_power_index(self.series, k, i)
            row = self._rows[k] = _power_row(self.series, k)
        return row[i]
