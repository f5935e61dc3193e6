"""The x^k coefficient of (f(x))^i, a_k^[i], two ways that check each other.

``multinomial_coeff`` is the multinomial theorem as the paper states it: a
partition of k into i parts with multiplicities r_1..r_k adds
i!/(r_1!..r_k!) * a_1^r_1 .. a_k^r_k to a_k^[i] (Comtet, Advanced
Combinatorics, 1974, sec. 3.3). It enumerates exponent patterns instead of
multiplying series, so it cross-checks series powering without touching the
brute-force oracle.

``PowerCoefficientTable`` feeds the coefficient routes. It is filled once,
up to the top row its caller names, by f's powers, since f^j = f * f^(j-1):
the coefficients of f^j are those of f^(j-1) under one lower-triangular
map, the product by f, prepared once as ``Domain.linear_map`` and applied
top - 1 times. Each entry is one sum of products of f's coefficients with
those of f^(j-1), O(k^2) products per row and no division, so it
holds over every domain and for a_1 = 0.
"""

from __future__ import annotations

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


def multinomial_coeff(f: TruncatedSeries, k: int, i: int):
    """a_k^[i]: the x^k coefficient of f^i as a multinomial sum.

    One walk over the partitions of k into exactly i parts picks parts from
    the largest down, each with multiplicity r >= 1, and carries the product
    of the parts chosen so far and the weight count!/(r_1!..r_j!), an exact
    integer mapped into the domain once per partition.
    """
    _check_power_index(f, k, i)
    dom = f.domain
    total = dom.zero

    def walk(top: int, left: int, count: int, weight: int, product) -> None:
        nonlocal total
        if not left and count == i:
            total = total + dom.from_int(weight) * product
        for j in range(min(top, left), 0, -1):
            part_product, part_count, part_weight = product, count, weight
            for r in range(1, min(left // j, i - count) + 1):
                part_product = part_product * f.coeffs[j - 1]
                part_count += 1
                part_weight = part_weight * part_count // r
                walk(j - 1, left - r * j, part_count, part_weight, part_product)

    walk(k, k, 0, 1, dom.one)
    return total


class PowerCoefficientTable:
    """The a_k^[i] values of one series, every row up to ``top`` filled once.

    Row m is [a_m^[1], ..., a_m^[m]], with a_m^[1] = a_m and
    a_m^[j] = sum_{t=1}^{m-j+1} a_t * a_(m-t)^[j-1], the x^m coefficient of
    f * f^(j-1); ``rows[m]`` holds it for m = 1..top. The fill keeps f's
    powers as columns: column j is [a_j^[j], a_(j+1)^[j], ..., a_top^[j]],
    the coefficients of f^j from x^j up, and column 1 is f's own. Row r of
    the product by f is a_(r+1), ..., a_1, so entry r of its map on column
    j-1 is sum_{t<=r} a_(j-1+t)^[j-1] * a_(r-t+1) = a_(j+r)^[j]. Column j
    is that map on the first top - j + 1 entries of column j-1, and the
    map stops its output where its input stops. ``get(k, i)`` reads an
    entry; k < i gives zero when k is within the truncation order.
    """

    def __init__(self, series: TruncatedSeries, top: int):
        _check_power_index(series, top, 1)
        self.series = series
        coeffs = series.coeffs
        times_f = series.domain.linear_map([coeffs[r::-1] for r in range(top - 1)])
        cols = [coeffs[:top]]  # column j at index j-1
        for j in range(2, top + 1):
            cols.append(times_f(cols[-1][: top - j + 1]))
        self.rows: list[list] = [[]]  # row 0 is never read
        self.rows += [[cols[j][m - j - 1] for j in range(m)] for m in range(1, top + 1)]

    def get(self, k: int, i: int):
        if k < i and 1 <= k <= self.series.order:
            return self.series.domain.zero
        if i < 1 or not 0 < k < len(self.rows):
            _check_power_index(self.series, k, i)
            raise ValueError(f"row k={k} is past the table's top row {len(self.rows) - 1}")
        return self.rows[k][i - 1]
