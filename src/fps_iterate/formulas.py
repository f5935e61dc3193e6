"""Evaluators for the x^k coefficient f_k^(n) of the n-fold composition.

Several independent routes to the same value live here: a recurrence over
the iteration count, a closed form summing over strictly decreasing index
chains, literal transcriptions of the fixed k <= 5 formulas, Schroeder's
classical binomial form for a_1 = 1, and Muckenhoupt's quotient formula for
f_2. The brute-force oracle lives in ``series``; every route must agree
with it exactly, in every coefficient domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .multinomial import PowerCoefficientTable
from .series import TruncatedSeries

__all__ = [
    "geometric_factor",
    "coeff_recursive",
    "muckenhoupt_f2",
    "DecreasingSubset",
    "enumerate_subsets",
    "nested_geometric_sum",
    "ClosedFormTerm",
    "closed_form_terms",
    "closed_form_level",
    "coeff_closed",
    "coeff_explicit_small_k",
    "coeff_schroder",
    "nested_sum_binomial",
    "rising_product_sum",
    "count_closed_form_summands",
]


def _check_index(f: TruncatedSeries, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > f.order:
        raise ValueError(f"k={k} exceeds the truncation order {f.order}")


def geometric_factor(f: TruncatedSeries, k: int, n: int):
    """The factor multiplying a_k in f_k^(n).

    Always evaluated as the literal sum a_1^(n-1) * (1 + a_1^(k-1) + ... +
    a_1^((k-1)(n-1))), never as a quotient, so it is defined over every
    ring, including all the degenerate a_1 values where a quotient form
    would divide by zero. With a_1 = 1 it collapses to n.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    dom = f.domain
    a1 = f.coefficient(1)
    step = a1 ** (k - 1)
    total = dom.zero
    power = dom.one
    for i in range(n):
        total = total + power
        if i + 1 < n:
            power = power * step
    return a1 ** (n - 1) * total


def coeff_recursive(f: TruncatedSeries, k: int, n: int, table=None, memo=None):
    """f_k^(n) by the recurrence over iteration count.

    f_k^(n) = a_k * C_{k,n} + sum_{i=0}^{n-2} a_1^(k*i) *
              sum_{j=2}^{k-1} f_j^(n-i-1) * a_k^[j]

    with C_{k,n} the geometric factor. The power coefficients a_k^[j] come
    from the multinomial table, keeping this route independent of series
    powering. Bottoms out at f_k^(1) = a_k; k = 1 gives a_1^n directly.
    A shared ``memo`` dict keyed by (k, n) may be passed to reuse values
    across calls for the same series.
    """
    _check_index(f, k)
    if n < 1:
        raise ValueError("n must be >= 1")
    if table is None:
        table = PowerCoefficientTable(f)
    if memo is None:
        memo = {}
    dom = f.domain
    a1 = f.coefficient(1)

    def value(k_: int, n_: int):
        if k_ == 1:
            return a1 ** n_
        if n_ == 1:
            return f.coefficient(k_)
        got = memo.get((k_, n_))
        if got is not None:
            return got
        total = f.coefficient(k_) * geometric_factor(f, k_, n_)
        for i in range(n_ - 1):
            inner = dom.zero
            for j in range(2, k_):
                inner = inner + value(j, n_ - i - 1) * table.get(k_, j)
            total = total + a1 ** (k_ * i) * inner
        memo[(k_, n_)] = total
        return total

    return value(k, n)


def muckenhoupt_f2(f: TruncatedSeries, n: int):
    """f_2^(n) as the quotient a_2 * (a_1^(2n) - a_1^n) / (a_1^2 - a_1).

    Needs a field domain and a_1 outside {0, 1}; otherwise the denominator
    vanishes and the recurrence applies instead.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_index(f, 2)
    dom = f.domain
    if not dom.is_field:
        raise ValueError("muckenhoupt formula needs a field domain")
    a1 = f.coefficient(1)
    if a1 == dom.zero or a1 == dom.one:
        raise ValueError(
            "formula undefined for a_1 in {0, 1}, use coeff_recursive"
        )
    numerator = f.coefficient(2) * (a1 ** (2 * n) - a1 ** n)
    return numerator * dom.inv(a1 * a1 - a1)


@dataclass(frozen=True)
class DecreasingSubset:
    """A strictly decreasing index chain k > j_1 > ... > j_(alpha-1) >= 2.

    Indexes one summand of the closed form. ``js`` excludes the leading k;
    ``chain`` includes it.
    """

    k: int
    js: tuple[int, ...]

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if not self.js:
            raise ValueError("subset needs at least one index below k")
        previous = self.k
        for j in self.js:
            if not 2 <= j < previous:
                raise ValueError(
                    "indices must strictly decrease within [2, k-1]"
                )
            previous = j

    @property
    def alpha(self) -> int:
        return len(self.js) + 1

    @property
    def chain(self) -> tuple[int, ...]:
        return (self.k,) + self.js


def enumerate_subsets(k: int, alpha: int) -> list[DecreasingSubset]:
    """All (alpha-1)-element decreasing chains in {2..k-1}, lex-descending.

    Every chain (with the leading k included) satisfies the gap bound
    j_(m-1) - j_m <= k - alpha; that is asserted, never filtered.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if not 2 <= alpha <= k - 1:
        raise ValueError(f"alpha must lie in [2, {k - 1}]")
    subsets = [
        DecreasingSubset(k, tuple(reversed(combo)))
        for combo in combinations(range(2, k), alpha - 1)
    ]
    subsets.sort(key=lambda s: s.js, reverse=True)
    for subset in subsets:
        chain = subset.chain
        assert all(
            chain[m - 1] - chain[m] <= k - alpha for m in range(1, len(chain))
        ), "gap bound violated"
    return subsets


def nested_geometric_sum(f: TruncatedSeries, n: int, subset: DecreasingSubset):
    """The depth-alpha nested sum of a_1 powers attached to one chain.

    Writing j_0 = k, level m sums a_1^((j_m - 1) * i_m) for i_m from 0 to
    n - alpha minus the shallower indices. Empty (zero) when n < alpha.
    With a_1 = 1 the value collapses to the binomial coefficient C(n, alpha).

    With bases b_m = a_1^(j_m - 1) the sum runs over all (i_0..i_(alpha-1))
    with i_0 + ... + i_(alpha-1) <= n - alpha, so it equals
    sum_(d <= n - alpha) h_d(b_0..b_(alpha-1)), the complete homogeneous
    symmetric polynomials. They come from h_d(b_0..b_m) =
    h_d(b_0..b_(m-1)) + b_m * h_(d-1)(b_0..b_m), one base at a time, with d
    increasing in place (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. I sec. 2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dom = f.domain
    alpha = subset.alpha
    if n < alpha:
        return dom.zero
    a1 = f.coefficient(1)
    budget = n - alpha
    h = [dom.one] + [dom.zero] * budget
    for j in subset.chain:
        base = a1 ** (j - 1)
        for d in range(1, budget + 1):
            h[d] = h[d] + base * h[d - 1]
    return sum(h, dom.zero)


@dataclass(frozen=True)
class ClosedFormTerm:
    """One closed-form summand: a prefactor times its nested geometric sum."""

    subset: DecreasingSubset
    prefactor: object
    nested_sum: object

    @property
    def value(self):
        return self.prefactor * self.nested_sum


def _chain_product(f: TruncatedSeries, subset: DecreasingSubset, table):
    # a_k^[j_1] * a_(j_1)^[j_2] * ... * a_(j_(alpha-2))^[j_(alpha-1)] * a_(j_(alpha-1))
    chain = subset.chain
    value = f.coefficient(chain[-1])
    for m in range(1, len(chain)):
        value = value * table.get(chain[m - 1], chain[m])
    return value


def closed_form_terms(
    f: TruncatedSeries, k: int, n: int, alpha: int, table=None
) -> list[ClosedFormTerm]:
    """The closed-form summands at one level alpha, in subset order.

    Empty when n < alpha: then every nested sum is an empty sum.
    """
    _check_index(f, k)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 2 <= alpha <= k - 1:
        raise ValueError(f"alpha must lie in [2, {k - 1}]")
    if n < alpha:
        return []
    if table is None:
        table = PowerCoefficientTable(f)
    a1 = f.coefficient(1)
    scale = a1 ** (n - alpha)
    terms = []
    for subset in enumerate_subsets(k, alpha):
        prefactor = scale * _chain_product(f, subset, table)
        terms.append(
            ClosedFormTerm(subset, prefactor, nested_geometric_sum(f, n, subset))
        )
    return terms


def closed_form_level(f: TruncatedSeries, k: int, n: int, alpha: int, table=None):
    """A_(alpha,k): the total closed-form contribution at one level alpha."""
    total = f.domain.zero
    for term in closed_form_terms(f, k, n, alpha, table):
        total = total + term.value
    return total


def coeff_closed(f: TruncatedSeries, k: int, n: int, table=None):
    """f_k^(n) by the closed form.

    k = 1 gives a_1^n and k = 2 the bare geometric term. For k >= 3 the
    value is a_k times the geometric factor plus, for each level alpha in
    [2, k-1], a sum over strictly decreasing index chains of chain products
    of power coefficients times nested geometric sums.
    """
    _check_index(f, k)
    if n < 1:
        raise ValueError("n must be >= 1")
    a1 = f.coefficient(1)
    if k == 1:
        return a1 ** n
    total = f.coefficient(k) * geometric_factor(f, k, n)
    if k == 2:
        return total
    if table is None:
        table = PowerCoefficientTable(f)
    for alpha in range(2, k):
        total = total + closed_form_level(f, k, n, alpha, table)
    return total


def coeff_schroder(f: TruncatedSeries, k: int, n: int, table=None):
    """f_k^(n) for a_1 = 1: binomials times chain products.

    Schroeder's classical form: f_k^(n) = a_k * C(n,1) plus, per level
    alpha, C(n, alpha) times the sum over decreasing chains of
    a_k^[j_1] * a_(j_1)^[j_2] * ... * a_(j_(alpha-1)). Binomials are exact
    integers mapped into the domain; C(n, alpha) = 0 for alpha > n.
    """
    _check_index(f, k)
    if n < 1:
        raise ValueError("n must be >= 1")
    dom = f.domain
    if f.coefficient(1) != dom.one:
        raise ValueError("schroder formula requires a_1 = 1")
    if k == 1:
        return dom.one
    if k == 2:
        return f.coefficient(2) * dom.from_int(math.comb(n, 1))
    if table is None:
        table = PowerCoefficientTable(f)
    total = f.coefficient(k) * dom.from_int(math.comb(n, 1))
    for alpha in range(2, k):
        binom = math.comb(n, alpha)
        if binom == 0:
            continue
        level = dom.zero
        for subset in enumerate_subsets(k, alpha):
            level = level + _chain_product(f, subset, table)
        total = total + dom.from_int(binom) * level
    return total


def coeff_explicit_small_k(f: TruncatedSeries, k: int, n: int):
    """f_k^(n) for k <= 5 from the fixed explicit formulas.

    A literal transcription of the expanded formulas, sharing no code with
    ``coeff_closed``; the two routes are tested against each other. Groups
    whose prefactor carries a_1^(n-2) only contribute once n >= 2, exactly
    when their innermost sums stop being empty.
    """
    if k > 5:
        raise ValueError("k > 5 not covered here, use coeff_closed")
    _check_index(f, k)
    if n < 1:
        raise ValueError("n must be >= 1")
    dom = f.domain
    a1 = f.coefficient(1)

    def cint(m: int):
        return dom.from_int(m)

    def nest(offset: int, exps: tuple[int, ...]):
        # sum over i_0, i_1, ... >= 0 with i_0 + ... + i_last <= n - offset
        # of the product of a_1^(exps[level] * i_level); empty sums give 0
        if n < offset:
            return dom.zero

        def go(level: int, used: int):
            if level == len(exps):
                return dom.one
            base = a1 ** exps[level]
            total = dom.zero
            power = dom.one
            for i in range(n - used - offset + 1):
                total = total + power * go(level + 1, used + i)
                power = power * base
            return total

        return go(0, 0)

    if k == 1:
        return a1 ** n
    if k == 2:
        return a1 ** (n - 1) * f.coefficient(2) * nest(1, (1,))
    if k == 3:
        a2, a3 = f.coefficient(2), f.coefficient(3)
        return a1 ** (n - 1) * a3 * nest(1, (2,)) + cint(2) * a1 ** (
            n - 1
        ) * a2 * a2 * nest(2, (2, 1))
    if k == 4:
        a2, a3, a4 = f.coefficient(2), f.coefficient(3), f.coefficient(4)
        total = a1 ** (n - 1) * a4 * nest(1, (3,))
        total = total + a1 ** (n - 1) * a2 * a3 * (
            cint(3) * a1 * nest(2, (3, 2)) + cint(2) * nest(2, (3, 1))
        )
        if n >= 2:
            total = total + a2 ** 3 * a1 ** (n - 2) * (
                nest(2, (3, 1)) + cint(6) * a1 ** 2 * nest(3, (3, 2, 1))
            )
        return total
    a2, a3, a4, a5 = (f.coefficient(j) for j in (2, 3, 4, 5))
    total = a1 ** (n - 1) * a5 * nest(1, (4,))
    total = total + a1 ** (n - 1) * a2 * a4 * (
        cint(2) * nest(2, (4, 1)) + cint(4) * a1 ** 2 * nest(2, (4, 3))
    )
    if n >= 2:
        total = total + a1 ** (n - 2) * a3 * (
            cint(3) * a1 ** 2 * a3 * nest(2, (4, 2))
            + a2 ** 2
            * (
                cint(2) * nest(2, (4, 1))
                + cint(4)
                * a1 ** 3
                * (
                    cint(3) * a1 * nest(3, (4, 3, 2))
                    + cint(2) * nest(3, (4, 3, 1))
                )
                + cint(6) * a1 ** 2 * nest(3, (4, 2, 1))
                + cint(3) * a1 * nest(2, (4, 2))
            )
        )
        total = total + a1 ** (n - 2) * a2 ** 4 * (
            cint(4) * a1 ** 2 * nest(3, (4, 3, 1))
            + cint(6) * a1 * nest(3, (4, 2, 1))
            + cint(24) * a1 ** 4 * nest(4, (4, 3, 2, 1))
        )
    return total


def nested_sum_binomial(n: int, alpha: int) -> int:
    """Count the lattice points of the alpha-deep nested unit sum.

    Level m ranges over 0..(n - alpha - earlier indices); the returned count
    always equals C(n, alpha), which callers verify independently. Computed
    level by level without any binomial shortcut.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < alpha:
        return 0
    memo: dict[tuple[int, int], int] = {}

    def level(depth: int, budget: int) -> int:
        if depth == alpha:
            return 1
        key = (depth, budget)
        got = memo.get(key)
        if got is not None:
            return got
        total = 0
        for i in range(budget + 1):
            total += level(depth + 1, budget - i)
        memo[key] = total
        return total

    return level(0, n - alpha)


def rising_product_sum(n: int, alpha: int) -> int:
    """Sum of p(p+1)..(p+alpha-1) for p = 1..n, checked against its closed form.

    Both sides are computed independently as exact integers and asserted
    equal: the loop sum and n(n+1)..(n+alpha)/(alpha+1).
    """
    if n < 1 or alpha < 1:
        raise ValueError("n and alpha must be >= 1")
    total = 0
    for p in range(1, n + 1):
        product = 1
        for t in range(alpha):
            product *= p + t
        total += product
    closed = 1
    for p in range(n, n + alpha + 1):
        closed *= p
    assert closed % (alpha + 1) == 0, "closed form not divisible"
    assert total == closed // (alpha + 1), "rising-product identity failed"
    return total


def count_closed_form_summands(k: int) -> int:
    """Number of closed-form summands for one k, which is 2^(k-2) - 1."""
    if k < 3:
        raise ValueError("k must be >= 3")
    total = sum(math.comb(k - 2, alpha - 1) for alpha in range(2, k))
    assert total == 2 ** (k - 2) - 1, "summand count identity failed"
    return total
