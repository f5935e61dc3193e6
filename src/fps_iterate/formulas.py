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
from itertools import accumulate, combinations

from .multinomial import PowerCoefficientTable
from .series import TruncatedSeries

__all__ = [
    "NotApplicable",
    "geometric_factor",
    "coeff_recursive",
    "muckenhoupt_f2",
    "enumerate_subsets",
    "nested_geometric_sum",
    "closed_form_level",
    "coeff_closed",
    "coeff_explicit_small_k",
    "coeff_schroder",
    "nested_sum_binomial",
    "rising_product_sum",
    "count_closed_form_summands",
]


class NotApplicable(ValueError):
    """A route's precondition fails on this input; other routes still apply.

    Any other ``ValueError`` is a bad input that no route can evaluate.
    """


def _check_index(f: TruncatedSeries, k: int, n: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > f.order:
        raise ValueError(f"k={k} exceeds the truncation order {f.order}")
    if n < 1:
        raise ValueError("n must be >= 1")


def geometric_factor(f: TruncatedSeries, k: int, n: int):
    """The factor C_{k,n} multiplying a_k in f_k^(n).

    Always evaluated as the literal sum a_1^(n-1) * (1 + a_1^(k-1) + ... +
    a_1^((k-1)(n-1))), never as a quotient, so it is defined over every
    ring, including all the degenerate a_1 values where a quotient form
    would divide by zero. With a_1 = 1 it collapses to n. The bracket is
    the nested geometric sum of the one-element chain (k).
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    return f.coefficient(1) ** (n - 1) * nested_geometric_sum(f, n, (k,))


def coeff_recursive(f: TruncatedSeries, k: int, n: int, table=None, memo=None):
    """f_k^(n) by the one-step recurrence over the iteration count.

    Writing f^(n) = f^(n-1) o f, the multinomial theorem under composition
    gives

        f_k^(n) = sum_{j=1}^{k} f_j^(n-1) * a_k^[j],   f_k^(1) = a_k,

    with the power coefficients a_k^[j] read from the multinomial table, so
    this route never multiplies or composes series (Comtet, Advanced
    Combinatorics, 1974, ch. 3). Expanding the j = k term n-1 times, with
    a_k^[k] = a_1^k, and summing the j = 1 terms into a_k * C_{k,n} gives
    the grouped form f_k^(n) = a_k * C_{k,n} + sum_{i=0}^{n-2} a_1^(k*i) *
    sum_{j=2}^{k-1} f_j^(n-i-1) * a_k^[j], C_{k,n} the geometric factor.

    Rows are filled bottom-up: ``memo[m]`` holds [f_1^(m), ..., f_i^(m)]
    for m >= 2, and a call extends rows 2..n in order to length k, so
    every f_j^(m) is formed at most once, O(K^2 N) domain operations in
    all. A shared ``memo`` dict may be passed to reuse the rows across
    calls for the same series, with cells visited in any order.
    """
    _check_index(f, k, n)
    if table is None:
        table = PowerCoefficientTable(f)
    if memo is None:
        memo = {}
    zero = f.domain.zero
    prev = f.coeffs
    for m in range(2, n + 1):
        row = memo.setdefault(m, [])
        for i in range(len(row) + 1, k + 1):
            total = zero
            for j in range(1, i + 1):
                total = total + prev[j - 1] * table.get(i, j)
            row.append(total)
        prev = row
    return prev[k - 1]


def muckenhoupt_f2(f: TruncatedSeries, n: int):
    """f_2^(n) as the quotient a_2 * (a_1^(2n) - a_1^n) / (a_1^2 - a_1).

    Needs a field domain and a_1 outside {0, 1}; otherwise the denominator
    vanishes, this raises ``NotApplicable`` and the recurrence applies
    instead.
    """
    _check_index(f, 2, n)
    dom = f.domain
    if not dom.is_field:
        raise NotApplicable("muckenhoupt formula needs a field domain")
    a1 = f.coefficient(1)
    if a1 == dom.zero or a1 == dom.one:
        raise NotApplicable(
            "formula undefined for a_1 in {0, 1}, use coeff_recursive"
        )
    numerator = f.coefficient(2) * (a1 ** (2 * n) - a1 ** n)
    return numerator * dom.inv(a1 * a1 - a1)


def enumerate_subsets(k: int, alpha: int) -> list[tuple[int, ...]]:
    """All chains (k, j_1, ..., j_(alpha-1)) with k > j_1 > ... >= 2.

    Returned in lex-descending order; alpha = 1 gives the one chain (k,).
    Every chain satisfies the gap bound j_(m-1) - j_m <= k - alpha, so none
    is filtered out.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if not 1 <= alpha <= k - 1:
        raise ValueError(f"alpha must lie in [1, {k - 1}]")
    return [(k,) + js for js in combinations(range(k - 1, 1, -1), alpha - 1)]


def nested_geometric_sum(f: TruncatedSeries, n: int, chain: tuple[int, ...]):
    """The depth-alpha nested sum of a_1 powers attached to one chain.

    The chain is (k, j_1, ..., j_(alpha-1)), so alpha = len(chain). Writing
    j_0 = k, level m sums a_1^((j_m - 1) * i_m) for i_m from 0 to
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
    alpha = len(chain)
    if n < alpha:
        return dom.zero
    a1 = f.coefficient(1)
    budget = n - alpha
    h = [dom.one] + [dom.zero] * budget
    for j in chain:
        base = a1 ** (j - 1)
        for d in range(1, budget + 1):
            h[d] = h[d] + base * h[d - 1]
    return sum(h[1:], h[0])


def _chain_product(f: TruncatedSeries, chain: tuple[int, ...], table):
    # a_k^[j_1] * a_(j_1)^[j_2] * ... * a_(j_(alpha-2))^[j_(alpha-1)] * a_(j_(alpha-1))
    value = f.coefficient(chain[-1])
    for m in range(1, len(chain)):
        value = value * table.get(chain[m - 1], chain[m])
    return value


def closed_form_level(f: TruncatedSeries, k: int, n: int, alpha: int, table=None):
    """A_(alpha,k): the total closed-form contribution at one level alpha.

    a_1^(n-alpha) times the sum, over the decreasing chains of length alpha,
    of each chain product times its nested geometric sum. Level 1 has the
    one chain (k,) and equals a_k * C_{k,n}, C_{k,n} the geometric factor.
    Zero when n < alpha: then every nested sum is an empty sum.
    """
    _check_index(f, k, n)
    if not 1 <= alpha <= k - 1:
        raise ValueError(f"alpha must lie in [1, {k - 1}]")
    dom = f.domain
    if n < alpha:
        return dom.zero
    if table is None:
        table = PowerCoefficientTable(f)
    total = dom.zero
    for chain in enumerate_subsets(k, alpha):
        product = _chain_product(f, chain, table)
        total = total + product * nested_geometric_sum(f, n, chain)
    return f.coefficient(1) ** (n - alpha) * total


def coeff_closed(f: TruncatedSeries, k: int, n: int, table=None):
    """f_k^(n) by the closed form.

    k = 1 gives a_1^n. For k >= 2 the value is the sum of the levels
    alpha = 1..k-1, each a sum over the strictly decreasing index chains
    of length alpha led by k, of chain products of power coefficients
    times nested geometric sums; level 1 is a_k * C_{k,n}.
    """
    _check_index(f, k, n)
    if k == 1:
        return f.coefficient(1) ** n
    if table is None:
        table = PowerCoefficientTable(f)
    total = f.domain.zero
    for alpha in range(1, k):
        total = total + closed_form_level(f, k, n, alpha, table)
    return total


def coeff_schroder(f: TruncatedSeries, k: int, n: int, table=None):
    """f_k^(n) for a_1 = 1: binomials times chain products.

    Schroeder's classical form: f_k^(n) is the sum over levels
    alpha = 1..min(k-1, n) of C(n, alpha) times the sum over decreasing
    chains of a_k^[j_1] * a_(j_1)^[j_2] * ... * a_(j_(alpha-1)); level 1
    is a_k * n. Binomials are exact integers mapped into the domain.
    """
    _check_index(f, k, n)
    dom = f.domain
    if f.coefficient(1) != dom.one:
        raise NotApplicable("schroder formula requires a_1 = 1")
    if k == 1:
        return dom.one
    if table is None:
        table = PowerCoefficientTable(f)
    total = dom.zero
    for alpha in range(1, min(k - 1, n) + 1):
        level = dom.zero
        for chain in enumerate_subsets(k, alpha):
            level = level + _chain_product(f, chain, table)
        total = total + dom.from_int(math.comb(n, alpha)) * level
    return total


def coeff_explicit_small_k(f: TruncatedSeries, k: int, n: int):
    """f_k^(n) for k <= 5 from the fixed explicit formulas.

    A literal transcription of the expanded formulas, sharing no code with
    ``coeff_closed``; the two routes are tested against each other. Groups
    whose prefactor carries a_1^(n-2) only contribute once n >= 2, exactly
    when their innermost sums stop being empty.
    """
    if k > 5:
        raise NotApplicable("k > 5 not covered here, use coeff_closed")
    _check_index(f, k, n)
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
    without any binomial shortcut: starting from one point per budget
    0..n-alpha, each of alpha - 1 prefix-sum passes adds one level, and the
    outermost level sums over every budget.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    counts = [1] * (n - alpha + 1)
    for _ in range(alpha - 1):
        counts = list(accumulate(counts))
    return sum(counts)


def rising_product_sum(n: int, alpha: int) -> int:
    """Sum of p(p+1)..(p+alpha-1) for p = 1..n, by the loop.

    An exact integer; it equals n(n+1)..(n+alpha)/(alpha+1), which callers
    compute independently and compare.
    """
    if n < 1 or alpha < 1:
        raise ValueError("n and alpha must be >= 1")
    total = 0
    for p in range(1, n + 1):
        product = 1
        for t in range(alpha):
            product *= p + t
        total += product
    return total


def count_closed_form_summands(k: int) -> int:
    """Number of chains at the closed-form levels alpha >= 2: 2^(k-2) - 1."""
    if k < 3:
        raise ValueError("k must be >= 3")
    return sum(math.comb(k - 2, alpha - 1) for alpha in range(2, k))
