"""Evaluators for the x^k coefficient f_k^(n) of the n-fold composition.

Several independent routes to the same value live here: a recurrence over
the iteration count, a closed form summing over strictly decreasing index
chains, the fixed k <= 5 formulas with one hand-expanded chain product per
chain, Schroeder's classical binomial form for a_1 = 1, and Muckenhoupt's
quotient formula for f_2. The brute-force oracle lives in ``series``; every
route must agree with it exactly, in every coefficient domain.

Each route takes the series and two ranges ``ks`` and ``ns`` of step 1
and returns {(k, n): f_k^(n)} for every cell of ks x ns it applies to; it
raises ``NotApplicable`` if it applies to none. ``coeff_closed`` sums the
chains by a dynamic program over their leading index, one list of entries
per (j, alpha): O(K^3 * N) domain operations for all cells with k <= K,
n <= N. ``closed_form_level`` and ``coeff_schroder`` walk the chains one
by one, so they check the dynamic program against the literal chain sum.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations

from .domains import PolynomialRing
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


def _check_cells(f: TruncatedSeries, ks: range, ns: range) -> None:
    # ks and ns are ranges of step 1, so their ends are their extremes
    if not ks or not ns:
        raise ValueError("the k and n ranges must not be empty")
    if ks[0] < 1:
        raise ValueError("k must be >= 1")
    if ks[-1] > f.order:
        raise ValueError(f"k={ks[-1]} exceeds the truncation order {f.order}")
    if ns[0] < 1:
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


def coeff_recursive(f: TruncatedSeries, ks: range, ns: range) -> dict:
    """f_k^(n) for every k in ``ks`` and n in ``ns`` by the one-step
    recurrence over the iteration count.

    Writing f^(n) = f^(n-1) o f, the multinomial theorem under composition
    gives

        f_k^(n) = sum_{j=1}^{k} f_j^(n-1) * a_k^[j],   f_k^(1) = a_k,

    with the power coefficients a_k^[j] read from the multinomial table, so
    this route never multiplies or composes series (Comtet, Advanced
    Combinatorics, 1974, ch. 3). Expanding the j = k term n-1 times, with
    a_k^[k] = a_1^k, and summing the j = 1 terms into a_k * C_{k,n} gives
    the grouped form f_k^(n) = a_k * C_{k,n} + sum_{i=0}^{n-2} a_1^(k*i) *
    sum_{j=2}^{k-1} f_j^(n-i-1) * a_k^[j], C_{k,n} the geometric factor.

    Rows 2..max(ns) are formed bottom-up, each to length max(ks), so every
    f_j^(m) is formed once, O(K^2 N) domain operations in all. Row m is
    the table's rows 1..max(ks) applied to the whole of row m-1 by one
    ``Domain.linear_map``, prepared once per call: entry i is the sum of
    products of row m-1 with the table's row i, which holds i entries, so
    the sum stops at f_i^(m-1) without a copy of row m-1.
    """
    _check_cells(f, ks, ns)
    step = f.domain.linear_map(PowerCoefficientTable(f, ks[-1]).rows[1:])
    row = f.coeffs
    out = {}
    for n in range(1, ns[-1] + 1):
        if n > 1:
            row = step(row)
        if n in ns:
            out.update(((k, n), row[k - 1]) for k in ks)
    return out


def muckenhoupt_f2(f: TruncatedSeries, ks: range, ns: range) -> dict:
    """f_2^(n) for every n in ``ns``, if ``ks`` holds 2, as the quotient
    a_2 * (a_1^(2n) - a_1^n) / (a_1^2 - a_1).

    Needs k = 2, a field domain and a_1 outside {0, 1}; otherwise the
    denominator vanishes, this raises ``NotApplicable`` and the recurrence
    applies instead. a_2 / (a_1^2 - a_1) is formed once per call.
    """
    _check_cells(f, ks, ns)
    if 2 not in ks:
        raise NotApplicable("muckenhoupt computes only k = 2")
    dom = f.domain
    if not dom.is_field:
        raise NotApplicable("muckenhoupt formula needs a field domain")
    a1 = f.coefficient(1)
    if a1 == dom.zero or a1 == dom.one:
        raise NotApplicable(
            "formula undefined for a_1 in {0, 1}, use coeff_recursive"
        )
    scale = f.coefficient(2) * dom.inv(a1 * a1 - a1)
    return {(2, n): scale * (a1 ** (2 * n) - a1 ** n) for n in ns}


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


def closed_form_level(f: TruncatedSeries, k: int, n: int, alpha: int):
    """A_(alpha,k): the total closed-form contribution at one level alpha.

    a_1^(n-alpha) times the sum, over the decreasing chains of length alpha,
    of each chain product times its nested geometric sum. Level 1 has the
    one chain (k,) and equals a_k * C_{k,n}, C_{k,n} the geometric factor.
    Zero when n < alpha: then every nested sum is an empty sum.
    """
    _check_cells(f, range(k, k + 1), range(n, n + 1))
    if not 1 <= alpha <= k - 1:
        raise ValueError(f"alpha must lie in [1, {k - 1}]")
    dom = f.domain
    if n < alpha:
        return dom.zero
    table = PowerCoefficientTable(f, k)
    total = dom.zero
    for chain in enumerate_subsets(k, alpha):
        product = _chain_product(f, chain, table)
        total = total + product * nested_geometric_sum(f, n, chain)
    return f.coefficient(1) ** (n - alpha) * total


def coeff_closed(f: TruncatedSeries, ks: range, ns: range) -> dict:
    """f_k^(n) for every k in ``ks`` and n in ``ns`` by the closed form, its
    chains summed by a dynamic program.

    k = 1 gives a_1^n. For k >= 2 the value is the sum of the levels
    alpha = 1..k-1, each a sum over the strictly decreasing index chains
    of length alpha led by k, of chain products of power coefficients
    times nested geometric sums; level 1 is a_k * C_{k,n}.

    Both factors of a chain's term grow one index at a time: the product by
    a power coefficient, the nested sum's h-vector by the step
    v[d] += b_j * v[d-1], b_j = a_1^(j-1) (see ``nested_geometric_sum``).
    The step is linear, so the chains led by j are summed before they are
    extended (the transfer-matrix method; Stanley, Enumerative
    Combinatorics I, sec. 4.7): U_alpha[j][d], entry d summed over the
    chains of length alpha led by j, is

        U_1[j][d]     = (a_j if d = 0 else 0) + b_j * U_1[j][d-1],
        U_alpha[j][d] = sum_{alpha <= i < j} a_j^[i] * U_(alpha-1)[i][d]
                        + b_j * U_alpha[j][d-1],

    and f_k^(n) = sum_{alpha <= min(k-1, n)} a_1^(n-alpha) *
    sum_{d <= n-alpha} U_alpha[k][d]. Each entry is one ``Domain.combine``
    of the weights b_j, a_j^[alpha..j-1] with the entries they multiply.
    No entry depends on n: the program runs once, for j <= max(ks) and
    d <= max(ns) - alpha, O(K^3 * N) domain operations. Each cell's total is
    one more ``Domain.combine``: of each level's weight a_1^(n-alpha),
    repeated once per entry, with the entries U_alpha[k][:n-alpha+1].
    """
    _check_cells(f, ks, ns)
    a1 = f.coefficient(1)
    out = {(1, n): a1 ** n for n in ns} if ks[0] == 1 else {}
    if ks[-1] == 1:
        return out
    n_max = ns[-1]
    combine = f.domain.combine
    rows = PowerCoefficientTable(f, ks[-1]).rows
    pw = [f.domain.one]  # a_1^0, a_1^1, ...
    for _ in range(1, max(ks[-1], n_max)):
        pw.append(pw[-1] * a1)
    entries = {}  # (j, alpha) -> [U_alpha[j][d] for d <= n_max - alpha]
    for j in range(2, ks[-1] + 1):
        row = rows[j]
        b = pw[j - 1]
        for alpha in range(1, min(j - 1, n_max) + 1):
            u = entries[j, alpha] = []
            below = range(alpha, j) if alpha > 1 else ()
            weights = [b, *row[alpha - 1 : j - 1]] if below else [b]
            lower = [entries[i, alpha - 1] for i in below]
            for d in range(n_max - alpha + 1):
                if d:
                    u.append(combine(weights, [u[d - 1]] + [w[d] for w in lower]))
                elif alpha == 1:
                    u.append(f.coefficient(j))
                else:
                    u.append(combine(weights[1:], [w[0] for w in lower]))
    for k in range(max(ks[0], 2), ks[-1] + 1):
        for n in ns:
            levels = range(1, min(k - 1, n) + 1)
            weights = [w for alpha in levels for w in [pw[n - alpha]] * (n - alpha + 1)]
            terms = [u for alpha in levels for u in entries[k, alpha][: n - alpha + 1]]
            out[k, n] = combine(weights, terms)
    return out


def coeff_schroder(f: TruncatedSeries, ks: range, ns: range) -> dict:
    """f_k^(n) for every k in ``ks`` and n in ``ns`` when a_1 = 1:
    binomials times chain products.

    Schroeder's classical form: f_k^(n) is the sum over levels
    alpha = 1..min(k-1, n) of C(n, alpha) times the level sum L_alpha(k)
    over decreasing chains of a_k^[j_1] * a_(j_1)^[j_2] * ... *
    a_(j_(alpha-1)); level 1 is a_k * n. Binomials are exact integers
    mapped into the domain. No L_alpha(k) depends on n, so the chains of
    each asked k, up to level max(ns), are walked once each on the element
    operators, and each n takes its own binomial total of them.
    """
    _check_cells(f, ks, ns)
    dom = f.domain
    if f.coefficient(1) != dom.one:
        raise NotApplicable("schroder formula requires a_1 = 1")
    table = PowerCoefficientTable(f, ks[-1])
    out = {}
    for k in ks:
        levels = []
        for alpha in range(1, min(k - 1, ns[-1]) + 1):
            chains = enumerate_subsets(k, alpha)
            levels.append(sum([_chain_product(f, chain, table) for chain in chains], dom.zero))
        for n in ns:
            total = dom.zero if k > 1 else dom.one
            for alpha, level in enumerate(levels[:n], 1):
                total = total + dom.from_int(math.comb(n, alpha)) * level
            out[k, n] = total
    return out


# k -> {chain (k, j_1, ..., j_last): its chain product a_k^[j_1] *
# a_(j_1)^[j_2] * ... * a_(j_last), expanded by hand as polynomial text in
# a1..ak} (Comtet, Advanced Combinatorics, 1974, sec. 3.3).
_SMALL_K_CHAIN_PRODUCTS = {
    2: {(2,): "a2"},
    3: {(3,): "a3", (3, 2): "2*a1*a2^2"},
    4: {
        (4,): "a4",
        (4, 3): "3*a1^2*a2*a3",
        (4, 2): "2*a1*a2*a3 + a2^3",
        (4, 3, 2): "6*a1^3*a2^3",
    },
    5: {
        (5,): "a5",
        (5, 4): "4*a1^3*a2*a4",
        (5, 3): "3*a1^2*a3^2 + 3*a1*a2^2*a3",
        (5, 2): "2*a1*a2*a4 + 2*a2^2*a3",
        (5, 4, 3): "12*a1^5*a2^2*a3",
        (5, 4, 2): "8*a1^4*a2^2*a3 + 4*a1^3*a2^4",
        (5, 3, 2): "6*a1^3*a2^2*a3 + 6*a1^2*a2^4",
        (5, 4, 3, 2): "24*a1^6*a2^4",
    },
}
# k -> [(chain, its parsed chain product)], in the order of the table above
_SMALL_K_TERMS = {
    k: [(chain, PolynomialRing(k).parse(text)) for chain, text in products.items()]
    for k, products in _SMALL_K_CHAIN_PRODUCTS.items()
}


def coeff_explicit_small_k(f: TruncatedSeries, ks: range, ns: range) -> dict:
    """f_k^(n) for every k <= 5 in ``ks`` and n in ``ns`` from the fixed
    explicit formulas.

    One term per decreasing chain (k, j_1, ..., j_last) of length alpha <=
    n: a_1^(n-alpha) times the chain product, expanded by hand in
    _SMALL_K_CHAIN_PRODUCTS, times the chain's nested sum of
    a_1^((j - 1) * i_j) over all i_j >= 0 with sum <= n - alpha. The sum is
    taken one level at a time from the innermost out: the innermost level
    is the prefix sums s[b] = sum_{i <= b} a_1^((j - 1) * i), and each level
    out sets s[b] = sum_{i <= b} a_1^((j - 1) * i) * s[b - i]. That is
    O(alpha * n^2) domain operations per chain. It shares no code with
    ``coeff_closed``; the two routes are tested against each other.

    Neither the chain products nor the nested sums depend on n: each chain
    product of each asked k is substituted once, each chain's inner levels
    are formed once, at every budget up to max(ns) - alpha, and its
    outermost level only at the budgets n - alpha that the asked n read.
    The powers a_1^0, a_1^1, ... are one list, of which chain j reads every
    (j - 1)-th entry.
    """
    _check_cells(f, ks, ns)
    if ks[0] > 5:
        raise NotApplicable("k > 5 not covered here, use coeff_closed")
    dom = f.domain
    a1 = f.coefficient(1)
    top, n_max = min(ks[-1], 5), ns[-1]
    pw = [dom.one]
    for _ in range((top - 1) * (n_max - 1)):
        pw.append(pw[-1] * a1)
    out = {(1, n): a1 ** n for n in ns} if ks[0] == 1 else {}
    for k in range(max(ks[0], 2), top + 1):
        totals = dict.fromkeys(ns, dom.zero)
        ring = PolynomialRing(k)
        for chain, product in _SMALL_K_TERMS[k]:
            alpha = len(chain)
            if n_max < alpha:
                continue
            value = ring.substitute(product, f.coeffs[:k], dom)
            budget = n_max - alpha
            low = max(alpha, ns[0]) - alpha  # the least budget n - alpha of an asked n
            s = list(accumulate(pw[:: chain[-1] - 1][: budget + 1]))
            for j in reversed(chain[:-1]):
                powers = pw[:: j - 1]
                s = [
                    sum([p * t for p, t in zip(powers, s[b::-1])], dom.zero)
                    for b in range(low if j == k else 0, budget + 1)
                ]
            # the outermost level from budget low on; s holds every budget when alpha = 1
            for b, level in enumerate(s[low:] if alpha == 1 else s, low):
                totals[b + alpha] = totals[b + alpha] + pw[b] * value * level
        out.update(((k, n), total) for n, total in totals.items())
    return out


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
