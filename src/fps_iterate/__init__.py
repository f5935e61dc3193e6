"""Exact coefficients of iterated formal power series.

Several independent computation routes for the same coefficients, over
exact domains (rationals, prime fields, polynomial rings), plus a sweep
engine that cross-checks them against brute-force composition.
"""

from .domains import (
    Domain,
    FpElement,
    Polynomial,
    PolynomialRing,
    PrimeField,
    RATIONALS,
    Rationals,
    domain_from_json,
    is_prime,
)
from .formulas import (
    NotApplicable,
    coeff_closed,
    coeff_explicit_small_k,
    coeff_recursive,
    coeff_schroder,
    count_closed_form_summands,
    enumerate_subsets,
    geometric_factor,
    muckenhoupt_f2,
    nested_geometric_sum,
    nested_sum_binomial,
    rising_product_sum,
)
from .multinomial import PowerCoefficientTable, multinomial_coeff
from .series import TruncatedSeries
from .verify import (
    DiscrepancyReport,
    GeneratorSpec,
    METHODS,
    SweepSpec,
    adjudicate_typo_cases,
    preset_spec,
    run_preset,
    run_sweep,
)

__version__ = "0.1.0"

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
    "TruncatedSeries",
    "multinomial_coeff",
    "PowerCoefficientTable",
    "NotApplicable",
    "geometric_factor",
    "coeff_recursive",
    "coeff_closed",
    "coeff_explicit_small_k",
    "coeff_schroder",
    "muckenhoupt_f2",
    "enumerate_subsets",
    "nested_geometric_sum",
    "nested_sum_binomial",
    "rising_product_sum",
    "count_closed_form_summands",
    "METHODS",
    "GeneratorSpec",
    "SweepSpec",
    "DiscrepancyReport",
    "run_sweep",
    "run_preset",
    "preset_spec",
    "adjudicate_typo_cases",
    "__version__",
]
