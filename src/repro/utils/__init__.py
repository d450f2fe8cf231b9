"""Shared numeric and collection utilities used across the repro package."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".faults": ("Fault", "FaultPlan"),
    ".mathx": (
        "ceil_div",
        "divisors",
        "mixed_radix_digits",
        "num_ordered_factorizations",
        "ordered_factorizations",
        "prime_factorization",
        "product",
    ),
    ".pareto": ("ParetoPoint", "pareto_frontier"),
    ".rng": ("make_rng",),
})
