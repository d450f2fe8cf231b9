"""Integer factorization and combinatorics helpers.

These primitives underpin both mapspace generation (ordered divisor chains
for perfect factorization, mixed-radix digits for imperfect factorization)
and mapspace-size counting (Table I of the paper).
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator, List, Sequence, Tuple


def product(values: Iterable[int]) -> int:
    """Return the product of ``values`` (1 for an empty iterable)."""
    result = 1
    for value in values:
        result *= value
    return result


def ceil_div(numerator: int, denominator: int) -> int:
    """Return ``ceil(numerator / denominator)`` using exact integer math."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)


@functools.lru_cache(maxsize=None)
def prime_factorization(n: int) -> Tuple[Tuple[int, int], ...]:
    """Return the prime factorization of ``n`` as ``((prime, exponent), ...)``.

    ``prime_factorization(1)`` returns an empty tuple.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors: List[Tuple[int, int]] = []
    remaining = n
    candidate = 2
    while candidate * candidate <= remaining:
        if remaining % candidate == 0:
            exponent = 0
            while remaining % candidate == 0:
                remaining //= candidate
                exponent += 1
            factors.append((candidate, exponent))
        candidate += 1 if candidate == 2 else 2
    if remaining > 1:
        factors.append((remaining, 1))
    return tuple(factors)


@functools.lru_cache(maxsize=None)
def divisors(n: int) -> Tuple[int, ...]:
    """Return all positive divisors of ``n`` in ascending order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    result = [1]
    for prime, exponent in prime_factorization(n):
        powers = [prime**e for e in range(exponent + 1)]
        result = [d * p for d in result for p in powers]
    return tuple(sorted(result))


def ordered_factorizations(n: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """Yield every ordered tuple of ``parts`` positive integers whose product is ``n``.

    This enumerates the perfect-factorization choices for a single tensor
    dimension of size ``n`` split across ``parts`` loop levels. The order of
    the tuple matters (different levels of the memory hierarchy).
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if parts == 1:
        yield (n,)
        return
    for head in divisors(n):
        for tail in ordered_factorizations(n // head, parts - 1):
            yield (head,) + tail


@functools.lru_cache(maxsize=None)
def num_ordered_factorizations(n: int, parts: int) -> int:
    """Count ordered factorizations of ``n`` into ``parts`` positive factors.

    Equals ``prod_over_primes C(exponent + parts - 1, parts - 1)`` — each
    prime's exponent is distributed independently over the ``parts`` slots.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    count = 1
    for _, exponent in prime_factorization(n):
        count *= math.comb(exponent + parts - 1, parts - 1)
    return count


def mixed_radix_digits(value: int, radices: Sequence[int]) -> Tuple[int, ...]:
    """Decompose ``value`` into mixed-radix digits over ``radices``.

    ``radices`` are listed least-significant first. Digit ``i`` lies in
    ``[0, radices[i])``; whatever remains after the final radix is returned
    as an extra most-significant digit (unbounded), so the output has
    ``len(radices) + 1`` entries and reconstructs exactly:

    ``value == sum(digit[i] * prod(radices[:i]) for i in range(len(digits)))``

    This is the heart of Ruby's imperfect factorization: for per-level bounds
    ``P_0..P_{N-1}`` (inner to outer), the remainders of Eq. (5) are
    ``R_i = digit_i + 1`` with ``digit = mixed_radix_digits(D - 1, P)``.
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    digits: List[int] = []
    remaining = value
    for radix in radices:
        if radix < 1:
            raise ValueError(f"radices must be >= 1, got {radix}")
        digits.append(remaining % radix)
        remaining //= radix
    digits.append(remaining)
    return tuple(digits)


def from_mixed_radix(digits: Sequence[int], radices: Sequence[int]) -> int:
    """Inverse of :func:`mixed_radix_digits`."""
    if len(digits) != len(radices) + 1:
        raise ValueError(
            f"expected {len(radices) + 1} digits for {len(radices)} radices, "
            f"got {len(digits)}"
        )
    value = 0
    weight = 1
    for digit, radix in zip(digits, radices):
        if not 0 <= digit < radix:
            raise ValueError(f"digit {digit} out of range for radix {radix}")
        value += digit * weight
        weight *= radix
    value += digits[-1] * weight
    return value


def compositions_bounded(parts: int, bound: int) -> Iterator[Tuple[int, ...]]:
    """Yield every tuple of ``parts`` integers with entries in ``[1, bound]``.

    Utility enumerator (``bound ** parts`` tuples) for exhaustive
    imperfect-factorization counting on small problems, where each loop
    level independently picks a bound up to the dimension size.
    """
    if parts < 0:
        raise ValueError(f"parts must be >= 0, got {parts}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if parts == 0:
        yield ()
        return
    for head in range(1, bound + 1):
        for tail in compositions_bounded(parts - 1, bound):
            yield (head,) + tail


def balanced_split(n: int, parts: int) -> Tuple[int, ...]:
    """Split ``n`` into ``parts`` near-equal positive integers summing to ``n``."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if n < parts:
        raise ValueError(f"cannot split {n} into {parts} positive parts")
    base, extra = divmod(n, parts)
    return tuple(base + (1 if i < extra else 0) for i in range(parts))
