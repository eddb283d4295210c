"""Exact reception probabilities, expectation bounds, and tail bounds.

Everything here is about one round on a class-structured bipartite net with
`n_prime` senders: the chance that a degree-`delta` receiver with a uniform
random neighbor set hears exactly one of `s` transmitting senders, the
expected number of receivers hearing anything, and the tail/union bounds
that cap how large that count can get. Exact values are arbitrary-precision
rationals (`fractions.Fraction`); analytic envelopes are floats, and every
inequality step between them can be certified numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .errors import InputError

#: Exact probabilities are plain Fractions: arbitrary-precision integers,
#: automatically in lowest terms.
ExactProb = Fraction

#: Relative slack for float-vs-float chain comparisons. Genuine violations
#: would be macroscopic; this only absorbs last-ulp rounding at equality
#: points of the chain.
_CHAIN_EPS = 1e-12


def _check_counts(n_prime: int, s: int) -> None:
    if n_prime < 1:
        raise InputError("n_prime must be a positive integer")
    if s < 0:
        raise InputError("s must be nonnegative")
    if s > n_prime:
        raise InputError(f"s={s} exceeds n_prime={n_prime}")


def p_delta(n_prime: int, s: int, delta: int) -> Fraction:
    """Exact probability that a degree-`delta` receiver receives a packet.

    The receiver's neighbor set is a uniform random `delta`-subset of the
    `n_prime` senders and exactly the fixed `s`-subset transmits; reception
    means exactly one neighbor transmits. Zero when nobody transmits or when
    delta > n_prime - s + 1 (every neighbor set then contains two
    transmitters).
    """
    _check_counts(n_prime, s)
    if delta < 1:
        raise InputError("delta must be at least 1")
    if s == 0 or delta > n_prime - s + 1:
        return Fraction(0)
    return Fraction(s * comb(n_prime - s, delta - 1), comb(n_prime, delta))


def p_delta_upper(n_prime: int, s: int, delta: int) -> float:
    """Analytic envelope e*(s*delta/n') * exp(-s*delta/n') >= p_delta."""
    _check_counts(n_prime, s)
    if s < 1:
        raise InputError("s must be at least 1 for the envelope")
    if not 1 <= delta <= n_prime - s + 1:
        raise InputError(f"delta={delta} outside [1, {n_prime - s + 1}]")
    load = s * delta / n_prime
    return math.e * load * math.exp(-load)


def _require_power_of_two(n_prime: int) -> int:
    if n_prime < 1 or n_prime & (n_prime - 1):
        raise InputError(f"n_prime={n_prime} is not a power of two")
    return n_prime.bit_length() - 1


def expected_receivers(n_prime: int, s: int) -> Fraction:
    """Exact expected number of receivers hearing a packet in one round.

    The net has one receiver class per degree 2**i, i = 1..log2(n_prime),
    with n_prime receivers each; linearity gives
    n_prime * sum_i p_delta(n_prime, s, 2**i). Not capped at 1: this is an
    expectation over receivers, not a probability.
    """
    classes = _require_power_of_two(n_prime)
    _check_counts(n_prime, s)
    total = Fraction(0)
    for i in range(1, classes + 1):
        total += p_delta(n_prime, s, 1 << i)
    return n_prime * total


def delta_star(n_prime: int, s: int) -> int:
    """Split degree 2**floor(log2(n_prime/s)): the largest power of two <= n_prime/s."""
    _check_counts(n_prime, s)
    if s < 1:
        raise InputError("s must be at least 1")
    return 1 << ((n_prime // s).bit_length() - 1)


def expected_receivers_upper(n_prime: int, s: int) -> float:
    """Closed-form upper bound on expected_receivers, always below 10*n_prime.

    Splitting the per-class envelope sum at delta_star(n_prime, s) leaves a
    geometric head (each term <= 2**-j) and a doubly-exponential tail (each
    term <= 2**(j+1) * exp(-2**j)); summing both series in full dominates
    every class term on either side of the split, for every s.
    """
    _require_power_of_two(n_prime)
    _check_counts(n_prime, s)
    if s < 1:
        raise InputError("s must be at least 1")
    head = 2.0  # sum_{j>=0} 2**-j
    tail = 0.0
    j = 0
    while True:
        term = (2.0 ** (j + 1)) * math.exp(-(2.0**j))
        if term < 1e-18:
            break
        tail += term
        j += 1
    return math.e * n_prime * (head + tail)


def chernoff_tail(mu: float, a: float) -> float:
    """Upper bound exp(a - mu - a*ln(a/mu)) on Pr(X >= a).

    Valid for X a sum of independent indicator variables with mean at most
    `mu`; requires a > mu (the bound is vacuous otherwise) and degrades
    continuously to 1 as a approaches mu.
    """
    if mu <= 0:
        raise InputError("mu must be positive")
    if a <= mu:
        raise InputError(f"a={a} must exceed mu={mu}; the tail bound is vacuous")
    return math.exp(a - mu - a * math.log(a / mu))


def union_failure_bound(n_prime: int) -> float:
    """Failure mass 2**n' * exp(-3n') after a union over all 2**n' transmit sets.

    Always below exp(-2n') because ln 2 < 1; computed in log space so large
    n_prime cannot underflow the comparison.
    """
    if n_prime < 1:
        raise InputError("n_prime must be a positive integer")
    log_value = n_prime * (math.log(2.0) - 3.0)
    if not log_value < -2.0 * n_prime:
        raise ArithmeticError("union bound lost to exp(-2n'); ln 2 >= 1?")
    return math.exp(log_value)


@dataclass(frozen=True)
class BoundChainReport:
    """Values of each expression in the reception-probability bound chain.

    `steps` lists (label, value) in chain order; `passed` means every value
    is bounded by the next one, with the exact leading pair compared in
    rational arithmetic and the float tail compared with upward slack.
    """

    n_prime: int
    s: int
    delta: int
    delta_star: int
    exact: Fraction
    steps: tuple[tuple[str, float], ...]
    passed: bool


#: Labels of the bound chain's expressions, in chain order.
_CHAIN_LABELS = (
    "exact_hypergeometric",
    "single_factor_power",
    "exponential_form",
    "factored_exponential",
    "final_envelope",
)


def _chain_cell(
    n_prime: int, s: int, delta: int, comb_rest: int, comb_all: int, power_rest: int, power_all: int
) -> tuple[int, int, tuple[float, ...], bool]:
    """One cell of the bound chain from its integer inputs: the one comparison kernel.

    Takes comb_rest = C(n'-s, delta-1), comb_all = C(n', delta),
    power_rest = (n'-s)**(delta-1) and power_all = (n'-1)**(delta-1), so the
    exact value is s*comb_rest/comb_all and the single-factor power form
    s*delta*power_rest/(n'*power_all). Those two are compared by
    cross-multiplying integers. Int/int true division is correctly rounded,
    so each float equals float() of the same rational. Returns p_delta in
    lowest terms (numerator, denominator), the chain's values in the order
    of _CHAIN_LABELS, and whether every value is bounded by the next.
    """
    numerator = s * comb_rest
    common = math.gcd(numerator, comb_all)
    numerator //= common
    denominator = comb_all // common
    power_num = s * delta * power_rest
    power_den = n_prime * power_all
    power_f = power_num / power_den

    base = s * delta / n_prime
    shrink = (s - 1) * (delta - 1)
    exp_form = base * math.exp(-(shrink / (n_prime - 1)) if shrink else 0.0)
    # Same number as (s*delta/n')*exp(-s*delta/n')*exp((s+delta-1)/n'),
    # computed from the collapsed exponent for stability.
    factored_form = base * math.exp(-shrink / n_prime)
    envelope = math.e * base * math.exp(-base)

    passed = (
        numerator * power_den <= power_num * denominator
        and power_f <= exp_form * (1.0 + _CHAIN_EPS)
        and exp_form <= factored_form * (1.0 + _CHAIN_EPS)
        and factored_form <= envelope * (1.0 + _CHAIN_EPS)
    )
    values = (numerator / denominator, power_f, exp_form, factored_form, envelope)
    return numerator, denominator, values, passed


def certify_chain(n_prime: int, s: int, delta: int) -> BoundChainReport:
    """Evaluate the five-expression bound chain and check it is monotone.

    exact hypergeometric value
      <= single-factor power (s*delta/n') * (1 - (s-1)/(n'-1))**(delta-1)
      <= exponential form    (s*delta/n') * exp(-(s-1)(delta-1)/(n'-1))
      <= factored form       (s*delta/n') * exp(-s*delta/n') * exp((s+delta-1)/n')
      <= final envelope      e * (s*delta/n') * exp(-s*delta/n')

    The first two expressions are rational and compared exactly; the rest
    are floats compared with a relative-slack guard so equality points of
    the chain cannot fail on rounding.
    """
    _check_counts(n_prime, s)
    if s < 1:
        raise InputError("s must be at least 1")
    if not 1 <= delta <= n_prime - s + 1:
        raise InputError(f"delta={delta} outside [1, {n_prime - s + 1}]")
    numerator, denominator, values, passed = _chain_cell(
        n_prime, s, delta, comb(n_prime - s, delta - 1), comb(n_prime, delta),
        (n_prime - s) ** (delta - 1), (n_prime - 1) ** (delta - 1),
    )
    return BoundChainReport(
        n_prime=n_prime,
        s=s,
        delta=delta,
        delta_star=delta_star(n_prime, s),
        exact=Fraction(numerator, denominator),
        steps=tuple(zip(_CHAIN_LABELS, values)),
        passed=passed,
    )


def chain_grid(n_prime: int) -> Iterator[tuple[int, int, int, int, tuple[float, ...], bool]]:
    """Every cell of the bound chain for `n_prime` senders, s-major then delta.

    Yields (s, delta, numerator, denominator, values, passed), the same
    numbers certify_chain(n_prime, s, delta) reports, for 1 <= s <= n' and
    1 <= delta <= n'-s+1. The kernel's binomials and powers come from
    recurrences along delta rather than fresh products per cell.
    """
    if n_prime < 1:
        raise InputError("n_prime must be a positive integer")
    combs_all, powers_all = [], []  # C(n', delta) and (n'-1)**(delta-1)
    comb_all, power_all = 1, 1
    for delta in range(1, n_prime + 1):
        comb_all = comb_all * (n_prime - delta + 1) // delta
        combs_all.append(comb_all)
        powers_all.append(power_all)
        power_all *= n_prime - 1
    for s in range(1, n_prime + 1):
        rest = n_prime - s
        comb_rest, power_rest = 1, 1  # C(rest, delta-1) and rest**(delta-1)
        for delta, comb_all, power_all in zip(range(1, rest + 2), combs_all, powers_all):
            yield s, delta, *_chain_cell(n_prime, s, delta, comb_rest, comb_all, power_rest, power_all)
            comb_rest = comb_rest * (rest - delta + 1) // delta
            power_rest *= rest
