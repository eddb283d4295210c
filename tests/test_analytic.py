import math
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from radionet.analytic import (
    certify_chain,
    chain_grid,
    chernoff_tail,
    expected_receivers,
    expected_receivers_upper,
    p_delta,
    p_delta_upper,
    union_failure_bound,
)
from radionet.errors import InputError


def reception_probability_by_enumeration(n_prime: int, s: int, delta: int) -> Fraction:
    """Oracle: enumerate every delta-subset of senders and count the ones
    containing exactly one of the first s senders."""
    hits = sum(
        1
        for neighbor_set in combinations(range(n_prime), delta)
        if sum(1 for u in neighbor_set if u < s) == 1
    )
    return Fraction(hits, comb(n_prime, delta))


def test_p_delta_spec_values():
    assert p_delta(4, 2, 2) == Fraction(2, 3)
    assert p_delta(16, 4, 4) == Fraction(880, 1820)
    assert p_delta(8, 6, 4) == 0  # delta beyond n' - s + 1 is forced to zero
    for n_prime in (3, 7, 16):
        assert p_delta(n_prime, 1, n_prime) == 1
    assert p_delta(5, 0, 2) == 0


def test_p_delta_matches_enumeration_oracle():
    for n_prime in range(2, 11):
        for s in range(0, n_prime + 1):
            for delta in range(1, n_prime + 1):
                assert p_delta(n_prime, s, delta) == reception_probability_by_enumeration(
                    n_prime, s, delta
                ), (n_prime, s, delta)


def test_p_delta_rejects_bad_arguments():
    with pytest.raises(InputError):
        p_delta(4, 5, 2)
    with pytest.raises(InputError):
        p_delta(4, -1, 2)
    with pytest.raises(InputError):
        p_delta(4, 2, 0)
    with pytest.raises(InputError):
        p_delta(0, 0, 1)


def test_p_delta_agrees_with_monte_carlo():
    rng = random.Random(1717)
    samples = 100_000
    for s, delta in [(2, 2), (4, 4), (8, 2)]:
        exact = float(p_delta(16, s, delta))
        hits = 0
        for _ in range(samples):
            neighbor_set = rng.sample(range(16), delta)
            hits += sum(1 for u in neighbor_set if u < s) == 1
        estimate = hits / samples
        stderr = math.sqrt(max(estimate * (1 - estimate), 1e-12) / samples)
        assert abs(estimate - exact) <= 4 * stderr


def test_hypergeometric_mass_at_one_equals_p_delta():
    # Distribution of |neighbors ∩ transmitters| for n'=4, s=2, delta=2.
    counts = {0: 0, 1: 0, 2: 0}
    for neighbor_set in combinations(range(4), 2):
        counts[sum(1 for u in neighbor_set if u < 2)] += 1
    total = comb(4, 2)
    assert Fraction(counts[1], total) == p_delta(4, 2, 2)
    assert sum(counts.values()) == total


def test_p_delta_upper_spec_values():
    assert p_delta_upper(4, 2, 2) == pytest.approx(1.0)
    assert p_delta_upper(4, 2, 2) >= float(p_delta(4, 2, 2))
    for n_prime in (4, 10, 64):
        assert p_delta_upper(n_prime, 1, 1) >= 1 / n_prime
    assert p_delta_upper(16, 4, 4) == pytest.approx(1.0)
    assert float(p_delta(16, 4, 4)) == pytest.approx(0.4835, abs=1e-4)


def test_p_delta_upper_dominates_exact_everywhere():
    for n_prime in range(1, 33):
        for s in range(1, n_prime + 1):
            for delta in range(1, n_prime - s + 2):
                assert float(p_delta(n_prime, s, delta)) <= p_delta_upper(n_prime, s, delta)


def test_p_delta_upper_rejects_invalid_domain():
    with pytest.raises(InputError):
        p_delta_upper(8, 0, 1)
    with pytest.raises(InputError):
        p_delta_upper(8, 6, 4)


def test_expected_receivers_small_cases():
    assert expected_receivers(2, 1) == 2
    assert expected_receivers(2, 2) == 0
    assert expected_receivers(4, 1) == 6
    assert expected_receivers(4, 2) == Fraction(8, 3)
    assert expected_receivers(16, 16) == 0
    for s in range(1, 17):
        assert expected_receivers(16, s) < 10 * 16


def test_expected_receivers_needs_power_of_two():
    with pytest.raises(InputError):
        expected_receivers(12, 1)
    with pytest.raises(InputError):
        expected_receivers(0, 0)


def test_expected_receivers_upper_dominates_and_stays_under_cap():
    n_prime = 2
    while n_prime <= 64:
        upper = expected_receivers_upper(n_prime)
        assert upper < 10 * n_prime
        for s in range(0, n_prime + 1):
            assert expected_receivers(n_prime, s) <= upper
        n_prime *= 2
    with pytest.raises(InputError):
        expected_receivers_upper(12)


def test_chernoff_tail_spec_values():
    assert chernoff_tail(10, 20) == pytest.approx(0.0210061, abs=1e-6)
    assert chernoff_tail(5, 5.0001) == pytest.approx(1.0, abs=1e-6)
    for n_prime in (1, 4, 64):
        assert chernoff_tail(10 * n_prime, 20 * n_prime) < math.exp(-3 * n_prime)


def test_chernoff_tail_monotone_decreasing_in_threshold():
    values = [chernoff_tail(10, a) for a in (11, 14, 20, 30, 50)]
    assert all(earlier > later for earlier, later in zip(values, values[1:]))


def test_chernoff_tail_rejects_vacuous_domain():
    with pytest.raises(InputError):
        chernoff_tail(10, 10)
    with pytest.raises(InputError):
        chernoff_tail(0, 1)


def test_chernoff_tail_dominates_binomial_monte_carlo():
    # 10^6 trials of a Binomial(100, 0.1) sum; the closed form must sit above
    # the empirical tail mass at 20.
    rng = np.random.default_rng(42)
    draws = rng.binomial(100, 0.1, size=1_000_000)
    estimate = float(np.mean(draws >= 20))
    stderr = math.sqrt(estimate * (1 - estimate) / draws.size)
    assert estimate - 4 * stderr <= chernoff_tail(10.0, 20.0)


def test_union_failure_bound_values():
    assert union_failure_bound(1) == pytest.approx(2 / math.e**3)
    assert union_failure_bound(1) < math.exp(-2)
    assert union_failure_bound(16) == pytest.approx(math.exp(16 * (math.log(2) - 3)))
    for n_prime in range(1, 65):
        assert union_failure_bound(n_prime) < math.exp(-2 * n_prime)
    with pytest.raises(InputError):
        union_failure_bound(0)


def test_certify_chain_toy_case():
    numerator, denominator, values, passed = certify_chain(4, 2, 2)
    assert passed
    assert (numerator, denominator) == (2, 3)
    assert len(values) == 5
    assert values[0] == pytest.approx(2 / 3)
    assert values[-1] == pytest.approx(1.0)


def test_certify_chain_degree_one_collapses():
    for n_prime in (2, 5, 64):
        *_, values, passed = certify_chain(n_prime, 1, 1)
        for value in values[:-1]:
            assert value == pytest.approx(1 / n_prime)
        assert values[-1] == pytest.approx(math.exp(1 - 1 / n_prime) / n_prime)
        assert passed


def test_certify_chain_holds_on_moderate_grid():
    for n_prime in range(1, 25):
        for s in range(1, n_prime + 1):
            for delta in range(1, n_prime - s + 2):
                cell = certify_chain(n_prime, s, delta)
                assert cell[-1], (n_prime, s, delta, cell)
    assert certify_chain(64, 8, 8)[-1]


def test_certify_chain_rejects_invalid_domain():
    with pytest.raises(InputError):
        certify_chain(8, 0, 1)
    with pytest.raises(InputError):
        certify_chain(8, 4, 6)


def test_chain_grid_equals_certify_chain_cell_by_cell():
    for n_prime in range(1, 65):
        expected = [(s, d, *certify_chain(n_prime, s, d))
                    for s in range(1, n_prime + 1) for d in range(1, n_prime - s + 2)]
        assert list(chain_grid(n_prime)) == expected, n_prime


def test_certify_chain_matches_rational_arithmetic():
    # The chain's leading pair in Fraction arithmetic: the integer kernel must
    # give the same exact value in lowest terms, the same float() of both and
    # the same order.
    for n_prime, s, delta in [(1, 1, 1), (2, 1, 2), (16, 4, 4), (64, 8, 8), (256, 200, 57),
                              (256, 1, 256), (256, 255, 2), (300, 7, 123)]:
        exact = Fraction(s * comb(n_prime - s, delta - 1), comb(n_prime, delta))
        power = Fraction(s * delta, n_prime) * Fraction(n_prime - s, max(n_prime - 1, 1)) ** (delta - 1)
        numerator, denominator, values, _ = certify_chain(n_prime, s, delta)
        assert (numerator, denominator) == (exact.numerator, exact.denominator)
        assert values[0] == float(exact)
        assert values[1] == float(power)
        assert exact <= power
