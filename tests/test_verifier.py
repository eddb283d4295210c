import math
import random
from fractions import Fraction

import pytest

from radionet.errors import BudgetError, InputError
from radionet.instance import InstanceParams, sample_instance
from radionet.model import BipartiteRadioNet, Receiver, TransmitSet, round_step
from radionet.util import derive_rng
from radionet.verifier import (
    check_lemma_threshold,
    max_receptions_exact,
    max_receptions_search,
    monte_carlo_expectation,
)


def toy_net():
    return BipartiteRadioNet(2, (Receiver(0, (0,)), Receiver(1, (0, 1))))


def test_exact_on_toy():
    result = max_receptions_exact(toy_net())
    assert result.best_count == 2
    assert result.witness.bits == 0b01  # sender a alone
    assert result.subsets_examined == 4
    assert result.method == "exact"


def test_exact_empty_receivers():
    result = max_receptions_exact(BipartiteRadioNet(3, ()))
    assert result.best_count == 0
    assert result.witness.bits == 0


def test_exact_on_minimal_instance():
    net = sample_instance(InstanceParams(4, seed=0))
    result = max_receptions_exact(net)
    assert result.best_count == 2
    assert result.witness.bits == 0b01  # first sender, smallest mask tie-break


def test_exact_budget_error_directs_to_search():
    wide = BipartiteRadioNet(27, ())
    with pytest.raises(BudgetError, match="search"):
        max_receptions_exact(wide)


def test_exact_witness_reproduces_best_count():
    for seed in (1, 2, 3):
        net = sample_instance(InstanceParams(64, seed=seed))
        result = max_receptions_exact(net)
        outcome = round_step(net, result.witness)
        assert outcome.reception_count == result.best_count


def test_search_is_dominated_by_exact():
    for seed in range(6):
        net = sample_instance(InstanceParams(64, seed=seed))
        exact = max_receptions_exact(net)
        found = max_receptions_search(net, restarts=8, seed=seed)
        assert found.best_count <= exact.best_count
        assert found.method == "search"
        outcome = round_step(net, found.witness)
        assert outcome.reception_count == found.best_count


def test_search_finds_toy_optimum():
    result = max_receptions_search(toy_net(), restarts=8, seed=0)
    assert result.best_count == 2


def test_search_covers_singleton_starts():
    net = sample_instance(InstanceParams(256, seed=4))
    best_single = max(
        round_step(net, TransmitSet(16, 1 << u)).reception_count for u in range(16)
    )
    result = max_receptions_search(net, restarts=1, seed=0)
    assert result.best_count >= best_single


def test_search_deterministic_given_seed():
    net = sample_instance(InstanceParams(256, seed=8))
    a = max_receptions_search(net, restarts=16, seed=5)
    b = max_receptions_search(net, restarts=16, seed=5)
    assert (a.best_count, a.witness.bits) == (b.best_count, b.witness.bits)


def test_threshold_vacuous_at_desk_scale():
    net = sample_instance(InstanceParams(256, seed=7))
    report = check_lemma_threshold(net, 20, max_receptions_exact(net))
    assert report.threshold == 320
    assert report.vacuous  # 320 >= 64 receivers: nothing to certify here
    assert report.passed
    assert report.fraction_bound == Fraction(5)  # 320 / 64


def test_threshold_equality_passes():
    report = check_lemma_threshold(toy_net(), 1, max_receptions_exact(toy_net()))
    assert report.best_count == 2
    assert report.threshold == 2
    assert report.passed  # equality counts as passing
    assert report.vacuous  # threshold 2 >= 2 receivers


def test_threshold_failure_below_maximum():
    report = check_lemma_threshold(
        toy_net(), Fraction(1, 2), max_receptions_exact(toy_net())
    )
    assert report.threshold == 1
    assert not report.passed


def test_threshold_receiver_ratio_always_passes():
    for seed in (0, 9):
        net = sample_instance(InstanceParams(64, seed=seed))
        c = Fraction(net.receiver_count, net.sender_count)
        assert check_lemma_threshold(net, c, max_receptions_exact(net)).passed


def test_threshold_rejects_nonpositive_factor():
    with pytest.raises(InputError):
        check_lemma_threshold(toy_net(), 0, max_receptions_exact(toy_net()))


def test_monte_carlo_zero_transmitters():
    estimate = monte_carlo_expectation(InstanceParams(16), 0, trials=50, seed=1)
    assert estimate.mean == 0.0
    assert estimate.std_error == 0.0


def test_monte_carlo_matches_exact_expectation():
    from radionet.analytic import expected_receivers

    for s in (1, 2):
        estimate = monte_carlo_expectation(InstanceParams(16), s, trials=3000, seed=s)
        exact = float(expected_receivers(4, s))
        slack = 4 * max(estimate.std_error, 1e-9)
        assert abs(estimate.mean - exact) <= slack


def test_transmit_set_choice_is_exchangeable():
    # The construction is symmetric over senders, so any fixed s-subset gives
    # the same reception distribution; compare two different fixed pairs.
    rng = random.Random(77)
    params = InstanceParams(16)
    first = TransmitSet(4, 0b0011)
    last = TransmitSet(4, 0b1100)
    trials = 4000

    def run(transmitters, offset):
        total = total_sq = 0.0
        for t in range(trials):
            net = sample_instance(InstanceParams(16, seed=rng.getrandbits(64)))
            count = round_step(net, transmitters).reception_count
            total += count
            total_sq += count * count
        mean = total / trials
        variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        return mean, math.sqrt(variance / trials)

    mean_a, se_a = run(first, 0)
    mean_b, se_b = run(last, 1)
    assert abs(mean_a - mean_b) <= 4 * math.hypot(se_a, se_b)


def test_monte_carlo_validates_arguments():
    with pytest.raises(InputError):
        monte_carlo_expectation(InstanceParams(16), 5, trials=10)
    with pytest.raises(InputError):
        monte_carlo_expectation(InstanceParams(16), 1, trials=0)


def monte_carlo_by_nets(params, s, trials, seed):
    """Reference: build each trial's net and count one round_step."""
    transmitters = TransmitSet(params.n_prime, (1 << s) - 1)
    rng = derive_rng(seed)
    total = total_sq = 0.0
    for _ in range(trials):
        net = sample_instance(InstanceParams(params.n, rng.getrandbits(64)))
        count = round_step(net, transmitters).reception_count
        total += count
        total_sq += count * count
    mean = total / trials
    if trials > 1:
        variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        return mean, math.sqrt(variance / trials)
    return mean, 0.0


@pytest.mark.parametrize(
    "n, s, trials, seed",
    [(4, 1, 40, 0), (16, 2, 200, 5), (64, 3, 60, 9), (256, 5, 40, 77), (256, 16, 3, 1),
     (1024, 7, 1, 4), (4096, 20, 2, 123)],
)
def test_monte_carlo_equals_net_building_reference(n, s, trials, seed):
    estimate = monte_carlo_expectation(InstanceParams(n), s, trials, seed)
    assert (estimate.mean, estimate.std_error) == monte_carlo_by_nets(InstanceParams(n), s, trials, seed)
    assert estimate.trials == trials
