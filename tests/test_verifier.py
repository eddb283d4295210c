import math
import random

import pytest

from radionet.errors import BudgetError, InputError
from radionet.instance import InstanceParams, sample_instance
from radionet.model import BipartiteRadioNet, Receiver, bit_mask, round_step
from radionet.util import derive_rng
from radionet.verifier import (
    ENUMERATION_BUDGET_BITS,
    max_receptions_exact,
    max_receptions_search,
    monte_carlo_expectation,
)

from goldens import check, legacy_search_repr
from shared import toy_net


def test_exact_on_toy():
    result = max_receptions_exact(toy_net())
    assert result.best_count == 2
    assert result.witness == 0b01  # sender a alone
    assert result.subsets_examined == 4
    assert result.method == "exact"


def test_exact_empty_receivers():
    result = max_receptions_exact(BipartiteRadioNet(3, ()))
    assert result.best_count == 0
    assert result.witness == 0


def test_exact_on_minimal_instance():
    net = sample_instance(InstanceParams(4, seed=0))
    result = max_receptions_exact(net)
    assert result.best_count == 2
    assert result.witness == 0b01  # first sender, smallest mask tie-break


def test_exact_at_the_budget_edge():
    # 26 senders, past brute force. Pairwise disjoint neighbour sets, some in
    # one half of the sender split and some across it: every receiver can
    # hear at once, and the smallest witness takes each one's lowest neighbour.
    neighbor_sets = [(0, 14), (1, 2, 25), (3,), (13, 20, 24), (5, 6, 7, 8), (12,), (15, 16, 17, 18, 19)]
    net = BipartiteRadioNet(ENUMERATION_BUDGET_BITS, tuple(Receiver(0, bit_mask(s)) for s in neighbor_sets))
    result = max_receptions_exact(net)
    assert result.best_count == len(neighbor_sets)
    assert result.witness == sum(1 << min(s) for s in neighbor_sets) == 0xB02B
    assert result.subsets_examined == 1 << 26


def test_exact_budget_error_directs_to_search():
    wide = BipartiteRadioNet(27, ())
    with pytest.raises(BudgetError, match="search"):
        max_receptions_exact(wide)


def test_exact_witness_reproduces_best_count():
    for seed in (1, 2, 3):
        net = sample_instance(InstanceParams(64, seed=seed))
        result = max_receptions_exact(net)
        heard, _ = round_step(net, result.witness)
        assert heard.bit_count() == result.best_count


def test_search_is_dominated_by_exact():
    for seed in range(6):
        net = sample_instance(InstanceParams(64, seed=seed))
        exact = max_receptions_exact(net)
        found = max_receptions_search(net, restarts=8, seed=seed)
        assert found.best_count <= exact.best_count
        assert found.method == "search"
        heard, _ = round_step(net, found.witness)
        assert heard.bit_count() == found.best_count


def test_search_finds_toy_optimum():
    result = max_receptions_search(toy_net(), restarts=8, seed=0)
    assert result.best_count == 2


def test_search_covers_singleton_starts():
    net = sample_instance(InstanceParams(256, seed=4))
    best_single = max(
        round_step(net, 1 << u)[0].bit_count() for u in range(16)
    )
    result = max_receptions_search(net, restarts=1, seed=0)
    assert result.best_count >= best_single


def test_search_matches_pinned_digest():
    # n' = 32 and 64, past the enumeration budget. 32 restarts is the default;
    # 1024 restarts spend the whole 64 n' flip budget, so the last starts get
    # no flip at all and count only their start set.
    reports = []
    for n in (1024, 4096):
        for seed in (0, 1, 2):
            net = sample_instance(InstanceParams(n, seed=seed))
            for restarts in (32, 1024):
                result = max_receptions_search(net, restarts=restarts, seed=seed)
                reports.append(legacy_search_repr(net, result))
    check("search grid", "\n".join(reports).encode())


def test_monte_carlo_zero_transmitters():
    estimate = monte_carlo_expectation(InstanceParams(16), 0, trials=50, seed=1)
    assert estimate.mean == 0.0
    assert estimate.std_error == 0.0


def test_transmit_set_choice_is_exchangeable():
    # The construction is symmetric over senders, so any fixed s-subset gives
    # the same reception distribution; compare two different fixed pairs.
    rng = random.Random(77)
    trials = 4000

    def run(transmitters):
        return mean_and_se([
            round_step(sample_instance(InstanceParams(16, seed=rng.getrandbits(64))), transmitters)[0].bit_count()
            for _ in range(trials)
        ])

    mean_a, se_a = run(0b0011)
    mean_b, se_b = run(0b1100)
    assert abs(mean_a - mean_b) <= 4 * math.hypot(se_a, se_b)


def test_monte_carlo_validates_arguments():
    with pytest.raises(InputError):
        monte_carlo_expectation(InstanceParams(16), 5, trials=10)
    with pytest.raises(InputError):
        monte_carlo_expectation(InstanceParams(16), 1, trials=0)


def mean_and_se(counts):
    """The sample mean and its standard error, in monte_carlo_expectation's float order of operations."""
    total = total_sq = 0.0
    for count in counts:
        total += count
        total_sq += count * count
    trials = len(counts)
    mean = total / trials
    if trials == 1:
        return mean, 0.0
    variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(variance / trials)


def monte_carlo_by_nets(params, s, trials, seed):
    """Reference: build each trial's net and count one round_step."""
    transmitters = (1 << s) - 1
    rng = derive_rng(seed)
    return mean_and_se([
        round_step(sample_instance(InstanceParams(params.n, rng.getrandbits(64))), transmitters)[0].bit_count()
        for _ in range(trials)
    ])


@pytest.mark.parametrize(
    "n, s, trials, seed",
    [(4, 1, 40, 0), (16, 2, 200, 5), (64, 3, 60, 9), (256, 5, 40, 77), (256, 16, 3, 1),
     (1024, 7, 1, 4), (4096, 20, 2, 123),
     # s = 1: the full-degree top class hears the round; s = n': no sender is left out
     (16, 1, 100, 3), (64, 1, 50, 8), (64, 8, 50, 2)],
)
def test_monte_carlo_equals_net_building_reference(n, s, trials, seed):
    estimate = monte_carlo_expectation(InstanceParams(n), s, trials, seed)
    assert (estimate.mean, estimate.std_error) == monte_carlo_by_nets(InstanceParams(n), s, trials, seed)
    assert estimate.trials == trials
