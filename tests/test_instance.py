import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radionet.errors import InputError
from radionet.instance import (
    InstanceParams,
    _receiver_neighbors,
    build_radius2,
    sample_instance,
)
from radionet.model import dumps, validate

# chi-square critical value, 5 degrees of freedom, p = 0.001
CHI2_CRIT_DF5 = 20.515005652432873


def test_params_derive_structure():
    params = InstanceParams(256)
    assert params.n_prime == 16
    assert params.class_count == 4
    assert params.receiver_count == 64
    assert InstanceParams(4).n_prime == 2
    assert InstanceParams(4096).class_count == 6


@pytest.mark.parametrize("bad_n", [0, 1, 2, 8, 32, 100, 255])
def test_params_reject_non_power_of_four(bad_n):
    with pytest.raises(InputError):
        InstanceParams(bad_n)


def test_params_reject_bad_seed():
    with pytest.raises(InputError):
        InstanceParams(16, seed=-1)
    with pytest.raises(InputError):
        InstanceParams(16, seed=2**64)


def test_sample_instance_shape_n256():
    net = sample_instance(InstanceParams(256, seed=7))
    assert net.sender_count == 16
    assert net.class_count == 4
    assert net.receiver_count == 64
    degrees = sorted({r.degree for r in net.receivers})
    assert degrees == [2, 4, 8, 16]
    assert net.sender_count + net.receiver_count == 80 < 256
    assert validate(net).ok


def test_sample_instance_tiny_n4():
    net = sample_instance(InstanceParams(4, seed=11))
    assert net.sender_count == 2
    assert [r.neighbors for r in net.receivers] == [(0, 1), (0, 1)]


def test_class_degrees_are_exact_and_distinct():
    for seed in (0, 5, 123):
        net = sample_instance(InstanceParams(64, seed=seed))
        for i, receiver in enumerate(net.receivers):
            expected_class = 1 + i // net.sender_count
            assert receiver.class_index == expected_class
            assert receiver.degree == 1 << expected_class
            assert len(set(receiver.neighbors)) == receiver.degree
            assert list(receiver.neighbors) == sorted(receiver.neighbors)


def test_top_class_touches_every_sender():
    net = sample_instance(InstanceParams(256, seed=3))
    top = [r for r in net.receivers if r.class_index == net.class_count]
    assert all(r.neighbors == tuple(range(16)) for r in top)


def test_seed_determinism_and_divergence():
    params = InstanceParams(64, seed=42)
    assert dumps(sample_instance(params)) == dumps(sample_instance(params))
    other = sample_instance(InstanceParams(64, seed=43))
    assert dumps(other) != dumps(sample_instance(params))


def test_receiver_sampling_independent_of_order():
    # Each receiver's neighbors derive from (seed, index) alone, so they can
    # be regenerated in isolation.
    params = InstanceParams(64, seed=9)
    net = sample_instance(params)
    for index in (0, 7, 23):
        receiver = net.receivers[index]
        regenerated = _receiver_neighbors(params.seed, index, 8, receiver.degree)
        assert regenerated == receiver.neighbors


def test_neighbor_pairs_are_uniform():
    # n=16: class-1 receivers pick 2 of 4 senders; over many seeds the six
    # possible pairs should be equally likely.
    counts = {}
    trials = 100_000
    for seed in range(trials):
        pair = _receiver_neighbors(seed, 0, 4, 2)
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 6
    expected = trials / 6
    chi2 = sum((observed - expected) ** 2 / expected for observed in counts.values())
    assert chi2 < CHI2_CRIT_DF5


def test_build_radius2_pads_to_budget():
    core = sample_instance(InstanceParams(256, seed=1))
    net = build_radius2(core, 256)
    assert net.void_count == 175
    assert net.total_nodes == 256
    assert net.eta == 80


def test_build_radius2_boundary_and_error():
    core = sample_instance(InstanceParams(256, seed=1))
    tight = build_radius2(core, 81)
    assert tight.void_count == 0
    with pytest.raises(InputError):
        build_radius2(core, 80)


def randrange_neighbors(seed, receiver_index, sender_count, degree):
    """Reference draw: the partial Fisher-Yates shuffle through randrange."""
    rng = random.Random((seed << 64) | receiver_index)
    pool = list(range(sender_count))
    for t in range(degree):
        swap = rng.randrange(t, sender_count)
        pool[t], pool[swap] = pool[swap], pool[t]
    return tuple(sorted(pool[:degree]))


@st.composite
def draws(draw):
    sender_count = draw(st.integers(1, 300))
    degree = draw(st.integers(0, sender_count))
    return draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**64 - 1)), sender_count, degree


@settings(max_examples=300, deadline=None)
@given(draws())
@example((0, 0, 1, 1))
@example((7, 3, 3, 3))
@example((5, 1, 300, 300))
@example((11, 2, 129, 64))
def test_receiver_neighbors_match_randrange(args):
    assert _receiver_neighbors(*args) == randrange_neighbors(*args)
