import math
import statistics
from unittest import mock

import pytest

from radionet import broadcast
from radionet.broadcast import (
    BroadcastConfig,
    _best_transmit_mask,
    _greedy_message_choice,
    _insert,
    lower_bound_rounds,
    run_broadcast,
)
from radionet.errors import InputError
from radionet.instance import InstanceParams, build_radius2, sample_instance
from radionet.model import BipartiteRadioNet, Receiver, bit_mask, round_step
from radionet.verifier import max_receptions_exact

from goldens import check, legacy_report_repr


def toy_core():
    """Two senders; both receivers hear both senders."""
    return BipartiteRadioNet(2, (Receiver(1, bit_mask((0, 1))), Receiver(1, bit_mask((0, 1)))))


def toy_wrapper():
    return build_radius2(toy_core(), 5)


def run_exact(net, cfg):
    """run_broadcast with the exact single-round maximum, as `simulate` passes it at n' <= 26."""
    return run_broadcast(net, cfg, max_receptions_exact(net.core).best_count)


def skewed_core():
    """r1 hears only sender a; r2 hears both."""
    return BipartiteRadioNet(2, (Receiver(0, bit_mask((0,))), Receiver(1, bit_mask((0, 1)))))


# ---------------------------------------------------------------------------
# rank bookkeeping
# ---------------------------------------------------------------------------


def rank_of(rows):
    """The rank of one receiver's basis: its nonzero slots of the row table."""
    return sum(1 for row in rows if row)


def test_gf2_basis_rank():
    rows = [0] * 3
    assert rank_of(rows) == 0
    assert _insert(rows, 0, 0b101)
    assert _insert(rows, 0, 0b011)
    assert rank_of(rows) == 2
    assert not _insert(rows, 0, 0b110)  # 110 = 101 xor 011
    assert rank_of(rows) == 2


def test_gf2_basis_unit_vectors_reach_full_rank():
    k = 6
    rows = [0] * (3 * k)  # receiver 1's slots, between two others
    for m in range(k):
        assert _insert(rows, k, 1 << m)
    assert rank_of(rows[k:2 * k]) == k
    assert rows[k:2 * k] == [1 << m for m in range(k)]
    assert rank_of(rows) == k  # receivers 0 and 2 are untouched


def test_rank_monotone_and_bounded_per_reception():
    rows = [0] * 4
    previous = 0
    for vector in (0b0001, 0b0011, 0b0010, 0b1000, 0b1111, 0b0100):
        _insert(rows, 0, vector)
        rank = rank_of(rows)
        assert previous <= rank <= previous + 1
        previous = rank
    assert rank_of(rows) <= 4


# ---------------------------------------------------------------------------
# accounting bound
# ---------------------------------------------------------------------------


def test_lower_bound_examples():
    assert lower_bound_rounds(10, 64, 16) == 40
    assert lower_bound_rounds(1, 1, 1) == 1
    assert lower_bound_rounds(0, 64, 16) == 0
    assert lower_bound_rounds(3, 5, 4) == 4  # ceil(15/4)


def test_lower_bound_refuses_maxrec_zero_with_demand():
    # No radius-2 net has maxrec 0 and receivers: each receiver has a sender.
    with pytest.raises(InputError, match="maxrec 0 cannot serve 4 receptions"):
        lower_bound_rounds(1, 4, 0)
    assert lower_bound_rounds(0, 4, 0) == 0
    assert lower_bound_rounds(3, 0, 0) == 0
    with pytest.raises(InputError):
        lower_bound_rounds(-1, 4, 2)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InputError):
        BroadcastConfig(k=-1)
    with pytest.raises(InputError):
        BroadcastConfig(k=1, content_model="telepathy")
    with pytest.raises(InputError):
        BroadcastConfig(k=1, policy="oracle")
    with pytest.raises(InputError):
        BroadcastConfig(k=1, policy="random_p")  # p missing
    with pytest.raises(InputError):
        BroadcastConfig(k=1, policy="random_p", p=1.5)
    with pytest.raises(InputError):
        BroadcastConfig(k=1, policy="round_robin", p=0.5)  # p makes no sense here


# ---------------------------------------------------------------------------
# simulation runs
# ---------------------------------------------------------------------------


def test_toy_round_robin_single_message():
    # Source sends in round 1; one sender relays in round 2; everyone decodes.
    report = run_exact(toy_wrapper(), BroadcastConfig(k=1))
    assert report.rounds_used == 2
    assert report.per_receiver_decoded == (True, True)
    assert report.per_receiver_receptions == (1, 1)
    assert report.throughput == pytest.approx(0.5)
    assert not report.incomplete


def test_zero_messages_decodes_vacuously():
    report = run_exact(toy_wrapper(), BroadcastConfig(k=0))
    assert report.rounds_used == 0
    assert report.per_receiver_decoded == (True, True)
    assert report.throughput is None
    assert report.accounting_lower_bound == 0


def test_toy_coding_needs_k_independent_vectors():
    report = run_exact(toy_wrapper(), BroadcastConfig(k=2, content_model="coding", seed=5))
    assert report.rounds_used >= 1 + 2
    assert all(report.per_receiver_decoded)
    assert all(receptions >= 2 for receptions in report.per_receiver_receptions)


def test_coding_decodes_with_rank_exactly_k():
    net = build_radius2(sample_instance(InstanceParams(64, seed=2)), 64)
    for k in (1, 3):
        report = run_exact(
            net, BroadcastConfig(k=k, content_model="coding", policy="greedy_schedule")
        )
        assert not report.incomplete
        assert all(report.per_receiver_decoded)
        # Rank is capped at k by construction, and decoding requires k.
        assert min(report.per_receiver_receptions) >= k


def test_completion_meets_reception_floor_and_accounting_bound():
    net = build_radius2(sample_instance(InstanceParams(64, seed=6)), 64)
    maxrec = max_receptions_exact(net.core).best_count
    policies = [
        ("round_robin", None),
        ("greedy_schedule", None),
        ("random_p", 0.125),
    ]
    for policy, p in policies:
        for model in ("routing", "coding"):
            cfg = BroadcastConfig(k=3, content_model=model, policy=policy, p=p, seed=9)
            report = run_broadcast(net, cfg, maxrec=maxrec)
            assert not report.incomplete, (policy, model)
            assert min(report.per_receiver_receptions) >= 3
            assert report.accounting_lower_bound == lower_bound_rounds(3, net.core.receiver_count, maxrec)
            assert report.rounds_used >= report.accounting_lower_bound


def test_report_grid_matches_pinned_digest():
    # Past the pinned n=256 artifacts: k = 0 and small k, caps that stop runs
    # early, and random_p rounds that all collide (p=1) or are often empty.
    nets = (
        build_radius2(sample_instance(InstanceParams(64, seed=1)), 64),
        build_radius2(sample_instance(InstanceParams(256, seed=2)), 256),
    )
    policies = (("round_robin", None), ("greedy_schedule", None), ("random_p", 1.0),
                ("random_p", 0.03))
    reports = []
    for net in nets:
        maxrec = max_receptions_exact(net.core).best_count
        for k in (0, 1, 3, 16):
            for policy, p in policies:
                for model in ("routing", "coding"):
                    for cap in (2, 40, 400):
                        cfg = BroadcastConfig(k=k, content_model=model, policy=policy, p=p,
                                              max_rounds=cap, seed=11)
                        reports.append(legacy_report_repr(run_broadcast(net, cfg, maxrec), maxrec))
    check("report grid", "\n".join(reports).encode())


def test_run_is_deterministic():
    net = build_radius2(sample_instance(InstanceParams(64, seed=3)), 64)
    cfg = BroadcastConfig(k=2, content_model="coding", policy="random_p", p=0.25, seed=21)
    assert run_exact(net, cfg) == run_exact(net, cfg)


def test_max_rounds_cap_marks_incomplete():
    report = run_exact(toy_wrapper(), BroadcastConfig(k=4, max_rounds=3))
    assert report.incomplete
    assert report.rounds_used == 3
    assert not all(report.per_receiver_decoded)


def test_series_accounts_every_reception():
    net = build_radius2(sample_instance(InstanceParams(64, seed=4)), 64)
    report = run_exact(net, BroadcastConfig(k=2, policy="greedy_schedule"))
    assert sum(hits for _, hits, _ in report.series) == report.total_receptions
    ranks = [rank for _, _, rank in report.series]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))  # min rank never drops
    assert [r for r, _, _ in report.series] == list(range(1, report.rounds_used + 1))


def test_coding_never_loses_to_round_robin_routing_on_toys():
    # Random coded packets waste less than a blind message cycle; over many
    # seeds the mean coding run must not exceed the deterministic routing run.
    for k in (1, 2):
        routing = run_exact(toy_wrapper(), BroadcastConfig(k=k)).rounds_used
        coded = [
            run_exact(
                toy_wrapper(), BroadcastConfig(k=k, content_model="coding", seed=seed)
            ).rounds_used
            for seed in range(120)
        ]
        mean = statistics.fmean(coded)
        stderr = statistics.stdev(coded) / math.sqrt(len(coded)) if k > 1 else 0.0
        assert mean <= routing + 4 * stderr, (k, mean, routing)


# ---------------------------------------------------------------------------
# greedy schedule
# ---------------------------------------------------------------------------


def test_greedy_schedule_toy_first_set():
    mask = _best_transmit_mask(skewed_core(), 0b11)
    assert mask == 0b01  # sender a reaches both receivers
    heard, _ = round_step(skewed_core(), mask)
    assert heard.bit_count() == 2


def test_greedy_schedule_empty_when_satisfied():
    assert _best_transmit_mask(skewed_core(), 0) == 0
    # Once every receiver has decoded, the policy plays no further round.
    net = build_radius2(skewed_core(), 5)
    report = run_exact(net, BroadcastConfig(k=1, policy="greedy_schedule"))
    assert report.rounds_used == 2  # the source round and one greedy round


def test_greedy_message_choice_takes_smallest_most_missing_id():
    # A run cannot show this tie-break: swapping message labels maps one
    # choice onto the other, so only the choice itself is checked.
    # Bit r of holds[m] is set when receiver r holds id m: receiver 0 holds
    # id 0, receiver 1 ids 0 and 3, receiver 2 (decoded) every id.
    holds = [0b0111, 0b0100, 0b0100, 0b0110]
    # Sender 0 reaches receivers 0 and 1, which miss ids 1 and 2 twice each;
    # sender 2 reaches only decoded receiver 2; receiver 3 hears nothing.
    waiting = 0b1011
    choice = [_greedy_message_choice(heard & waiting, holds) for heard in (0b0011, 0b0100)]
    assert choice == [1 << 1, 1 << 0]


def test_greedy_schedule_rounds_bounded_by_exact_maximum():
    for seed in (0, 1):
        core = sample_instance(InstanceParams(64, seed=seed))
        limit = max_receptions_exact(core).best_count
        for model in ("routing", "coding"):
            cfg = BroadcastConfig(k=4, content_model=model, policy="greedy_schedule", seed=seed)
            report = run_broadcast(build_radius2(core, 64), cfg, limit)
            assert all(hits <= limit for _, hits, _ in report.series)


@pytest.mark.parametrize("model", ["routing", "coding"])
def test_greedy_climbs_once_per_waiting_set(model):
    # The greedy mask depends on the waiting receivers alone, so a run climbs
    # again only in a round whose waiting set differs from the last round's.
    net = build_radius2(sample_instance(InstanceParams(64, seed=5)), 64)
    k = 3

    def run(max_rounds):
        cfg = BroadcastConfig(k=k, content_model=model, policy="greedy_schedule",
                              max_rounds=max_rounds, seed=7)
        return run_broadcast(net, cfg, 1)

    with mock.patch.object(broadcast, "_best_transmit_mask", wraps=_best_transmit_mask) as climbs:
        report = run(100_000)
    assert not report.incomplete
    # A greedy round after t rounds serves the receivers a run capped at t rounds leaves undecoded.
    waiting = [run(t).per_receiver_decoded for t in range(k, report.rounds_used)]
    changes = sum(1 for before, now in zip([None, *waiting], waiting) if now != before)
    assert climbs.call_count == changes < len(waiting)


def test_greedy_schedule_serves_everyone():
    net = build_radius2(sample_instance(InstanceParams(64, seed=5)), 64)
    report = run_exact(net, BroadcastConfig(k=1, policy="greedy_schedule"))
    assert not report.incomplete
    assert all(report.per_receiver_decoded)
