"""Property tests of the bit-mask reception kernels against brute-force oracles."""

import math
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radionet.broadcast import BroadcastConfig, GF2Basis, _best_transmit_mask, run_broadcast
from radionet import verifier
from radionet.model import (
    BipartiteRadioNet,
    Radius2Net,
    Receiver,
    TransmitSet,
    dumps,
    loads,
    radius,
    round_step,
)
from radionet.verifier import climb, max_receptions_exact, max_receptions_search


@st.composite
def cores(draw, max_senders=12, min_receivers=0, max_receivers=10, min_degree=0):
    """Hand-built bipartite nets: any neighbor sets, degree unrelated to class."""
    senders = draw(st.integers(1, max_senders))
    neighbor_sets = draw(
        st.lists(
            st.frozensets(st.integers(0, senders - 1), min_size=min_degree),
            min_size=min_receivers,
            max_size=max_receivers,
        )
    )
    return BipartiteRadioNet(senders, tuple(Receiver(0, sorted(s)) for s in neighbor_sets))


def brute_force_maximum(net):
    """Best reception count and the smallest mask reaching it, over every subset."""
    neighbor_sets = [frozenset(r.neighbors) for r in net.receivers]
    best, best_mask = -1, 0
    for size in range(net.sender_count + 1):
        for chosen in combinations(range(net.sender_count), size):
            count = sum(1 for nbrs in neighbor_sets if len(nbrs.intersection(chosen)) == 1)
            mask = sum(1 << u for u in chosen)
            if count > best or (count == best and mask < best_mask):
                best, best_mask = count, mask
    return best, best_mask


@settings(max_examples=60, deadline=None)
@given(cores())
def test_exact_matches_brute_force_count_and_smallest_witness(net):
    result = max_receptions_exact(net)
    assert (result.best_count, result.witness.bits) == brute_force_maximum(net)
    found = max_receptions_search(net, restarts=2, seed=1)
    assert found.best_count <= result.best_count
    assert round_step(net, found.witness).reception_count == found.best_count


@settings(max_examples=60, deadline=None)
@given(cores())
def test_exact_matches_brute_force_in_2_bit_chunks(net):
    # Past 2 senders the enumeration runs several chunks: this checks the loop
    # over them and the smallest witness kept across them.
    with mock.patch.object(verifier, "CHUNK_BITS", 2):
        result = max_receptions_exact(net)
    assert (result.best_count, result.witness.bits) == brute_force_maximum(net)


def layout_neighbors(net):
    """Neighbors of every node of a radius-2 net, rebuilt from its definition."""
    core = net.core
    nbrs = {node: set() for node in range(net.total_nodes)}

    def link(a, b):
        nbrs[a].add(b)
        nbrs[b].add(a)

    for j in range(core.sender_count):
        link(net.SOURCE, net.sender_node(j))
    for t in range(net.void_count):
        link(net.SOURCE, net.void_node(t))
    for i, receiver in enumerate(core.receivers):
        for u in receiver.neighbors:
            link(net.receiver_node(i), net.sender_node(u))
    return nbrs


@settings(max_examples=150, deadline=None)
@given(cores(), st.data())
def test_round_step_bipartite_matches_recount(net, data):
    members = data.draw(st.sets(st.integers(0, net.sender_count - 1)))
    out = round_step(net, TransmitSet.from_members(net.sender_count, members))
    for i, receiver in enumerate(net.receivers):
        heard = [u for u in receiver.neighbors if u in members]
        assert out.received[i] == (len(heard) == 1)
        assert out.source_of[i] == (heard[0] if len(heard) == 1 else None)
    assert out.reception_count == sum(out.received)


@settings(max_examples=150, deadline=None)
@given(cores(), st.integers(0, 4), st.data())
def test_round_step_radius2_matches_recount(core, voids, data):
    net = Radius2Net(core, voids)
    # Any node may transmit: the source, senders, receivers and voids.
    members = data.draw(st.sets(st.integers(0, net.total_nodes - 1)))
    out = round_step(net, TransmitSet.from_members(net.total_nodes, members))
    for node, nbrs in layout_neighbors(net).items():
        heard = sorted(nbrs.intersection(members))
        hears = node not in members and len(heard) == 1
        assert out.received[node] == hears
        assert out.source_of[node] == (heard[0] if hears else None)
    assert out.reception_count == sum(out.received)


@settings(max_examples=100, deadline=None)
@given(cores(max_senders=16, min_receivers=1, max_receivers=16), st.data())
def test_greedy_mask_equals_unfiltered_climb_on_active_receivers(core, data):
    waiting = data.draw(st.sets(st.integers(0, core.receiver_count - 1)))
    active = BipartiteRadioNet(
        core.sender_count, tuple(core.receivers[r] for r in sorted(waiting))
    )
    counters = np.zeros(active.receiver_count, dtype=np.int64)
    mask, _, _ = climb(active.incidence, counters, 0, flips=1 << 30)
    assert _best_transmit_mask(core, waiting) == mask


@settings(max_examples=100, deadline=None)
@given(cores(), st.data())
def test_climb_stops_at_a_local_maximum(core, data):
    start = data.draw(st.integers(0, (1 << core.sender_count) - 1))
    counters = start_counters(core, start)
    mask, _, _ = climb(core.incidence, counters, start, flips=1 << 30)
    here = round_step(core, TransmitSet(core.sender_count, mask))
    assert counters.tolist().count(1) == here.reception_count
    for u in range(core.sender_count):
        flipped = TransmitSet(core.sender_count, mask ^ (1 << u))
        assert round_step(core, flipped).reception_count <= here.reception_count


def start_counters(core, start):
    """Transmitting neighbors of every receiver under the transmit set `start`."""
    return np.array([(m & start).bit_count() for m in core.neighbor_masks], dtype=np.int64)


def reference_climb(sender_adj, counters, mask, flips):
    """The climb as plain per-sender loops over adjacency lists."""
    scans = 0
    while flips > 0:
        best_gain, best_flip = 0, -1
        for u, adj in enumerate(sender_adj):
            on = (mask >> u) & 1
            gain = 0
            for r in adj:
                c = counters[r]
                if c == 1:
                    gain -= 1
                elif c == (2 if on else 0):
                    gain += 1
            if gain > best_gain:
                best_gain, best_flip = gain, u
        scans += 1
        if best_flip < 0:
            break
        flips -= 1
        mask ^= 1 << best_flip
        step = 1 if (mask >> best_flip) & 1 else -1
        for r in sender_adj[best_flip]:
            counters[r] += step
    return mask, flips, scans


@settings(max_examples=150, deadline=None)
@given(cores(max_senders=16, max_receivers=16), st.data())
def test_climb_matches_reference_loops(core, data):
    start = data.draw(st.integers(0, (1 << core.sender_count) - 1))
    flips = data.draw(st.integers(0, 2 * core.sender_count))
    sender_adj = [
        [r for r, receiver in enumerate(core.receivers) if u in receiver.neighbors]
        for u in range(core.sender_count)
    ]
    expected_counters = start_counters(core, start).tolist()
    expected = reference_climb(sender_adj, expected_counters, start, flips)
    counters = start_counters(core, start)
    assert climb(core.incidence, counters, start, flips) == expected
    assert counters.tolist() == expected_counters


@settings(max_examples=150, deadline=None)
@given(cores(), st.integers(0, 4), st.data())
def test_core_round_equals_radius2_round(core, voids, data):
    net = Radius2Net(core, voids)
    members = data.draw(st.sets(st.integers(0, core.sender_count - 1)))
    on_core = round_step(core, TransmitSet.from_members(core.sender_count, members))
    whole = round_step(
        net, TransmitSet.from_members(net.total_nodes, [net.sender_node(u) for u in members])
    )
    for r in range(core.receiver_count):
        node = net.receiver_node(r)
        assert whole.received[node] == on_core.received[r]
        expected = on_core.source_of[r]
        assert whole.source_of[node] == (None if expected is None else net.sender_node(expected))
    receivers = range(net.receiver_node(0), net.receiver_node(core.receiver_count))
    for node in range(1, net.total_nodes):  # senders and voids hear nothing
        if node not in receivers:
            assert not whole.received[node]


@settings(max_examples=60, deadline=None)
@given(cores(), st.integers(0, 4))
def test_source_round_reaches_every_sender_and_no_receiver(core, voids):
    net = Radius2Net(core, voids)
    out = round_step(net, TransmitSet(net.total_nodes, 1 << net.SOURCE))
    for u in range(core.sender_count):
        assert out.source_of[net.sender_node(u)] == net.SOURCE
    for r in range(core.receiver_count):
        assert not out.received[net.receiver_node(r)]


def brute_force_radius(net):
    """Minimum over every node of its eccentricity, by plain BFS; inf if disconnected."""
    nbrs = layout_neighbors(net)
    best = math.inf
    for start in nbrs:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            layer = []
            for u in frontier:
                for v in nbrs[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        layer.append(v)
            frontier = layer
        if len(dist) < len(nbrs):
            return math.inf
        best = min(best, max(dist.values()))
    return best


@settings(max_examples=100, deadline=None)
@given(cores(max_senders=6, max_receivers=8), st.integers(0, 3))
@example(BipartiteRadioNet(3, ()), 2)  # the source is adjacent to every node
@example(BipartiteRadioNet(1, (Receiver(0, (0,)), Receiver(0, (0,)))), 0)  # so is sender 0
@example(BipartiteRadioNet(2, (Receiver(0, ()),)), 1)  # an isolated receiver
def test_radius_equals_minimum_eccentricity(core, voids):
    net = Radius2Net(core, voids)
    assert radius(net) == brute_force_radius(net)


@settings(max_examples=100, deadline=None)
@given(cores(), st.integers(0, 4), st.booleans(), st.data())
def test_dumps_loads_round_trip(core, voids, wrap, data):
    classes = data.draw(st.lists(st.integers(0, 5), min_size=core.receiver_count,
                                 max_size=core.receiver_count))
    core = BipartiteRadioNet(
        core.sender_count,
        tuple(Receiver(c, r.neighbors) for c, r in zip(classes, core.receivers)),
    )
    net = Radius2Net(core, voids) if wrap else core
    text = dumps(net)
    again = loads(text)
    assert again == net
    assert dumps(again) == text


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_gf2_rank_matches_span_size(k, data):
    vectors = data.draw(st.lists(st.integers(0, (1 << k) - 1), max_size=8))
    basis = GF2Basis()
    span = {0}
    for v in vectors:
        grown = {s ^ v for s in span} | span
        assert basis.insert(v) == (len(grown) > len(span))
        span = grown
        assert 1 << basis.rank == len(span)


@settings(max_examples=40, deadline=None)
@given(
    cores(max_senders=8, min_receivers=1, max_receivers=8, min_degree=1),
    st.integers(0, 3),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_rounds_used_meet_the_exact_round_bound(core, voids, k, seed):
    # Every receiver has a neighbor, so round_robin and greedy_schedule always
    # finish; random_p may hit the cap, and a capped run proves nothing.
    net = Radius2Net(core, voids)
    maxrec, _ = brute_force_maximum(core)
    bound = math.ceil(k * core.receiver_count / maxrec)
    for policy, p in (("round_robin", None), ("greedy_schedule", None), ("random_p", 0.5)):
        for model in ("routing", "coding"):
            cfg = BroadcastConfig(k=k, content_model=model, policy=policy, p=p,
                                  max_rounds=4000, seed=seed)
            report = run_broadcast(net, cfg)
            assert report.accounting_lower_bound == bound
            assert all(hits <= maxrec for _, hits, _ in report.series)
            if policy != "random_p":
                assert not report.incomplete, (policy, model)
            if not report.incomplete:
                assert report.rounds_used >= bound, (policy, model)
