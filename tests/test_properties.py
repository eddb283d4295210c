"""Property tests of the bit-mask reception kernels against brute-force oracles."""

import math
import random
from itertools import combinations, product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radionet.broadcast import (
    CONTENT_MODELS,
    MAX_K,
    MAX_ROUNDS,
    BroadcastConfig,
    BroadcastReport,
    _best_transmit_mask,
    _insert,
    _span_sample,
    lower_bound_rounds,
    run_broadcast,
)
from radionet import broadcast, verifier
from radionet.errors import InputError
from radionet.instance import InstanceParams, build_radius2, sample_instance
from radionet.model import (
    BipartiteRadioNet,
    Radius2Net,
    Receiver,
    bit_mask,
    bit_members,
    dumps,
    fold,
    loads,
    radius,
    round_step,
)
from radionet.util import derive_rng, reseed
from radionet.verifier import climb, max_receptions_exact, max_receptions_search

from layout import SOURCE, layout_neighbors, receiver_node, sender_node, void_node


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
    return BipartiteRadioNet(senders, tuple(Receiver(0, bit_mask(s)) for s in neighbor_sets))


def brute_force_maximum(net):
    """Best reception count and the smallest mask reaching it, over every subset."""
    neighbor_sets = [frozenset(bit_members(r.neighbors)) for r in net.receivers]
    best, best_mask = -1, 0
    for size in range(net.sender_count + 1):
        for chosen in combinations(range(net.sender_count), size):
            count = sum(1 for nbrs in neighbor_sets if len(nbrs.intersection(chosen)) == 1)
            mask = sum(1 << u for u in chosen)
            if count > best or (count == best and mask < best_mask):
                best, best_mask = count, mask
    return best, best_mask


def net_of(senders, *neighbor_sets):
    return BipartiteRadioNet(senders, tuple(Receiver(0, bit_mask(nbrs)) for nbrs in neighbor_sets))


def split_edge_examples(test):
    """Nets at the edges of the low/high sender split of the exact enumeration."""
    for net in (
        net_of(1, (0,), ()),  # n'=1: the low half is empty
        net_of(7, (0, 3), (2, 6), (3, 4, 5), (1,)),  # odd n': a 3-bit low and 4-bit high half
        net_of(4, (), (1, 2), ()),  # receivers with no neighbours
        net_of(6, (0, 1), (2,), (0, 2)),  # neighbours only in the low half
        net_of(6, (3, 4), (5,), (4, 5)),  # neighbours only in the high half
        net_of(6, (3, 5), (3, 5), (3, 5)),  # tied maxima in many blocks of 2-bit chunks
        net_of(5, (1, 4), (1, 4), (2, 3)),  # tied maxima across the halves
        # every subset of 6 senders and 66 singletons: 130 receivers, three 64-bit words
        net_of(6, *(tuple(u for u in range(6) if r >> u & 1) for r in range(64)), *((r % 6,) for r in range(66))),
        net_of(2, *[(0,)] * 300),  # a count past 255
    ):
        test = example(net)(test)
    return test


@settings(max_examples=60, deadline=None)
@split_edge_examples
@given(cores())
def test_exact_matches_brute_force_count_and_smallest_witness(net):
    result = max_receptions_exact(net)
    assert (result.best_count, result.witness) == brute_force_maximum(net)
    found = max_receptions_search(net, restarts=2, seed=1)
    assert found.best_count <= result.best_count
    heard, _ = round_step(net, found.witness)
    assert heard.bit_count() == found.best_count


@settings(max_examples=60, deadline=None)
@split_edge_examples
@given(cores())
def test_exact_matches_brute_force_in_2_bit_chunks(net):
    # Past 2 senders the enumeration runs several chunks: this checks the loop
    # over them and the smallest witness kept across them.
    with mock.patch.object(verifier, "CHUNK_BITS", 2):
        result = max_receptions_exact(net)
    assert (result.best_count, result.witness) == brute_force_maximum(net)


@pytest.mark.parametrize("chunk_bits", [verifier.CHUNK_BITS, 2], ids=["default-chunks", "2-bit-chunks"])
@pytest.mark.parametrize("receivers", [65, 130])
@settings(max_examples=25, deadline=None)
@given(senders=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_exact_matches_brute_force_past_one_word(chunk_bits, receivers, senders, seed):
    # Two and three uint64 words per sender: the packing and the zero bits past
    # the last receiver, under random neighbour sets of every degree.
    rng = random.Random(seed)
    neighbor_sets = [
        sorted(rng.sample(range(senders), rng.randint(0, senders))) for _ in range(receivers)
    ]
    net = net_of(senders, *neighbor_sets)
    with mock.patch.object(verifier, "CHUNK_BITS", chunk_bits):
        result = max_receptions_exact(net)
    assert (result.best_count, result.witness) == brute_force_maximum(net)


def whole_net_round(nbrs, transmitting):
    """Every listening node that hears exactly one transmitting neighbor, mapped to it."""
    heard = {}
    for node, adjacent in nbrs.items():
        hits = adjacent & transmitting
        if node not in transmitting and len(hits) == 1:
            (heard[node],) = hits
    return heard


@settings(max_examples=150, deadline=None)
@given(cores(), st.data())
def test_round_step_bipartite_matches_recount(net, data):
    members = data.draw(st.sets(st.integers(0, net.sender_count - 1)))
    out_heard, out_listeners = round_step(net, bit_mask(members))
    sole, heard = {}, []  # each transmitter's receivers that hear it alone; all of them
    for i, receiver in enumerate(net.receivers):
        hits = [u for u in bit_members(receiver.neighbors) if u in members]
        if len(hits) == 1:
            sole[hits[0]] = sole.get(hits[0], 0) | 1 << i
            heard.append(i)
    assert out_heard == bit_mask(heard)
    assert out_heard.bit_count() == len(heard)
    assert out_listeners == tuple(sorted(sole.items()))


def reference_reach(core):
    """Each sender's receivers as a bit mask, transposed from the neighbor masks bit by bit."""
    return tuple(
        bit_mask(r for r, receiver in enumerate(core.receivers) if receiver.neighbors >> u & 1)
        for u in range(core.sender_count)
    )


@settings(max_examples=150, deadline=None)
@given(cores())
@example(BipartiteRadioNet(3, ()))  # no receivers
@example(net_of(3, (0, 2), (), (2,)))  # a receiver with mask 0; sender 1 reaches nobody
def test_reach_masks_transpose_the_neighbor_masks(core):
    assert core.reach_masks == reference_reach(core)


@settings(max_examples=150, deadline=None)
@given(cores(), st.data())
def test_fold_matches_recount(core, data):
    members = data.draw(st.lists(st.integers(0, core.sender_count - 1), unique=True))
    counts = [(r.neighbors & bit_mask(members)).bit_count() for r in core.receivers]
    expected = tuple(bit_mask(i for i, c in enumerate(counts) if c >= t) for t in (1, 2, 3))
    assert fold(core.reach_masks, members) == expected


@settings(max_examples=100, deadline=None)
@given(cores(max_senders=16, min_receivers=1, max_receivers=16), st.data())
def test_greedy_mask_equals_unfiltered_climb_on_active_receivers(core, data):
    waiting = data.draw(st.sets(st.integers(0, core.receiver_count - 1)))
    active = BipartiteRadioNet(
        core.sender_count, tuple(core.receivers[r] for r in sorted(waiting))
    )
    mask, _, _, _ = climb(active.reach_masks, 0, flips=1 << 30)
    assert _best_transmit_mask(core, bit_mask(waiting)) == mask


@settings(max_examples=100, deadline=None)
@given(cores(max_senders=16, min_receivers=1, max_receivers=16, min_degree=1), st.data())
def test_greedy_mask_serves_a_waiting_receiver_on_every_wrapper(core, data):
    # The greedy policy has no stop for an empty mask: on a wrapper, which
    # refuses a receiver without a sender, every climb must serve someone.
    core = Radius2Net(core, data.draw(st.integers(0, 3))).core
    waiting = bit_mask(data.draw(st.sets(st.integers(0, core.receiver_count - 1), min_size=1)))
    mask = _best_transmit_mask(core, waiting)
    assert mask != 0
    assert round_step(core, mask)[0] & waiting


@settings(max_examples=100, deadline=None)
@given(cores(), st.data())
def test_climb_stops_at_a_local_maximum(core, data):
    start = data.draw(st.integers(0, (1 << core.sender_count) - 1))
    mask, _, _, count = climb(core.reach_masks, start, flips=1 << 30)
    here, _ = round_step(core, mask)
    assert count == here.bit_count()
    for u in range(core.sender_count):
        flipped, _ = round_step(core, mask ^ (1 << u))
        assert flipped.bit_count() <= here.bit_count()


def start_counters(core, start):
    """Transmitting neighbors of every receiver under the transmit set `start`."""
    return [(r.neighbors & start).bit_count() for r in core.receivers]


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
        [r for r, receiver in enumerate(core.receivers) if receiver.neighbors >> u & 1]
        for u in range(core.sender_count)
    ]
    counters = start_counters(core, start)
    expected = reference_climb(sender_adj, counters, start, flips)
    assert climb(core.reach_masks, start, flips) == (*expected, counters.count(1))


@settings(max_examples=150, deadline=None)
@given(cores(min_degree=1), st.integers(0, 4), st.data())
def test_core_round_equals_radius2_round(core, voids, data):
    # A round of sender nodes on the whole net, recounted from the layout,
    # delivers exactly what the core round delivers.
    net = Radius2Net(core, voids)
    members = data.draw(st.sets(st.integers(0, core.sender_count - 1)))
    on_core_heard, on_core_listeners = round_step(core, bit_mask(members))
    whole = whole_net_round(layout_neighbors(net), {sender_node(u) for u in members})
    whole.pop(SOURCE, None)  # it hears a lone sender, but it holds every message
    assert whole == {
        receiver_node(net, r): sender_node(u)
        for u, bits in on_core_listeners
        for r in bit_members(bits)
    }
    assert on_core_heard == bit_mask(node - receiver_node(net, 0) for node in whole)


@settings(max_examples=60, deadline=None)
@given(cores(min_degree=1), st.integers(0, 4))
def test_source_round_reaches_every_sender_and_no_receiver(core, voids):
    # The source phase plays no round; this is the claim that lets it skip one.
    net = Radius2Net(core, voids)
    nbrs = layout_neighbors(net)
    assert net.adjacency == tuple(tuple(sorted(nbrs[node])) for node in range(len(nbrs)))  # the oracle's copy
    hearers = [sender_node(u) for u in range(core.sender_count)]
    hearers += [void_node(net, t) for t in range(voids)]
    assert whole_net_round(nbrs, {SOURCE}) == dict.fromkeys(hearers, SOURCE)


def brute_force_radius(net):
    """Minimum over every node of its eccentricity, by plain BFS over the layout; inf if disconnected."""
    nbrs = layout_neighbors(net)
    eccentricities = []
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
        eccentricities.append(max(dist.values()) if len(dist) == len(nbrs) else math.inf)
    return min(eccentricities)


def radius_examples(test):
    """Wrappers at the edges of radius 1, and generated ones."""
    test = example(BipartiteRadioNet(3, ()), 2)(test)  # the source is adjacent to every node
    test = example(BipartiteRadioNet(1, (Receiver(0, 0b1), Receiver(0, 0b1))), 0)(test)  # so is sender 0
    test = example(BipartiteRadioNet(1, (Receiver(0, 0b1),)), 2)(test)  # not with voids: it is not adjacent to them
    for n in (16, 64, 256):  # padded to n nodes as `gen --radius2` pads them
        core = sample_instance(InstanceParams(n, seed=n))
        test = example(core, build_radius2(core, n).void_count)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(cores(max_senders=6, max_receivers=8, min_degree=1), st.integers(0, 3))
@radius_examples
def test_radius_equals_minimum_eccentricity(core, voids):
    net = Radius2Net(core, voids)
    assert radius(net) == brute_force_radius(net)


def test_radius_equals_minimum_eccentricity_on_every_small_wrapper():
    # 1-3 senders, 0-3 receivers with any neighbor masks, 0-2 voids: 2055 wrappers.
    # Those that BFS finds disconnected, exactly the ones with a receiver of
    # mask 0, are refused; every other one has the BFS radius.
    count = refused = 0
    for senders in range(1, 4):
        for receivers in range(4):
            for masks in product(range(1 << senders), repeat=receivers):
                core = BipartiteRadioNet(senders, tuple(Receiver(0, m) for m in masks))
                for voids in range(3):
                    expected = brute_force_radius(SimpleNamespace(core=core, void_count=voids))
                    assert math.isinf(expected) == (0 in masks)
                    if 0 in masks:
                        with pytest.raises(InputError, match=f"receiver {masks.index(0)} has no sender"):
                            Radius2Net(core, voids)
                        refused += 1
                    else:
                        assert radius(Radius2Net(core, voids)) == expected, (senders, masks, voids)
                    count += 1
    assert (count, refused) == (2055, 723)


@settings(max_examples=100, deadline=None)
@given(cores(min_degree=1), st.integers(0, 4), st.booleans(), st.data())
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
    r = data.draw(st.integers(0, 2))  # one receiver's slots in a table of three
    rows = [0] * (3 * k)
    span = {0}
    for v in vectors:
        grown = {s ^ v for s in span} | span
        assert _insert(rows, r * k, v) == (len(grown) > len(span))
        span = grown
        assert 1 << sum(1 for row in rows[r * k:(r + 1) * k] if row) == len(span)
    assert not any(rows[:r * k] + rows[(r + 1) * k:])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, MAX_ROUNDS), st.integers(1, MAX_K))
@example(0, 0, 1)
@example(0, MAX_ROUNDS, MAX_K)
@example(2**64 - 1, 1, 64)
@example(2**64 - 1, MAX_ROUNDS, MAX_K)
def test_reseeded_generator_draws_the_derived_streams(seed, r, k):
    # One generator, reused across the paths (seed), (seed, r) and (seed, r,
    # 1) as across a run's rounds, draws what a new generator seeded with the
    # path's key draws: the components folded 64 bits each.
    gen = random.Random(0)
    for path, key in (
        ((), seed),
        ((r,), (seed << 64) | r),
        ((r, 1), (((seed << 64) | r) << 64) | 1),
    ):
        gen.getrandbits(k)
        assert reseed(gen, seed, *path) is gen
        fresh = random.Random(key)
        assert [gen.random() for _ in range(3)] == [fresh.random() for _ in range(3)]
        assert [gen.getrandbits(k) for _ in range(3)] == [fresh.getrandbits(k) for _ in range(3)]


def test_derive_rng_refuses_a_seed_or_component_past_64_bits():
    # A seed of 2**64 would fold to the key of the path (1, 0).
    for path in ((2**64,), (-1,), (0, 2**64), (0, -1)):
        with pytest.raises(InputError):
            derive_rng(*path)


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
    exact = max_receptions_exact(core).best_count  # the maxrec `simulate` passes at n' <= 26
    for policy, p in (("round_robin", None), ("greedy_schedule", None), ("random_p", 0.5)):
        for model in ("routing", "coding"):
            cfg = BroadcastConfig(k=k, content_model=model, policy=policy, p=p,
                                  max_rounds=4000, seed=seed)
            report = run_broadcast(net, cfg, exact)
            assert report.accounting_lower_bound == bound
            assert all(hits <= maxrec for _, hits, _ in report.series)
            if policy != "random_p":
                assert not report.incomplete, (policy, model)
            if not report.incomplete:
                assert report.rounds_used >= bound, (policy, model)


class PivotBasis:
    """The reference's own GF(2) basis: each pivot (leading bit) maps to its row."""

    def __init__(self):
        self.pivot_rows = {}

    def insert(self, vector):
        while vector:
            top = vector.bit_length() - 1
            if top not in self.pivot_rows:
                self.pivot_rows[top] = vector
                return
            vector ^= self.pivot_rows[top]

    @property
    def rank(self):
        return len(self.pivot_rows)


def reference_broadcast(net, cfg, maxrec):
    """run_broadcast as a per-receiver loop: every heard receiver inserts and counts.

    Decoded receivers insert too, the greedy tally counts every listener,
    and the minimum rank is recomputed each round. Each receiver keeps its
    own pivot dict, and every round's randomness comes from a new
    `derive_rng` generator.
    """
    core = net.core
    k, n_senders = cfg.k, core.sender_count
    bases = [PivotBasis() for _ in core.receivers]
    receptions = [0] * core.receiver_count
    waiting = set(range(core.receiver_count)) if k else set()
    rounds = min(k, cfg.max_rounds) if waiting else 0
    series = [(r, 0, 0) for r in range(1, rounds + 1)]
    cursor = [0] * n_senders
    while waiting and rounds < cfg.max_rounds:
        if cfg.policy == "round_robin":
            mask = 1 << ((rounds - k) % n_senders)
        elif cfg.policy == "greedy_schedule":
            mask = _best_transmit_mask(core, sum(1 << r for r in waiting))
            if not mask:
                break
        else:
            rng = derive_rng(cfg.seed, rounds + 1)
            mask = sum(1 << u for u in range(n_senders) if rng.random() < cfg.p)
        rounds += 1
        hits = 0
        if mask:
            source_of = [None] * core.receiver_count
            for u, bits in round_step(core, mask)[1]:
                for r in bit_members(bits):
                    source_of[r] = u
            if cfg.content_model == "coding":
                rng = derive_rng(cfg.seed, rounds, 1)
                payloads = {u: broadcast._span_sample(k, rng) for u in bit_members(mask)}
            elif cfg.policy == "greedy_schedule":
                payloads = {}
                for u in set(source_of) - {None}:
                    missing = [
                        sum(msg not in bases[r].pivot_rows for r, v in enumerate(source_of) if v == u)
                        for msg in range(k)
                    ]
                    payloads[u] = 1 << missing.index(max(missing))
            else:
                payloads = {}
                for u in bit_members(mask):
                    payloads[u] = 1 << (cursor[u] % k)
                    cursor[u] += 1
            for r, u in enumerate(source_of):
                if u is not None:
                    hits += 1
                    receptions[r] += 1
                    bases[r].insert(payloads[u])
                    if bases[r].rank >= k:
                        waiting.discard(r)
        series.append((rounds, hits, min(basis.rank for basis in bases)))
    return BroadcastReport(
        rounds_used=rounds,
        incomplete=bool(waiting),
        per_receiver_receptions=tuple(receptions),
        per_receiver_decoded=tuple(basis.rank >= k for basis in bases),
        total_receptions=sum(receptions),
        throughput=k / rounds if rounds else None,
        accounting_lower_bound=lower_bound_rounds(k, core.receiver_count, maxrec),
        series=tuple(series),
    )


@settings(max_examples=150, deadline=None)
@given(
    cores(max_senders=6, max_receivers=8, min_degree=1),
    st.sampled_from((0, 1, 3)),
    st.integers(1, 30),
    st.sampled_from((0.05, 0.5, 1.0)),
    st.integers(0, 2**32),
    st.just(_span_sample),
)
# k=3 capped at 2 rounds ends inside the source phase, and p=0.05 on two
# senders leaves most random_p rounds empty.
@example(net_of(2, (0, 1), (1,)), 3, 2, 0.05, 7, _span_sample)
@example(net_of(2, (0, 1), (1,)), 3, 30, 0.05, 7, _span_sample)
# Seed 9 codes 0b11 and then 0b10 to the lone receiver: its row led by bit 1
# is not e_1, so e_1 must still be inserted, and raises the rank to 2.
@example(net_of(1, (0,)), 2, 30, 1.0, 9, _span_sample)
# An all-zero packet, which `_span_sample` never draws, is no unit vector and
# must not mark anyone as holding a message; the second sampler mixes it with e_2.
@example(net_of(2, (0,), (0, 1), (1,)), 3, 30, 0.5, 7, lambda k, rng: 0)
@example(net_of(2, (0,), (0, 1), (1,)), 3, 30, 0.5, 7,
         lambda k, rng: rng.choice((0, 1 << (k - 1))))
# Under p=1 senders 0 and 1 transmit every round and reach only receiver 0,
# which hears a collision: they still draw their coded packets before sender
# 2 does, and on seed 0 those draws decide whether receiver 1 decodes by the cap.
@example(net_of(3, (0, 1), (2,)), 2, 5, 1.0, 0, _span_sample)
# A round where both senders transmit leaves the lone receiver hearing a
# collision; each sender's routing cycle still moves on.
@example(net_of(2, (0, 1)), 2, 30, 0.5, 1, _span_sample)
def test_run_broadcast_matches_per_receiver_reference(core, k, cap, p, seed, span_sample):
    net = Radius2Net(core, 0)
    maxrec, _ = brute_force_maximum(core)
    for policy, prob in (("round_robin", None), ("greedy_schedule", None), ("random_p", p)):
        for model in CONTENT_MODELS:
            cfg = BroadcastConfig(k=k, content_model=model, policy=policy, p=prob,
                                  max_rounds=cap, seed=seed)
            with mock.patch.object(broadcast, "_span_sample", span_sample):
                assert run_broadcast(net, cfg, maxrec) == reference_broadcast(net, cfg, maxrec)
