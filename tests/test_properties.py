"""Property tests of the bit-mask reception kernels against brute-force oracles."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from radionet.broadcast import _best_transmit_mask
from radionet.model import BipartiteRadioNet, Radius2Net, Receiver, TransmitSet, round_step
from radionet.verifier import climb, max_receptions_exact, max_receptions_search


@st.composite
def cores(draw, max_senders=12, min_receivers=0, max_receivers=10):
    """Hand-built bipartite nets: any neighbor sets, degree unrelated to class."""
    senders = draw(st.integers(1, max_senders))
    neighbor_sets = draw(
        st.lists(
            st.frozensets(st.integers(0, senders - 1)),
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
    counters = [0] * active.receiver_count
    mask, _, _ = climb(active.sender_to_receivers, counters, 0, flips=1 << 30)
    assert _best_transmit_mask(core, waiting) == mask


@settings(max_examples=100, deadline=None)
@given(cores(), st.data())
def test_climb_stops_at_a_local_maximum(core, data):
    start = data.draw(st.integers(0, (1 << core.sender_count) - 1))
    counters = [(m & start).bit_count() for m in core.neighbor_masks]
    mask, _, _ = climb(core.sender_to_receivers, counters, start, flips=1 << 30)
    here = round_step(core, TransmitSet(core.sender_count, mask))
    assert counters.count(1) == here.reception_count
    for u in range(core.sender_count):
        flipped = TransmitSet(core.sender_count, mask ^ (1 << u))
        assert round_step(core, flipped).reception_count <= here.reception_count
