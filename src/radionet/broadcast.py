"""Multi-message broadcast simulation on radius-2 networks.

The source holds k messages and must get all of them to every receiver.
Policies are centralized with full topology knowledge (strong baselines make
the gap to the counting bound meaningful): a deterministic source phase
pushes the k messages to the senders one per round, then senders relay under
round_robin, greedy_schedule, or random_p scheduling. Content is either
routing (a packet carries one message id m, as the unit vector 1 << m) or
coding (a packet carries any GF(2) coefficient vector). Routing is thus the
special case of coding whose packets are unit vectors: every receiver keeps
a GF(2) basis, its k slots of one row table, and decodes at rank k. Message
size equals packet size, so one reception accounts for exactly one message
unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .model import BipartiteRadioNet, Radius2Net, bit_members, fold
from .util import reseed
from .verifier import climb
# Only the benchmark's tracer (perfbench/spans.py) reads these: it wraps them here.
from .model import round_step
from .verifier import max_receptions_exact, max_receptions_search

POLICIES = ("round_robin", "greedy_schedule", "random_p")
CONTENT_MODELS = ("routing", "coding")

#: The largest k `simulate` takes, and the largest k x receivers: the row table
#: holds k x receivers ints, and routing keeps k holder sets.
MAX_K = 1 << 10
MAX_K_RECEIVERS = 1 << 20

#: The largest `max_rounds` `simulate` takes: a run keeps one series row per round.
MAX_ROUNDS = 1 << 20


def _insert(rows: list[int], base: int, vector: int) -> bool:
    """Add a vector to one receiver's GF(2) basis; True if it was independent.

    The basis is the slots rows[base + p], p < k: the row whose leading bit
    is p, or 0. Insertion eliminates against those rows, so the rank, the
    count of nonzero slots, never decreases and each insert raises it by at
    most 1. A basis built from unit vectors alone has them as its rows.
    """
    while vector:
        slot = base + vector.bit_length() - 1
        row = rows[slot]
        if not row:
            rows[slot] = vector
            return True
        vector ^= row
    return False


@dataclass(frozen=True)
class BroadcastConfig:
    """Run parameters for one broadcast simulation."""

    k: int
    content_model: str = "routing"
    policy: str = "round_robin"
    p: Optional[float] = None
    max_rounds: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.k < 0:
            raise InputError("k must be nonnegative")
        if self.content_model not in CONTENT_MODELS:
            raise InputError(f"content_model must be one of {CONTENT_MODELS}")
        if self.policy not in POLICIES:
            raise InputError(f"policy must be one of {POLICIES}")
        if self.policy == "random_p":
            if self.p is None or not 0.0 < self.p <= 1.0:
                raise InputError("random_p requires a transmit probability 0 < p <= 1")
        elif self.p is not None:
            raise InputError(f"policy {self.policy} takes no probability p")
        if self.max_rounds < 1:
            raise InputError("max_rounds must be positive")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class BroadcastReport:
    """Outcome of a broadcast run plus its counting lower bound.

    series rows are (round, receiver receptions that round, minimum decoded
    dimension across receivers after the round).
    """

    rounds_used: int
    incomplete: bool
    per_receiver_receptions: tuple[int, ...]
    per_receiver_decoded: tuple[bool, ...]
    total_receptions: int
    throughput: Optional[float]
    accounting_lower_bound: int
    series: tuple[tuple[int, int, int], ...]


def lower_bound_rounds(k: int, receiver_count: int, maxrec: int) -> int:
    """Counting bound ceil(k * receiver_count / maxrec) on broadcast rounds.

    Every receiver needs at least k receptions and at most maxrec receiver
    receptions happen per round; maxrec 0 with work to do is an InputError.
    """
    if k < 0 or receiver_count < 0:
        raise InputError("k and receiver_count must be nonnegative")
    if maxrec < 0:
        raise InputError("maxrec must be nonnegative")
    demand = k * receiver_count
    if maxrec == 0 and demand:
        raise InputError(f"maxrec 0 cannot serve {demand} receptions: no round reaches a receiver")
    return -(-demand // maxrec) if demand else 0


def _best_transmit_mask(net: BipartiteRadioNet, waiting: int) -> int:
    """Steepest-ascent transmit set maximizing receptions among waiting receivers.

    `waiting` is a receiver bit set. Climbs from the empty set over the
    senders' reach masks cut down to the waiting receivers, so the result
    is deterministic. Every flip gains at least one reception, so
    receiver_count flips always suffice. Any sender of a waiting receiver
    gains one over the empty set: the mask is empty only if nobody waits.
    """
    mask, _, _, _ = climb([m & waiting for m in net.reach_masks], 0, net.receiver_count)
    return mask


def _span_sample(k: int, rng) -> int:
    """Uniform nonzero element of the span of the k >= 1 unit vectors, GF(2)^k.

    A uniform random subset of the unit vectors is a uniform k-bit mask;
    zero draws are redrawn because an all-zero packet carries nothing.
    """
    pick = rng.getrandbits(k)
    while not pick:
        pick = rng.getrandbits(k)
    return pick


def run_broadcast(net: Radius2Net, cfg: BroadcastConfig, maxrec: int) -> BroadcastReport:
    """Simulate k-message broadcast until every receiver decodes, or the cap.

    The source phase plays no round: the source alone transmits one message
    (or unit coefficient vector) per round, so every sender hears it and no
    receiver can. After it every sender holds all k messages, or the cap has
    ended the run. Each nonempty policy round then folds its transmitters'
    reach masks once with the real collision semantics (`model.fold`), and
    every transmitter, heard or not, takes its payload in ascending order:
    the routing cycle moves on and a coding draw is used up either way. Only
    waiting receivers insert what they hear into their GF(2) basis: a
    decoded receiver's basis spans GF(2)^k, so no insert could raise its
    rank. The bases share one row table, rows[r * k + p] receiver r's row
    with leading bit p, or 0. Receivers are bit sets throughout. `holds[m]`
    collects the waiting receivers already delivered the unit vector e_m; a
    transmitter sending e_m skips them, since e_m is in their span, so
    routing receivers insert only the messages they lack. Receptions go into
    bit-plane counters, read out at the end; the minimum decoded dimension
    is kept incrementally. Deterministic given (net, cfg): `util.reseed`
    puts one generator on the path (seed, t) for the random_p transmitters
    of round t (its series row) and (seed, t, 1) for its coding payloads.
    `maxrec`, the most receivers one round can serve (at least 1 if there
    are receivers: each has a sender), enters only the counting bound; the
    caller computes it.
    """
    if not isinstance(net, Radius2Net):
        raise InputError("run_broadcast needs a radius-2 network")
    core = net.core
    k = cfg.k
    receiver_count = core.receiver_count
    bound = lower_bound_rounds(k, receiver_count, maxrec)
    n_senders = core.sender_count
    reach = core.reach_masks
    coding = cfg.content_model == "coding"
    greedy = cfg.policy == "greedy_schedule"
    greedy_routing = greedy and not coding  # picks each packet from its listeners
    p = cfg.p
    gen = random.Random(0)  # reseeded before every random round; 0 spares an OS entropy read
    draw = gen.random
    rows = [0] * (k * receiver_count)
    ranks = [0] * receiver_count
    reception_planes: list[int] = []  # plane j holds bit j of every receiver's count
    waiting = (1 << receiver_count) - 1 if k else 0
    rounds = min(k, cfg.max_rounds) if waiting else 0  # the source phase
    series: list[tuple[int, int, int]] = [(r, 0, 0) for r in range(1, rounds + 1)]
    holds = [0] * k  # holds[m]: the waiting receivers already delivered 1 << m
    rank_counts = [receiver_count] + [0] * k  # receivers at each rank
    min_rank = 0
    message_cursor = [0] * n_senders  # per-sender cycle position (routing)
    climbed_for, greedy_members = -1, ()  # the waiting set of the last greedy climb, and its senders

    while waiting and rounds < cfg.max_rounds:
        if cfg.policy == "round_robin":
            members = ((rounds - k) % n_senders,)
        elif greedy:
            if waiting != climbed_for:  # the climb depends on `waiting` alone
                climbed_for = waiting
                greedy_members = bit_members(_best_transmit_mask(core, waiting))
            members = greedy_members
        else:  # random_p
            reseed(gen, cfg.seed, rounds + 1)
            members = [u for u in range(n_senders) if draw() < p]
        rounds += 1
        hits = 0
        if members:  # an empty random_p round still costs time
            one, two, _ = fold(reach, members)
            heard = one & ~two
            hits = heard.bit_count()
            _add_to_planes(reception_planes, heard)
            if coding:
                reseed(gen, cfg.seed, rounds, 1)
            for u in members:
                if coding:
                    payload = _span_sample(k, gen)
                elif not greedy_routing:
                    payload = 1 << (message_cursor[u] % k)
                    message_cursor[u] += 1
                listening = reach[u] & heard & waiting
                if not listening:
                    continue
                if greedy_routing:
                    payload = _greedy_message_choice(listening, holds)
                if payload.bit_count() == 1:  # e_m: skip the receivers holding it
                    m = payload.bit_length() - 1
                    listening &= ~holds[m]
                    holds[m] |= listening
                while listening:
                    low = listening & -listening
                    listening ^= low
                    r = low.bit_length() - 1
                    if _insert(rows, r * k, payload):  # the rank rose by one
                        rank = ranks[r] = ranks[r] + 1
                        rank_counts[rank - 1] -= 1
                        rank_counts[rank] += 1
                        if rank >= k:
                            waiting ^= low
            while min_rank < k and not rank_counts[min_rank]:
                min_rank += 1
        series.append((rounds, hits, min_rank))

    receptions = [0] * receiver_count
    for j, plane in enumerate(reception_planes):
        for r in bit_members(plane):
            receptions[r] += 1 << j
    return BroadcastReport(
        rounds_used=rounds,
        incomplete=bool(waiting),
        per_receiver_receptions=tuple(receptions),
        per_receiver_decoded=tuple(rank >= k for rank in ranks),
        total_receptions=sum(receptions),
        throughput=(k / rounds) if rounds else None,
        accounting_lower_bound=bound,
        series=tuple(series),
    )


def _add_to_planes(planes: list[int], bits: int) -> None:
    """Add one to the bit-plane counter of every receiver in `bits`, with ripple carry."""
    for j, plane in enumerate(planes):
        if not bits:
            return
        planes[j] = plane ^ bits
        bits &= plane  # the carry into plane j + 1
    if bits:
        planes.append(bits)


def _greedy_message_choice(listening: int, holds: list[int]) -> int:
    """A heard transmitter's routing packet: the unit vector of the message
    id missing from most of its waiting listeners, the smallest id on ties.

    `listening` holds the waiting receivers that hear the transmitter and
    `holds[m]` the waiting receivers already delivered id m. A routing
    receiver holds exactly the ids it was delivered, and a decoded listener
    misses none, so the tally of id m is one popcount of the listeners
    outside `holds[m]`.
    """
    tally = [(listening & ~held).bit_count() for held in holds]
    return 1 << tally.index(max(tally))
