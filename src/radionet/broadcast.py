"""Multi-message broadcast simulation on radius-2 networks.

The source holds k messages and must get all of them to every receiver.
Policies are centralized with full topology knowledge (strong baselines make
the gap to the counting bound meaningful): a deterministic source phase
pushes the k messages to the senders one per round, then senders relay under
round_robin, greedy_schedule, or random_p scheduling. Content is either
routing (a packet carries one message id m, as the unit vector 1 << m) or
coding (a packet carries any GF(2) coefficient vector). Routing is thus the
special case of coding whose packets are unit vectors: every receiver keeps
one GF(2) basis and decodes at rank k. Message size equals packet size, so
one reception accounts for exactly one message unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .errors import InputError
from .model import BipartiteRadioNet, Radius2Net, bit_members, round_step
from .util import derive_rng
# The two engines are imported only for the benchmark's tracer (perfbench/spans.py).
from .verifier import climb, max_receptions_exact, max_receptions_search

POLICIES = ("round_robin", "greedy_schedule", "random_p")
CONTENT_MODELS = ("routing", "coding")

#: The largest k `simulate` takes, and the largest k x receivers: a receiver's
#: GF(2) basis holds up to k rows of k bits, and routing keeps k holder sets.
MAX_K = 1 << 10
MAX_K_RECEIVERS = 1 << 20

#: The largest `max_rounds` `simulate` takes: a run keeps one series row per round.
MAX_ROUNDS = 1 << 20


class GF2Basis:
    """Row basis over the binary field, vectors as bit masks.

    Insertion eliminates against existing pivots, so rank is maintained
    incrementally and never decreases; each insert raises it by at most 1.
    `pivot_rows` maps each pivot (leading-bit position) to its row. A basis
    built from unit vectors alone has the vectors as rows, so its pivots
    are exactly the positions inserted.
    """

    def __init__(self):
        self.pivot_rows: dict[int, int] = {}

    def insert(self, vector: int) -> bool:
        """Add a vector; True if it was independent of the basis."""
        v = vector
        while v:
            top = v.bit_length() - 1
            row = self.pivot_rows.get(top)
            if row is None:
                self.pivot_rows[top] = v
                return True
            v ^= row
        return False

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


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
    accounting_lower_bound: Union[int, float]
    series: tuple[tuple[int, int, int], ...]


def lower_bound_rounds(k: int, receiver_count: int, maxrec: int) -> Union[int, float]:
    """Counting bound ceil(k * receiver_count / maxrec) on broadcast rounds.

    Every receiver needs at least k receptions and at most maxrec receiver
    receptions happen per round. maxrec == 0 with work to do means no round
    can ever deliver anything: returns math.inf as the unbounded flag.
    """
    if k < 0 or receiver_count < 0:
        raise InputError("k and receiver_count must be nonnegative")
    if maxrec < 0:
        raise InputError("maxrec must be nonnegative")
    demand = k * receiver_count
    if maxrec == 0:
        return 0 if demand == 0 else math.inf
    return -(-demand // maxrec)


def _best_transmit_mask(net: BipartiteRadioNet, waiting: int) -> int:
    """Steepest-ascent transmit set maximizing receptions among waiting receivers.

    `waiting` is a receiver bit set. Climbs from the empty set over the
    senders' reach masks cut down to the waiting receivers, so the result
    is deterministic. Every flip gains at least one reception, so
    receiver_count flips always suffice.
    """
    mask, _, _, _ = climb([m & waiting for m in net.reach_masks], 0, net.receiver_count)
    return mask


def _span_sample(k: int, rng) -> int:
    """Uniform nonzero element of the span of the k unit vectors, GF(2)^k.

    A uniform random subset of the unit vectors is a uniform k-bit mask;
    zero draws are rejected because an all-zero packet carries nothing.
    """
    for _ in range(128):
        pick = rng.getrandbits(k)
        if pick:
            return pick
    return 0  # only reachable with vanishing probability; nothing to send


def run_broadcast(net: Radius2Net, cfg: BroadcastConfig, maxrec: int) -> BroadcastReport:
    """Simulate k-message broadcast until every receiver decodes, or the cap.

    The source phase plays no round: the source alone transmits one message
    (or unit coefficient vector) per round, so every sender hears it and no
    receiver can. After it every sender holds all k messages, or the cap has
    ended the run. Each policy round is then evaluated once with the real
    collision semantics (round_step) on the bipartite core, before the
    payloads are chosen. Only receivers still waiting insert what they hear
    into their GF(2) basis: a decoded receiver's basis spans GF(2)^k, so an
    insert there could never raise its rank. Receivers are bit sets
    throughout. `holds[m]` collects the waiting receivers already delivered
    the unit vector e_m; a transmitter sending e_m skips them, since e_m is
    in their span and the insert could not raise the rank either. Every
    routing packet is a unit vector, so routing receivers insert only the
    messages they lack; coding packets are unit vectors only rarely. Each
    round's receptions are added into bit-plane counters, read out once at
    the end. The minimum decoded dimension is kept incrementally, since
    ranks never fall. Deterministic given (net, cfg). `maxrec`, the most
    receivers one round can serve, enters only the counting bound; the
    caller computes it.
    """
    if not isinstance(net, Radius2Net):
        raise InputError("run_broadcast needs a radius-2 network")
    core = net.core
    k = cfg.k
    receiver_count = core.receiver_count
    bound = lower_bound_rounds(k, receiver_count, maxrec)
    n_senders = core.sender_count
    coding = cfg.content_model == "coding"
    bases = [GF2Basis() for _ in range(receiver_count)]
    reception_planes: list[int] = []  # plane j holds bit j of every receiver's count
    waiting = (1 << receiver_count) - 1 if k else 0
    rounds = min(k, cfg.max_rounds) if waiting else 0  # the source phase
    series: list[tuple[int, int, int]] = [(r, 0, 0) for r in range(1, rounds + 1)]
    holds = [0] * k  # holds[m]: the waiting receivers already delivered 1 << m
    rank_counts = [receiver_count] + [0] * k  # receivers at each rank
    min_rank = 0
    message_cursor = [0] * n_senders  # per-sender cycle position (routing)
    climbed_for, greedy_mask = -1, 0  # the waiting set of the last greedy climb, and its mask

    while waiting and rounds < cfg.max_rounds:
        if cfg.policy == "round_robin":
            mask = 1 << ((rounds - k) % n_senders)
        elif cfg.policy == "greedy_schedule":
            if waiting != climbed_for:  # the climb depends on `waiting` alone
                climbed_for, greedy_mask = waiting, _best_transmit_mask(core, waiting)
            mask = greedy_mask
            if mask == 0:
                break  # nobody reachable can still be helped
        else:  # random_p
            rng = derive_rng(cfg.seed, rounds + 1)
            mask = sum(1 << u for u in range(n_senders) if rng.random() < cfg.p)
        rounds += 1
        hits = 0
        if mask:  # an empty random_p round still costs time
            heard, listeners = round_step(core, mask)
            hits = heard.bit_count()
            _add_to_planes(reception_planes, heard)
            if coding:
                rng = derive_rng(cfg.seed, rounds, 1)
                payloads = {u: _span_sample(k, rng) for u in bit_members(mask)}
            elif cfg.policy == "greedy_schedule":
                payloads = _greedy_message_choice(listeners, waiting, holds)
            else:
                payloads = {}
                for u in bit_members(mask):
                    payloads[u] = 1 << (message_cursor[u] % k)
                    message_cursor[u] += 1
            for u, bits in listeners:
                payload = payloads[u]
                listening = bits & waiting
                if payload.bit_count() == 1:  # e_m: skip the receivers holding it
                    m = payload.bit_length() - 1
                    listening &= ~holds[m]
                    holds[m] |= listening
                for r in bit_members(listening):
                    if bases[r].insert(payload):  # the rank rose by one
                        rank = bases[r].rank
                        rank_counts[rank - 1] -= 1
                        rank_counts[rank] += 1
                        if rank >= k:
                            waiting ^= 1 << r
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
        per_receiver_decoded=tuple(basis.rank >= k for basis in bases),
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


def _greedy_message_choice(
    listeners: tuple[tuple[int, int], ...], waiting: int, holds: list[int]
) -> dict[int, int]:
    """Each heard transmitter's routing packet: the unit vector of the message
    id missing from most of its waiting listeners, the smallest id on ties.

    `listeners` holds round_step's (transmitter, listener bits) pairs,
    `waiting` the receivers not yet decoded and `holds[m]` the waiting
    receivers already delivered id m. A routing receiver holds exactly the
    ids it was delivered, and a decoded listener misses none, so the tally
    of id m is one popcount of the waiting listeners outside `holds[m]`.
    """
    choice = {}
    for u, heard in listeners:
        listening = heard & waiting
        tally = [(listening & ~held).bit_count() for held in holds]
        choice[u] = 1 << tally.index(max(tally))
    return choice
