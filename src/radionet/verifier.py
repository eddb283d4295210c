"""Maximization of single-round receptions over transmit sets.

Exhaustive enumeration meets in the middle: it splits the senders into a
low half of n'//2 and a high half, and tables, for every subset of each
half, the receivers with no and with exactly one neighbor in it as uint64
bit sets. A receiver hears a transmit set iff it is at one in one half and
at zero in the other, so the counts of all 2**n' sets are integer popcounts
of two ANDs of table rows, exact, from two tables of about 2**(n'/2) rows.
Beyond the enumeration budget a steepest-ascent hill climb with restarts
gives a reproducible lower bound on the true maximum. Both report a witness
transmit set, tie-broken to the smallest bit mask so results do not depend
on the enumeration order; the enumeration lays out each block of counts so
that its flat index ascends with the mask. numpy is imported inside the
enumeration's three functions only, so no other command loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetError, InputError
# sample_instance and round_step stay module attributes here: the
# benchmark's tracer (perfbench/spans.py) wraps them by name.
from .instance import InstanceParams, receiver_draws, sample_instance
from .model import BipartiteRadioNet, bit_mask, bit_members, fold, round_step
from .util import derive_rng

#: Exhaustive enumeration is capped at 2**26 subsets.
ENUMERATION_BUDGET_BITS = 26

#: The most random restarts `verify --search` takes; every start is built before the climbs.
MAX_RESTARTS = 1 << 16

#: Candidate transmit sets evaluated per numpy pass of exhaustive enumeration,
#: or 2**(n'//2) when that is more: a pass covers the whole low-half table.
CHUNK_BITS = 14


@dataclass(frozen=True)
class MaxReceptionResult:
    """Best single-round reception count found, with its witness transmit set."""

    best_count: int
    witness: int  # bit u set iff sender u transmits
    method: str  # "exact" | "search"
    subsets_examined: int


def max_receptions_exact(net: BipartiteRadioNet) -> MaxReceptionResult:
    """Exact maximum receptions over all transmit sets, by full enumeration.

    A receiver with neighbor mask m hears candidate T iff popcount(m & T)
    == 1. Split the senders into a low half of L = n'//2 bits and a high
    half of the rest, T = (t_H, t_L): the receiver hears T iff the pair
    (popcount(m_H & t_H), popcount(m_L & t_L)) is (1, 0) or (0, 1). So two
    tables of 2**L and 2**(n'-L) rows, the receivers with no and with
    exactly one neighbor in each half subset as bit sets, give the count of
    every candidate as popcount(one_H(t_H) & zero_L(t_L) | zero_H(t_H) &
    one_L(t_L)): a product of the two tables with AND for multiplication
    and popcount as the sum. The counts are integers, so they are exact.

    The high rows go one block at a time, each block covering at most
    2**max(CHUNK_BITS, L) candidates. In a block starting at high row h0
    the flat index i is the mask (h0 << L) + i, ascending, so the first
    argmax is the smallest mask of the block and a strict comparison across
    ascending blocks keeps the smallest bit mask achieving the maximum as
    the witness. Raises BudgetError above 2**26 subsets; use
    max_receptions_search there.
    """
    n_prime = net.sender_count
    if n_prime > ENUMERATION_BUDGET_BITS:
        raise BudgetError(
            f"{n_prime} senders means 2^{n_prime} subsets, past the 2^"
            f"{ENUMERATION_BUDGET_BITS} enumeration budget; use max_receptions_search"
        )
    import numpy as np

    low_bits = n_prime // 2
    receivers_of = _receiver_words(net)
    zero_low, one_low = _half_tables(receivers_of[:low_bits])
    zero_high, one_high = _half_tables(receivers_of[low_bits:])
    high_rows = 1 << (n_prime - low_bits)
    rows = min(1 << max(CHUNK_BITS - low_bits, 0), high_rows)
    counts = np.empty((rows, 1 << low_bits), dtype=np.int64)
    best, best_mask = -1, 0
    for h0 in range(0, high_rows, rows):
        counts[:] = 0
        for zero_l, one_l, zero_h, one_h in zip(zero_low, one_low, zero_high, one_high):
            hits = one_h[h0 : h0 + rows, None] & zero_l
            hits |= zero_h[h0 : h0 + rows, None] & one_l
            counts += np.bitwise_count(hits)
        top = int(counts.argmax())  # first maximum: the smallest mask
        if counts.flat[top] > best:
            best, best_mask = int(counts.flat[top]), (h0 << low_bits) + top
    return MaxReceptionResult(
        best_count=best,
        witness=best_mask,
        method="exact",
        subsets_examined=1 << n_prime,
    )


def _receiver_words(net: BipartiteRadioNet) -> np.ndarray:
    """Each sender's reach mask, packed 64 receivers to a uint64 word, low receivers first.

    Senders x ceil(R / 64); the bits past the last receiver are 0.
    """
    import numpy as np

    size = 8 * -(-net.receiver_count // 64)
    packed = b"".join(m.to_bytes(size, "little") for m in net.reach_masks)
    return np.frombuffer(packed, dtype="<u8").reshape(net.sender_count, size // 8)


def _half_tables(receivers_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The receivers with no and with exactly one neighbor in every subset of some senders.

    `receivers_of` holds one row of receiver words per sender, sender u
    standing for bit u. Returns (zero, one), each words x 2**senders:
    column t holds the receivers with no neighbor / exactly one neighbor
    among the senders of bit mask t. Built by doubling: adding sender u to
    the subsets without it, a receiver stays at zero iff u misses it and is
    at one iff it was at one and u misses it or was at zero and u hits it.
    `zero` starts with every bit set; bits past the last receiver never
    reach `one`, so they are never counted.
    """
    import numpy as np

    senders, words = receivers_of.shape
    zero = np.empty((words, 1 << senders), dtype=np.uint64)
    one = np.empty_like(zero)
    zero[:, 0] = ~np.uint64(0)
    one[:, 0] = 0
    for u, hit in enumerate(receivers_of[:, :, None]):
        known, added = slice(0, 1 << u), slice(1 << u, 2 << u)
        zero[:, added] = zero[:, known] & ~hit
        one[:, added] = (one[:, known] & ~hit) | (zero[:, known] & hit)
    return zero, one


def climb(reach: Sequence[int], mask: int, flips: int) -> tuple[int, int, int, int]:
    """Steepest-ascent single-sender flips from `mask`, the one climb of the package.

    `reach[u]` holds the receivers that count among those of sender u, as a
    bit mask. Each step applies the flip with the largest positive gain in
    receivers at exactly one transmitting neighbor (smallest sender index on
    ties), until none improves or `flips` are spent. The gains come from
    `model.fold`'s sets: a sender turning on gains its receivers at none and
    loses those at exactly one; one turning off gains those at exactly two
    and loses those at exactly one. A flip on extends the sets in place, a
    flip off folds them again. Returns the final mask, the flips left, the
    number of scans made and the receivers at exactly one under the mask.
    """
    one, two, three = fold(reach, bit_members(mask))
    scans = 0
    while flips > 0:
        none, sole, pair = ~one, one & ~two, two & ~three
        best_gain, best_flip = 0, -1
        for u, m in enumerate(reach):
            gain = (m & (pair if mask >> u & 1 else none)).bit_count() - (m & sole).bit_count()
            if gain > best_gain:  # first maximum: the smallest index
                best_gain, best_flip = gain, u
        scans += 1
        if best_flip < 0:
            break
        flips -= 1
        mask ^= 1 << best_flip
        if mask >> best_flip & 1:
            m = reach[best_flip]
            three |= two & m
            two |= one & m
            one |= m
        else:
            one, two, three = fold(reach, bit_members(mask))
    return mask, flips, scans, (one & ~two).bit_count()


def max_receptions_search(
    net: BipartiteRadioNet, restarts: int = 32, seed: int = 0
) -> MaxReceptionResult:
    """Steepest-ascent single-flip hill climb; a lower bound on the true maximum.

    Starts from every singleton set plus `restarts` random sets of size
    n'/2, n'/4, ... cycling; each climb repeatedly applies the best
    improving flip (smallest sender index on ties) until none improves or
    the flip budget of 64 n', shared by all starts, runs out. Deterministic
    given the seed.
    """
    if restarts < 1:
        raise InputError("restarts must be positive")
    n_prime = net.sender_count
    rng = derive_rng(seed)

    starts = [1 << u for u in range(n_prime)]
    size_levels = max(1, n_prime.bit_length() - 1)
    for t in range(restarts):
        size = max(1, n_prime >> (1 + (t % size_levels)))
        starts.append(bit_mask(rng.sample(range(n_prime), size)))

    best = -1
    best_mask = 0
    examined = 0
    flips_left = 64 * n_prime
    for start in starts:
        mask, flips_left, scans, total = climb(net.reach_masks, start, flips_left)
        examined += 1 + scans * n_prime
        if total > best or (total == best and mask < best_mask):
            best = total
            best_mask = mask
    return MaxReceptionResult(
        best_count=best,
        witness=best_mask,
        method="search",
        subsets_examined=examined,
    )


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    trials: int


def monte_carlo_expectation(
    params: InstanceParams, s: int, trials: int, seed: int = 0
) -> MonteCarloEstimate:
    """Average receptions over fresh random instances for a fixed transmit set.

    Each trial draws a new instance and transmits from the first `s`
    senders (any fixed s-set gives the same distribution, since neighbor
    sets are exchangeable over senders). A trial draws its receivers'
    neighbor sets with the instance generator and counts those that hear
    exactly one transmitter; it builds no net. Returns the sample mean and
    its standard error.
    """
    if not 0 <= s <= params.n_prime:
        raise InputError(f"s={s} outside [0, {params.n_prime}]")
    if trials < 1:
        raise InputError("trials must be positive")
    transmitters = (1 << s) - 1
    rng = derive_rng(seed)
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        trial = InstanceParams(params.n, rng.getrandbits(64))
        count = sum((mask & transmitters).bit_count() == 1 for _, mask in receiver_draws(trial))
        total += count
        total_sq += count * count
    mean = total / trials
    if trials > 1:
        variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0
    return MonteCarloEstimate(mean=mean, std_error=std_error, trials=trials)
