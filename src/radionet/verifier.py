"""Maximization of single-round receptions over transmit sets.

Exhaustive enumeration evaluates all 2**n' sender subsets as chunks of
uint64 bit masks against each receiver's neighbor mask. Beyond the
enumeration budget a steepest-ascent hill climb with restarts gives a
reproducible lower bound on the true maximum. Both report a witness
transmit set, tie-broken to the smallest bit mask so results do not depend
on the enumeration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import BudgetError, InputError
# sample_instance and round_step stay module attributes here: the
# benchmark's tracer (perfbench/spans.py) wraps them by name.
from .instance import InstanceParams, receiver_draws, sample_instance
from .model import BipartiteRadioNet, TransmitSet, bit_mask, round_step, sole_sender
from .util import derive_rng

#: Exhaustive enumeration is capped at 2**26 subsets.
ENUMERATION_BUDGET_BITS = 26

#: Candidate transmit sets evaluated per numpy pass of exhaustive enumeration.
CHUNK_BITS = 14

#: Flip gain weights indexed by a receiver's transmitting-neighbor count
#: (clipped at 3): column 0 for a sender turning on, column 1 turning off.
_FLIP_WEIGHTS = np.array([[1, 0], [-1, -1], [0, 1], [0, 0]], dtype=np.float64)


@dataclass(frozen=True)
class MaxReceptionResult:
    """Best single-round reception count found, with its witness transmit set."""

    best_count: int
    witness: TransmitSet
    method: str  # "exact" | "search"
    subsets_examined: int


def max_receptions_exact(net: BipartiteRadioNet) -> MaxReceptionResult:
    """Exact maximum receptions over all transmit sets, by full enumeration.

    Evaluates the 2**n' candidates in ascending chunks of uint64 masks; a
    receiver with neighbor mask m hears candidate T iff popcount(m & T) == 1.
    The witness is the smallest bit mask achieving the maximum. Raises
    BudgetError above 2**26 subsets; use max_receptions_search there.
    """
    n_prime = net.sender_count
    if n_prime > ENUMERATION_BUDGET_BITS:
        raise BudgetError(
            f"{n_prime} senders means 2^{n_prime} subsets, past the 2^"
            f"{ENUMERATION_BUDGET_BITS} enumeration budget; use max_receptions_search"
        )
    receiver_masks = np.array(net.neighbor_masks, dtype=np.uint64)
    chunk = 1 << min(CHUNK_BITS, n_prime)
    offsets = np.arange(chunk, dtype=np.uint64)
    best, best_mask = -1, 0
    for base in range(0, 1 << n_prime, chunk):
        candidates = offsets + np.uint64(base)
        counts = np.zeros(chunk, dtype=np.int64)
        for m in receiver_masks:
            counts += np.bitwise_count(candidates & m) == 1
        top = int(counts.argmax())  # first maximum: the smallest mask
        if counts[top] > best:
            best, best_mask = int(counts[top]), base + top
    return MaxReceptionResult(
        best_count=best,
        witness=TransmitSet(n_prime, best_mask),
        method="exact",
        subsets_examined=1 << n_prime,
    )


def _members(mask: int, width: int) -> np.ndarray:
    """The bits of `mask` as a 0/1 int64 vector of length `width`."""
    return np.array([(mask >> u) & 1 for u in range(width)], dtype=np.int64)


def climb(
    incidence: np.ndarray, counters: np.ndarray, mask: int, flips: int
) -> tuple[int, int, int]:
    """Steepest-ascent single-sender flips from `mask`, the one climb of the package.

    `incidence` is a senders x receivers 0/1 matrix of the receivers that
    count and `counters[r]` the transmitting neighbors of receiver r under
    `mask`; the int64 counters are updated in place. Each step applies the
    flip with the largest positive gain in receivers at exactly one
    (smallest sender index on ties), until none improves or `flips` are
    spent. All gains of a step are one product `incidence @ w`, with w per
    receiver (c==0)-(c==1) for a sender turning on and (c==2)-(c==1) for
    one turning off. Returns the final mask, the flips left and the number
    of scans made.
    """
    matrix = incidence.astype(np.float64)  # float products run through BLAS
    on = _members(mask, len(incidence)).astype(bool)
    scans = 0
    while flips > 0:
        both = matrix @ _FLIP_WEIGHTS.take(counters, axis=0, mode="clip")
        gains = np.where(on, both[:, 1], both[:, 0])
        best_flip = int(gains.argmax())  # first maximum: the smallest index
        scans += 1
        if gains[best_flip] <= 0:
            break
        flips -= 1
        mask ^= 1 << best_flip
        on[best_flip] = not on[best_flip]
        if on[best_flip]:
            counters += incidence[best_flip]
        else:
            counters -= incidence[best_flip]
    return mask, flips, scans


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
        members = rng.sample(range(n_prime), size)
        mask = 0
        for u in members:
            mask |= 1 << u
        starts.append(mask)

    best = -1
    best_mask = 0
    examined = 0
    flips_left = 64 * n_prime
    for start in starts:
        counters = _members(start, n_prime) @ net.incidence
        mask, flips_left, scans = climb(net.incidence, counters, start, flips_left)
        examined += 1 + scans * n_prime
        total = int(np.count_nonzero(counters == 1))
        if total > best or (total == best and mask < best_mask):
            best = total
            best_mask = mask
    return MaxReceptionResult(
        best_count=best,
        witness=TransmitSet(n_prime, best_mask),
        method="search",
        subsets_examined=examined,
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Comparison of the achieved per-round maximum against a c*n' threshold."""

    best_count: int
    method: str
    witness: TransmitSet
    threshold: Fraction
    receiver_count: int
    fraction: Optional[float]  # best_count / receiver_count
    fraction_bound: Optional[Fraction]  # threshold / receiver_count = c / class_count
    passed: bool
    vacuous: bool  # threshold >= receiver_count: nothing to certify at this scale


def check_lemma_threshold(
    net: BipartiteRadioNet, c: Union[int, str, Fraction], result: MaxReceptionResult
) -> ThresholdReport:
    """Judge whether `result`, a maximization on `net`, reaches more than c*n' receivers.

    Passes when best_count <= c * sender_count (equality passes). When the
    threshold is at or above the receiver count the check is flagged
    vacuous: every net satisfies it trivially at that scale. The fraction
    bound restates the threshold per receiver, threshold / receiver_count.
    """
    c = Fraction(c)
    if c <= 0:
        raise InputError("threshold factor c must be positive")
    threshold = c * net.sender_count
    receiver_count = net.receiver_count
    fraction = result.best_count / receiver_count if receiver_count else None
    fraction_bound = threshold / receiver_count if receiver_count else None
    return ThresholdReport(
        best_count=result.best_count,
        method=result.method,
        witness=result.witness,
        threshold=threshold,
        receiver_count=receiver_count,
        fraction=fraction,
        fraction_bound=fraction_bound,
        passed=result.best_count <= threshold,
        vacuous=threshold >= receiver_count,
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
        count = 0
        for _, neighbors in receiver_draws(trial):
            if sole_sender(bit_mask(neighbors), transmitters) is not None:
                count += 1
        total += count
        total_sq += count * count
    mean = total / trials
    if trials > 1:
        variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0
    return MonteCarloEstimate(mean=mean, std_error=std_error, trials=trials)
