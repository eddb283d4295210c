"""Seeded sampling of class-structured bipartite instances and the radius-2 wrapper.

An instance is parameterized by a node budget `n` that must be a power of 4:
it has n' = sqrt(n) senders and m = log2(n)/2 receiver classes of n'
receivers each, where class i receivers are adjacent to a uniform random
set of 2**i distinct senders, chosen independently per receiver. The
radius-2 wrapper adds one source node connected to all senders plus enough
degree-1 void nodes to pad the network to exactly n nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetError, InputError
from .model import MAX_N, BipartiteRadioNet, Radius2Net, Receiver
from .util import reseed


@dataclass(frozen=True)
class InstanceParams:
    """Generation parameters: node budget (power of 4) and a 64-bit seed."""

    n: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 4 or self.n & (self.n - 1) or (self.n.bit_length() - 1) % 2:
            raise InputError(f"n={self.n} must be a power of 4 (4, 16, 64, ...)")
        if self.n > MAX_N:
            raise BudgetError(f"n={self.n} is past the node budget of {MAX_N}")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must be a 64-bit unsigned integer")

    @property
    def n_prime(self) -> int:
        """Sender count, sqrt(n)."""
        return 1 << ((self.n.bit_length() - 1) // 2)

    @property
    def class_count(self) -> int:
        """Number of receiver classes, log2(n)/2."""
        return (self.n.bit_length() - 1) // 2


def _receiver_masks(
    gen: random.Random, seed: int, first: int, count: int, sender_count: int, degree: int
) -> list[int]:
    """Neighbor masks of receivers first .. first + count - 1, each a uniform `degree`-subset.

    Receiver i is a partial Fisher-Yates shuffle on the stream of the path
    (seed, i) (`util.reseed`), so it can be regenerated independently of
    iteration order. Swap t takes its offset below width = sender_count - t
    straight from getrandbits(width.bit_length()), redrawn while it is not
    below width: the draw randrange(t, sender_count) makes on CPython 3.11,
    so the stream, and every generated file, stays that of randrange. The
    pool holds each sender as its bit, and the sender swapped into place t
    is ORed into the mask. A full-degree receiver takes every sender and
    its stream feeds no other receiver, so it skips the draws.
    """
    if degree == sender_count:
        return [(1 << sender_count) - 1] * count
    getrandbits = gen.getrandbits
    steps = [(t, sender_count - t, (sender_count - t).bit_length()) for t in range(degree)]
    senders = [1 << u for u in range(sender_count)]
    masks = []
    for index in range(first, first + count):
        reseed(gen, seed, index)
        pool = senders[:]
        mask = 0
        for t, width, bits in steps:
            offset = getrandbits(bits)
            while offset >= width:
                offset = getrandbits(bits)
            swap = t + offset
            mask |= pool[swap]
            pool[swap] = pool[t]
        masks.append(mask)
    return masks


def receiver_draws(params: InstanceParams) -> Iterator[tuple[int, int]]:
    """(class_index, neighbor mask) of every receiver of the instance, in receiver order.

    Receivers are laid out class-major (all of class 1, then class 2, ...),
    and each one's neighbor set is an independent uniform 2**i-subset of the
    senders, bit u set iff sender u is a neighbor. One local generator,
    reseeded per receiver, draws them all.
    """
    n_prime = params.n_prime
    gen = random.Random(0)  # reseeded before every receiver's draws; 0 spares an OS entropy read
    for class_index in range(1, params.class_count + 1):
        first = (class_index - 1) * n_prime
        for mask in _receiver_masks(gen, params.seed, first, n_prime, n_prime, 1 << class_index):
            yield class_index, mask


def sample_instance(params: InstanceParams) -> BipartiteRadioNet:
    """Draw one random instance; deterministic given the seed (see receiver_draws)."""
    receivers = tuple(Receiver(class_index, mask) for class_index, mask in receiver_draws(params))
    return BipartiteRadioNet(params.n_prime, receivers)


def build_radius2(core: BipartiteRadioNet, n: int) -> Radius2Net:
    """Wrap a bipartite core to exactly `n` nodes: source + core + voids.

    Requires n >= core size + 1 (room for the source); the remainder becomes
    void nodes hanging off the source.
    """
    eta = core.sender_count + core.receiver_count
    if n < eta + 1:
        raise InputError(f"n={n} leaves no room for the source above {eta} core nodes")
    return Radius2Net(core, n - eta - 1)
