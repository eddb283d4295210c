"""Seeded sampling of class-structured bipartite instances and the radius-2 wrapper.

An instance is parameterized by a node budget `n` that must be a power of 4:
it has n' = sqrt(n) senders and m = log2(n)/2 receiver classes of n'
receivers each, where class i receivers are adjacent to a uniform random
set of 2**i distinct senders, chosen independently per receiver. The
radius-2 wrapper adds one source node connected to all senders plus enough
degree-1 void nodes to pad the network to exactly n nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InputError
from .model import BipartiteRadioNet, Radius2Net, Receiver
from .util import derive_rng


@dataclass(frozen=True)
class InstanceParams:
    """Generation parameters: node budget (power of 4) and a 64-bit seed."""

    n: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 4 or self.n & (self.n - 1) or (self.n.bit_length() - 1) % 2:
            raise InputError(f"n={self.n} must be a power of 4 (4, 16, 64, ...)")
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

    @property
    def receiver_count(self) -> int:
        return self.n_prime * self.class_count


def _receiver_neighbors(seed: int, receiver_index: int, sender_count: int, degree: int) -> tuple[int, ...]:
    """Uniform random `degree`-subset of senders for one receiver.

    Partial Fisher-Yates shuffle seeded from (seed, receiver_index) only, so
    every receiver can be regenerated independently of iteration order or
    worker layout. Swap t takes its offset below width = sender_count - t
    straight from getrandbits(width.bit_length()), redrawn while it is not
    below width: the draw randrange(t, sender_count) makes on CPython 3.11,
    so the stream, and every generated file, stays that of randrange. A
    full-degree receiver takes every sender whatever the draws, and its
    generator feeds no other receiver, so it skips them.
    """
    if degree == sender_count:
        return tuple(range(sender_count))
    getrandbits = derive_rng(seed, receiver_index).getrandbits
    pool = list(range(sender_count))
    for t in range(degree):
        width = sender_count - t
        bits = width.bit_length()
        offset = getrandbits(bits)
        while offset >= width:
            offset = getrandbits(bits)
        swap = t + offset
        pool[t], pool[swap] = pool[swap], pool[t]
    return tuple(sorted(pool[:degree]))


def receiver_draws(params: InstanceParams) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(class_index, neighbors) of every receiver of the instance, in receiver order.

    Receivers are laid out class-major (all of class 1, then class 2, ...),
    and each one's neighbor set is an independent uniform 2**i-subset of the
    senders.
    """
    n_prime = params.n_prime
    index = 0
    for class_index in range(1, params.class_count + 1):
        degree = 1 << class_index
        for _ in range(n_prime):
            yield class_index, _receiver_neighbors(params.seed, index, n_prime, degree)
            index += 1


def sample_instance(params: InstanceParams) -> BipartiteRadioNet:
    """Draw one random instance; deterministic given the seed (see receiver_draws)."""
    receivers = tuple(Receiver(class_index, nbrs) for class_index, nbrs in receiver_draws(params))
    return BipartiteRadioNet(params.n_prime, receivers, class_count=params.class_count)


def build_radius2(core: BipartiteRadioNet, n: int) -> Radius2Net:
    """Wrap a bipartite core to exactly `n` nodes: source + core + voids.

    Requires n >= core size + 1 (room for the source); the remainder becomes
    void nodes hanging off the source.
    """
    eta = core.sender_count + core.receiver_count
    if n < eta + 1:
        raise InputError(f"n={n} leaves no room for the source above {eta} core nodes")
    return Radius2Net(core, n - eta - 1)
